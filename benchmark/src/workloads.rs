//! The five reference workloads.
//!
//! Each workload is a fixed **catalogue** of ops — one op is one
//! `(Scenario, run seed)` execution — and `--seed` decides the order the
//! catalogue is executed in. The catalogue itself does not change with the
//! seed, on purpose: the modelled protocols are randomised (round counts
//! are geometric, committees are Poisson), so resampling run seeds moves
//! the amount of modelled work per run by ±25 % per op and makes the
//! golden safety flags probabilistic at λ = 16. A benchmark that has to
//! resolve a 10 % change in host time, keep `honest_kbits_per_op` and
//! `rounds_per_op` exact, and report no spurious failure must hold the
//! modelled work fixed. What the seed does vary is the history (allocator
//! state, `Group` table cache, branch predictors) each op runs after.

use ba_bench::{gauntlet_sweeps, Grid, InputPattern, ProtocolSpec, Scenario};
use ba_core::cert::CertEncoding;
use ba_sim::{FaultPlan, PopulationMode, TransportSpec};

/// The workload names, in reporting order (the same list as
/// `BENCHMARK.json`'s `workloads`).
pub const WORKLOADS: [&str; 5] =
    ["real_crypto", "dense_signed", "sparse_population", "gauntlet_wire", "net_chaos"];

/// How an op reaches the program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Path {
    /// `Scenario::execute`.
    Direct,
    /// `encode_descriptor` → `wire::worker_loop` over in-memory buffers →
    /// `decode_reply` → `to_json` → `diff_reports` against the in-process
    /// report (the `--workers` path minus process spawn).
    Wire,
}

/// One `(Scenario, run seed)` execution.
#[derive(Clone, Debug)]
pub struct Op {
    /// Index into the catalogue: stable across `--seed` values, and the key
    /// of the golden file.
    pub id: usize,
    /// Index into [`Workload::cells`].
    pub cell: usize,
    pub seed: u64,
    /// `"<cell label>#<run seed>"`.
    pub label: String,
}

/// One distinct scenario of a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// The sweep the cell belongs to: the gauntlet entry's title, or the
    /// workload name (the `sweep` field of wire descriptors and reports).
    pub sweep: String,
    pub scenario: Scenario,
}

/// A generated workload: the distinct cells and the op list in execution
/// order.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    pub cells: Vec<Cell>,
    /// The catalogue in `--seed` order.
    pub ops: Vec<Op>,
    /// Seeds per cell the traced pass covers (the traced run executes every
    /// op twice, traced and untraced, and must fit the same time budget).
    pub trace_seeds: u64,
}

impl Workload {
    pub fn cell(&self, op: &Op) -> &Cell {
        &self.cells[op.cell]
    }

    /// The ops of the traced pass, in execution order.
    pub fn traced_ops(&self) -> Vec<&Op> {
        self.ops.iter().filter(|op| op.seed < self.trace_seeds).collect()
    }
}

fn subq_half(lambda: f64) -> ProtocolSpec {
    ProtocolSpec::SubqHalf { lambda, max_iters: None }
}

/// The fixed catalogue of `name`: the workload with its op list still
/// empty, and the number of run seeds (`0..seeds`) every cell runs under.
fn catalogue(name: &str) -> (Workload, u64) {
    let direct = |name: &'static str, scenarios: Vec<Scenario>, seeds: u64, trace_seeds| {
        let cells = scenarios
            .into_iter()
            .map(|scenario| Cell { sweep: name.to_string(), scenario })
            .collect();
        (Workload { name, path: Path::Direct, cells, ops: Vec::new(), trace_seeds }, seeds)
    };
    match name {
        // The e9 cell: ba-crypto + ba-fmine::real do most of the work (VRF
        // evaluate/verify, DLEQ batches, per-run trusted setup).
        "real_crypto" => direct(
            "real_crypto",
            vec![Scenario::new("subq_half/real", 96, subq_half(24.0)).real_elig()],
            24,
            24,
        ),
        // Lockstep, dense, SigMode::Ideal: node steps, certificate
        // assembly/verification and the engine's n² fan-out dominate.
        "dense_signed" => direct(
            "dense_signed",
            vec![
                Scenario::new("quadratic_half/n=128", 128, ProtocolSpec::QuadraticHalf),
                Scenario::new("mr_half/n=256", 256, ProtocolSpec::MomoseRenHalf { views: 8 }),
                Scenario::new("cks_adaptive/n=256", 256, ProtocolSpec::CksAdaptive { phases: 8 }),
                Scenario::new("warmup_third/n=256", 256, ProtocolSpec::WarmupThird { epochs: 8 }),
                Scenario::new("subq_half/n=256", 256, subq_half(24.0)),
                Scenario::new("quadratic_half/n=128/aggregate", 128, ProtocolSpec::QuadraticHalf)
                    .cert_encoding(CertEncoding::Aggregate),
            ],
            6,
            6,
        ),
        // The e12 smoke cell: the population engine and n·tags would_mine
        // probes dominate, engine.rs is not executed, ≈ 300 nodes live.
        "sparse_population" => direct(
            "sparse_population",
            vec![Scenario::new("subq_half/n=100000/sparse", 100_000, subq_half(32.0))
                .population(PopulationMode::Sparse)
                .inputs(InputPattern::Unanimous(true))],
            2,
            1,
        ),
        // Many short executions through the distributed-sweep wire: every
        // adversary × corruption model × family of the e11 smoke grid.
        "gauntlet_wire" => {
            let cells = gauntlet_sweeps(Grid::Smoke, 1)
                .into_iter()
                .flat_map(|sweep| {
                    let title = sweep.title;
                    sweep
                        .scenarios
                        .into_iter()
                        .map(move |scenario| Cell { sweep: title.clone(), scenario })
                })
                .collect();
            let name = "gauntlet_wire";
            (Workload { name, path: Path::Wire, cells, ops: Vec::new(), trace_seeds: 1 }, 1)
        }
        // The same families through transport::latency and transport::fault
        // instead of the lockstep fast path, stalls included.
        "net_chaos" => {
            let spec = |s: &str| s.parse::<TransportSpec>().expect("a canonical transport spec");
            let plan = |s: &str| s.parse::<FaultPlan>().expect("a canonical fault plan");
            let (jitter, gst) = (spec("latency:dist=uniform:1..5"), spec("latency:gst_ms=50"));
            let subq_third = ProtocolSpec::SubqThird { lambda: 24.0, epochs: 8 };
            direct(
                "net_chaos",
                vec![
                    Scenario::new("subq_half/n=256/jitter", 256, subq_half(24.0)).transport(jitter),
                    Scenario::new("subq_half/n=256/gst", 256, subq_half(24.0)).transport(gst),
                    Scenario::new("subq_third/n=256/jitter", 256, subq_third).transport(jitter),
                    Scenario::new(
                        "mr_half/n=128/gst+faults",
                        128,
                        ProtocolSpec::MomoseRenHalf { views: 8 },
                    )
                    .transport(gst)
                    .faults(plan("drop:p=0.05,dup:p=0.05,reorder:p=0.2")),
                    // The e15 `storm` plan.
                    Scenario::new(
                        "warmup_third/n=128/storm",
                        128,
                        ProtocolSpec::WarmupThird { epochs: 8 },
                    )
                    .faults(plan("drop:p=0.1,dup:p=0.1,reorder:p=0.1:budget=2,sched=adversarial")),
                ],
                12,
                12,
            )
        }
        other => panic!("unknown workload {other:?} (want one of {WORKLOADS:?})"),
    }
}

/// `splitmix64`, the generator's only source of randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates workload `name` for `--seed seed`: a pure function of its
/// arguments.
pub fn generate(name: &str, seed: u64) -> Workload {
    let (mut workload, seeds) = catalogue(name);
    let mut ops: Vec<Op> = Vec::new();
    for (cell, Cell { sweep, scenario }) in workload.cells.iter_mut().enumerate() {
        // Closed loop, one client, one thread.
        scenario.sim_threads = 1;
        for s in 0..seeds {
            let run_seed = scenario.seed_offset + s;
            let label = format!("{sweep}/{}#{run_seed}", scenario.label);
            ops.push(Op { id: ops.len(), cell, seed: run_seed, label });
        }
    }
    // Fisher–Yates over the catalogue.
    let mut state = seed ^ 0xBA5E_BA11_5EED_0000;
    for i in (1..ops.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        ops.swap(i, j);
    }
    workload.ops = ops;
    workload
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        for name in WORKLOADS {
            let (a, b) = (generate(name, 11), generate(name, 11));
            let key = |w: &Workload| -> Vec<(usize, u64, String)> {
                w.ops.iter().map(|op| (op.id, op.seed, op.label.clone())).collect()
            };
            assert_eq!(key(&a), key(&b), "{name}: same seed, same op list");
            assert_eq!(a.cells, b.cells);
            let other = generate(name, 12);
            if a.ops.len() > 2 {
                assert_ne!(key(&a), key(&other), "{name}: another seed, another order");
            }
            let mut ids: Vec<usize> = other.ops.iter().map(|op| op.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..a.ops.len()).collect::<Vec<_>>(), "{name}: same catalogue");
        }
    }

    #[test]
    fn catalogue_sizes_match_the_readme() {
        let sizes: Vec<(usize, usize)> = WORKLOADS
            .iter()
            .map(|name| {
                let w = generate(name, 0);
                (w.cells.len(), w.ops.len())
            })
            .collect();
        assert_eq!(sizes, [(1, 24), (6, 36), (1, 2), (142, 142), (5, 60)]);
        let labels: Vec<String> =
            generate("gauntlet_wire", 0).ops.iter().map(|op| op.label.clone()).collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "op labels are unique golden keys");
    }
}
