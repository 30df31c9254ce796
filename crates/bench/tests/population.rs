//! Sparse-population regression tests at the bench layer.
//!
//! The contract under test: [`ba_sim::PopulationMode::Sparse`] is a pure
//! resource knob. Sparse-capable cells (mined iteration/epoch families
//! under lockstep delivery) produce **identical** protocol observables over
//! a lazy live set and an all-live one at every sim-thread count — the only
//! licensed difference is the substrate gauges
//! (`peak_live_nodes`/`peak_resident_msgs`), which measure the engine
//! itself (CI diffs them away with `--ignore-observable 'peak_*'`). Every
//! other cell silently runs all-live and matches on *every* observable,
//! gauges included. On top of the identity, the peak-live gauge must scale
//! with the committee, not the population.
//!
//! Layers:
//!
//! * the full e11 smoke gauntlet under `--population sparse`, compared
//!   to the dense run modulo `peak_*` AND byte-compared to the committed
//!   CI baseline (`baselines/smoke/BENCH_e11_gauntlet.json`);
//! * an explicit family × adversary × delivery matrix with named
//!   adversary-attribution observables (`dropped_sends`, `corrupt_bits`,
//!   ...) — lazily instantiated nodes must attribute exactly like dense
//!   ones — and both sides of the lazy/all-live decision;
//! * a property test over random small scenarios;
//! * pinned goldens for two sparse cells;
//! * the memory ceiling: `peak_live_nodes` ≪ n on a population-scale cell.

use ba_bench::gauntlet::gauntlet_sweeps;
use ba_bench::{
    diff_reports, to_json, AdversarySpec, Grid, InputPattern, ProtocolSpec, RunRecord, Scenario,
    Sweep, SweepReport, Tolerance,
};
use ba_sim::{CorruptionModel, FaultPlan, PopulationMode, TransportSpec};
use proptest::prelude::*;

/// The CI tolerance for cross-engine comparison: exact on every protocol
/// observable, ignoring only the engine-substrate gauges.
fn modulo_gauges() -> Tolerance {
    Tolerance { ignore: vec!["peak_*".into()], ..Tolerance::default() }
}

/// Strips the substrate gauges from records for direct record equality.
fn without_gauges(runs: &[RunRecord]) -> Vec<RunRecord> {
    runs.iter()
        .map(|r| RunRecord {
            seed: r.seed,
            values: r
                .values
                .iter()
                .filter(|(name, _)| !name.starts_with("peak_"))
                .cloned()
                .collect(),
        })
        .collect()
}

/// Runs the whole smoke gauntlet under the given engine/thread combination.
fn gauntlet_reports(population: PopulationMode, sim_threads: usize) -> Vec<SweepReport> {
    let mut sweeps = gauntlet_sweeps(Grid::Smoke, 2);
    for sweep in &mut sweeps {
        for scenario in &mut sweep.scenarios {
            scenario.population = population;
            scenario.sim_threads = sim_threads;
        }
    }
    sweeps.iter().map(|s| s.run(2)).collect()
}

/// The satellite acceptance check: the full e11 smoke gauntlet — every
/// family, every adversary, every corruption model — rendered under the
/// sparse engine matches the dense render on every protocol observable
/// (the CI comparison: exact modulo `peak_*` gauges), and the dense render
/// is byte-identical to the committed CI baseline.
#[test]
fn sparse_gauntlet_byte_identical_to_dense_and_committed_baseline() {
    let dense = to_json("e11_gauntlet", &gauntlet_reports(PopulationMode::Dense, 1));
    for sim_threads in [1usize, 4] {
        let sparse =
            to_json("e11_gauntlet", &gauntlet_reports(PopulationMode::Sparse, sim_threads));
        let diff = diff_reports(&dense, &sparse, &modulo_gauges()).expect("both parse");
        assert!(
            diff.passed(),
            "sparse gauntlet (sim_threads={sim_threads}) diverged from dense:\n{}",
            diff.render()
        );
    }
    let baseline_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/smoke/BENCH_e11_gauntlet.json");
    let committed = std::fs::read_to_string(baseline_path).expect("committed e11 baseline");
    assert_eq!(
        dense, committed,
        "generated smoke gauntlet no longer matches the committed baseline"
    );
}

fn records(
    sc: &Scenario,
    seeds: u64,
    population: PopulationMode,
    sim_threads: usize,
) -> Vec<RunRecord> {
    let mut sc = sc.clone().population(population);
    sc.sim_threads = sim_threads;
    let report = Sweep::new("population", seeds, vec![sc]).run(1);
    report.cells[0].runs.clone()
}

/// The explicit family × adversary × delivery matrix. Each row says whether
/// the engine may keep a lazy live set on that cell (`true`: records equal
/// the dense run's modulo the gauges) or must keep everyone live (`false`:
/// records equal the dense run's on **every** observable,
/// `peak_live_nodes == n` included) — the family offers no committee, or
/// delivery is not lockstep ([`ba_sim::Sim::run_population`]). Full-record
/// equality covers every observable, but the adversary-attribution ones are
/// re-asserted by name: a lazily materialized node that drops a unicast or
/// receives corrupt traffic must meter exactly like its dense twin.
#[test]
fn sparse_matches_dense_across_families_adversaries_deliveries_and_threads() {
    use AdversarySpec as A;
    use CorruptionModel as M;
    let subq_half = ProtocolSpec::SubqHalf { lambda: 12.0, max_iters: Some(6) };
    let subq_third = ProtocolSpec::SubqThird { lambda: 10.0, epochs: 6 };
    let subq_shared = ProtocolSpec::SubqShared { lambda: 10.0, epochs: 6 };
    let iter = |adversary| Scenario::new("c", 40, subq_half.clone()).adversary(adversary).f(13);
    let epoch = |adversary| Scenario::new("c", 33, subq_third.clone()).adversary(adversary).f(9);
    // Wide enough that the committees never cover it: `peak_live_nodes`
    // shows which way the lazy/all-live decision went.
    let wide = Scenario::new("c", 300, ProtocolSpec::SubqHalf { lambda: 6.0, max_iters: Some(3) })
        .adversary(A::CrashTail { at_round: 1 })
        .f(30);
    let latency: TransportSpec = "latency:round_ms=10,gst_ms=30,dist=uniform:1..5".parse().unwrap();
    let plan = |text: &str| text.parse::<FaultPlan>().expect("fault plan");
    let cells: Vec<(&str, Scenario, bool)> = vec![
        // Iteration family (mined): sparse-capable.
        ("iter/passive", Scenario::new("c", 40, subq_half.clone()), true),
        ("iter/crash_tail", iter(A::CrashTail { at_round: 1 }), true),
        ("iter/silence_burst", iter(A::SilenceThenBurst { at_round: 3 }), true),
        (
            "iter/adaptive_eclipse",
            iter(A::AdaptiveEclipse { per_round: 0 }).model(M::Adaptive),
            true,
        ),
        ("iter/eclipse_burst", iter(A::EclipseBurst { at_round: 3 }).model(M::Adaptive), true),
        ("iter/starve_quorum", iter(A::StarveQuorum).model(M::StronglyAdaptive), true),
        ("iter/cert_forger", iter(A::CertForger { target: true }), true),
        // Real-VRF eligibility through the untabled-threshold boundary.
        ("iter/passive_real", Scenario::new("c", 36, subq_half.clone()).real_elig(), true),
        // Epoch family (mined): sparse-capable, including typed adversaries.
        ("epoch/passive", Scenario::new("c", 33, subq_third.clone()), true),
        ("epoch/vote_flipper", epoch(A::VoteFlipper).model(M::Adaptive), true),
        ("epoch/equivocation_spammer", epoch(A::EquivocationSpammer), true),
        ("epoch/crash_tail", epoch(A::CrashTail { at_round: 1 }), true),
        ("epoch/shared_committee", Scenario::new("c", 30, subq_shared), true),
        // Lockstep delivery, bare or under the empty-plan fault wrapper.
        ("wide/lockstep", wide.clone(), true),
        ("wide/faults_none", wide.clone().faults(plan("none")), true),
        // Per-link delivery gives every silent node its own inbox: all-live.
        ("wide/latency", wide.clone().transport(latency), false),
        ("wide/drops", wide.clone().faults(plan("drop:p=0.1")), false),
        ("epoch/partition", epoch(A::VoteFlipper).faults(plan("partition:2..5=16")), false),
        // Non-capable regimes: no committee to be lazy about.
        ("iter/signed_fallback", Scenario::new("c", 9, ProtocolSpec::QuadraticHalf), false),
        (
            "epoch/round_robin_fallback",
            Scenario::new("c", 12, ProtocolSpec::WarmupThird { epochs: 6 }),
            false,
        ),
        (
            "epoch/fs_mined_fallback",
            Scenario::new(
                "c",
                24,
                ProtocolSpec::ChenMicali { lambda: 10.0, epochs: 5, erasure: true },
            ),
            false,
        ),
    ];
    let pick = |runs: &[RunRecord], metric: &str| -> Vec<f64> {
        runs.iter()
            .flat_map(|r| r.values.iter().filter(|(n, _)| n == metric).map(|(_, v)| *v))
            .collect()
    };
    for (name, sc, lazy) in &cells {
        let dense = records(sc, 2, PopulationMode::Dense, 1);
        assert_eq!(pick(&dense, "peak_live_nodes"), [sc.n as f64; 2], "{name}: dense is all-live");
        for sim_threads in [1usize, 4] {
            let sparse = records(sc, 2, PopulationMode::Sparse, sim_threads);
            let (got, want) = match lazy {
                true => (without_gauges(&sparse), without_gauges(&dense)),
                false => (sparse, dense.clone()),
            };
            assert_eq!(got, want, "{name}: sparse records (sim_threads={sim_threads}) diverged");
        }
        // Named attribution re-assertion (lazy instantiation must not shift
        // blame between honest and adversary ledgers).
        let sparse = records(sc, 2, PopulationMode::Sparse, 1);
        for metric in ["dropped_sends", "corrupt_bits", "corrupt_sends", "injected_sends"] {
            assert_eq!(pick(&sparse, metric), pick(&dense, metric), "{name}: {metric} diverged");
        }
    }
    // The empty-plan wrapper is still a lazy execution — the same one,
    // gauges included.
    let bare = records(&wide, 2, PopulationMode::Sparse, 1);
    let peaks = pick(&bare, "peak_live_nodes");
    assert!(peaks.iter().all(|&peak| peak < 150.0), "lazy at n=300: {peaks:?}");
    assert_eq!(records(&wide.faults(plan("none")), 2, PopulationMode::Sparse, 1), bare);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small mined-family scenarios: sparse ≡ dense, every time.
    #[test]
    fn sparse_matches_dense_on_random_scenarios(
        n in 24usize..56,
        lambda in 6u32..16,
        family in 0u8..3,
        adversary in 0u8..4,
        seed_offset in 0u64..1000,
        unanimous in any::<Option<bool>>(),
    ) {
        let protocol = match family {
            0 => ProtocolSpec::SubqHalf { lambda: lambda as f64, max_iters: Some(5) },
            1 => ProtocolSpec::SubqThird { lambda: lambda as f64, epochs: 5 },
            _ => ProtocolSpec::SubqShared { lambda: lambda as f64, epochs: 5 },
        };
        let f = n / 4;
        let (adv, model) = match adversary {
            0 => (AdversarySpec::Passive, CorruptionModel::Static),
            1 => (AdversarySpec::CrashTail { at_round: 1 }, CorruptionModel::Static),
            2 => (AdversarySpec::AdaptiveEclipse { per_round: 1 }, CorruptionModel::Adaptive),
            _ => (AdversarySpec::SilenceThenBurst { at_round: 2 }, CorruptionModel::Static),
        };
        let inputs = match unanimous {
            Some(b) => InputPattern::Unanimous(b),
            None => InputPattern::Alternating,
        };
        let sc = Scenario::new("prop", n, protocol)
            .inputs(inputs)
            .adversary(adv)
            .model(model)
            .f(f)
            .seed_offset(seed_offset);
        let dense = records(&sc, 1, PopulationMode::Dense, 1);
        let sparse = records(&sc, 1, PopulationMode::Sparse, 1);
        prop_assert_eq!(without_gauges(&sparse), without_gauges(&dense));
    }
}

// Pinned goldens (seeds 0 and 1) for two adversarial sparse cells. The
// matrix tests above prove sparse ≡ dense on these shapes, so the constants
// pin the *shared* trajectory: a drift in either engine trips them.

#[test]
fn golden_sparse_iter_cell() {
    let sc =
        Scenario::new("golden", 48, ProtocolSpec::SubqHalf { lambda: 16.0, max_iters: Some(6) })
            .adversary(AdversarySpec::SilenceThenBurst { at_round: 3 })
            .f(19)
            .population(PopulationMode::Sparse);
    let report = Sweep::new("golden", 2, vec![sc]).run(1);
    let cell = &report.cells[0];
    assert_eq!(cell.samples("rounds"), GOLDEN_ITER_ROUNDS);
    assert_eq!(cell.samples("multicasts"), GOLDEN_ITER_MULTICASTS);
    assert_eq!(cell.samples("injected_sends"), GOLDEN_ITER_INJECTED);
    assert_eq!(cell.samples("corrupt_bits"), GOLDEN_ITER_CORRUPT_BITS);
}

#[test]
fn golden_sparse_epoch_cell() {
    let sc = Scenario::new("golden", 36, ProtocolSpec::SubqThird { lambda: 16.0, epochs: 6 })
        .adversary(AdversarySpec::EquivocationSpammer)
        .f(10)
        .population(PopulationMode::Sparse);
    let report = Sweep::new("golden", 2, vec![sc]).run(1);
    let cell = &report.cells[0];
    assert_eq!(cell.samples("rounds"), GOLDEN_EPOCH_ROUNDS);
    assert_eq!(cell.samples("multicasts"), GOLDEN_EPOCH_MULTICASTS);
    assert_eq!(cell.samples("corrupt_sends"), GOLDEN_EPOCH_CORRUPT_SENDS);
    assert_eq!(cell.samples("consistent"), [1.0, 1.0]);
}

const GOLDEN_ITER_ROUNDS: [f64; 2] = [15.0, 26.0];
const GOLDEN_ITER_MULTICASTS: [f64; 2] = [64.0, 49.0];
const GOLDEN_ITER_INJECTED: [f64; 2] = [11.0, 13.0];
const GOLDEN_ITER_CORRUPT_BITS: [f64; 2] = [257_556.0, 255_822.0];
const GOLDEN_EPOCH_ROUNDS: [f64; 2] = [13.0, 13.0];
const GOLDEN_EPOCH_MULTICASTS: [f64; 2] = [74.0, 68.0];
const GOLDEN_EPOCH_CORRUPT_SENDS: [f64; 2] = [638.0, 714.0];

/// The memory model, at a size every test run can afford: a 20 000-node
/// sparse cell materializes only the committee union — `peak_live_nodes`
/// bounded by 64 · λ · log₂ n and far below n.
#[test]
fn sparse_peak_live_scales_with_committee_not_population() {
    let n = 20_000;
    let lambda = 16.0;
    let sc = Scenario::new("big", n, ProtocolSpec::SubqHalf { lambda, max_iters: None })
        .inputs(InputPattern::Unanimous(true))
        .population(PopulationMode::Sparse);
    let run = sc.execute(7);
    let m = &run.report.expect("protocol cell").metrics;
    let ceiling = (64.0 * lambda * (n as f64).log2()).ceil() as u64;
    assert!(m.peak_live_nodes <= ceiling, "peak {} > ceiling {ceiling}", m.peak_live_nodes);
    assert!(
        (m.peak_live_nodes as usize) * 10 < n,
        "peak {} is not o(n) at n={n}",
        m.peak_live_nodes
    );
    assert!(run.verdict.expect("verdict").all_ok());
}

/// The issue's acceptance cell: n = 100 000 on the **real** VRF/DLEQ
/// eligibility backend completes under the sparse engine with the committee
/// ceiling intact. Debug-mode bigint arithmetic makes this minutes-slow, so
/// the test runs in release CI (`cargo test --release -- --ignored`).
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: debug bigint too slow at n=100k")]
fn sparse_real_eligibility_100k_within_committee_ceiling() {
    let n = 100_000;
    let lambda = 24.0;
    let sc = Scenario::new("e12", n, ProtocolSpec::SubqHalf { lambda, max_iters: None })
        .inputs(InputPattern::Unanimous(true))
        .real_elig()
        .population(PopulationMode::Sparse);
    let run = sc.execute(0);
    let m = &run.report.expect("protocol cell").metrics;
    let ceiling = (64.0 * lambda * (n as f64).log2()).ceil() as u64;
    assert!(m.peak_live_nodes <= ceiling, "peak {} > ceiling {ceiling}", m.peak_live_nodes);
    assert!((m.peak_live_nodes as usize) * 100 < n);
    assert!(run.verdict.expect("verdict").all_ok());
}
