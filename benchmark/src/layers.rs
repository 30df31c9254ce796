//! The traced run: per-layer metrics from (a) one traced pass over the
//! workload, every op compared with its untraced twin, and (b) timed calls
//! into each layer's public functions on fixed inputs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path as FsPath;
use std::sync::Arc;
use std::time::Instant;

use ba_bench::baseline::parse_json;
use ba_bench::wire::{decode_descriptor, decode_reply, encode_descriptor, worker_loop};
use ba_bench::{
    diff_reports, gauntlet_sweeps, to_json, CellDescriptor, Grid, ProtocolSpec, Scenario, Sweep,
    SweepReport, Tolerance,
};
use ba_core::cert::CertEncoding;
use ba_core::momose_ren::MrMsg;
use ba_crypto::bigint::{ModCtx, U256};
use ba_crypto::group::{Element, Group, Scalar};
use ba_crypto::schnorr::SigningKey;
use ba_crypto::vrf::{PreparedInput, VrfSecretKey};
use ba_crypto::{aggregate, dleq, schnorr, vrf};
use ba_fmine::{Keychain, MineParams, RealMine, SigMode};
use ba_net::TcpTransport;
use ba_sim::{
    Bit, CorruptionModel, Incoming, Message, NodeId, Outbox, Passive, PopulationMode, Protocol,
    Round, Sim, SimConfig, TransportSpec,
};

use crate::runner::{catching, direct_op, judge, prepare, Failure, Outcome, Tally};
use crate::seams::Counters;
use crate::stats::median;
use crate::trace::{drain, trace_op, Agg, Seam, Trace, ALL_SEAMS, SEAMS};
use crate::traced_exec;

/// Everything the traced run produced.
pub struct Layered {
    pub tally: Tally,
    /// Per-layer metric values by name (every name of `metrics::PER_LAYER`).
    pub values: BTreeMap<&'static str, f64>,
    /// Samples behind each timed-call metric.
    pub samples: BTreeMap<&'static str, usize>,
    /// Per-seam totals of the traced pass.
    pub totals: [Agg; SEAMS],
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    pub trace: Trace,
}

impl Layered {
    /// Self time per layer, largest first, with the share of the traced op
    /// wall each holds. The shares sum to 1 by construction.
    pub fn layer_shares(&self) -> Vec<(&'static str, f64, f64)> {
        let wall = self.totals[Seam::Op as usize].busy_s();
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for seam in ALL_SEAMS {
            *by_layer.entry(seam.layer()).or_default() += self.totals[seam as usize].self_s();
        }
        let mut rows: Vec<_> = by_layer
            .into_iter()
            .map(|(layer, s)| (layer, s, s / wall.max(f64::MIN_POSITIVE)))
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        rows
    }
}

fn family_of(protocol: &ProtocolSpec) -> &'static str {
    match protocol {
        ProtocolSpec::SubqHalf { .. } | ProtocolSpec::QuadraticHalf => "iter",
        ProtocolSpec::MomoseRenHalf { .. } => "momose_ren",
        ProtocolSpec::CksAdaptive { .. } => "cks",
        _ => "epoch",
    }
}

/// The traced run of workload `name`.
pub fn run_layered(
    name: &str,
    seed: u64,
    seconds: f64,
    golden_dir: &FsPath,
) -> Result<Layered, String> {
    let prepared = prepare(name, seed, Some(golden_dir))?;
    let workload = &prepared.workload;
    let ops = workload.traced_ops();

    // Untraced twins, straight through `Scenario::execute` on every workload
    // (the wire path hides the report the comparison needs).
    let mut tally = Tally::default();
    let mut twins: Vec<Result<Outcome, Failure>> = Vec::new();
    let mut family_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    for op in &ops {
        let scenario = &workload.cell(op).scenario;
        let t = Instant::now();
        let outcome = catching(|| Ok(direct_op(scenario, op.seed)));
        family_ms
            .entry(family_of(&scenario.protocol))
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e3);
        twins.push(match judge(prepared.golden_of(op)?, None, &outcome) {
            Some(failure) => Err(failure),
            None => Ok(outcome.expect("judge reports an errored op")),
        });
    }
    let untraced_wall_s = started.elapsed().as_secs_f64();

    // The traced pass.
    let counters = Arc::new(Counters::default());
    // `(honest_cert_bits, ops)` under the vector and the aggregate encoding.
    let mut cert_bits = [(0u64, 0u64); 2];
    let (mut rounds, mut peak_live, mut peak_resident) = (0u64, 0u64, 0u64);
    let (mut sparse_node_rounds, mut sparse_ops) = (0u64, 0u64);
    let started = Instant::now();
    for (op, twin) in ops.iter().zip(&twins) {
        let scenario = &workload.cell(op).scenario;
        let (traced, _) =
            trace_op(op.id, || catching(|| Ok(traced_exec::execute(scenario, op.seed, &counters))));
        let failure = match (twin, &traced) {
            (Err(failure), _) => Some(failure.clone()),
            (Ok(_), Err(e)) => Some(Failure::Errored(e.clone())),
            (Ok(twin), Ok(traced)) if twin.run.as_ref() != Some(traced) => {
                Some(Failure::RecordChanged)
            }
            _ => None,
        };
        tally.count(&op.label, failure);
        let Ok((report, _)) = traced else { continue };
        rounds += report.metrics.rounds;
        let sparse = scenario.population == PopulationMode::Sparse;
        if sparse {
            sparse_ops += 1;
            sparse_node_rounds += scenario.n as u64 * report.metrics.rounds;
            peak_live = peak_live.max(report.metrics.peak_live_nodes);
            peak_resident = peak_resident.max(report.metrics.peak_resident_msgs);
        }
        // Mined regimes cannot aggregate and fall back to the vector
        // encoding; the signed families honour the request.
        let mined = matches!(
            scenario.protocol,
            ProtocolSpec::SubqHalf { .. } | ProtocolSpec::SubqThird { .. }
        );
        let aggregate = !mined && scenario.cert_encoding == CertEncoding::Aggregate;
        let slot = &mut cert_bits[aggregate as usize];
        slot.0 += report.metrics.honest_cert_bits;
        slot.1 += 1;
    }
    let traced_wall_s = started.elapsed().as_secs_f64();
    let trace = drain();
    let totals = trace.totals();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut samples: BTreeMap<&'static str, usize> = BTreeMap::new();
    let agg = |seam: Seam| totals[seam as usize];
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let load = Counters::get;

    // ba-fmine.
    values.insert("fmine.mine.calls", agg(Seam::Mine).calls as f64);
    values.insert("fmine.mine.busy_s", agg(Seam::Mine).busy_s());
    values.insert(
        "fmine.mine.hit_frac",
        ratio(load(&counters.tickets) as f64, agg(Seam::Mine).calls as f64),
    );
    values.insert("fmine.would_mine.calls", agg(Seam::WouldMine).calls as f64);
    values.insert("fmine.would_mine.busy_s", agg(Seam::WouldMine).busy_s());
    values.insert("fmine.verify.calls", agg(Seam::Verify).calls as f64);
    values.insert("fmine.verify.busy_s", agg(Seam::Verify).busy_s());
    values.insert("fmine.verify_batch.calls", agg(Seam::VerifyBatch).calls as f64);
    values.insert("fmine.verify_batch.items", load(&counters.batch_items) as f64);
    values.insert("fmine.verify_batch.busy_s", agg(Seam::VerifyBatch).busy_s());

    // ba-core.
    values.insert("core.iter.step.calls", agg(Seam::IterStep).calls as f64);
    values.insert("core.iter.step.busy_s", agg(Seam::IterStep).busy_s());
    values.insert("core.iter.step.self_s", agg(Seam::IterStep).self_s());
    values.insert("core.epoch.step.calls", agg(Seam::EpochStep).calls as f64);
    values.insert("core.epoch.step.busy_s", agg(Seam::EpochStep).busy_s());
    values.insert("core.epoch.step.self_s", agg(Seam::EpochStep).self_s());
    values.insert("core.momose_ren.step.calls", agg(Seam::MomoseRenStep).calls as f64);
    values.insert("core.momose_ren.step.busy_s", agg(Seam::MomoseRenStep).busy_s());
    values.insert("core.cks.step.calls", agg(Seam::CksStep).calls as f64);
    values.insert("core.cks.step.busy_s", agg(Seam::CksStep).busy_s());
    for (name, family) in [
        ("core.iter.op_ms_p50", "iter"),
        ("core.epoch.op_ms_p50", "epoch"),
        ("core.momose_ren.op_ms_p50", "momose_ren"),
        ("core.cks.op_ms_p50", "cks"),
    ] {
        let ms = family_ms.get(family).map(Vec::as_slice).unwrap_or_default();
        values.insert(name, median(ms));
        samples.insert(name, ms.len());
    }
    let per_op = |(bits, ops): (u64, u64)| ratio(bits as f64, ops as f64);
    values.insert("core.cert.vector_bits_per_op", per_op(cert_bits[0]));
    values.insert("core.cert.aggregate_bits_per_op", per_op(cert_bits[1]));

    // ba-sim.
    let transport_busy =
        agg(Seam::Lockstep).busy_s() + agg(Seam::Latency).busy_s() + agg(Seam::Fault).self_s();
    let deliveries = load(&counters.delivered_copies) as f64;
    values.insert("sim.engine.self_s", agg(Seam::Engine).self_s());
    values.insert("sim.engine.rounds", rounds as f64);
    values.insert("sim.engine.deliveries", deliveries);
    values.insert(
        "sim.engine.deliveries_per_s",
        ratio(deliveries, agg(Seam::Engine).self_s() + transport_busy),
    );
    values.insert("sim.population.self_s", agg(Seam::Population).self_s());
    values.insert(
        "sim.population.ns_per_node_round",
        ratio(agg(Seam::Population).self_ns as f64, sparse_node_rounds as f64),
    );
    values.insert("sim.population.peak_live_nodes", peak_live as f64);
    values.insert("sim.population.peak_resident_msgs", peak_resident as f64);
    samples.insert("sim.population.ns_per_node_round", sparse_ops as usize);
    values.insert("sim.transport.lockstep.busy_s", agg(Seam::Lockstep).busy_s());
    values.insert("sim.transport.latency.busy_s", agg(Seam::Latency).busy_s());
    values.insert("sim.transport.fault.busy_s", agg(Seam::Fault).busy_s());
    values.insert("sim.transport.copies", deliveries);
    values.insert("sim.transport.ns_per_copy", ratio(transport_busy * 1e9, deliveries));
    values.insert(
        "sim.transport.fault.delivered_frac",
        ratio(load(&counters.fault_delivered) as f64, load(&counters.fault_submitted) as f64),
    );

    // ba-adversary.
    values.insert("adversary.intervene.calls", agg(Seam::Intervene).calls as f64);
    values.insert("adversary.intervene.busy_s", agg(Seam::Intervene).busy_s());
    values.insert("adversary.corrupt_step.busy_s", agg(Seam::CorruptStep).busy_s());

    // The tracer itself.
    values.insert("bench.trace.overhead_frac", traced_wall_s / untraced_wall_s - 1.0);
    values.insert(
        "bench.trace.unattributed_frac",
        ratio(agg(Seam::Op).self_ns as f64, agg(Seam::Op).busy_ns as f64),
    );

    // Timed public calls: each gets the same slice of the run's budget.
    let mut timed = Timed { budget_s: seconds * 0.012, values: &mut values, samples: &mut samples };
    timed.crypto();
    timed.fmine();
    timed.sim();
    timed.net();
    timed.bench();

    Ok(Layered { tally, values, samples, totals, traced_wall_s, untraced_wall_s, trace })
}

/// Timed calls into public functions, on fixed inputs.
struct Timed<'a> {
    /// Wall budget of one metric.
    budget_s: f64,
    values: &'a mut BTreeMap<&'static str, f64>,
    samples: &'a mut BTreeMap<&'static str, usize>,
}

/// Samples a timed-call metric aims for, and the fewest it accepts when the
/// budget runs out first.
const TARGET_SAMPLES: usize = 2_000;
const MIN_SAMPLES: usize = 9;

impl Timed<'_> {
    /// Median wall of `f` in nanoseconds, divided by `per` (items per
    /// call): [`TARGET_SAMPLES`] samples or the budget, whichever ends
    /// first, never fewer than [`MIN_SAMPLES`].
    fn ns(&mut self, name: &'static str, per: usize, mut f: impl FnMut()) -> f64 {
        f(); // warm caches and lazy statics
        let started = Instant::now();
        let mut walls = Vec::new();
        while walls.len() < TARGET_SAMPLES
            && (walls.len() < MIN_SAMPLES || started.elapsed().as_secs_f64() < self.budget_s)
        {
            let t = Instant::now();
            f();
            walls.push(t.elapsed().as_nanos() as f64);
        }
        let value = median(&walls) / per as f64;
        self.values.insert(name, value);
        self.samples.insert(name, walls.len());
        value
    }

    fn ms(&mut self, name: &'static str, f: impl FnMut()) {
        let ns = self.ns(name, 1, f);
        self.values.insert(name, ns / 1e6);
    }

    fn crypto(&mut self) {
        let g = Group::standard();
        let ctx = ModCtx::new(*g.prime());
        let hex = |s| U256::from_hex(s).expect("a 256-bit constant");
        let a = hex("deadbeefcafebabe0123456789abcdef00112233445566778899aabbccddeeff");
        let b = hex("0123456789abcdef00112233445566778899aabbccddeeffdeadbeefcafebabe");
        // Dependent chains of 256, as in an exponentiation ladder; one call
        // alone is shorter than the clock's resolution.
        const CHAIN: usize = 256;
        let mut x = a;
        self.ns("crypto.bigint.mul_ns", CHAIN, || {
            for _ in 0..CHAIN {
                x = ctx.mul(&x, &b);
            }
            black_box(x);
        });
        let mut x = a;
        self.ns("crypto.bigint.sqr_ns", CHAIN, || {
            for _ in 0..CHAIN {
                x = ctx.sqr(&x);
            }
            black_box(x);
        });

        let scalar = |i: u64| g.scalar_from_bytes(&i.to_be_bytes());
        let base = g.hash_to_group(b"benchmark", b"base");
        let e = scalar(1);
        self.ns("crypto.group.pow_ns", 1, || {
            black_box(g.pow(black_box(&base), black_box(&e)));
        });
        self.ns("crypto.group.pow_g_ns", 1, || {
            black_box(g.pow_g(black_box(&e)));
        });
        let terms: Vec<(Element, Scalar)> = (0..64u64)
            .map(|i| (g.hash_to_group(b"benchmark", &i.to_be_bytes()), scalar(i + 2)))
            .collect();
        self.ns("crypto.group.multi_pow64_ns", 1, || {
            black_box(g.multi_pow(black_box(&terms)));
        });

        let keys: Vec<SigningKey> =
            (0..128u64).map(|i| SigningKey::from_seed(&i.to_be_bytes())).collect();
        let vks: Vec<_> = keys.iter().map(SigningKey::verifying_key).collect();
        let msgs: Vec<Vec<u8>> =
            (0..64).map(|i| format!("(Vote, r=7, b={}, node={i})", i % 2).into_bytes()).collect();
        let sigs: Vec<_> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        self.ns("crypto.schnorr.sign_ns", 1, || {
            black_box(keys[0].sign(black_box(&msgs[0])));
        });
        self.ns("crypto.schnorr.verify_ns", 1, || {
            assert!(vks[0].verify(black_box(&msgs[0]), &sigs[0]));
        });
        let batch: Vec<schnorr::BatchItem> = (0..64)
            .map(|i| schnorr::BatchItem { key: &vks[i], msg: &msgs[i], sig: &sigs[i] })
            .collect();
        self.ns("crypto.schnorr.verify_batch64_ns_per_sig", 64, || {
            assert!(schnorr::verify_batch(black_box(&batch)));
        });

        let vrf_keys: Vec<VrfSecretKey> =
            (0..32u64).map(|i| VrfSecretKey::from_seed(&i.to_be_bytes())).collect();
        let vrf_pks: Vec<_> = vrf_keys.iter().map(VrfSecretKey::public_key).collect();
        let tag = b"(Vote, iter=3, bit=1)";
        let input = PreparedInput::new(tag);
        let outs: Vec<_> = vrf_keys.iter().map(|k| k.evaluate_prepared(&input)).collect();
        self.ns("crypto.vrf.evaluate_prepared_ns", 1, || {
            black_box(vrf_keys[0].evaluate_prepared(black_box(&input)));
        });
        self.ns("crypto.vrf.verify_prepared_ns", 1, || {
            assert!(vrf_pks[0].verify_prepared(black_box(&input), &outs[0]));
        });
        let vrf_batch: Vec<vrf::BatchItem> =
            (0..32).map(|i| vrf::BatchItem { key: &vrf_pks[i], msg: tag, out: &outs[i] }).collect();
        self.ns("crypto.vrf.verify_batch32_ns_per_item", 32, || {
            assert!(vrf::verify_batch(black_box(&vrf_batch)));
        });

        let sk = scalar(77);
        let pk = g.pow_g(&sk);
        let h = g.hash_to_group(b"benchmark", b"dleq");
        let v = g.pow(&h, &sk);
        let proof = dleq::prove(&sk, &h, &v);
        self.ns("crypto.dleq.verify_ns", 1, || {
            assert!(dleq::verify(black_box(&pk), &h, &v, &proof));
        });

        let signers: Vec<&SigningKey> = keys.iter().collect();
        let agg = aggregate::sign_aggregate(&signers, b"(Commit, iter=2, bit=1)");
        self.ns("crypto.aggregate.verify128_ns", 1, || {
            assert!(aggregate::verify_aggregate(black_box(&vks), b"(Commit, iter=2, bit=1)", &agg));
        });
    }

    fn fmine(&mut self) {
        let mut seed = 0u64;
        self.ms("fmine.real.setup_ms", || {
            seed += 1;
            black_box(RealMine::from_seed(seed, MineParams::new(96, 24.0)));
        });
        self.ms("fmine.keychain.setup_ms", || {
            seed += 1;
            black_box(Keychain::from_seed(seed, 256, SigMode::Ideal));
        });
        let keychain = Keychain::from_seed(1, 256, SigMode::Ideal);
        let msg = b"(Vote, iter=2, bit=1)";
        let sigs: Vec<_> = (0..128).map(|i| keychain.sign(NodeId(i), msg)).collect();
        let claims: Vec<(NodeId, &[u8], &ba_fmine::Sig)> =
            sigs.iter().enumerate().map(|(i, s)| (NodeId(i), &msg[..], s)).collect();
        self.ns("fmine.keychain.verify_batch128_ns_per_sig", 128, || {
            assert!(keychain.verify_batch(black_box(&claims)));
        });
    }

    /// The engine with no protocol: every node multicasts one empty message
    /// per round, n = 256, 10 rounds.
    fn sim(&mut self) {
        const N: usize = 256;
        const ROUNDS: u64 = 10;
        let config = SimConfig::new(N, 0, CorruptionModel::Static, 1);
        self.ns("sim.engine.null_ns_per_delivery", N * N * ROUNDS as usize, || {
            let report = Sim::run_protocol(&config, vec![false; N], Passive, |_, _| {
                Box::new(Null { done: false })
            });
            assert_eq!(report.metrics.honest_multicasts, N as u64 * ROUNDS);
        });
    }

    /// TCP loopback twins (n = 16) of two `net_chaos` cells, 60 runs in five
    /// batches. Trended, never gated: one reader thread per node on two
    /// cores measures the scheduler as much as the transport.
    fn net(&mut self) {
        const N: usize = 16;
        self.ms("net.tcp.setup_ms", || {
            black_box(TcpTransport::<MrMsg>::new(N).expect("bind TCP loopback transport"));
        });
        let twins = [
            Scenario::new("mr_half/tcp", N, ProtocolSpec::MomoseRenHalf { views: 8 }),
            Scenario::new("warmup_third/tcp", N, ProtocolSpec::WarmupThird { epochs: 8 }),
        ]
        .map(|s| s.transport(TransportSpec::Tcp));
        let (mut op_ms, mut batch_ms) = (Vec::new(), Vec::new());
        let (mut copies, mut total_ns) = (0u64, 0u64);
        for batch in 0..5u64 {
            let started = Instant::now();
            for run in 0..12u64 {
                let scenario = &twins[(run % 2) as usize];
                let t = Instant::now();
                let outcome = direct_op(scenario, batch * 12 + run);
                let ns = t.elapsed().as_nanos() as u64;
                op_ms.push(ns as f64 / 1e6);
                total_ns += ns;
                copies += outcome.record.get("latency_delivered").unwrap_or(0.0) as u64;
            }
            batch_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let spread = batch_ms.iter().cloned().fold(f64::MIN, f64::max)
            - batch_ms.iter().cloned().fold(f64::MAX, f64::min);
        self.values.insert("net.tcp.op_ms_p50", median(&op_ms));
        self.values.insert("net.tcp.ns_per_copy", total_ns as f64 / copies.max(1) as f64);
        self.values.insert("net.tcp.spread_frac", spread / median(&batch_ms));
        self.samples.insert("net.tcp.op_ms_p50", op_ms.len());
        self.samples.insert("net.tcp.spread_frac", batch_ms.len());
    }

    /// `ba-bench`'s scenario / sweep / wire / report / baseline modules on
    /// the four cheapest sweeps of the e11 smoke gauntlet (n ≤ 16).
    fn bench(&mut self) {
        self.ms("bench.scenario.build_ms", || {
            black_box(gauntlet_sweeps(Grid::Smoke, 1));
        });
        let sweeps: Vec<Sweep> = gauntlet_sweeps(Grid::Smoke, 1)
            .into_iter()
            .filter(|s| {
                ["iter/quadratic_half", "epoch/warmup_third", "mr/half", "cks/adaptive"]
                    .contains(&s.title.as_str())
            })
            .collect();

        // Sweep::run(1) against the bare Σ Scenario::execute of its cells.
        let mut sweep_ns = Vec::new();
        let mut bare_ns = Vec::new();
        let mut reports: Vec<SweepReport> = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            reports = sweeps.iter().map(|s| s.run(1)).collect();
            sweep_ns.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            for sweep in &sweeps {
                for scenario in &sweep.scenarios {
                    black_box(scenario.execute(scenario.seed_offset));
                }
            }
            bare_ns.push(t.elapsed().as_nanos() as f64);
        }
        self.values.insert("bench.sweep.overhead_frac", median(&sweep_ns) / median(&bare_ns) - 1.0);
        self.samples.insert("bench.sweep.overhead_frac", sweep_ns.len());

        let descriptors: Vec<CellDescriptor> = sweeps
            .iter()
            .flat_map(|sweep| {
                sweep.scenarios.iter().map(|scenario| CellDescriptor {
                    id: 0,
                    sweep: sweep.title.clone(),
                    seeds: 1,
                    scenario: scenario.clone(),
                })
            })
            .collect();
        let cells = descriptors.len();
        let lines: Vec<String> = descriptors.iter().map(encode_descriptor).collect();
        self.ns("bench.wire.encode_descriptor_ns", cells, || {
            for d in &descriptors {
                black_box(encode_descriptor(d));
            }
        });
        self.ns("bench.wire.decode_descriptor_ns", cells, || {
            for line in &lines {
                black_box(decode_descriptor(line).expect("own encoding decodes"));
            }
        });
        let mut replies = Vec::new();
        let input = lines.join("\n");
        assert_eq!(worker_loop(std::io::Cursor::new(input.as_bytes()), &mut replies, None), 0);
        let replies = String::from_utf8(replies).expect("UTF-8 replies");
        self.ns("bench.wire.decode_reply_ns", cells, || {
            for line in replies.lines() {
                black_box(decode_reply(line).expect("worker replies decode"));
            }
        });
        self.values.insert(
            "bench.wire.bytes_per_cell",
            (input.len() + replies.len()) as f64 / cells as f64,
        );

        let json = to_json("benchmark", &reports);
        self.ms("bench.report.to_json_ms", || {
            black_box(to_json("benchmark", black_box(&reports)));
        });
        let parse_ns = self.ns("bench.baseline.parse_mb_per_s", 1, || {
            black_box(parse_json(black_box(&json)).expect("own report parses"));
        });
        self.values
            .insert("bench.baseline.parse_mb_per_s", json.len() as f64 / 1e6 / (parse_ns / 1e9));
        self.ms("bench.baseline.diff_ms", || {
            let diff = diff_reports(&json, &json, &Tolerance::default()).expect("own report diffs");
            assert!(diff.passed());
        });
    }
}

/// One empty multicast per node per round, for ten rounds.
struct Null {
    done: bool,
}

#[derive(Clone, Debug)]
struct Empty;

impl Message for Empty {
    fn size_bits(&self) -> usize {
        0
    }
}

impl Protocol<Empty> for Null {
    fn step(&mut self, round: Round, _inbox: &[Incoming<Empty>], out: &mut Outbox<Empty>) {
        out.multicast(Empty);
        self.done = round.0 >= 9;
    }

    fn output(&self) -> Option<Bit> {
        self.done.then_some(false)
    }

    fn halted(&self) -> bool {
        self.done
    }
}
