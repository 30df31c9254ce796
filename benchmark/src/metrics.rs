//! The metric catalogue: every name the benchmark prints, with its unit,
//! its better direction and (end to end) its bound. `BENCHMARK.json` is
//! rendered from these tables, and a test keeps the committed file equal to
//! the rendering.

use crate::workloads::WORKLOADS;

/// Seconds one driver run measures (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 17;

/// The `--seed` used when none is given.
pub const DEFAULT_SEED: u64 = 20_190_729;

/// One end-to-end metric: `(name, unit, higher is better, bound)`. The bound
/// is the share of the reference median by which the metric may worsen
/// before a change counts as a regression.
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher: bool,
    pub bound: f64,
}

/// The modelled-cost metrics are deterministic counts: any worsening is a
/// protocol change, never noise. The bound is the smallest the result
/// format resolves (one part per million), standing in for "exact".
pub const EXACT: f64 = 0.000_001;

pub const END_TO_END: [EndToEndMetric; 7] = [
    EndToEndMetric { name: "ops_per_s", unit: "1/s", higher: true, bound: 0.10 },
    EndToEndMetric { name: "op_ms_p50", unit: "ms", higher: false, bound: 0.10 },
    EndToEndMetric { name: "op_ms_p90", unit: "ms", higher: false, bound: 0.15 },
    EndToEndMetric { name: "honest_kbits_per_op", unit: "kbit", higher: false, bound: EXACT },
    EndToEndMetric { name: "rounds_per_op", unit: "count", higher: false, bound: EXACT },
    EndToEndMetric { name: "peak_rss_mb", unit: "MB", higher: false, bound: 0.10 },
    EndToEndMetric { name: "setup_s", unit: "s", higher: false, bound: 0.25 },
];

/// One per-layer metric: `(name, unit, higher is better)`.
pub type LayerMetric = (&'static str, &'static str, bool);

pub const PER_LAYER: [LayerMetric; 75] = [
    // ba-crypto: timed public calls.
    ("crypto.bigint.mul_ns", "ns", false),
    ("crypto.bigint.sqr_ns", "ns", false),
    ("crypto.group.pow_ns", "ns", false),
    ("crypto.group.pow_g_ns", "ns", false),
    ("crypto.group.multi_pow64_ns", "ns", false),
    ("crypto.schnorr.sign_ns", "ns", false),
    ("crypto.schnorr.verify_ns", "ns", false),
    ("crypto.schnorr.verify_batch64_ns_per_sig", "ns", false),
    ("crypto.vrf.evaluate_prepared_ns", "ns", false),
    ("crypto.vrf.verify_prepared_ns", "ns", false),
    ("crypto.vrf.verify_batch32_ns_per_item", "ns", false),
    ("crypto.dleq.verify_ns", "ns", false),
    ("crypto.aggregate.verify128_ns", "ns", false),
    // ba-fmine: the Eligibility decorator, then timed public calls.
    ("fmine.mine.calls", "count", false),
    ("fmine.mine.busy_s", "s", false),
    ("fmine.mine.hit_frac", "ratio", true),
    ("fmine.would_mine.calls", "count", false),
    ("fmine.would_mine.busy_s", "s", false),
    ("fmine.verify.calls", "count", false),
    ("fmine.verify.busy_s", "s", false),
    ("fmine.verify_batch.calls", "count", false),
    ("fmine.verify_batch.items", "count", false),
    ("fmine.verify_batch.busy_s", "s", false),
    ("fmine.real.setup_ms", "ms", false),
    ("fmine.keychain.setup_ms", "ms", false),
    ("fmine.keychain.verify_batch128_ns_per_sig", "ns", false),
    // ba-core: the Protocol::step decorator.
    ("core.iter.step.calls", "count", false),
    ("core.iter.step.busy_s", "s", false),
    ("core.iter.step.self_s", "s", false),
    ("core.epoch.step.calls", "count", false),
    ("core.epoch.step.busy_s", "s", false),
    ("core.epoch.step.self_s", "s", false),
    ("core.momose_ren.step.calls", "count", false),
    ("core.momose_ren.step.busy_s", "s", false),
    ("core.cks.step.calls", "count", false),
    ("core.cks.step.busy_s", "s", false),
    ("core.iter.op_ms_p50", "ms", false),
    ("core.epoch.op_ms_p50", "ms", false),
    ("core.momose_ren.op_ms_p50", "ms", false),
    ("core.cks.op_ms_p50", "ms", false),
    ("core.cert.vector_bits_per_op", "bit", false),
    ("core.cert.aggregate_bits_per_op", "bit", false),
    // ba-sim: engine, population engine, transports.
    ("sim.engine.null_ns_per_delivery", "ns", false),
    ("sim.engine.self_s", "s", false),
    ("sim.engine.rounds", "count", false),
    ("sim.engine.deliveries", "count", false),
    ("sim.engine.deliveries_per_s", "1/s", true),
    ("sim.population.self_s", "s", false),
    ("sim.population.ns_per_node_round", "ns", false),
    ("sim.population.peak_live_nodes", "count", false),
    ("sim.population.peak_resident_msgs", "count", false),
    ("sim.transport.lockstep.busy_s", "s", false),
    ("sim.transport.latency.busy_s", "s", false),
    ("sim.transport.fault.busy_s", "s", false),
    ("sim.transport.copies", "count", false),
    ("sim.transport.ns_per_copy", "ns", false),
    ("sim.transport.fault.delivered_frac", "ratio", true),
    // ba-adversary: the Adversary decorator.
    ("adversary.intervene.calls", "count", false),
    ("adversary.intervene.busy_s", "s", false),
    ("adversary.corrupt_step.busy_s", "s", false),
    // ba-net: trended, never gated.
    ("net.tcp.setup_ms", "ms", false),
    ("net.tcp.op_ms_p50", "ms", false),
    ("net.tcp.ns_per_copy", "ns", false),
    ("net.tcp.spread_frac", "ratio", false),
    // ba-bench: scenario, sweep, wire, report, baseline; then the tracer.
    ("bench.scenario.build_ms", "ms", false),
    ("bench.sweep.overhead_frac", "ratio", false),
    ("bench.wire.encode_descriptor_ns", "ns", false),
    ("bench.wire.decode_descriptor_ns", "ns", false),
    ("bench.wire.decode_reply_ns", "ns", false),
    ("bench.wire.bytes_per_cell", "B", false),
    ("bench.report.to_json_ms", "ms", false),
    ("bench.baseline.parse_mb_per_s", "MB/s", true),
    ("bench.baseline.diff_ms", "ms", false),
    ("bench.trace.overhead_frac", "ratio", false),
    ("bench.trace.unattributed_frac", "ratio", false),
];

/// Why each workload exists (one line each, `BENCHMARK.json`'s `why`).
pub const WHY: [&str; 5] = [
    "e9 cell, real VRF eligibility with per-run trusted setup: ba-crypto and ba-fmine::real do most of the work",
    "lockstep dense ideal-signature runs of five families at n<=256: ba-core node steps, certificates and the engine's n^2 fan-out dominate",
    "e12 cell at n=100000 under the sparse engine: ba-sim::population and n*tags would_mine probes dominate, engine.rs is bypassed",
    "e11 smoke gauntlet, 142 short cells through the in-memory worker wire: per-execution construction, ba-adversary and ba-bench sweep/wire/report dominate",
    "the same families over transport::latency and transport::fault, stalls included: a lockstep-only gain that costs the Transport seam shows here",
];

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// Shortest decimal rendering without an exponent (bounds are ≥ 1e-6).
fn decimal(v: f64) -> String {
    let s = format!("{v:.6}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .zip(WHY)
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m.higher),
                    decimal(m.bound)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|(name, unit, higher)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                    better(*higher)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `ba-benchmark manifest`");
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let doc = ba_bench::baseline::parse_json(&manifest()).expect("valid JSON");
        let mut names: Vec<&str> = Vec::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for entry in doc.get(key).and_then(|v| v.as_arr()).expect(key) {
                names.push(entry.get("name").and_then(|n| n.as_str()).expect("name"));
                if let Some(why) = entry.get("why").and_then(|w| w.as_str()) {
                    assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {why}");
                }
                if let Some(unit) = entry.get("unit").and_then(|u| u.as_str()) {
                    assert!(unit.len() <= 16, "{unit}");
                }
            }
        }
        assert!(names.iter().all(|n| n.len() <= 64));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher));
        assert!(manifest().len() < 64 * 1024);
    }
}
