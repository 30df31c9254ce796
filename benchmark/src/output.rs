//! Printing results, the provenance block, and the multi-process commands
//! (`all`, `repeat`).
//!
//! The last line of a workload run's standard output is the result object
//! the driver reads; everything above it is for people, and the same
//! content is written to `benchmark/out/` as JSON.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use ba_bench::baseline::{parse_json, Json};

use crate::layers::Layered;
use crate::metrics::{END_TO_END, EXACT, PER_LAYER};
use crate::runner::{EndToEnd, Tally, SETUP_REPEATS};
use crate::stats::worsening;
use crate::workloads::WORKLOADS;

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` directly (no subprocess);
/// `"unknown"` outside a git checkout.
fn commit(repo: &Path) -> String {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(repo.join(".git").join(reference)).unwrap_or_default()
        }
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id.to_string()
    }
}

/// `s` as a JSON string literal (labels and provenance carry no control
/// characters).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_nums(values: &[f64]) -> String {
    format!("[{}]", values.iter().map(|v| format!("{v}")).collect::<Vec<_>>().join(", "))
}

/// Commit, compiler, cores, CPU model, seed.
fn provenance(seed: u64) -> String {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    format!(
        "{{\"commit\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"seed\": {seed}, \
         \"load\": \"closed loop, 1 client, 1 thread\"}}",
        json_str(&commit(&repo)),
        json_str(env!("BA_BENCHMARK_RUSTC")),
        json_str(cpu),
    )
}

/// The driver's result object: one line, exactly four keys.
fn result_line(tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn print_failures(tally: &Tally) {
    for (label, failure) in &tally.examples {
        println!("FAILED {label}: {failure:?}");
    }
}

fn write_out(out: &Path, file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(file);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints and stores an untraced run.
pub fn report_end_to_end(name: &str, seed: u64, m: &EndToEnd, out: &Path) -> Result<(), String> {
    let values: BTreeMap<&str, f64> = [
        ("ops_per_s", m.ops_per_s()),
        ("op_ms_p50", m.op_ms_p50()),
        ("op_ms_p90", m.tail.value),
        ("honest_kbits_per_op", m.honest_kbits_per_op()),
        ("rounds_per_op", m.rounds_per_op()),
        ("peak_rss_mb", peak_rss_mb()),
        ("setup_s", m.setup_s()),
    ]
    .into();
    let metrics: Vec<(&str, f64, &str)> =
        END_TO_END.iter().map(|e| (e.name, values[e.name], e.unit)).collect();

    println!("workload {name}  seed {seed}  (untraced; closed loop, 1 client, 1 thread)");
    println!(
        "  {} ops/pass ({} pinned by the golden file), {} passes, {} op samples",
        m.ops_per_pass,
        m.pinned,
        m.pass_walls_s.len(),
        m.op_samples
    );
    println!(
        "  pass walls [s]: {}; steady pass wall (sum of per-op medians) {:.4}",
        json_nums(&m.pass_walls_s),
        m.steady_pass_s()
    );
    println!("  set-up walls [s] ({SETUP_REPEATS} repeats): {}", json_nums(&m.setup_s));
    println!(
        "  op_ms_p50 / op_ms_p90: the median and the p{:.1} of {} op walls (each the median of its {} passes)",
        m.tail.q * 100.0,
        m.op_ms.len(),
        m.pass_walls_s.len()
    );
    for (metric, value, unit) in &metrics {
        println!("  {metric:<22} {value:>14.4} {unit}");
    }
    println!(
        "  {:<22} {:>14.6} ratio ({} failed of {} attempted)",
        "fail_frac",
        m.tally.fail_frac(),
        m.tally.failed,
        m.tally.attempted
    );
    if m.wire.ops > 0 {
        let per_op = |ns: u64| ns as f64 / m.wire.ops as f64 / 1e3;
        println!(
            "  wire stages [µs/op]: encode {:.1}, worker_loop {:.1}, decode_reply {:.1}, to_json {:.1}, diff {:.1}; {:.0} B/op",
            per_op(m.wire.encode_ns),
            per_op(m.wire.worker_ns),
            per_op(m.wire.decode_ns),
            per_op(m.wire.to_json_ns),
            per_op(m.wire.diff_ns),
            m.wire.bytes as f64 / m.wire.ops as f64
        );
    }
    print_failures(&m.tally);

    let line = result_line(&m.tally, &metrics);
    let doc = format!(
        "{{\"workload\": \"{name}\", \"trace\": false, \"provenance\": {}, \"passes\": {}, \
         \"ops_per_pass\": {}, \"pass_walls_s\": {}, \"steady_pass_s\": {}, \"setup_walls_s\": {}, \
         \"samples\": {{\"ops_per_s\": {}, \"op_ms_p50\": {}, \"op_ms_p90\": {}, \"setup_s\": {}}}, \
         \"op_ms_p90_percentile\": {}, \"fail_frac\": {}, \"result\": {line}}}\n",
        provenance(seed),
        m.pass_walls_s.len(),
        m.ops_per_pass,
        json_nums(&m.pass_walls_s),
        m.steady_pass_s(),
        json_nums(&m.setup_s),
        m.op_samples,
        m.op_samples,
        m.op_samples,
        m.setup_s.len(),
        m.tail.q,
        m.tally.fail_frac(),
    );
    write_out(out, &format!("run_{name}.json"), &doc)?;
    println!("{line}");
    Ok(())
}

/// Prints and stores a traced run; writes the span file.
pub fn report_layered(name: &str, seed: u64, l: &Layered, out: &Path) -> Result<(), String> {
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|(metric, unit, _)| {
            let value = l.values.get(metric).copied();
            (*metric, value.unwrap_or_else(|| panic!("{metric} was not measured")), *unit)
        })
        .collect();

    println!("workload {name}  seed {seed}  (traced; closed loop, 1 client, 1 thread)");
    println!(
        "  {} ops traced; untraced pass {:.3} s, traced pass {:.3} s",
        l.tally.attempted, l.untraced_wall_s, l.traced_wall_s
    );
    println!("  self time by layer (sums to the traced op wall):");
    for (layer, self_s, share) in l.layer_shares() {
        println!("    {layer:<22} {self_s:>10.4} s {:>6.1} %", share * 100.0);
    }
    for (metric, value, unit) in &metrics {
        let samples = l.samples.get(metric).map_or(String::new(), |n| format!("  ({n} samples)"));
        println!("  {metric:<44} {value:>16.4} {unit}{samples}");
    }
    print_failures(&l.tally);

    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let spans = out.join(format!("trace_{name}.jsonl"));
    let file = std::fs::File::create(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
    l.trace
        .write_jsonl(std::io::BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", spans.display()))?;

    let line = result_line(&l.tally, &metrics);
    let shares: Vec<String> = l
        .layer_shares()
        .iter()
        .map(|(layer, self_s, share)| {
            format!("{{\"layer\": \"{layer}\", \"self_s\": {self_s}, \"share\": {share}}}")
        })
        .collect();
    let samples: Vec<String> = l.samples.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let doc = format!(
        "{{\"workload\": \"{name}\", \"trace\": true, \"provenance\": {}, \"traced_ops\": {}, \
         \"untraced_pass_s\": {}, \"traced_pass_s\": {}, \"layers\": [{}], \"samples\": {{{}}}, \
         \"result\": {line}}}\n",
        provenance(seed),
        l.tally.attempted,
        l.untraced_wall_s,
        l.traced_wall_s,
        shares.join(", "),
        samples.join(", "),
    );
    write_out(out, &format!("trace_{name}.json"), &doc)?;
    println!("{line}");
    Ok(())
}

/// Runs one workload in a process of its own (so `peak_rss_mb` is per
/// workload), relays its report, and returns its parsed result object.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or(format!("the {workload} run printed nothing"))?;
    parse_json(last).map_err(|e| format!("{workload}: result line: {e}"))
}

fn is_correct(result: &Json) -> bool {
    matches!(result.get("correct"), Some(Json::Bool(true)))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_num()
}

/// `all`: every workload untraced, then traced, each in its own process.
pub fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut correct = true;
    for trace in [false, true] {
        for workload in WORKLOADS {
            correct &= is_correct(&child(workload, seed, seconds, trace)?);
            println!();
        }
    }
    println!("{}", if correct { "all workloads correct" } else { "SOME OPS FAILED" });
    Ok(correct)
}

/// `repeat`: the full untraced set twice; fails when a gated metric of the
/// second set is worse than the first by more than its bound, or a run
/// reports a failed op.
pub fn repeat(seed: u64, seconds: f64, out: &Path) -> Result<bool, String> {
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for set in 1..=2 {
        let mut results = Vec::new();
        for workload in WORKLOADS {
            results.push(child(workload, seed, seconds, false)?);
            let from = out.join(format!("run_{workload}.json"));
            let to = out.join(format!("repeat{set}_{workload}.json"));
            std::fs::rename(&from, &to).map_err(|e| format!("{}: {e}", from.display()))?;
        }
        sets.push(results);
    }
    let mut agree = true;
    println!("\nrepeat: second set against the first (same commit, same seed)");
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>9}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let (first, second) = (&sets[0][w], &sets[1][w]);
        if !is_correct(first) || !is_correct(second) {
            println!("{workload:<18} a run reported failed ops");
            agree = false;
        }
        for m in &END_TO_END {
            let (a, b) = match (metric(first, m.name), metric(second, m.name)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(format!("{workload}: result lacks {}", m.name)),
            };
            let worse = worsening(a, b, m.higher);
            // Symmetric: the two sets are the same commit, so the first
            // being worse than the second is as much a disagreement. The
            // modelled-cost metrics must not move at all.
            let exact = m.bound == EXACT;
            let ok = if exact { a == b } else { worse.abs() <= m.bound };
            agree &= ok;
            let bound = if exact { "exact".into() } else { format!("{:.0}%", m.bound * 100.0) };
            println!(
                "{workload:<18} {:<20} {a:>14.4} {b:>14.4} {:>8.2}% {bound:>9}{}",
                m.name,
                worse * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    println!(
        "{}",
        if agree { "repeat: the two sets agree" } else { "repeat: THE TWO SETS DISAGREE" }
    );
    Ok(agree)
}
