//! The `ba-bench` tool binary — report maintenance.
//!
//! ```text
//! ba-bench diff <baseline.json> <candidate.json>
//!               [--abs-tol X] [--rel-tol Y] [--ignore m1,m2]
//!               [--ignore-observable GLOB] [--quiet]
//! ```
//!
//! `diff` compares two `BENCH_*.json` reports (schema
//! `ba-bench/sweep-report/v1`) cell by cell and exits 0 when the candidate
//! matches the baseline within tolerance, 1 on drift, 2 on usage or I/O
//! errors. The default tolerance is exact equality — the CI configuration,
//! since the smoke grid is deterministic. Ignore entries (both the
//! comma-separated `--ignore` list and the repeatable
//! `--ignore-observable`) are glob patterns: `--ignore-observable
//! 'latency_*'` exempts every wall-clock latency observable at once. See
//! EXPERIMENTS.md ("Baselines") for the regeneration workflow.

use ba_bench::baseline::{diff_reports, DriftKind, Tolerance};

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("diff") => diff_cmd(args.collect()),
        Some("--help") | Some("-h") | None => {
            println!(
                "ba-bench — report maintenance tool\n\n\
                 USAGE:\n  ba-bench diff <baseline.json> <candidate.json>\n\
                 \x20              [--abs-tol X] [--rel-tol Y] [--ignore m1,m2]\n\
                 \x20              [--ignore-observable GLOB] [--quiet]\n\n\
                 diff exits 0 when the candidate matches the baseline within tolerance,\n\
                 1 on drift, 2 on usage/IO errors."
            );
        }
        Some(other) => die(&format!("unknown subcommand {other:?} (try --help)")),
    }
}

fn diff_cmd(args: Vec<String>) {
    let mut files: Vec<String> = Vec::new();
    let mut tol = Tolerance::default();
    let mut quiet = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut value =
            |flag: &str| iter.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match arg.as_str() {
            "--abs-tol" => {
                tol.abs =
                    value("--abs-tol").parse().unwrap_or_else(|_| die("--abs-tol: not a number"))
            }
            "--rel-tol" => {
                tol.rel =
                    value("--rel-tol").parse().unwrap_or_else(|_| die("--rel-tol: not a number"))
            }
            "--ignore" => tol.ignore.extend(value("--ignore").split(',').map(str::to_string)),
            "--ignore-observable" => tol.ignore.push(value("--ignore-observable")),
            "--quiet" => quiet = true,
            other if other.starts_with("--") => die(&format!("unknown flag {other:?}")),
            path => files.push(path.to_string()),
        }
    }
    let [baseline_path, candidate_path] = files.as_slice() else {
        die("diff needs exactly two files: <baseline.json> <candidate.json>");
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")))
    };
    let report =
        diff_reports(&read(baseline_path), &read(candidate_path), &tol).unwrap_or_else(|e| die(&e));

    if report.passed() {
        if !quiet {
            println!(
                "OK: {candidate_path} matches {baseline_path} ({} observables compared)",
                report.compared
            );
        }
        return;
    }
    let structural = report.drifts.iter().filter(|d| d.kind == DriftKind::Structural).count();
    let value = report.drifts.len() - structural;
    eprint!("{}", report.render());
    eprintln!(
        "DRIFT: {candidate_path} diverges from {baseline_path}: \
         {structural} structural, {value} value finding(s) \
         ({} observables compared)",
        report.compared
    );
    eprintln!(
        "If this change is intentional, regenerate the baseline \
         (see EXPERIMENTS.md, \"Baselines\")."
    );
    std::process::exit(1);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
