//! `ba-benchmark`: the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! ba-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ba-benchmark [all] [--seed N] [--seconds S]    every workload, untraced then traced
//! ba-benchmark repeat [--seed N] [--seconds S]   the untraced set twice, compared
//! ba-benchmark bless                             rewrite benchmark/golden/*.json
//! ba-benchmark manifest                          print BENCHMARK.json
//! ```

mod golden;
mod layers;
mod metrics;
mod output;
mod runner;
mod seams;
mod stats;
mod trace;
mod traced_exec;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{DEFAULT_SEED, RUN_SECONDS};
use workloads::WORKLOADS;

/// `benchmark/`, wherever the checkout lives.
fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "all".into(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "all" | "repeat" | "bless" | "manifest" => args.command = arg,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload {name:?} (want one of {WORKLOADS:?})"));
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    let dir = benchmark_dir();
    let golden = dir.join("golden");
    if let Some(name) = &args.workload {
        // A run that printed its result succeeded, whatever the result
        // says: the reader takes `correct` / `failed` from the last line.
        if args.trace {
            let layered = layers::run_layered(name, args.seed, args.seconds, &golden)?;
            output::report_layered(name, args.seed, &layered, &dir.join("out"))?;
        } else {
            let measured = runner::run_end_to_end(name, args.seed, args.seconds, &golden)?;
            output::report_end_to_end(name, args.seed, &measured, &dir.join("out"))?;
        }
        return Ok(true);
    }
    match args.command.as_str() {
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        "bless" => {
            for name in WORKLOADS {
                let golden = runner::bless(name, &golden)?;
                println!(
                    "{name}: {} ops blessed, {} pinned as not holding",
                    golden.0.len(),
                    golden.pinned()
                );
            }
            Ok(true)
        }
        "repeat" => output::repeat(args.seed, args.seconds, &dir.join("out")),
        _ => output::all(args.seed, args.seconds),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ba-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
