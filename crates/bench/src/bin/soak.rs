//! `soak` — a long-running gauntlet sweep that streams results to disk.
//!
//! Cycles over the gauntlet matrix (the `e11_gauntlet` grid) in passes,
//! giving every cell fresh seeds each pass (`seed_offset += pass × seeds`),
//! and appends one JSON line per finished cell to `SOAK_gauntlet.jsonl` in
//! the output directory. The stream is flushed after every cell, so a
//! killed or expired soak loses at most the cell in flight — the intended
//! mode of operation for an overnight run bounded by `--duration` (or a CI
//! run bounded by `--max-cells`).
//!
//! Each line is the schema-versioned **cell-stream** record
//! (`ba-bench/cell-stream/v1`) — the same line `wire::worker_loop` replies
//! with (docs/WIRE.md), so soak output and worker-loop output are
//! interchangeable inputs for downstream tooling.
//!
//! ```text
//! soak [--duration SECS] [--max-cells N] [--seeds N] [--threads N]
//!      [--grid smoke|full] [--out DIR]
//! ```
//!
//! Any cell whose passive expectations are violated (a passive cell that
//! is not `all_ok`, or any honest execution with nonzero `dropped_sends`)
//! is counted and reported in the exit summary; the process exits nonzero
//! if any were seen, so a soak doubles as a long-horizon correctness test.
//!
//! With `--faults`, each pass additionally layers a fault plan over every
//! cell, cycling through the *legal-envelope* plans (adversarial
//! scheduling, duplication, and their composition — see docs/FAULTS.md).
//! Those are the faults a model-legal adversary could have produced, so
//! the passive expectations stay theorems for every protocol in the
//! matrix and the same violation checks apply unchanged. Beyond-envelope
//! chaos (loss, partitions) deliberately stays out of the soak: there
//! safety erosion is a *measured finding* (`e15_faults`), not a bug.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ba_bench::gauntlet::gauntlet_sweeps;
use ba_bench::report::to_json_cell_line;
use ba_bench::sweep::default_threads;
use ba_bench::{Grid, Sweep};
use ba_sim::FaultPlan;

struct SoakArgs {
    duration: Duration,
    max_cells: u64,
    seeds: u64,
    threads: usize,
    grid: Grid,
    out: PathBuf,
    faults: bool,
}

/// The legal-envelope plan for a given soak pass (cycled, starting
/// fault-free so pass 0 reproduces the classic soak exactly).
fn pass_plan(pass: u64) -> FaultPlan {
    let text = match pass % 3 {
        0 => "none",
        1 => "sched=adversarial",
        _ => "dup:p=0.2,sched=adversarial",
    };
    let plan: FaultPlan = text.parse().expect("a canonical plan string");
    assert!(plan.within_envelope(), "soak plans keep the passive checks theorems: {text}");
    plan
}

fn parse_args() -> SoakArgs {
    let mut args = SoakArgs {
        duration: Duration::from_secs(10),
        max_cells: u64::MAX,
        seeds: 2,
        threads: default_threads(),
        grid: Grid::Smoke,
        out: PathBuf::from("."),
        faults: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value =
            |flag: &str| iter.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match arg.as_str() {
            "--duration" => {
                let secs: f64 = value("--duration")
                    .parse()
                    .unwrap_or_else(|_| die("--duration: not a number of seconds"));
                args.duration = Duration::from_secs_f64(secs.max(0.0));
            }
            "--max-cells" => {
                args.max_cells = value("--max-cells")
                    .parse()
                    .unwrap_or_else(|_| die("--max-cells: not a number"));
            }
            "--seeds" => {
                args.seeds =
                    value("--seeds").parse().unwrap_or_else(|_| die("--seeds: not a number"));
            }
            "--threads" => {
                let t: usize =
                    value("--threads").parse().unwrap_or_else(|_| die("--threads: not a number"));
                args.threads = t.max(1);
            }
            "--grid" => {
                args.grid = match value("--grid").as_str() {
                    "full" => Grid::Full,
                    "smoke" => Grid::Smoke,
                    other => die(&format!("--grid: unknown grid {other:?} (full|smoke)")),
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")),
            "--faults" => args.faults = true,
            "--help" | "-h" => {
                println!(
                    "soak — long-running gauntlet sweep, streaming cells to disk\n\n\
                     USAGE: soak [--duration SECS] [--max-cells N] [--seeds N]\n\
                     \x20           [--threads N] [--grid smoke|full] [--out DIR]\n\
                     \x20           [--faults]\n\n\
                     Appends one JSON line per finished cell to SOAK_gauntlet.jsonl\n\
                     in --out (flushed per cell; see EXPERIMENTS.md).\n\
                     --faults cycles legal-envelope fault plans across passes\n\
                     (docs/FAULTS.md); passive-cell checks must still hold."
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other:?} (try --help)")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out)
        .unwrap_or_else(|e| die(&format!("creating {}: {e}", args.out.display())));
    let path = args.out.join("SOAK_gauntlet.jsonl");
    // Append, never truncate: restarting after a kill must keep the cells
    // the previous run streamed (each line is self-describing).
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .unwrap_or_else(|e| die(&format!("opening {}: {e}", path.display())));
    let mut out = std::io::BufWriter::new(file);

    // The matrix, flattened to (sweep title, scenario) work items; each
    // pass re-runs every cell under fresh seeds.
    let cells: Vec<(String, ba_bench::Scenario)> = gauntlet_sweeps(args.grid, args.seeds)
        .into_iter()
        .flat_map(|sweep| {
            let title = sweep.title.clone();
            sweep.scenarios.into_iter().map(move |sc| (title.clone(), sc))
        })
        .collect();

    let start = Instant::now();
    let (mut pass, mut cells_run, mut runs, mut violations) = (0u64, 0u64, 0usize, 0u64);
    'soak: loop {
        for (title, scenario) in &cells {
            if start.elapsed() >= args.duration || cells_run >= args.max_cells {
                break 'soak;
            }
            let mut sc = scenario.clone();
            sc.seed_offset = scenario.seed_offset + pass * args.seeds;
            if args.faults {
                sc.fault_plan = Some(pass_plan(pass));
            }
            let report = Sweep::new(title.clone(), args.seeds, vec![sc]).run(args.threads);
            let cell = &report.cells[0];
            // Long-horizon correctness: honest cells must stay clean on
            // every pass, not just the two seeds CI pins. The prefix also
            // covers the mined families' `passive_real@` rows.
            let passive = cell.scenario.label.starts_with("passive");
            if passive && (cell.count("all_ok") != cell.runs.len()) {
                violations += 1;
                // Safety (agreement/validity) and liveness (termination)
                // misses are both violations, but the distinction matters
                // when triaging a faulted soak: legal-envelope plans may
                // never move safety (docs/FAULTS.md), while a liveness
                // miss can also be the families' w.h.p. tail at soak
                // horizons.
                let runs = cell.runs.len();
                let safety = cell.count("consistent") != runs || cell.count("valid") != runs;
                let kind = if safety { "SAFETY VIOLATION" } else { "VIOLATION" };
                eprintln!("[soak] {kind}: {title}/{} failed honestly", cell.scenario.label);
            }
            if passive && cell.total("dropped_sends") != 0.0 {
                violations += 1;
                eprintln!("[soak] VIOLATION: {title}/{} dropped sends", cell.scenario.label);
            }
            writeln!(out, "{}", to_json_cell_line(title, cells_run, pass, cell))
                .and_then(|()| out.flush())
                .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
            cells_run += 1;
            runs += cell.runs.len();
        }
        pass += 1;
    }

    println!(
        "[soak] {} cell(s), {} run(s), {} full pass(es) in {:.2?}; wrote {}",
        cells_run,
        runs,
        pass,
        start.elapsed(),
        path.display(),
    );
    if violations > 0 {
        eprintln!("[soak] {violations} honest-cell violation(s) — see log above");
        std::process::exit(1);
    }
}
