//! The shared experiment CLI.
//!
//! Every experiment binary (`e1`–`e15`) accepts the same flags. The five
//! grid-wide overrides among them (`--sim-threads`, `--population`,
//! `--transport`, `--cert-encoding`, `--faults`) are not spelled in this
//! file: each is a row of [`crate::scenario::AXES`] with a CLI grammar, and
//! parsing, `--help` and the override pass in [`Cli::run`] loop over the
//! table.
//!
//! * `--seeds N` — override each sweep's seed count (smoke runs use 2);
//! * `--grid full|smoke` — the full paper grid or a reduced CI grid;
//! * `--threads N` — sweep worker count (default: all cores);
//! * `--sim-threads N` — worker threads *inside* each execution (default:
//!   scenario-specified, usually 1); outputs are byte-identical at every
//!   `--threads` × `--sim-threads` combination;
//! * `--population sparse|dense` — population engine applied to every
//!   scenario (default: scenario-specified, usually dense). Sparse runs
//!   materialize only active nodes; sparse-capable protocol families are
//!   byte-identical to dense and the rest silently fall back, so this is
//!   a resource knob like `--sim-threads`;
//! * `--transport lockstep|latency[:k=v,...]|tcp` — delivery transport
//!   applied to every scenario (default: scenario-specified, usually
//!   lockstep). Unlike `--sim-threads`/`--population` this is a
//!   *protocol-affecting* axis (see docs/NETWORKING.md);
//! * `--cert-encoding vector|aggregate` — quorum-certificate encoding
//!   applied to every scenario (default: scenario-specified, usually
//!   vector). Protocol-affecting like `--transport` in that it changes
//!   message sizes, but decision observables are provably identical
//!   across encodings (see docs/CERTIFICATES.md);
//! * `--faults PLAN` — network-fault plan layered over every scenario's
//!   transport (`none`, or comma-joined `drop:p=R[:from=A][:until=B]`,
//!   `dup:p=R`, `reorder:p=R[:budget=K]`, `partition:A..B=SPLIT`,
//!   `sched=adversarial`; see docs/FAULTS.md). Injection is
//!   seed-deterministic; safety observables are invariant under every
//!   plan, liveness observables may move;
//! * `--round-ms MS` / `--gst MS` / `--delay-dist DIST` — shorthand knobs
//!   for the latency transport's round duration, global stabilization
//!   time, and per-link delay distribution (`zero`, `uniform:LO..HI`,
//!   `exp:MEAN`); imply `--transport latency` when it is not given, and
//!   refuse to combine with an explicit non-latency `--transport`;
//! * `--workers N` — distribute the grid's cells across `N` worker
//!   *subprocesses* instead of in-process threads (crash-recovering; see
//!   docs/DISTRIBUTED.md). Outputs are byte-identical to the in-process
//!   path at every worker count;
//! * `--worker-cmd CMD` — the worker command line (default: this binary
//!   re-invoked with `--worker`; `ba-bench worker` also speaks the
//!   protocol);
//! * `--worker` — run *as* a wire-protocol worker on stdin/stdout instead
//!   of an experiment (what `--workers` spawns);
//! * `--format md[,csv][,json]|all` — output formats (default `md`);
//! * `--out DIR` — where `BENCH_<experiment>.{json,csv}` are written.

use std::path::PathBuf;
use std::time::Instant;

use ba_sim::{DelayDist, TransportSpec};

use crate::dist::{self, DistConfig};
use crate::report::{quarantine_summary, to_csv, to_json};
use crate::scenario::{Scenario, AXES};
use crate::sweep::{default_threads, Sweep, SweepReport};
use crate::wire::{FailMode, FailPlan};

/// Grid size selector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Grid {
    /// The full grid regenerating the paper's numbers.
    Full,
    /// A reduced grid (smallest `n`, few cells) for CI smoke runs.
    Smoke,
}

/// Parsed command line of one experiment binary.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The experiment name (`e2_multicast_complexity`, ...).
    pub experiment: &'static str,
    /// `--seeds` override, if given.
    pub seeds: Option<u64>,
    /// Grid size.
    pub grid: Grid,
    /// Sweep worker count.
    pub threads: usize,
    /// The grid-wide overrides given, as `(axis key, value)` in command-line
    /// order: [`Cli::run`] sets each on every scenario of every sweep, and
    /// an axis without an entry keeps its scenario-specified values. Values
    /// are checked against the axis grammar at parse time. (The latency
    /// shorthand knobs below end up here too, folded into `transport`.)
    pub overrides: Vec<(&'static str, String)>,
    /// `--round-ms` shorthand: latency-transport round duration override.
    pub round_ms: Option<u64>,
    /// `--gst` shorthand: latency-transport global stabilization time.
    pub gst: Option<u64>,
    /// `--delay-dist` shorthand: latency-transport delay distribution.
    pub delay_dist: Option<DelayDist>,
    /// `--workers`: distribute cells across this many worker subprocesses
    /// (`None` = in-process execution on [`Cli::threads`]).
    pub workers: Option<usize>,
    /// `--worker-cmd`: the worker command line (`None` = this binary with
    /// `--worker`).
    pub worker_cmd: Option<Vec<String>>,
    /// `--worker`: serve the wire protocol instead of running sweeps
    /// ([`Cli::parse`] acts on this before returning).
    pub worker_mode: bool,
    /// `--worker-fail-after`: fault-injection hook — die mid-cell after
    /// completing this many cells (workers only; used by tests and the CI
    /// kill-a-worker step).
    pub worker_fail: Option<FailPlan>,
    /// Emit the experiment's markdown tables on stdout.
    emit_md: bool,
    /// Emit `BENCH_<experiment>.csv`.
    emit_csv: bool,
    /// Emit `BENCH_<experiment>.json`.
    emit_json: bool,
    /// Output directory for CSV/JSON (default `.`).
    out: PathBuf,
}

impl Cli {
    /// Parses `std::env::args` (exits on `--help` or bad flags). Under
    /// `--worker` this never returns: the process serves the distributed
    /// wire protocol on stdin/stdout and exits with the worker's status.
    pub fn parse(experiment: &'static str) -> Cli {
        let cli = Cli::parse_from(experiment, std::env::args().skip(1));
        if cli.worker_mode {
            std::process::exit(crate::wire::worker_main(cli.worker_fail));
        }
        cli
    }

    /// Parses an explicit argument list (testing hook).
    pub fn parse_from(experiment: &'static str, args: impl IntoIterator<Item = String>) -> Cli {
        let mut cli = Cli {
            experiment,
            seeds: None,
            grid: Grid::Full,
            threads: default_threads(),
            overrides: Vec::new(),
            round_ms: None,
            gst: None,
            delay_dist: None,
            workers: None,
            worker_cmd: None,
            worker_mode: false,
            worker_fail: None,
            emit_md: true,
            emit_csv: false,
            emit_json: false,
            out: PathBuf::from("."),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value =
                |flag: &str| args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
            match arg.as_str() {
                "--seeds" => {
                    cli.seeds = Some(
                        value("--seeds").parse().unwrap_or_else(|_| die("--seeds: not a number")),
                    )
                }
                "--grid" => {
                    cli.grid = match value("--grid").as_str() {
                        "full" => Grid::Full,
                        "smoke" => Grid::Smoke,
                        other => die(&format!("--grid: unknown grid {other:?} (full|smoke)")),
                    }
                }
                "--threads" => {
                    let t: usize = value("--threads")
                        .parse()
                        .unwrap_or_else(|_| die("--threads: not a number"));
                    cli.threads = t.max(1);
                }
                "--round-ms" => {
                    let ms: u64 = value("--round-ms")
                        .parse()
                        .unwrap_or_else(|_| die("--round-ms: not a number"));
                    if ms == 0 {
                        die("--round-ms must be positive");
                    }
                    cli.round_ms = Some(ms);
                }
                "--gst" => {
                    cli.gst =
                        Some(value("--gst").parse().unwrap_or_else(|_| die("--gst: not a number")))
                }
                "--delay-dist" => {
                    let raw = value("--delay-dist");
                    cli.delay_dist = Some(raw.parse().unwrap_or_else(|e: String| die(&e)));
                }
                "--workers" => {
                    let w: usize = value("--workers")
                        .parse()
                        .unwrap_or_else(|_| die("--workers: not a number"));
                    cli.workers = Some(w.max(1));
                }
                "--worker-cmd" => {
                    let cmd = dist::split_command(&value("--worker-cmd"));
                    if cmd.is_empty() {
                        die("--worker-cmd: empty command");
                    }
                    cli.worker_cmd = Some(cmd);
                }
                "--worker" => cli.worker_mode = true,
                "--worker-fail-after" => {
                    let after: u64 = value("--worker-fail-after")
                        .parse()
                        .unwrap_or_else(|_| die("--worker-fail-after: not a number"));
                    cli.worker_fail = Some(FailPlan::with_after(cli.worker_fail, after));
                }
                "--worker-fail-mode" => {
                    let raw = value("--worker-fail-mode");
                    let mode = FailMode::parse(&raw).unwrap_or_else(|| {
                        die(&format!("--worker-fail-mode: unknown mode {raw:?}"))
                    });
                    cli.worker_fail = Some(FailPlan::with_mode(cli.worker_fail, mode));
                }
                "--format" => {
                    cli.emit_md = false;
                    cli.emit_csv = false;
                    cli.emit_json = false;
                    for fmt in value("--format").split(',') {
                        match fmt {
                            "md" | "markdown" => cli.emit_md = true,
                            "csv" => cli.emit_csv = true,
                            "json" => cli.emit_json = true,
                            "all" => {
                                cli.emit_md = true;
                                cli.emit_csv = true;
                                cli.emit_json = true;
                            }
                            other => die(&format!("--format: unknown format {other:?}")),
                        }
                    }
                }
                "--out" => cli.out = PathBuf::from(value("--out")),
                "--help" | "-h" => {
                    let overrides: String = AXES
                        .iter()
                        .filter_map(|axis| Some((axis.flag(), axis.cli?)))
                        .map(|(flag, grammar)| format!("{:18}[{flag} {grammar}]\n", ""))
                        .collect();
                    println!(
                        "{experiment} — see EXPERIMENTS.md\n\n\
                         USAGE: {experiment} [--seeds N] [--grid full|smoke] [--threads N]\n\
                         {overrides}\
                         \x20                 [--round-ms MS] [--gst MS] [--delay-dist DIST]\n\
                         \x20                 [--workers N] [--worker-cmd CMD]\n\
                         \x20                 [--format md,csv,json|all] [--out DIR]\n\
                         \x20      {experiment} --worker   (serve the distributed wire protocol;\n\
                         \x20                 see docs/DISTRIBUTED.md)"
                    );
                    std::process::exit(0);
                }
                // Every other flag is a grid-wide axis override: the
                // `AXES` row it names checks the value.
                flag => {
                    let axis = AXES.iter().find(|axis| axis.cli.is_some() && axis.flag() == flag);
                    let Some(axis) = axis else {
                        die(&format!("unknown flag {flag:?} (try --help)"))
                    };
                    let raw = value(flag);
                    if let Err(e) = (axis.set)(&mut Scenario::blank(), &raw) {
                        die(&format!("{flag}: {e}"));
                    }
                    cli.overrides.push((axis.key, raw));
                }
            }
        }
        if let Some(transport) = cli.transport_override() {
            cli.overrides.push(("transport", transport.to_string()));
        }
        cli
    }

    /// The value of the grid-wide override given for the [`AXES`] row `key`
    /// (the last one, when a flag repeats), if any.
    pub fn override_of(&self, key: &str) -> Option<&str> {
        self.overrides.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }

    /// The seed count to use where the full grid would use `default`.
    pub fn seeds_or(&self, default: u64) -> u64 {
        self.seeds.unwrap_or(default)
    }

    /// True under `--grid smoke`.
    pub fn smoke(&self) -> bool {
        self.grid == Grid::Smoke
    }

    /// Whether the binary should print its markdown tables.
    pub fn markdown(&self) -> bool {
        self.emit_md
    }

    /// Resolves `--transport` and the latency shorthand knobs into one
    /// grid-wide transport override (`None` = keep scenario-specified
    /// transports). `--round-ms`/`--gst`/`--delay-dist` imply a latency
    /// transport when `--transport` is absent and refuse to modify an
    /// explicit non-latency one.
    pub fn transport_override(&self) -> Option<TransportSpec> {
        let knobs = self.round_ms.is_some() || self.gst.is_some() || self.delay_dist.is_some();
        let base = match self.override_of("transport") {
            Some(raw) => raw.parse().unwrap_or_else(|e: String| die(&e)),
            None if knobs => TransportSpec::latency_zero(),
            None => return None,
        };
        if !knobs {
            return Some(base);
        }
        let TransportSpec::Latency { round_ms, gst_ms, dist } = base else {
            die(&format!(
                "--round-ms/--gst/--delay-dist configure the latency transport, \
                 but --transport is {base}"
            ));
        };
        Some(TransportSpec::Latency {
            round_ms: self.round_ms.unwrap_or(round_ms),
            gst_ms: self.gst.unwrap_or(gst_ms),
            dist: self.delay_dist.unwrap_or(dist),
        })
    }

    /// Executes the sweeps on the configured worker count — in-process
    /// threads, or (under `--workers`) a crash-recovering pool of worker
    /// subprocesses producing byte-identical reports — applying every
    /// grid-wide override to every scenario first.
    pub fn run(&self, mut sweeps: Vec<Sweep>) -> Vec<SweepReport> {
        for scenario in sweeps.iter_mut().flat_map(|sweep| &mut sweep.scenarios) {
            for (key, value) in &self.overrides {
                scenario.set_axis(key, value).unwrap_or_else(|e| die(&e));
            }
        }
        let start = Instant::now();
        let (reports, how) = match self.workers {
            Some(workers) => {
                let worker_cmd = match self.worker_cmd.clone() {
                    Some(cmd) => cmd,
                    None => dist::self_worker_cmd().unwrap_or_else(|e| die(&e)),
                };
                let cfg = DistConfig::new(workers, worker_cmd);
                let reports = dist::run_sweeps(&sweeps, &cfg).unwrap_or_else(|e| die(&e));
                (reports, format!("{workers} worker process(es)"))
            }
            None => (
                sweeps.iter().map(|s| s.run(self.threads)).collect(),
                format!("{} thread(s)", self.threads),
            ),
        };
        eprintln!(
            "[{}] {} sweep(s), {} runs, {how}: {:.2?}",
            self.experiment,
            reports.len(),
            reports.iter().flat_map(|r| r.cells.iter()).map(|c| c.runs.len()).sum::<usize>(),
            start.elapsed(),
        );
        // Quarantined cells are surfaced, never silently dropped: in the
        // markdown stream when enabled, on stderr always.
        if let Some(summary) = quarantine_summary(&reports) {
            if self.emit_md {
                println!("{summary}");
            }
            eprint!("[{}] {summary}", self.experiment);
        }
        reports
    }

    /// Writes the structured outputs selected by `--format` and returns the
    /// paths written.
    pub fn write_outputs(&self, reports: &[SweepReport]) -> Vec<PathBuf> {
        let mut written = Vec::new();
        if self.emit_json {
            let path = self.out.join(format!("BENCH_{}.json", self.experiment));
            write_file(&path, &to_json(self.experiment, reports));
            written.push(path);
        }
        if self.emit_csv {
            let path = self.out.join(format!("BENCH_{}.csv", self.experiment));
            write_file(&path, &to_csv(reports));
            written.push(path);
        }
        for path in &written {
            eprintln!("[{}] wrote {}", self.experiment, path.display());
        }
        written
    }
}

fn write_file(path: &PathBuf, contents: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| die(&format!("creating {}: {e}", dir.display())));
        }
    }
    std::fs::write(path, contents)
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        Cli::parse_from("e_test", args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]);
        assert_eq!(cli.seeds_or(20), 20);
        assert!(!cli.smoke());
        assert!(cli.markdown());
        assert!(cli.threads >= 1);
        assert!(cli.overrides.is_empty());
    }

    fn quadratic(n: usize) -> Scenario {
        Scenario::new("q", n, crate::scenario::ProtocolSpec::QuadraticHalf)
    }

    /// The generic half of every grid-wide override, row by row: the flag
    /// parses, its value lands on every scenario of every sweep and on no
    /// other axis, and without the flag the scenarios run untouched.
    #[test]
    fn every_axis_flag_overrides_every_scenario() {
        use crate::wire::tests::{rendered, sample_scenario};
        let sample = sample_scenario();
        let sweeps = || {
            vec![
                Sweep::new("a", 1, vec![quadratic(5), quadratic(7).f(1)]),
                Sweep::new("b", 1, vec![quadratic(9).sim_threads(4)]),
            ]
        };
        let untouched = parse(&[]).run(sweeps());
        for (report, sweep) in untouched.iter().zip(sweeps()) {
            let ran: Vec<&Scenario> = report.cells.iter().map(|cell| &cell.scenario).collect();
            assert_eq!(ran, sweep.scenarios.iter().collect::<Vec<_>>());
        }
        let overridable: Vec<_> = AXES.iter().filter(|axis| axis.cli.is_some()).collect();
        assert_eq!(overridable.len(), 5, "five grid-wide override flags");
        for axis in overridable {
            let value = rendered(axis, &sample).expect("the sample sets every axis");
            let cli = parse(&[&axis.flag(), &value]);
            assert_eq!(cli.override_of(axis.key), Some(value.as_str()));
            assert_eq!(parse(&[]).override_of(axis.key), None);
            for (report, before) in cli.run(sweeps()).iter().zip(&untouched) {
                for (cell, before) in report.cells.iter().zip(&before.cells) {
                    for other in AXES {
                        let want = match other.key == axis.key {
                            true => Some(value.clone()),
                            false => rendered(other, &before.scenario),
                        };
                        assert_eq!(rendered(other, &cell.scenario), want, "{}", other.key);
                    }
                }
            }
        }
    }

    #[test]
    fn sim_threads_flag_overrides_scenarios() {
        let cli = parse(&["--sim-threads", "3"]);
        let reports = cli.run(vec![Sweep::new("t", 1, vec![quadratic(5).sim_threads(1)])]);
        // The override is applied before execution; the run itself must be
        // indistinguishable from a serial one.
        let serial = Sweep::new("t", 1, vec![quadratic(5)]).run(1);
        assert_eq!(
            reports[0].cells[0].samples("multicasts"),
            serial.cells[0].samples("multicasts")
        );
    }

    #[test]
    fn population_flag_overrides_scenarios() {
        let cli = parse(&["--population", "sparse"]);
        // QuadraticHalf is not sparse-capable: the run must silently fall
        // back and match the dense report.
        let reports = cli.run(vec![Sweep::new("t", 1, vec![quadratic(5)])]);
        let dense = Sweep::new("t", 1, vec![quadratic(5)]).run(1);
        assert_eq!(reports[0].cells[0].samples("multicasts"), dense.cells[0].samples("multicasts"));
    }

    #[test]
    fn transport_flag_overrides_scenarios() {
        let cli = parse(&["--transport", "latency:round_ms=5,gst_ms=0,dist=zero"]);
        assert_eq!(
            cli.transport_override(),
            Some(TransportSpec::Latency { round_ms: 5, gst_ms: 0, dist: DelayDist::Zero })
        );
        // Zero-delay latency with GST 0 is provably equivalent to lockstep:
        // the overridden run must match a lockstep one observable for
        // observable (modulo the latency-only observables).
        let reports = cli.run(vec![Sweep::new("t", 1, vec![quadratic(5)])]);
        let lockstep = Sweep::new("t", 1, vec![quadratic(5)]).run(1);
        assert_eq!(
            reports[0].cells[0].samples("multicasts"),
            lockstep.cells[0].samples("multicasts")
        );
        assert_eq!(reports[0].cells[0].samples("rounds"), lockstep.cells[0].samples("rounds"));
        // The latency transport reports what lockstep cannot: delivery stats.
        assert!(!reports[0].cells[0].samples("latency_delivered").is_empty());
        assert!(lockstep.cells[0].samples("latency_delivered").is_empty());
    }

    #[test]
    fn cert_encoding_flag_overrides_scenarios() {
        let cli = parse(&["--cert-encoding", "aggregate"]);
        // Aggregate certificates change message sizes but provably not the
        // protocol's decisions: every non-bit observable must match the
        // vector run.
        let reports = cli.run(vec![Sweep::new("t", 2, vec![quadratic(9)])]);
        let vector = Sweep::new("t", 2, vec![quadratic(9)]).run(1);
        for obs in ["rounds", "multicasts", "unicasts", "decision", "all_ok"] {
            assert_eq!(
                reports[0].cells[0].samples(obs),
                vector.cells[0].samples(obs),
                "{obs} must be encoding-independent"
            );
        }
        // ...while the certificate share of the bits genuinely shrinks.
        let agg_bits = reports[0].cells[0].samples("cert_bits");
        let vec_bits = vector.cells[0].samples("cert_bits");
        assert!(agg_bits.iter().sum::<f64>() < vec_bits.iter().sum::<f64>());
    }

    #[test]
    fn faults_flag_overrides_scenarios() {
        let cli = parse(&["--faults", "none"]);
        // An empty plan wraps every transport in the fault layer but is a
        // structural pass-through: observables match the bare run exactly
        // and no fault stats are recorded.
        let reports = cli.run(vec![Sweep::new("t", 1, vec![quadratic(5)])]);
        let bare = Sweep::new("t", 1, vec![quadratic(5)]).run(1);
        assert_eq!(reports[0].cells[0].samples("multicasts"), bare.cells[0].samples("multicasts"));
        assert_eq!(reports[0].cells[0].samples("rounds"), bare.cells[0].samples("rounds"));
        assert!(
            reports[0].cells[0].samples("faults_dropped").is_empty(),
            "empty plan keeps no fault stats"
        );
        // A certain-drop plan parses, records fault stats, and degrades
        // liveness without touching safety.
        let cli = parse(&["--faults", "drop:p=1"]);
        let reports = cli.run(vec![Sweep::new("t", 1, vec![quadratic(5)])]);
        let cell = &reports[0].cells[0];
        assert!(cell.samples("faults_dropped").iter().sum::<f64>() > 0.0);
        assert_eq!(cell.count("consistent"), 1, "safety holds under total drop");
        assert_eq!(cell.count("valid"), 1);
    }

    #[test]
    fn latency_knobs_imply_latency_transport() {
        let cli = parse(&["--gst", "40", "--delay-dist", "uniform:1..5", "--round-ms", "20"]);
        assert_eq!(
            cli.transport_override(),
            Some(TransportSpec::Latency {
                round_ms: 20,
                gst_ms: 40,
                dist: DelayDist::Uniform { lo_ms: 1, hi_ms: 5 },
            })
        );
        // Knobs patch an explicit latency transport rather than replacing it.
        let cli = parse(&["--transport", "latency:round_ms=7", "--gst", "3"]);
        assert_eq!(
            cli.transport_override(),
            Some(TransportSpec::Latency { round_ms: 7, gst_ms: 3, dist: DelayDist::Zero })
        );
        assert_eq!(parse(&[]).transport_override(), None);
    }

    #[test]
    fn flags_parse() {
        let cli = parse(&[
            "--seeds",
            "3",
            "--grid",
            "smoke",
            "--threads",
            "4",
            "--format",
            "json,csv",
            "--out",
            "reports",
        ]);
        assert_eq!(cli.seeds_or(20), 3);
        assert!(cli.smoke());
        assert_eq!(cli.threads, 4);
        assert!(!cli.markdown());
        assert!(cli.emit_json && cli.emit_csv);
        assert_eq!(cli.out, PathBuf::from("reports"));
    }

    #[test]
    fn format_all() {
        let cli = parse(&["--format", "all"]);
        assert!(cli.markdown() && cli.emit_csv && cli.emit_json);
    }
}
