//! The behavioural contract, inside Tier-1: the e11 smoke gauntlet — every
//! protocol family × adversary × corruption model — regenerated in-process
//! must match the committed baseline on every observable. A refactor that
//! moves one honest bit, round, corruption or verdict in any family fails
//! `cargo test -q` at the root, not only the CI smoke-diff. The same cells
//! through the worker wire (descriptor codec, worker loop, reply decoder)
//! must match it too, so the codec is guarded where the engines are.

use ba_bench::report::to_json;
use ba_bench::wire::{decode_reply, encode_descriptor, worker_loop, CellDescriptor, WorkerReply};
use ba_bench::{diff_reports, gauntlet_sweeps, CellReport, Grid, Sweep, SweepReport, Tolerance};

/// The smoke gauntlet with `population` set on every cell by the by-key
/// override `Cli::run` applies for `--population`.
fn smoke_gauntlet(population: &str) -> Vec<Sweep> {
    let mut sweeps = gauntlet_sweeps(Grid::Smoke, 2);
    for scenario in sweeps.iter_mut().flat_map(|sweep| &mut sweep.scenarios) {
        scenario.set_axis("population", population).expect("a population mode");
    }
    sweeps
}

/// Diffs regenerated gauntlet `reports` against the committed baseline,
/// ignoring the observables matching `ignore`; at least `compared`
/// observables must have been compared.
fn assert_matches_baseline(what: &str, reports: &[SweepReport], ignore: &[&str], compared: usize) {
    let runs: usize = reports.iter().flat_map(|r| &r.cells).map(|c| c.runs.len()).sum();
    assert_eq!((reports.len(), runs), (8, 284), "the smoke gauntlet is 8 sweeps / 284 runs");

    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/smoke/BENCH_e11_gauntlet.json");
    let baseline = std::fs::read_to_string(baseline).expect("committed baseline is readable");
    let tolerance = Tolerance {
        ignore: ignore.iter().map(|s| s.to_string()).collect(),
        ..Tolerance::default()
    };
    let diff = diff_reports(&baseline, &to_json("e11_gauntlet", reports), &tolerance)
        .expect("both reports parse");
    assert!(diff.passed(), "{what} drift against baselines/smoke/:\n{}", diff.render());
    assert!(diff.compared > compared, "only {} observables compared", diff.compared);
}

fn run_in_process(sweeps: &[Sweep]) -> Vec<SweepReport> {
    sweeps.iter().map(|sweep| sweep.run(1)).collect()
}

/// Exact, with no observable ignored.
#[test]
fn e11_smoke_gauntlet_matches_the_committed_baseline() {
    assert_matches_baseline("dense", &run_in_process(&smoke_gauntlet("dense")), &[], 6000);
}

/// The one-engine equivalence: with every cell asking for a lazy live set
/// (the mined families get one, the rest run all-live), only the engine's
/// own memory gauges may move.
#[test]
fn e11_smoke_gauntlet_over_a_lazy_live_set_matches_modulo_gauges() {
    let reports = run_in_process(&smoke_gauntlet("sparse"));
    assert_matches_baseline("sparse", &reports, &["peak_*"], 5500);
}

/// The wire slice: every cell as a descriptor line through one worker loop
/// over in-memory buffers, the replies decoded and reassembled in grid
/// order. Exact, with no observable ignored — what `--workers` does, minus
/// the pipes.
#[test]
fn e11_smoke_gauntlet_over_the_worker_wire_matches_the_committed_baseline() {
    let sweeps = smoke_gauntlet("dense");
    let cells = sweeps.iter().flat_map(|sweep| sweep.scenarios.iter().map(move |sc| (sweep, sc)));
    let input: String = cells
        .enumerate()
        .map(|(id, (sweep, scenario))| {
            let (id, sweep, seeds) = (id as u64, sweep.title.clone(), sweep.seeds);
            encode_descriptor(&CellDescriptor { id, sweep, seeds, scenario: scenario.clone() })
                + "\n"
        })
        .collect();
    let mut output = Vec::new();
    assert_eq!(worker_loop(input.as_bytes(), &mut output, None), 0, "clean EOF");

    let mut replies = std::str::from_utf8(&output).expect("UTF-8 replies").lines().enumerate();
    let reports: Vec<SweepReport> = sweeps
        .iter()
        .map(|sweep| SweepReport {
            title: sweep.title.clone(),
            seeds: sweep.seeds,
            cells: sweep
                .scenarios
                .iter()
                .map(|scenario| {
                    let (expected, line) = replies.next().expect("one reply per cell");
                    match decode_reply(line) {
                        Ok(WorkerReply::Result { id, runs }) if id == expected as u64 => {
                            CellReport { scenario: scenario.clone(), runs, error: None }
                        }
                        other => panic!("cell {expected} ({}): {other:?}", scenario.label),
                    }
                })
                .collect(),
        })
        .collect();
    assert!(replies.next().is_none(), "more replies than cells");
    assert_matches_baseline("worker-wire", &reports, &[], 6000);
}
