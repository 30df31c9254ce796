//! The behavioural contract, inside Tier-1: the e11 smoke gauntlet — every
//! protocol family × adversary × corruption model — regenerated in-process
//! must match the committed baseline on every observable. A refactor that
//! moves one honest bit, round, corruption or verdict in any family fails
//! `cargo test -q` at the root, not only the CI smoke-diff.

use ba_bench::report::to_json;
use ba_bench::{diff_reports, gauntlet_sweeps, Grid, SweepReport, Tolerance};
use ba_sim::PopulationMode;

/// Regenerates the smoke gauntlet under `population` and diffs it against
/// the committed baseline, ignoring the observables matching `ignore`; at
/// least `compared` observables must have been compared.
fn assert_gauntlet_matches_baseline(population: PopulationMode, ignore: &[&str], compared: usize) {
    let mut sweeps = gauntlet_sweeps(Grid::Smoke, 2);
    for scenario in sweeps.iter_mut().flat_map(|sweep| &mut sweep.scenarios) {
        scenario.population = population;
    }
    let reports: Vec<SweepReport> = sweeps.iter().map(|sweep| sweep.run(1)).collect();
    let runs: usize = reports.iter().flat_map(|r| &r.cells).map(|c| c.runs.len()).sum();
    assert_eq!((reports.len(), runs), (8, 284), "the smoke gauntlet is 8 sweeps / 284 runs");

    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/smoke/BENCH_e11_gauntlet.json");
    let baseline = std::fs::read_to_string(baseline).expect("committed baseline is readable");
    let tolerance = Tolerance {
        ignore: ignore.iter().map(|s| s.to_string()).collect(),
        ..Tolerance::default()
    };
    let diff = diff_reports(&baseline, &to_json("e11_gauntlet", &reports), &tolerance)
        .expect("both reports parse");
    assert!(diff.passed(), "{population} drift against baselines/smoke/:\n{}", diff.render());
    assert!(diff.compared > compared, "only {} observables compared", diff.compared);
}

/// Exact, with no observable ignored.
#[test]
fn e11_smoke_gauntlet_matches_the_committed_baseline() {
    assert_gauntlet_matches_baseline(PopulationMode::Dense, &[], 6000);
}

/// The one-engine equivalence: with every cell asking for a lazy live set
/// (the mined families get one, the rest run all-live), only the engine's
/// own memory gauges may move.
#[test]
fn e11_smoke_gauntlet_over_a_lazy_live_set_matches_modulo_gauges() {
    assert_gauntlet_matches_baseline(PopulationMode::Sparse, &["peak_*"], 5500);
}
