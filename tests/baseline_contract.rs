//! The behavioural contract, inside Tier-1: the e11 smoke gauntlet — every
//! protocol family × adversary × corruption model — regenerated in-process
//! must match the committed baseline on every observable. A refactor that
//! moves one honest bit, round, corruption or verdict in any family fails
//! `cargo test -q` at the root, not only the CI smoke-diff.

use ba_bench::report::to_json;
use ba_bench::{diff_reports, gauntlet_sweeps, Grid, SweepReport, Tolerance};

#[test]
fn e11_smoke_gauntlet_matches_the_committed_baseline() {
    let sweeps = gauntlet_sweeps(Grid::Smoke, 2);
    let reports: Vec<SweepReport> = sweeps.iter().map(|sweep| sweep.run(1)).collect();
    let runs: usize = reports.iter().flat_map(|r| &r.cells).map(|c| c.runs.len()).sum();
    assert_eq!((reports.len(), runs), (8, 284), "the smoke gauntlet is 8 sweeps / 284 runs");

    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/smoke/BENCH_e11_gauntlet.json");
    let baseline = std::fs::read_to_string(baseline).expect("committed baseline is readable");
    // Exact, with no observable ignored.
    let diff = diff_reports(&baseline, &to_json("e11_gauntlet", &reports), &Tolerance::default())
        .expect("both reports parse");
    assert!(diff.passed(), "drift against baselines/smoke/:\n{}", diff.render());
    assert!(diff.compared > 6000, "only {} observables compared", diff.compared);
}
