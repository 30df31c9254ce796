//! E11 — the adversary gauntlet matrix: every protocol family × every
//! applicable adversary × corruption model × actual-corruption fraction
//! `f' ≤ f_max`, in one sweep grid.
//!
//! Renders one table per protocol family; rows are matrix cells. The
//! binary also *asserts* the deterministic edges of the matrix — honest
//! cells clean, and the legality boundaries the corruption models define —
//! through [`assert_matrix_edges`].

use ba_bench::gauntlet::{assert_matrix_edges, gauntlet_sweeps};
use ba_bench::{header, row, CellReport, Cli};

fn table(cells: &[CellReport]) {
    header(&[
        "cell (adversary@model/f)",
        "ok",
        "mean rounds",
        "mean mcasts",
        "corrupt sends",
        "injected",
        "removals",
        "dropped",
    ]);
    for cell in cells {
        if let Some(err) = &cell.error {
            // A quarantined cell (a structured transport failure caught
            // by `sweep::catch_transport`) is surfaced as a row, never
            // silently dropped from the table.
            let mut cols = vec![cell.scenario.label.clone(), "QUARANTINED".to_string()];
            cols.resize(7, "-".to_string());
            cols.push(format!("{} failed attempt(s)", err.attempts));
            row(&cols);
            continue;
        }
        row(&[
            cell.scenario.label.clone(),
            format!("{}/{}", cell.count("all_ok"), cell.runs.len()),
            format!("{:.1}", cell.mean("rounds")),
            format!("{:.0}", cell.mean("multicasts")),
            format!("{:.0}", cell.mean("corrupt_sends")),
            format!("{:.0}", cell.mean("injected_sends")),
            format!("{:.0}", cell.mean("removals")),
            format!("{:.0}", cell.total("dropped_sends")),
        ]);
    }
}

fn main() {
    let cli = Cli::parse("e11_gauntlet");
    let seeds = cli.seeds_or(10);
    let sweeps = gauntlet_sweeps(cli.grid, seeds);
    let reports = cli.run(sweeps);

    assert_matrix_edges(&reports);

    if cli.markdown() {
        println!("# E11 — adversary gauntlet matrix ({seeds} seeds per cell)\n");
        for report in &reports {
            let sc = &report.cells[0].scenario;
            println!("## {} (n = {})\n", report.title, sc.n);
            table(&report.cells);
            println!();
        }
        println!("Reading the matrix: `ok` is the all-properties verdict rate; a defeated");
        println!("cell is only meaningful where the adversary/model pair is inside the");
        println!("paper's threat model (see docs/ADVERSARIES.md for the per-strategy");
        println!("catalog). Passive rows — including the mined families' real-VRF");
        println!("`passive_real` rows — are asserted fully correct with zero dropped");
        println!("sends; `adaptive_eclipse@static` rows are asserted corruption-free,");
        println!("`starve_quorum@adaptive` rows removal-free, and the `eclipse_burst`");
        println!("composition budget-legal (corruptions <= f) — the legality edges.");
    }
    cli.write_outputs(&reports);
}
