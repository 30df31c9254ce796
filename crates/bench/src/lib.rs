//! # ba-bench
//!
//! The experiment layer regenerating every quantitative claim of the paper
//! (see EXPERIMENTS.md for the experiment ↔ claim index):
//!
//! | Binary | Claim |
//! |--------|-------|
//! | `e1_theorem4` | Thm 1/4 — Ω(f²) under strong adaptivity |
//! | `e2_multicast_complexity` | Thm 2 / Lemma 15 — polylog multicast complexity |
//! | `e3_round_complexity` | Cor. 16 — expected O(1) rounds |
//! | `e4_resilience` | Thm 2 — `f < (1/2 − ε)n` resilience threshold |
//! | `e5_theorem3` | Thm 3 — no setup-free sublinear multicast BA |
//! | `e6_good_iteration` | Lemma 12 — good iterations at rate ≥ 1/(2e) |
//! | `e7_committee_concentration` | Lemmas 10/11 — committee Chernoff bounds |
//! | `e8_bit_specific_ablation` | §3.3 Remark — bit-specific eligibility is necessary |
//! | `e9_real_vs_ideal` | App. D/E — the VRF compiler preserves behaviour |
//! | `e10_comparison` | §1 — the cross-protocol property table |
//! | `e11_gauntlet` | the adversary gauntlet matrix (family × adversary × model × `f'`) |
//! | `e12_population` | Thm 2 at population scale — sparse engine, n = 10⁵…10⁶ |
//! | `e13_realclock` | the transport matrix — lockstep vs simulated partial synchrony vs TCP |
//! | `e14_certificates` | footnote 11 — vector vs aggregate certificate encodings, decision-identical |
//! | `e15_faults` | the chaos matrix — deterministic fault plans over every backend; safety asserted inside the legal envelope, measured beyond it |
//!
//! Two more binaries ride on the same engine: `soak` cycles the gauntlet
//! under a wall-clock/cell budget and streams per-cell JSON lines to disk,
//! and the `ba-bench` tool binary's `diff` subcommand ([`baseline`])
//! compares two `BENCH_*.json` reports cell-by-cell against tolerance
//! bands (the CI baseline-regression gate).
//!
//! A cell also travels as one line of the schema-versioned JSONL
//! cell-stream [`wire`] protocol: a descriptor in, the `soak` stream's
//! result line out, served by [`wire::worker_loop`] over any reader and
//! writer (see docs/WIRE.md).
//!
//! Every binary is a thin renderer over the declarative [`Scenario`] /
//! [`Sweep`] API: a [`Scenario`] describes one runnable configuration
//! (protocol family, ideal-vs-real eligibility, adversary, corruption
//! model, input pattern, `n`/`f`/λ), a [`Sweep`] executes a grid of
//! scenarios × seeds on `std::thread::scope` workers with deterministic
//! per-cell seeding, and the resulting [`SweepReport`] renders to markdown
//! tables, CSV, and `BENCH_*.json` (schema in the README).
//!
//! Run any experiment with
//! `cargo run -p ba-bench --release --bin <name> -- [--seeds N] [--grid
//! full|smoke] [--threads N] [--population dense|sparse] [--format
//! md,csv,json|all] [--out DIR]`. Per-layer timings (crypto operations,
//! `F_mine`, node steps) come from the standalone `benchmark/` crate, read
//! with `--trace 1`.
//!
//! ## Example
//!
//! ```
//! use ba_bench::{ProtocolSpec, Scenario, Sweep};
//!
//! let sweep = Sweep::new(
//!     "subq_half",
//!     2, // seeds
//!     vec![Scenario::new("n=64", 64, ProtocolSpec::SubqHalf { lambda: 16.0, max_iters: None })],
//! );
//! let report = sweep.run(2); // 2 worker threads; results independent of thread count
//! let cell = report.cell("n=64");
//! assert_eq!(cell.runs.len(), 2);
//! assert_eq!(cell.rate("all_ok"), 1.0);
//! assert!(cell.stats("multicasts").mean > 0.0);
//! ```

pub mod baseline;
pub mod cli;
pub mod gauntlet;
pub mod report;
pub mod scenario;
pub mod stats;
pub mod sweep;
pub mod wire;

pub use baseline::{diff_reports, DiffReport, Tolerance};
pub use cli::{Cli, Grid};
pub use gauntlet::gauntlet_sweeps;
pub use report::{
    header, quarantine_summary, row, to_csv, to_json, to_json_cell_line, CELL_STREAM_SCHEMA,
};
pub use scenario::{
    AdversarySpec, EligMode, EligSeed, InputPattern, ProtocolSpec, Scenario, ScenarioRun,
    SharedElig,
};
pub use stats::Stats;
pub use sweep::{default_threads, CellError, CellReport, RunRecord, Sweep, SweepReport};
pub use wire::{CellDescriptor, WireError, WorkerReply};
