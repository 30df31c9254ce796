//! The **adversary gauntlet matrix**: protocol family × adversary ×
//! corruption model × corruption-fraction grid.
//!
//! The paper proves its protocols secure against specific adversary/model
//! pairs; the gauntlet runs every family against every applicable attack
//! under every legal model at several actual-corruption levels `f' ≤ f_max`
//! (the axis "From Few to Many Faults" argues is under-tested: protocols
//! are usually evaluated only at the resilience bound). One matrix cell =
//! one [`Scenario`]; the whole matrix executes through the ordinary
//! [`Sweep`] engine, so `e11_gauntlet`, the `soak` binary, and the golden
//! tests all share this builder.
//!
//! Expectations encoded by the matrix (checked by [`assert_matrix_edges`]
//! where deterministic, and pinned per-seed by
//! `crates/bench/tests/gauntlet.rs`):
//!
//! * **passive** cells are honest executions: `all_ok` everywhere and
//!   `dropped_sends == 0` (the simulator counts undeliverable unicasts; an
//!   honest protocol must never produce one). Under a fault plan outside
//!   the legal envelope ([`ba_sim::FaultPlan::within_envelope`]) the
//!   liveness claim is void, and only `consistent` and `valid` are held.
//! * **adaptive eclipse** defeats recurring-speaker designs but bounces off
//!   one-shot bit-specific committees — and degenerates entirely under the
//!   static model (the `static` rows double as a legality ablation).
//! * **starve-quorum eraser** needs the strongly adaptive model; under the
//!   plain adaptive model its removals are refused (`removals == 0`).
//! * **equivocation spammer / vote flipper** move only corrupt-attributed
//!   observables against bit-specific eligibility.
//! * **eclipse + burst composition** (the ROADMAP's composed-adversary
//!   extension) splits the budget between a statically silenced tail and an
//!   adaptive eclipse wing; the composition can never exceed the corruption
//!   budget (`corruptions ≤ f`, asserted per seed).
//! * **real-eligibility rows** (`passive_real@static/f=0` on the mined
//!   families) run the honest baseline through the Appendix D VRF
//!   compiler: committee draws differ, safety observables must not.
//! * **competitor rows** (`mr/half`, `cks/adaptive`) run the Momose–Ren
//!   and Cohen–Keidar–Spiegelman implementations through the shared
//!   battery: leader-based quorum protocols must hold safety everywhere
//!   (their committees are the whole population, so the committee-centric
//!   attacks degenerate to crash/silence pressure).
//! * **ablation rows** close the roadmap's open matrix: `epoch/chen_micali`
//!   is expected to hold like the other epoch rows, while
//!   `epoch/subq_shared` reuses one committee per epoch and is *insecure by
//!   design* under adaptive corruption — its passive rows must stay clean,
//!   and its defeats are recorded, not asserted away.

use crate::cli::Grid;
use crate::scenario::{AdversarySpec, InputPattern, ProtocolSpec, Scenario};
use crate::sweep::{Sweep, SweepReport};
use ba_sim::CorruptionModel;

/// One protocol under test: its spec, sizes, and resilience budget.
struct Entry {
    n: usize,
    f_max: usize,
    protocol: ProtocolSpec,
}

/// The per-grid protocol roster. Smoke shrinks `n` (and the iteration cap)
/// but keeps the full combination structure, so CI exercises every
/// (family × adversary × model × fraction) cell.
fn entries(grid: Grid) -> Vec<Entry> {
    let smoke = grid == Grid::Smoke;
    let (n_subq, n_quad, n_epoch, n_warm) =
        if smoke { (48, 9, 36, 12) } else { (200, 25, 150, 30) };
    let n_mr = if smoke { 16 } else { 48 };
    let (iters, epochs) = if smoke { (6, 6) } else { (12, 10) };
    vec![
        Entry {
            n: n_subq,
            // The paper's bound is f < (1/2 − ε)n; 0.4n leaves a working ε.
            f_max: n_subq * 2 / 5,
            protocol: ProtocolSpec::SubqHalf { lambda: 16.0, max_iters: Some(iters) },
        },
        Entry { n: n_quad, f_max: (n_quad - 1) / 2, protocol: ProtocolSpec::QuadraticHalf },
        Entry {
            n: n_epoch,
            f_max: n_epoch * 3 / 10, // f < (1/3 − ε)n
            protocol: ProtocolSpec::SubqThird { lambda: 16.0, epochs },
        },
        Entry {
            n: n_warm,
            f_max: (n_warm - 1) / 3,
            protocol: ProtocolSpec::WarmupThird { epochs },
        },
        // Competitor protocols, sized so the view/phase cap always reaches
        // an honest leader (`f_max + 2` round-robin rotations).
        Entry {
            n: n_mr,
            f_max: (n_mr - 1) / 2,
            protocol: ProtocolSpec::MomoseRenHalf { views: ((n_mr - 1) / 2 + 2) as u64 },
        },
        Entry {
            n: n_mr,
            f_max: (n_mr - 1) / 3,
            protocol: ProtocolSpec::CksAdaptive { phases: ((n_mr - 1) / 3 + 2) as u64 },
        },
        // The remaining ablation rows from the roadmap's open matrix: the
        // Chen–Micali baseline under the full attack battery…
        Entry {
            n: n_epoch,
            f_max: n_epoch * 3 / 10,
            protocol: ProtocolSpec::ChenMicali { lambda: 16.0, epochs, erasure: true },
        },
        // …and the shared-committee ablation, which is *insecure by
        // design* against adaptive corruption (one committee per epoch, so
        // eclipsing it starves the epoch): its passive rows must stay
        // clean, while adaptive attacks are licensed to defeat it — the
        // gauntlet records the defeat instead of asserting it away.
        Entry {
            n: n_epoch,
            f_max: n_epoch * 3 / 10,
            protocol: ProtocolSpec::SubqShared { lambda: 16.0, epochs },
        },
    ]
}

/// The `f'/f_max` fractions swept per attack (the passive baseline always
/// runs at `f = 0` on top of these).
pub fn fractions(grid: Grid) -> &'static [f64] {
    match grid {
        Grid::Smoke => &[0.5, 1.0],
        Grid::Full => &[0.25, 0.5, 0.75, 1.0],
    }
}

/// The (adversary, corruption model) battery; each family runs the rows
/// [`Scenario::check`] says its protocol takes — the shared rows everywhere,
/// the certificate forger against the iteration family, flipper and spammer
/// against the epoch family (the competitor families have no mined
/// committees to flip or forge against). Models are part of the matrix on
/// purpose: the eclipse row runs under both static (neutralized) and
/// adaptive (armed), the eraser under both adaptive (removal refused) and
/// strongly adaptive (Theorem 1's model).
fn attacks() -> Vec<(AdversarySpec, CorruptionModel)> {
    use AdversarySpec as A;
    use CorruptionModel as M;
    vec![
        (A::CrashTail { at_round: 1 }, M::Static),
        (A::SilenceThenBurst { at_round: 3 }, M::Static),
        (A::AdaptiveEclipse { per_round: 0 }, M::Static),
        (A::AdaptiveEclipse { per_round: 0 }, M::Adaptive),
        // The ROADMAP's adversary *composition*: half the budget silenced
        // statically (burst at round 3), the rest spent eclipsing observed
        // speakers. Legal by construction — both wings corrupt through the
        // engine's budget — and asserted so by `e11_gauntlet`.
        (A::EclipseBurst { at_round: 3 }, M::Adaptive),
        (A::StarveQuorum, M::Adaptive),
        (A::StarveQuorum, M::StronglyAdaptive),
        (A::CertForger { target: true }, M::Static),
        (A::VoteFlipper, M::Adaptive),
        (A::EquivocationSpammer, M::Static),
    ]
}

/// Short display key of a corruption model (used in cell labels).
fn model_key(model: CorruptionModel) -> &'static str {
    match model {
        CorruptionModel::Static => "static",
        CorruptionModel::Adaptive => "adaptive",
        CorruptionModel::StronglyAdaptive => "strong",
    }
}

/// Builds the gauntlet: one [`Sweep`] per protocol entry, one cell per
/// (adversary × model × fraction) plus the passive baseline.
///
/// Cell labels are stable lookup keys of the form
/// `"<adversary>@<model>/f=<f>"` (e.g. `"adaptive_eclipse@adaptive/f=19"`);
/// the passive baseline is `"passive@static/f=0"`.
pub fn gauntlet_sweeps(grid: Grid, seeds: u64) -> Vec<Sweep> {
    entries(grid)
        .into_iter()
        .map(|entry| {
            let mut cells =
                vec![scenario_for(&entry, AdversarySpec::Passive, CorruptionModel::Static, 0)];
            // Mined families also run their honest baseline through the
            // Appendix D real-world VRF compiler: the committees differ
            // (different randomness source) but every safety observable
            // must stay clean — pinned by `tests/gauntlet.rs`.
            if matches!(
                entry.protocol,
                ProtocolSpec::SubqHalf { .. } | ProtocolSpec::SubqThird { .. }
            ) {
                let mut real =
                    scenario_for(&entry, AdversarySpec::Passive, CorruptionModel::Static, 0)
                        .real_elig();
                real.label = "passive_real@static/f=0".into();
                cells.push(real);
            }
            for (adversary, model) in attacks() {
                let mut seen_f: Vec<usize> = Vec::new();
                for &frac in fractions(grid) {
                    let f = ((entry.f_max as f64) * frac).round() as usize;
                    // Zero corruptions is the baseline; a rounding collision
                    // between fractions would duplicate the cell label.
                    if f == 0 || seen_f.contains(&f) {
                        continue;
                    }
                    seen_f.push(f);
                    // Each family faces the rows of the battery it takes.
                    let cell = scenario_for(&entry, adversary, model, f);
                    if cell.check().is_ok() {
                        cells.push(cell);
                    }
                }
            }
            Sweep::new(head(&entry.protocol), seeds, cells)
        })
        .collect()
}

/// A spec's display name minus its parameter noise (`crash_tail` of
/// `crash_tail(at=1)`), so sweep titles and cell labels stay short and
/// grep-friendly.
fn head(spec: &impl std::fmt::Display) -> String {
    let name = spec.to_string();
    name.split('(').next().unwrap_or(&name).to_string()
}

/// Asserts the deterministic edges of the matrix: passive cells are
/// correct (see the module docs for the faulted case) with no dropped or
/// corrupt sends, eclipse cells under the static model spend no
/// corruptions, eraser cells under the plain adaptive model perform no
/// removals, and the `eclipse_burst` composition stays within its budget.
///
/// # Panics
///
/// On the first cell that breaks an edge, naming it.
pub fn assert_matrix_edges(reports: &[SweepReport]) {
    for report in reports {
        for cell in &report.cells {
            let label = format!("{}/{}", report.title, cell.scenario.label);
            // Covers both `passive@` and the real-eligibility `passive_real@`
            // rows: honest executions stay clean under either backend.
            if cell.scenario.label.starts_with("passive") {
                let runs = cell.runs.len();
                if cell.scenario.fault_plan.is_none_or(|plan| plan.within_envelope()) {
                    assert_eq!(cell.count("all_ok"), runs, "{label}: honest execution failed");
                } else {
                    assert_eq!(cell.count("consistent"), runs, "{label}: honest run disagreed");
                    assert_eq!(cell.count("valid"), runs, "{label}: honest run invalid");
                }
                assert_eq!(
                    cell.total("dropped_sends"),
                    0.0,
                    "{label}: honest execution dropped a unicast"
                );
                assert_eq!(cell.total("corrupt_sends"), 0.0, "{label}: phantom corrupt sends");
            }
            if cell.scenario.label.starts_with("adaptive_eclipse@static") {
                assert_eq!(
                    cell.total("corruptions"),
                    0.0,
                    "{label}: static model must refuse mid-run corruption"
                );
            }
            if cell.scenario.label.starts_with("starve_quorum@adaptive") {
                assert_eq!(
                    cell.total("removals"),
                    0.0,
                    "{label}: adaptive model must refuse after-the-fact removal"
                );
            }
            // Composition legality: the eclipse + burst wings share one
            // budget; together they must never exceed it.
            if cell.scenario.label.starts_with("eclipse_burst@") {
                let f = cell.scenario.f as f64;
                for (seed, c) in cell.samples("corruptions").iter().enumerate() {
                    assert!(
                        *c <= f,
                        "{label}: composed adversary exceeded the budget at seed {seed} ({c} > {f})"
                    );
                }
                assert_eq!(cell.total("removals"), 0.0, "{label}: neither wing removes");
            }
        }
    }
}

fn scenario_for(
    entry: &Entry,
    adversary: AdversarySpec,
    model: CorruptionModel,
    f: usize,
) -> Scenario {
    let label = format!("{}@{}/f={f}", head(&adversary), model_key(model));
    Scenario::new(label, entry.n, entry.protocol.clone())
        .inputs(InputPattern::Alternating)
        .adversary(adversary)
        .model(model)
        .f(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_covers_every_combination() {
        let sweeps = gauntlet_sweeps(Grid::Smoke, 2);
        assert_eq!(sweeps.len(), 8, "eight protocol entries");
        for sweep in &sweeps {
            // 1 passive (+1 real-eligibility passive for mined families)
            // + per-family attacks × 2 fractions.
            let family_attacks = if sweep.title.starts_with("iter/") {
                8
            } else if sweep.title.starts_with("epoch/") {
                9
            } else {
                7 // competitor families: the shared battery only
            };
            let mined = matches!(sweep.title.as_str(), "iter/subq_half" | "epoch/subq_third");
            assert_eq!(
                sweep.scenarios.len(),
                1 + mined as usize + family_attacks * fractions(Grid::Smoke).len(),
                "{}: unexpected cell count",
                sweep.title
            );
            // Labels are unique lookup keys.
            let mut labels: Vec<&str> = sweep.scenarios.iter().map(|s| s.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), sweep.scenarios.len(), "{}: duplicate label", sweep.title);
            // Every sweep carries a composed-adversary row.
            assert!(
                sweep.scenarios.iter().any(|s| s.label.starts_with("eclipse_burst@adaptive")),
                "{}: missing composition row",
                sweep.title
            );
        }
        // Exactly the mined families carry a real-eligibility honest row.
        let with_real: Vec<&str> = sweeps
            .iter()
            .filter(|s| s.scenarios.iter().any(|sc| sc.label == "passive_real@static/f=0"))
            .map(|s| s.title.as_str())
            .collect();
        assert_eq!(with_real, ["iter/subq_half", "epoch/subq_third"]);
    }

    #[test]
    fn full_grid_scales_the_fraction_axis() {
        let sweeps = gauntlet_sweeps(Grid::Full, 10);
        assert_eq!(fractions(Grid::Full).len(), 4);
        assert!(sweeps.iter().all(|s| s.scenarios.len() > sweeps.len()));
    }
}
