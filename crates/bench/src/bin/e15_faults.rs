//! E15 — the chaos matrix: safety under composable network faults.
//!
//! The paper's protocols assume a synchronous network; this experiment
//! measures what each family *keeps* when that assumption is attacked
//! from below the protocol — by the network itself rather than by corrupt
//! nodes. A declarative, seed-deterministic [`ba_sim::FaultPlan`] is
//! layered over each delivery backend and swept across fault kinds and
//! intensities, split by whether the plan stays inside the synchronous
//! model's **legal envelope**:
//!
//! * **Within the envelope** — faults a model-legal adversary could have
//!   produced, so the paper's safety proofs apply verbatim and the binary
//!   *enforces* safety (`consistent` and `valid` must read N/N; any
//!   violation exits nonzero):
//!   - `sched` — adversarial scheduling: every inbox reordered to the
//!     envelope's worst corner (corrupt traffic first, the latest honest
//!     sends last). Delivery order within a round is adversary-controlled
//!     in the model.
//!   - `dup20` — per-copy duplication at 20%. Tallies key by distinct
//!     sender, so a duplicate can never add quorum weight.
//! * **Beyond the envelope** — message loss and cross-round displacement,
//!   which the synchronous model forbids (`drop10`/`drop25`, `reorder20`
//!   with a 2-round budget, a hard `partition` over rounds 1..3 healing at
//!   round 3, and a `storm` composition of everything). Here the suite
//!   *measures* instead of assumes, and the two families fail in opposite
//!   directions. The certificate-gated iteration family converts faults
//!   into **liveness** cost — starved quorums force extra iterations
//!   (mean rounds climb under loss and partitions) but a decision still
//!   requires an explicit quorum certificate, so safety holds at every
//!   intensity measured here. The epoch family's schedule is fixed (its
//!   round count never moves), but its unconditional
//!   output-after-R-epochs rule (§3.1) converts starved tallies into
//!   **safety** erosion: under 10–25% loss or cross-round reordering,
//!   nodes on opposite sides of the starvation fork. That cliff is the
//!   experiment's headline: the synchrony assumption the paper states up
//!   front is load-bearing for safety, not just for liveness.
//!
//! Fault-injection decisions hash only (seed, plan, message id, receiver),
//! so the `faults_*` observables are deterministic and live in the
//! committed baseline; under the TCP backend only the `latency_*` gauges
//! vary run to run (CI diffs with `--ignore-observable 'latency_*'`), and
//! a faulted cell re-run under the same seed is byte-identical (`cmp`).
//! The latency backend here runs zero-delay with GST 0 — e13 already
//! prices delay and GST; this experiment isolates the fault layer, and a
//! lockstep-equivalent timed backend makes the three backends' decision
//! observables directly comparable.
//!
//! See docs/FAULTS.md for the fault taxonomy, the legal-envelope
//! argument, and the measured degradation table.

use ba_bench::{header, row, CellReport, Cli, InputPattern, ProtocolSpec, Scenario, Sweep};
use ba_sim::{DelayDist, FaultPlan, TransportSpec, DEFAULT_ROUND_MS};

fn backends() -> Vec<(&'static str, TransportSpec)> {
    vec![
        ("lockstep", TransportSpec::Lockstep),
        (
            "latency",
            TransportSpec::Latency { round_ms: DEFAULT_ROUND_MS, gst_ms: 0, dist: DelayDist::Zero },
        ),
        ("tcp", TransportSpec::Tcp),
    ]
}

/// The fault-intensity axis as `(row name, plan)`, legal-envelope rows
/// first.
fn plans(n: usize) -> Vec<(&'static str, FaultPlan)> {
    let row = |name, plan: String| (name, plan.parse().expect("a canonical plan string"));
    vec![
        ("clean", FaultPlan::default()),
        row("sched", "sched=adversarial".into()),
        row("dup20", "dup:p=0.2".into()),
        row("drop10", "drop:p=0.1".into()),
        row("drop25", "drop:p=0.25".into()),
        row("reorder20", "reorder:p=0.2:budget=2".into()),
        row("partition1_3", format!("partition:1..3={}", n / 2)),
        row("storm", "drop:p=0.1,dup:p=0.1,reorder:p=0.1:budget=2,sched=adversarial".into()),
    ]
}

fn family_sweeps(seeds: u64, family: &str, n: usize, spec: ProtocolSpec) -> Vec<Sweep> {
    backends()
        .into_iter()
        .map(|(backend, transport)| {
            let cells = plans(n)
                .into_iter()
                .map(|(name, plan)| {
                    Scenario::new(name, n, spec.clone())
                        .inputs(InputPattern::Unanimous(true))
                        .transport(transport)
                        .faults(plan)
                })
                .collect();
            Sweep::new(format!("{family}/{backend}"), seeds, cells)
        })
        .collect()
}

/// The suite's invariant: no *legal-envelope* plan may violate safety —
/// those faults are within the model adversary's power, so the paper's
/// safety proofs cover them. Beyond-envelope cells are measured, not
/// asserted (their erosion is the experiment's finding), but a
/// quarantined cell is always a violation: the transport layer must
/// survive every plan even when the protocol above it does not.
fn safety_violations(cells: &[(&str, &CellReport)]) -> Vec<String> {
    let mut violations = Vec::new();
    for (sweep, cell) in cells {
        if let Some(error) = &cell.error {
            violations.push(format!(
                "{sweep}/{}: cell quarantined instead of executed ({})",
                cell.scenario.label, error.detail
            ));
            continue;
        }
        if !cell.scenario.fault_plan.is_none_or(|plan| plan.within_envelope()) {
            continue;
        }
        let runs = cell.runs.len();
        for (name, count) in
            [("consistent", cell.count("consistent")), ("valid", cell.count("valid"))]
        {
            if count != runs {
                violations.push(format!(
                    "{sweep}/{}: {name} {count}/{runs} — a legal-envelope fault broke safety",
                    cell.scenario.label
                ));
            }
        }
    }
    violations
}

fn main() {
    let cli = Cli::parse("e15_faults");
    let seeds = cli.seeds_or(if cli.smoke() { 2 } else { 5 });
    let n = if cli.smoke() { 16 } else { 24 };

    let mut sweeps = family_sweeps(
        seeds,
        "subq_half",
        n,
        ProtocolSpec::SubqHalf { lambda: 12.0, max_iters: Some(8) },
    );
    sweeps.extend(family_sweeps(
        seeds,
        "subq_third",
        n,
        ProtocolSpec::SubqThird { lambda: 10.0, epochs: 5 },
    ));
    let reports = cli.run(sweeps);

    if cli.markdown() {
        println!("# E15 — chaos matrix ({seeds} seed(s) per cell, n = {n})\n");
        for report in &reports {
            println!("## {}\n", report.title);
            header(&[
                "faults",
                "consistent",
                "valid",
                "terminated",
                "rounds",
                "dropped",
                "dup",
                "reordered",
                "part rounds",
                "undelivered",
            ]);
            for cell in &report.cells {
                let runs = cell.runs.len();
                row(&[
                    cell.scenario.label.clone(),
                    format!("{}/{runs}", cell.count("consistent")),
                    format!("{}/{runs}", cell.count("valid")),
                    format!("{}/{runs}", cell.count("terminated")),
                    format!("{:.1}", cell.mean("rounds")),
                    format!("{:.0}", cell.total("faults_dropped")),
                    format!("{:.0}", cell.total("faults_duplicated")),
                    format!("{:.0}", cell.total("faults_reordered")),
                    format!("{:.0}", cell.total("partition_rounds")),
                    format!("{:.0}", cell.total("faults_undelivered")),
                ]);
            }
            println!();
        }
        println!("clean/sched/dup20 stay inside the synchronous model's legal envelope:");
        println!("safety (consistent, valid) must read N/N there and the binary exits");
        println!("nonzero otherwise. drop/reorder/partition/storm exceed the envelope —");
        println!("those rows are measured, not asserted. The certificate-gated");
        println!("iteration family pays in liveness (extra rounds) and keeps safety;");
        println!("the epoch family's fixed schedule never slows but its unconditional");
        println!("termination forks under loss — the measured cost of the paper's");
        println!("synchrony assumption. Partition cells recover after the heal round.");
    }
    cli.write_outputs(&reports);

    let labelled: Vec<(&str, &CellReport)> =
        reports.iter().flat_map(|r| r.cells.iter().map(move |c| (r.title.as_str(), c))).collect();
    let violations = safety_violations(&labelled);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("[e15_faults] SAFETY VIOLATION: {v}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "[e15_faults] safety held on every legal-envelope cell ({} cells total)",
        labelled.len()
    );
}
