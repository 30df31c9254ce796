//! Distributed-engine determinism and fault-injection tests — the
//! acceptance criteria of the coordinator/worker engine:
//!
//! * in-process `--threads 1`, `--workers 1`, and `--workers 3` render
//!   **byte-identical** JSON over a mixed 11-family grid (including the
//!   competitor BA families, whose descriptors carry the aggregate
//!   cert-encoding and claimed-bound wire fields) and over the full e11
//!   gauntlet smoke matrix;
//! * a worker that dies mid-cell (clean exit or SIGKILL) has its in-flight
//!   cell requeued, and the recovered report is still byte-identical;
//! * a poisoned cell that kills two workers is quarantined into a
//!   structured error record instead of hanging the sweep or crashing the
//!   coordinator, and the quarantine surfaces in the JSON renderer;
//! * a cell its protocol family cannot execute is refused in band and
//!   quarantined at once, costing no worker its life.
//!
//! The worker subprocess is the real `ba-bench worker` binary (Cargo
//! provides its path to integration tests), so these tests exercise the
//! actual pipes, the actual wire format, and actual process death.

use ba_bench::dist::DistConfig;
use ba_bench::{
    gauntlet_sweeps, quarantine_summary, run_sweeps_distributed, to_json, AdversarySpec, Grid,
    InputPattern, ProtocolSpec, Scenario, Sweep, SweepReport,
};
use ba_core::cert::CertEncoding;
use ba_sim::CorruptionModel;

/// The `ba-bench worker` command line, plus optional fault-injection flags.
fn worker_cmd(extra: &[&str]) -> Vec<String> {
    let mut cmd = vec![env!("CARGO_BIN_EXE_ba-bench").to_string(), "worker".to_string()];
    cmd.extend(extra.iter().map(|s| s.to_string()));
    cmd
}

fn dist_cfg(workers: usize, extra: &[&str]) -> DistConfig {
    DistConfig::new(workers, worker_cmd(extra))
}

/// A worker that dies without replying — like any crash — whenever it is
/// handed a cell labelled `poison`, and serves every other cell through the
/// real `ba-bench worker`. (`Scenario::check` gates the decoder, so no
/// well-formed descriptor panics a worker any more; the death is staged.)
#[cfg(unix)]
fn poisonable_cfg(workers: usize) -> DistConfig {
    let script = format!(
        "while IFS= read -r line; do \
           case \"$line\" in *'\"label\": \"poison\"'*) exit 9;; esac; \
           printf '%s\\n' \"$line\"; \
         done | '{}' worker",
        env!("CARGO_BIN_EXE_ba-bench")
    );
    DistConfig::new(workers, vec!["sh".into(), "-c".into(), script])
}

/// The deliberately mixed grid of `sweep_determinism.rs`: three protocol
/// families, the competitor BA families, broadcasts, a lower-bound
/// workload, and an `F_mine` sampling workload in one sweep.
fn mixed_sweep() -> Sweep {
    Sweep::new(
        "determinism_grid",
        3,
        vec![
            Scenario::new("subq", 48, ProtocolSpec::SubqHalf { lambda: 12.0, max_iters: None }),
            Scenario::new("quad", 9, ProtocolSpec::QuadraticHalf)
                .inputs(InputPattern::Unanimous(true)),
            Scenario::new("epoch", 36, ProtocolSpec::SubqThird { lambda: 12.0, epochs: 6 }),
            Scenario::new("ds", 12, ProtocolSpec::DolevStrong { ds_f: 3 })
                .inputs(InputPattern::SenderParity),
            Scenario::new("ba_from_bb", 7, ProtocolSpec::BaFromBb { ds_f: 2 })
                .inputs(InputPattern::Unanimous(true)),
            Scenario::new("iter_bb", 40, ProtocolSpec::IterBroadcast { lambda: 14.0 })
                .inputs(InputPattern::SenderParity),
            // The competitor families ride the wire with their optional
            // descriptor fields set: aggregate certificates and the
            // claimed-bound observable must survive the worker roundtrip.
            Scenario::new("mr", 13, ProtocolSpec::MomoseRenHalf { views: 8 })
                .cert_encoding(CertEncoding::Aggregate)
                .with_claimed_bound(),
            Scenario::new("cks", 13, ProtocolSpec::CksAdaptive { phases: 6 })
                .cert_encoding(CertEncoding::Aggregate)
                .with_claimed_bound(),
            Scenario::new("thm4", 30, ProtocolSpec::Theorem4 { fanout: 2 })
                .f(10)
                .model(CorruptionModel::StronglyAdaptive),
            Scenario::new("tails", 120, ProtocolSpec::CommitteeTails { lambda: 16.0 })
                .f(48)
                .seeds(8),
            Scenario::new("crash", 48, ProtocolSpec::SubqHalf { lambda: 12.0, max_iters: None })
                .f(9)
                .adversary(AdversarySpec::CrashTail { at_round: 0 }),
        ],
    )
}

fn mixed_json(reports: &[SweepReport]) -> String {
    to_json("distributed", reports)
}

#[test]
fn workers_do_not_change_the_mixed_grid() {
    let sweep = mixed_sweep();
    let in_process = mixed_json(&[sweep.run(1)]);
    for workers in [1usize, 3] {
        let distributed = sweep.run_distributed(&dist_cfg(workers, &[])).expect("workers spawn");
        assert!(distributed.cells.iter().all(|c| c.error.is_none()), "spurious quarantine");
        assert_eq!(
            mixed_json(&[distributed]),
            in_process,
            "--workers {workers} changed the mixed grid"
        );
    }
}

#[test]
fn workers_do_not_change_the_full_gauntlet() {
    let sweeps = gauntlet_sweeps(Grid::Smoke, 2);
    let in_process: Vec<SweepReport> = sweeps.iter().map(|s| s.run(1)).collect();
    let distributed = run_sweeps_distributed(&sweeps, &dist_cfg(3, &[])).expect("workers spawn");
    assert_eq!(
        to_json("e11_gauntlet", &distributed),
        to_json("e11_gauntlet", &in_process),
        "3 worker processes changed the e11 gauntlet"
    );
}

#[test]
fn crash_recovery_keeps_reports_identical() {
    // Every worker completes one cell, then dies mid-cell. The coordinator
    // must requeue each lost cell onto a fresh replacement and still
    // produce the byte-identical report, with nothing quarantined.
    let sweep = mixed_sweep();
    let in_process = mixed_json(&[sweep.run(1)]);
    let recovered =
        sweep.run_distributed(&dist_cfg(3, &["--fail-after", "1"])).expect("workers spawn");
    assert!(
        recovered.cells.iter().all(|c| c.error.is_none()),
        "crash recovery must not quarantine healthy cells"
    );
    assert_eq!(mixed_json(&[recovered]), in_process, "worker crashes changed the report");
}

#[cfg(unix)]
#[test]
fn sigkill_mid_cell_keeps_reports_identical() {
    // The harshest death: SIGKILL mid-cell — no unwinding, no flushing, no
    // exit status beyond the signal.
    let sweep = mixed_sweep();
    let in_process = mixed_json(&[sweep.run(1)]);
    let recovered = sweep
        .run_distributed(&dist_cfg(2, &["--fail-after", "2", "--fail-mode", "kill"]))
        .expect("workers spawn");
    assert!(recovered.cells.iter().all(|c| c.error.is_none()));
    assert_eq!(mixed_json(&[recovered]), in_process, "SIGKILL mid-cell changed the report");
}

#[cfg(unix)]
#[test]
fn poisoned_cell_is_quarantined_not_fatal() {
    // Every worker handed the poisoned cell dies on it. After two deaths
    // the coordinator must quarantine the cell and finish the healthy
    // remainder of the grid untouched. The vote flipper does not attack the
    // iteration family: that cell is refused in band — one attempt, no
    // death — instead of panicking the worker that would execute it.
    let healthy_a =
        Scenario::new("quad", 9, ProtocolSpec::QuadraticHalf).inputs(InputPattern::Unanimous(true));
    let healthy_b = Scenario::new("epoch", 36, ProtocolSpec::SubqThird { lambda: 12.0, epochs: 6 });
    let subq = ProtocolSpec::SubqHalf { lambda: 12.0, max_iters: None };
    let poison = Scenario::new("poison", 48, subq.clone()).f(9);
    let unexecutable =
        Scenario::new("flipper", 48, subq).f(9).adversary(AdversarySpec::VoteFlipper);
    let sweep =
        Sweep::new("poisoned", 2, vec![healthy_a.clone(), poison, unexecutable, healthy_b.clone()]);

    let report = sweep.run_distributed(&poisonable_cfg(2)).expect("workers spawn");
    let err = report.cells[1].error.as_ref().expect("poisoned cell must be quarantined");
    assert_eq!(err.attempts, 2, "quarantine after exactly two worker deaths");
    assert!(report.cells[1].runs.is_empty());
    let refusal = report.cells[2].error.as_ref().expect("unexecutable cell must be quarantined");
    assert_eq!(refusal.attempts, 1, "a refusal is final: {}", refusal.detail);
    assert!(refusal.detail.contains("adversary: vote_flipper"), "{}", refusal.detail);

    // The healthy neighbours are untouched by the recovery dance.
    let expected = Sweep::new("poisoned", 2, vec![healthy_a, healthy_b]).run(1);
    assert_eq!(report.cells[0].runs, expected.cells[0].runs);
    assert_eq!(report.cells[3].runs, expected.cells[1].runs);

    // And the failure is loud: JSON carries the structured record, the
    // markdown summary names the cell.
    let json = to_json("poisoned", std::slice::from_ref(&report));
    assert!(json.contains("\"error\": {\"attempts\": 2"), "JSON omitted the quarantine record");
    let summary = quarantine_summary(std::slice::from_ref(&report)).expect("summary exists");
    assert!(summary.contains("poisoned/poison"), "summary must name the cell: {summary}");
}

#[cfg(unix)]
#[test]
fn quarantine_detail_names_the_death() {
    // The structured error record must say *how* the cell failed (here:
    // the worker's exit mid-cell), not just that it did.
    let poison =
        Scenario::new("poison", 20, ProtocolSpec::SubqHalf { lambda: 8.0, max_iters: None }).f(4);
    let sweep = Sweep::new("solo", 1, vec![poison]);
    let report = sweep.run_distributed(&poisonable_cfg(1)).expect("workers spawn");
    let err = report.cells[0].error.as_ref().expect("quarantined");
    assert!(
        err.detail.contains("worker died mid-cell"),
        "detail should describe the death: {}",
        err.detail
    );
}
