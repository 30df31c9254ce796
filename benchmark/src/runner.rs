//! Executing ops, judging their outputs, and the untraced (end-to-end) run.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path as FsPath;
use std::time::Instant;

use ba_bench::wire::{decode_reply, encode_descriptor, worker_loop};
use ba_bench::{
    diff_reports, to_json, CellDescriptor, CellReport, RunRecord, Scenario, SweepReport, Tolerance,
    WorkerReply,
};
use ba_sim::{RunReport, Verdict};

use crate::golden::{Flags, Golden};
use crate::stats::{median, tail, Tail};
use crate::workloads::{generate, Cell, Op, Path, Workload};

/// Cells above this population warm up on an `n = WARMUP_MAX_N` twin: what a
/// warm-up fills (lazy statics, `Group` table caches, allocator arenas for
/// the live set) does not grow with the silent majority, and set-up is
/// repeated [`SETUP_REPEATS`] times per run.
const WARMUP_MAX_N: usize = 10_000;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// What one op produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub record: RunRecord,
    /// Honest multicast + unicast bits, from `RunReport.metrics`.
    pub honest_bits: u64,
    pub rounds: u64,
    /// The full report and verdict (direct path only).
    pub run: Option<(RunReport, Verdict)>,
}

/// `Scenario::execute`, distilled.
pub fn direct_op(scenario: &Scenario, seed: u64) -> Outcome {
    let run = scenario.execute(seed);
    let report = run.report.expect("the workloads run protocol families only");
    let verdict = run.verdict.expect("protocol runs carry a verdict");
    Outcome {
        record: run.record,
        honest_bits: report.metrics.honest_multicast_bits + report.metrics.honest_unicast_bits,
        rounds: report.metrics.rounds,
        run: Some((report, verdict)),
    }
}

/// The in-process side of a wire op, computed once at set-up.
#[derive(Clone, Debug)]
pub struct Reference {
    /// `to_json` of the one-cell in-process report.
    json: String,
    honest_bits: u64,
    rounds: u64,
}

/// Host time and bytes of each stage of the wire path, summed over ops.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireStages {
    pub ops: u64,
    pub encode_ns: u64,
    pub worker_ns: u64,
    pub decode_ns: u64,
    pub to_json_ns: u64,
    pub diff_ns: u64,
    pub bytes: u64,
}

fn one_cell_json(cell: &Cell, scenario: &Scenario, runs: Vec<RunRecord>) -> String {
    let cell_report = CellReport { scenario: scenario.clone(), runs, error: None };
    let report = SweepReport { title: cell.sweep.clone(), seeds: 1, cells: vec![cell_report] };
    to_json("gauntlet_wire", &[report])
}

/// The cell as a one-seed sweep cell whose only run seed is `seed`.
fn one_seed(cell: &Cell, seed: u64) -> Scenario {
    let mut scenario = cell.scenario.clone();
    scenario.seed_offset = seed;
    scenario.seeds = None;
    scenario
}

fn reference(cell: &Cell, op: &Op) -> Reference {
    let scenario = one_seed(cell, op.seed);
    let outcome = direct_op(&scenario, op.seed);
    Reference {
        json: one_cell_json(cell, &scenario, vec![outcome.record]),
        honest_bits: outcome.honest_bits,
        rounds: outcome.rounds,
    }
}

/// One op through the distributed-sweep wire, checked against `reference`.
pub fn wire_op(
    cell: &Cell,
    op: &Op,
    reference: &Reference,
    stages: &mut WireStages,
) -> Result<Outcome, String> {
    let lap = |since: &mut Instant| {
        let ns = since.elapsed().as_nanos() as u64;
        *since = Instant::now();
        ns
    };
    let mut t = Instant::now();
    let descriptor = CellDescriptor {
        id: op.id as u64,
        sweep: cell.sweep.clone(),
        seeds: 1,
        scenario: one_seed(cell, op.seed),
    };
    let mut line = encode_descriptor(&descriptor);
    line.push('\n');
    stages.encode_ns += lap(&mut t);

    let mut reply = Vec::new();
    let code = worker_loop(Cursor::new(line.as_bytes()), &mut reply, None);
    stages.worker_ns += lap(&mut t);
    if code != 0 {
        return Err(format!("worker_loop exited with {code}"));
    }
    let reply = String::from_utf8(reply).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    stages.bytes += (line.len() + reply.len()) as u64;

    let runs = match decode_reply(reply.trim_end()).map_err(|e| e.to_string())? {
        WorkerReply::Result { id, runs } if id == descriptor.id => runs,
        other => return Err(format!("unexpected worker reply: {other:?}")),
    };
    stages.decode_ns += lap(&mut t);

    let record = runs.first().cloned().ok_or("worker reply carries no run")?;
    let json = one_cell_json(cell, &descriptor.scenario, runs);
    stages.to_json_ns += lap(&mut t);

    let diff = diff_reports(&reference.json, &json, &Tolerance::default())?;
    stages.diff_ns += lap(&mut t);
    stages.ops += 1;
    if !diff.passed() {
        return Err(format!("wire report differs from the in-process report:\n{}", diff.render()));
    }
    Ok(Outcome { record, honest_bits: reference.honest_bits, rounds: reference.rounds, run: None })
}

/// Why an op counts as failed.
#[derive(Clone, Debug, PartialEq)]
pub enum Failure {
    /// The op panicked, was quarantined, or its wire report differs from
    /// the in-process report.
    Errored(String),
    /// A flag the golden file holds `true` came out `false`.
    FlagRegressed(&'static str),
    /// The record differs from an earlier pass's record of the same op.
    RecordChanged,
}

fn same_record(a: &RunRecord, b: &RunRecord) -> bool {
    a.seed == b.seed
        && a.values.len() == b.values.len()
        && a.values
            .iter()
            .zip(&b.values)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// Judges one op execution against its golden flags and, from the second
/// pass on, against the first pass's record.
pub fn judge(
    golden: Flags,
    first: Option<&RunRecord>,
    outcome: &Result<Outcome, String>,
) -> Option<Failure> {
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(detail) => return Some(Failure::Errored(detail.clone())),
    };
    if let Some(flag) = golden.regression(Flags::of(&outcome.record)) {
        return Some(Failure::FlagRegressed(flag));
    }
    match first {
        Some(first) if !same_record(first, &outcome.record) => Some(Failure::RecordChanged),
        _ => None,
    }
}

/// Runs `f`, turning a panic into an `Err` carrying its message.
pub fn catching<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| payload.downcast_ref::<ba_sim::TransportError>().map(|e| e.to_string()))
            .unwrap_or_else(|| "panic with a non-string payload".into())),
    }
}

/// Ops attempted and failed, with the first few failures kept for the log.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub examples: Vec<(String, Failure)>,
}

impl Tally {
    pub fn count(&mut self, label: &str, failure: Option<Failure>) {
        self.attempted += 1;
        if let Some(failure) = failure {
            self.failed += 1;
            if self.examples.len() < 8 {
                self.examples.push((label.to_string(), failure));
            }
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A workload ready to be timed.
pub struct Prepared {
    pub workload: Workload,
    pub golden: Golden,
    /// Indexed by `Op::id`; `Some` on the wire path only.
    references: Vec<Option<Reference>>,
}

impl Prepared {
    /// The golden flags of `op` (`Err` when the golden file lacks it).
    pub fn golden_of(&self, op: &Op) -> Result<Flags, String> {
        self.golden.0.get(&op.label).copied().ok_or_else(|| {
            format!("golden/{}.json has no entry for {:?}; re-bless", self.workload.name, op.label)
        })
    }

    /// Executes `op` the way the workload reaches the program.
    pub fn run(&self, op: &Op, stages: &mut WireStages) -> Result<Outcome, String> {
        let cell = self.workload.cell(op);
        catching(|| match self.workload.path {
            Path::Direct => Ok(direct_op(&cell.scenario, op.seed)),
            Path::Wire => {
                let reference = self.references[op.id].as_ref().expect("wire ops have references");
                wire_op(cell, op, reference, stages)
            }
        })
    }
}

/// Set-up: workload generation, golden load, and one untimed warm-up op per
/// distinct cell. On the wire path the warm-up op is the in-process
/// reference execution each timed op is diffed against.
pub fn prepare(name: &str, seed: u64, golden: Option<&FsPath>) -> Result<Prepared, String> {
    let workload = generate(name, seed);
    let golden = match golden {
        Some(dir) => Golden::load(dir, workload.name)?,
        None => Golden::default(),
    };
    let mut references = vec![None; workload.ops.len()];
    let mut warmed = vec![false; workload.cells.len()];
    // In catalogue order, so that set-up does the same work under every seed.
    let mut catalogue: Vec<&Op> = workload.ops.iter().collect();
    catalogue.sort_by_key(|op| op.id);
    for op in catalogue {
        let cell = workload.cell(op);
        match workload.path {
            Path::Wire => references[op.id] = Some(catching(|| Ok(reference(cell, op)))?),
            Path::Direct if !warmed[op.cell] => {
                let mut twin = cell.scenario.clone();
                twin.n = twin.n.min(WARMUP_MAX_N);
                catching(|| Ok(direct_op(&twin, op.seed)))?;
            }
            Path::Direct => {}
        }
        warmed[op.cell] = true;
    }
    Ok(Prepared { workload, golden, references })
}

/// Everything the untraced run measured.
pub struct EndToEnd {
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    /// Raw wall of each pass (printed so the spread is auditable).
    pub pass_walls_s: Vec<f64>,
    /// Each op's wall in ms — its median across passes, which votes out a
    /// disturbance shorter than a pass — in catalogue order. The three
    /// timing metrics are the sum, the median and the tail of these.
    pub op_ms: Vec<f64>,
    /// Timed op executions behind `op_ms` (ops × passes).
    pub op_samples: usize,
    pub tail: Tail,
    /// Honest bits and rounds summed over the catalogue (first pass).
    pub honest_bits: u64,
    pub rounds: u64,
    pub ops_per_pass: usize,
    pub pinned: usize,
    pub wire: WireStages,
}

impl EndToEnd {
    /// The sum of the op walls: a pass with the disturbances voted out.
    pub fn steady_pass_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops_per_pass as f64 / self.steady_pass_s()
    }

    pub fn op_ms_p50(&self) -> f64 {
        median(&self.op_ms)
    }

    pub fn honest_kbits_per_op(&self) -> f64 {
        self.honest_bits as f64 / 1000.0 / self.ops_per_pass as f64
    }

    pub fn rounds_per_op(&self) -> f64 {
        self.rounds as f64 / self.ops_per_pass as f64
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.setup_s)
    }
}

/// The untraced run: [`SETUP_REPEATS`] set-ups, then whole passes over the
/// op list until `seconds` have been measured (never fewer than two, so
/// every op is checked against its own earlier record).
pub fn run_end_to_end(
    name: &str,
    seed: u64,
    seconds: f64,
    golden_dir: &FsPath,
) -> Result<EndToEnd, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        prepared = Some(prepare(name, seed, Some(golden_dir))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUP_REPEATS > 0");
    let ops = &prepared.workload.ops;
    let goldens = ops.iter().map(|op| prepared.golden_of(op)).collect::<Result<Vec<_>, _>>()?;

    let mut tally = Tally::default();
    let mut wire = WireStages::default();
    let mut first: Vec<Option<Outcome>> = vec![None; ops.len()];
    let mut pass_walls_s = Vec::new();
    // Per-op walls in ms, indexed by `Op::id`, one entry per pass.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let started = Instant::now();
    loop {
        let pass = Instant::now();
        for (op, golden) in ops.iter().zip(&goldens) {
            let t = Instant::now();
            let outcome = prepared.run(op, &mut wire);
            walls[op.id].push(t.elapsed().as_secs_f64() * 1e3);
            let earlier = first[op.id].as_ref().map(|o| &o.record);
            tally.count(&op.label, judge(*golden, earlier, &outcome));
            if let (None, Ok(outcome)) = (&first[op.id], outcome) {
                first[op.id] = Some(Outcome { run: None, ..outcome });
            }
        }
        let wall = pass.elapsed().as_secs_f64();
        pass_walls_s.push(wall);
        // Stop at the whole number of passes nearest to `seconds`.
        if pass_walls_s.len() >= 2 && started.elapsed().as_secs_f64() + wall / 2.0 > seconds {
            break;
        }
    }
    let done = first.iter().flatten();
    let op_ms: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let op_samples = walls.iter().map(Vec::len).sum();
    Ok(EndToEnd {
        tally,
        setup_s,
        pass_walls_s,
        tail: tail(&op_ms, op_samples),
        op_samples,
        op_ms,
        honest_bits: done.clone().map(|o| o.honest_bits).sum(),
        rounds: done.map(|o| o.rounds).sum(),
        ops_per_pass: ops.len(),
        pinned: prepared.golden.pinned(),
        wire,
    })
}

/// `--bless`: executes the catalogue once and writes its flags.
pub fn bless(name: &str, golden_dir: &FsPath) -> Result<Golden, String> {
    let prepared = prepare(name, 0, None)?;
    let mut golden = Golden::default();
    for op in &prepared.workload.ops {
        let outcome = prepared.run(op, &mut WireStages::default())?;
        golden.0.insert(op.label.clone(), Flags::of(&outcome.record));
    }
    golden.write(golden_dir, name)?;
    Ok(golden)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(terminated: bool, rounds: f64) -> RunRecord {
        let mut r = RunRecord::new(3);
        r.push("rounds", rounds);
        r.push_flag("consistent", true);
        r.push_flag("valid", true);
        r.push_flag("terminated", terminated);
        r
    }

    fn outcome(record: RunRecord) -> Result<Outcome, String> {
        Ok(Outcome { record, honest_bits: 0, rounds: 0, run: None })
    }

    const HOLDS: Flags = Flags { consistent: true, valid: true, terminated: true };

    #[test]
    fn a_flipped_flag_a_panic_and_a_changed_record_are_each_counted() {
        let mut tally = Tally::default();
        let good = record(true, 7.0);

        // A clean op, on its first and on a later pass.
        tally.count("ok", judge(HOLDS, None, &outcome(good.clone())));
        tally.count("ok", judge(HOLDS, Some(&good), &outcome(good.clone())));
        assert_eq!((tally.attempted, tally.failed), (2, 0));

        // Golden-true flag now false.
        let flipped = judge(HOLDS, None, &outcome(record(false, 7.0)));
        assert_eq!(flipped, Some(Failure::FlagRegressed("terminated")));
        tally.count("flipped", flipped);

        // A pinned stall is not a failure — and neither is its recovery.
        let stall = Flags { terminated: false, ..HOLDS };
        assert_eq!(judge(stall, None, &outcome(record(false, 7.0))), None);
        assert_eq!(judge(stall, None, &outcome(good.clone())), None);

        // A panic inside the op.
        let panicked: Result<Outcome, String> = catching(|| panic!("node {} exploded", 4));
        let failure = judge(HOLDS, None, &panicked);
        assert_eq!(failure, Some(Failure::Errored("node 4 exploded".into())));
        tally.count("panicked", failure);

        // The same op produced another record on a later pass.
        let changed = judge(HOLDS, Some(&good), &outcome(record(true, 11.0)));
        assert_eq!(changed, Some(Failure::RecordChanged));
        tally.count("changed", changed);

        assert_eq!((tally.attempted, tally.failed), (5, 3));
        assert_eq!(tally.fail_frac(), 0.6);
        assert_eq!(tally.examples.len(), 3);
    }

    #[test]
    fn the_wire_path_reproduces_the_in_process_record() {
        let workload = generate("gauntlet_wire", 1);
        let op = workload.ops.iter().find(|op| op.label.contains("mr/half")).expect("mr cell");
        let cell = workload.cell(op);
        let in_process = reference(cell, op);
        let mut stages = WireStages::default();
        let outcome = wire_op(cell, op, &in_process, &mut stages).expect("wire == in-process");
        assert_eq!(outcome.honest_bits, in_process.honest_bits);
        assert!(stages.ops == 1 && stages.bytes > 0 && stages.worker_ns > 0);

        // A reference from another seed must be reported as a mismatch.
        let mut other = op.clone();
        other.seed += 1;
        let wrong = reference(cell, &other);
        assert!(wire_op(cell, op, &wrong, &mut stages).is_err());
    }
}
