//! The sweep engine: a grid of [`Scenario`]s × seeds, executed by
//! `std::thread::scope` workers with deterministic per-cell seeding.
//!
//! Every (scenario, seed) pair is one independent work item. Workers claim
//! items off a shared atomic cursor and write each result into its
//! pre-assigned slot, so the assembled [`SweepReport`] is byte-identical
//! regardless of worker count or scheduling — `--threads 1` and
//! `--threads N` produce the same JSON.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::scenario::{Scenario, SharedElig};
use crate::stats::Stats;

/// An observable name: a `&'static str` for records produced in-process,
/// an owned string for records decoded off the cell-stream wire.
pub type ObsName = Cow<'static, str>;

/// The named observables recorded by one (scenario, seed) execution.
///
/// Names may repeat (e.g. several committee-size samples per seed); cell
/// aggregation flattens repeated names into one sample list.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// The seed this record was produced under.
    pub seed: u64,
    /// Named observables, in recording order.
    pub values: Vec<(ObsName, f64)>,
}

impl RunRecord {
    /// An empty record for `seed`.
    pub fn new(seed: u64) -> RunRecord {
        RunRecord { seed, values: Vec::new() }
    }

    /// Records one observable.
    pub fn push(&mut self, name: impl Into<ObsName>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Records a boolean observable as 0.0/1.0.
    pub fn push_flag(&mut self, name: impl Into<ObsName>, value: bool) {
        self.push(name, value as u64 as f64);
    }

    /// First value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k.as_ref() == name).map(|(_, v)| *v)
    }

    /// True when the flag `name` was recorded as nonzero.
    pub fn flag(&self, name: &str) -> bool {
        self.get(name).is_some_and(|v| v != 0.0)
    }

    /// Decodes an optional-bit observable (recorded as −1 for "absent",
    /// 0/1 otherwise — e.g. `node1_output` of the Theorem 3 workload).
    pub fn optional_bit(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(|v| if v < 0.0 { None } else { Some(v != 0.0) })
    }
}

/// A structured record of a quarantined cell: the cell's work never
/// completed because its transport failed unrecoverably mid-run or its
/// lazy live set broke its premise (a [`ba_sim::structured_failure`]
/// caught by [`catch_transport`]). Quarantined cells surface in the
/// markdown and JSON renderers instead of silently vanishing.
#[derive(Clone, Debug, PartialEq)]
pub struct CellError {
    /// Executions of the cell that failed before it was quarantined.
    /// [`catch_transport`] quarantines at the first, so this is always 1;
    /// it stays a member of report schema v1's `error` object.
    pub attempts: u32,
    /// Human-readable description of the last observed failure.
    pub detail: String,
}

/// Runs one cell execution, converting a structured execution failure
/// ([`ba_sim::structured_failure`]: a [`ba_sim::TransportError`] panic
/// payload — e.g. a TCP peer that died and could not be reconnected — or a
/// [`ba_sim::LazyBreach`] from a wrong committee oracle) into a
/// [`CellError`] so the sweep can quarantine the cell and keep going. Any
/// other panic is a harness bug and is re-raised unchanged.
pub fn catch_transport(f: impl FnOnce() -> RunRecord) -> Result<RunRecord, CellError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(record) => Ok(record),
        Err(payload) => match ba_sim::structured_failure(&*payload) {
            Some(detail) => Err(CellError { attempts: 1, detail }),
            None => std::panic::resume_unwind(payload),
        },
    }
}

/// One scenario's executed cell: the scenario plus its per-seed records
/// (in seed order).
#[derive(Clone, Debug)]
pub struct CellReport {
    /// The scenario that produced this cell.
    pub scenario: Scenario,
    /// Per-seed records, ordered by seed (empty for a quarantined cell).
    pub runs: Vec<RunRecord>,
    /// The quarantine record, when [`catch_transport`] caught a structured
    /// failure in one of this cell's runs (`None` for every successfully
    /// executed cell).
    pub error: Option<CellError>,
}

impl CellReport {
    /// All samples recorded under `name`, flattened across seeds in seed
    /// order.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| r.values.iter().filter(|(k, _)| k.as_ref() == name).map(|(_, v)| *v))
            .collect()
    }

    /// Statistics over [`CellReport::samples`].
    pub fn stats(&self, name: &str) -> Stats {
        Stats::of(&self.samples(name))
    }

    /// Mean of the samples under `name` (0.0 when absent).
    pub fn mean(&self, name: &str) -> f64 {
        self.stats(name).mean
    }

    /// Sum of the samples under `name`.
    pub fn total(&self, name: &str) -> f64 {
        // + 0.0 normalizes the empty sum (f64's additive identity is -0.0,
        // which would render as "-0" in tables).
        self.samples(name).iter().sum::<f64>() + 0.0
    }

    /// Fraction of runs whose flag `name` is nonzero.
    pub fn rate(&self, name: &str) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.count(name) as f64 / self.runs.len() as f64
    }

    /// Number of runs whose flag `name` is nonzero.
    pub fn count(&self, name: &str) -> usize {
        self.runs.iter().filter(|r| r.flag(name)).count()
    }
}

/// A declarative grid of scenarios × seeds.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Sweep title (section heading in reports).
    pub title: String,
    /// Default seeds per scenario (individual scenarios may override).
    pub seeds: u64,
    /// The grid.
    pub scenarios: Vec<Scenario>,
}

impl Sweep {
    /// Creates a sweep of `scenarios`, each run for `seeds` seeds unless it
    /// overrides the count.
    pub fn new(title: impl Into<String>, seeds: u64, scenarios: Vec<Scenario>) -> Sweep {
        Sweep { title: title.into(), seeds, scenarios }
    }

    /// Seeds scenario `idx` will run (its override or the sweep default).
    pub(crate) fn seeds_of(&self, idx: usize) -> u64 {
        self.scenarios[idx].seeds.unwrap_or(self.seeds)
    }

    /// Executes the grid on `threads` workers and assembles the report.
    ///
    /// Work item `(cell, s)` runs scenario `cell` under seed
    /// `scenario.seed_offset + s` — the same seed it would get under a
    /// serial loop, so parallelism never changes results, only wall-clock.
    pub fn run(&self, threads: usize) -> SweepReport {
        let tasks: Vec<(usize, u64)> = (0..self.scenarios.len())
            .flat_map(|c| (0..self.seeds_of(c)).map(move |s| (c, s)))
            .collect();
        // One lazily initialized eligibility backend per cell, shared by
        // every worker that executes one of the cell's seeds (real for
        // fixed-seed scenarios; per-run scenarios ignore it).
        let shared: Vec<SharedElig> = self.scenarios.iter().map(|_| SharedElig::new()).collect();
        let slots: Vec<OnceLock<RunRecord>> = tasks.iter().map(|_| OnceLock::new()).collect();
        let cell_errors: Vec<OnceLock<CellError>> =
            self.scenarios.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);

        let worker = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(cell, s)) = tasks.get(i) else { break };
            if cell_errors[cell].get().is_some() {
                continue; // cell already quarantined; don't burn its other seeds
            }
            let scenario = &self.scenarios[cell];
            match catch_transport(|| scenario.run_seed(scenario.seed_offset + s, &shared[cell])) {
                Ok(record) => {
                    slots[i].set(record).expect("each slot is written exactly once");
                }
                Err(error) => {
                    let _ = cell_errors[cell].set(error); // first failure wins
                }
            }
        };
        if threads <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads.min(tasks.len().max(1)) {
                    // `&closure` is Copy and itself callable, so every
                    // spawned worker shares the one closure.
                    let worker: &(dyn Fn() + Sync) = &worker;
                    scope.spawn(worker);
                }
            });
        }

        let mut slot_iter = slots.into_iter();
        let mut error_iter = cell_errors.into_iter();
        let cells = (0..self.scenarios.len())
            .map(|c| {
                let error = error_iter.next().expect("one error slot per cell").into_inner();
                let cell_slots: Vec<_> = (0..self.seeds_of(c))
                    .map(|_| slot_iter.next().expect("one slot per task"))
                    .collect();
                // A quarantined cell drops any seeds that did complete:
                // which ones finished before the failure depends on worker
                // scheduling, and a partial sample set would make the
                // report thread-count-dependent.
                let runs = match error {
                    Some(_) => Vec::new(),
                    None => cell_slots
                        .into_iter()
                        .map(|s| s.into_inner().expect("worker filled the slot"))
                        .collect(),
                };
                CellReport { scenario: self.scenarios[c].clone(), runs, error }
            })
            .collect();
        SweepReport { title: self.title.clone(), seeds: self.seeds, cells }
    }

    /// [`Sweep::run`] on all available cores.
    pub fn run_auto(&self) -> SweepReport {
        self.run(default_threads())
    }
}

/// The executed form of a [`Sweep`].
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Sweep title.
    pub title: String,
    /// The sweep-level default seed count.
    pub seeds: u64,
    /// One executed cell per scenario, in grid order.
    pub cells: Vec<CellReport>,
}

impl SweepReport {
    /// The cell whose scenario is labelled `label`.
    ///
    /// # Panics
    ///
    /// Panics when no cell carries the label (a harness bug).
    pub fn cell(&self, label: &str) -> &CellReport {
        self.cells
            .iter()
            .find(|c| c.scenario.label == label)
            .unwrap_or_else(|| panic!("no cell labelled {label:?} in sweep {:?}", self.title))
    }
}

/// The default worker count: every available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::TransportError;

    #[test]
    fn catch_transport_passes_successful_records_through() {
        let mut record = RunRecord::new(7);
        record.push("rounds", 3.0);
        let got = catch_transport(|| record.clone()).expect("no failure");
        assert_eq!(got, record);
    }

    #[test]
    fn catch_transport_quarantines_structured_failures() {
        let quarantined = |raise: fn() -> RunRecord| {
            let error = catch_transport(raise).expect_err("structured failure is caught");
            assert_eq!(error.attempts, 1);
            error.detail
        };
        let detail = quarantined(|| {
            std::panic::panic_any(TransportError {
                node: Some(3),
                detail: "peer connection died".into(),
            })
        });
        assert!(detail.contains("node 3"), "detail: {detail}");
        assert!(detail.contains("peer connection died"));
        // A wrong committee oracle costs the cell, not the sweep.
        let detail = quarantined(|| {
            std::panic::panic_any(ba_sim::LazyBreach::ReplayedNodeSent { node: 7, round: 2 })
        });
        assert!(detail.contains("node 7 sent while replaying round 2"), "detail: {detail}");
    }

    #[test]
    fn catch_transport_rethrows_unrelated_panics() {
        let outcome = std::panic::catch_unwind(|| {
            let _ = catch_transport(|| -> RunRecord { panic!("harness bug") });
        });
        assert!(outcome.is_err(), "non-transport panics must propagate");
    }
}
