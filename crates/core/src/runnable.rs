//! Type-erased, thread-dispatchable protocol executions.
//!
//! Every protocol family in this crate exposes a `runnable(...)`
//! constructor (`iter::runnable`, `epoch::runnable`, `dolev_strong::runnable`,
//! `ba_from_bb::runnable`, `broadcast::runnable_iter_bb`,
//! `momose_ren::runnable`, `cks::runnable`) returning a
//! [`Runnable`]: one fully configured execution — protocol configuration,
//! environment inputs, and adversary — erased down to a `Send` closure over
//! the [`SimConfig`] it will eventually run under.
//!
//! This is the uniform surface the `ba-bench` scenario layer dispatches
//! over: a sweep harness builds one `Runnable` per (scenario, seed) cell and
//! ships it to a `std::thread::scope` worker, where it calls the family's
//! typed `run(...)` entry point. Every `run` is a thin call into the one
//! execution path in `kernel.rs`, which applies the family's round budget,
//! picks the engine (sparse for sparse-capable configurations under
//! lockstep, dense otherwise), delivers through `ba_net::execute` and
//! evaluates the verdict.

use ba_sim::{RunReport, SimConfig, Verdict};

/// One fully configured protocol execution, erased to a `Send` closure.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ba_core::iter::{self, IterConfig};
/// use ba_fmine::{IdealMine, MineParams};
/// use ba_sim::{CorruptionModel, Passive, SimConfig};
///
/// let n = 64;
/// let elig = Arc::new(IdealMine::new(3, MineParams::new(n, 16.0)));
/// let runnable = iter::runnable(&IterConfig::subq_half(n, elig), vec![true; n], Passive);
/// // `Runnable: Send` — hand it to a worker thread and execute there.
/// let sim = SimConfig::new(n, 0, CorruptionModel::Static, 3);
/// let (report, verdict) =
///     std::thread::spawn(move || runnable.execute(&sim)).join().unwrap();
/// assert!(verdict.all_ok());
/// assert!(report.outputs.iter().all(|o| *o == Some(true)));
/// ```
type RunFn = Box<dyn FnOnce(&SimConfig) -> (RunReport, Verdict) + Send>;

pub struct Runnable {
    run: RunFn,
}

impl Runnable {
    /// Wraps an execution closure.
    pub fn new(run: impl FnOnce(&SimConfig) -> (RunReport, Verdict) + Send + 'static) -> Runnable {
        Runnable { run: Box::new(run) }
    }

    /// Runs the execution to completion under `sim` and returns the report
    /// and the security verdict.
    pub fn execute(self, sim: &SimConfig) -> (RunReport, Verdict) {
        (self.run)(sim)
    }
}

impl std::fmt::Debug for Runnable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runnable").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ba_fmine::{IdealMine, Keychain, MineParams, SigMode};
    use ba_sim::{CorruptionModel, NodeId, Passive, SimConfig};

    use crate::cks::{self, CksConfig};
    use crate::epoch::{self, EpochConfig};
    use crate::iter::{self, IterConfig};
    use crate::momose_ren::{self, MrConfig};
    use crate::{ba_from_bb, broadcast, dolev_strong};

    fn assert_send<T: Send>(_: &T) {}

    #[test]
    fn all_seven_families_construct_and_execute() {
        let n = 24;
        let seed = 5;
        let kc = Arc::new(Keychain::from_seed(seed, n, SigMode::Ideal));
        let elig = Arc::new(IdealMine::new(seed, MineParams::new(n, 12.0)));
        let sim = SimConfig::new(n, 0, CorruptionModel::Static, seed);

        let runnables = vec![
            iter::runnable(&IterConfig::subq_half(n, elig.clone()), vec![true; n], Passive),
            epoch::runnable(&EpochConfig::warmup_third(n, 6, kc.clone()), vec![true; n], Passive),
            dolev_strong::runnable(
                &dolev_strong::DsConfig { n, f: 3, sender: NodeId(0), keychain: kc.clone() },
                true,
                Passive,
            ),
            ba_from_bb::runnable(n, 3, kc.clone(), vec![true; n], Passive),
            broadcast::runnable_iter_bb(
                &IterConfig::subq_half(n, elig),
                kc.clone(),
                NodeId(0),
                true,
                Passive,
            ),
            momose_ren::runnable(&MrConfig::half(n, 6, kc.clone()), vec![true; n], Passive),
            cks::runnable(&CksConfig::adaptive(n, 6, kc), vec![true; n], Passive),
        ];
        for runnable in runnables {
            assert_send(&runnable);
            let (report, verdict) = runnable.execute(&sim);
            assert!(verdict.all_ok(), "{verdict:?}");
            assert!(report.forever_honest().all(|i| report.outputs[i.index()] == Some(true)));
        }
    }
}
