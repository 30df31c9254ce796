//! The traced twin of `Scenario::execute`: the same execution, assembled
//! from the same public constructors, with the [`seams`](crate::seams)
//! decorators installed. `Scenario::execute` wires its eligibility backend,
//! nodes, adversary and transport privately, so this module repeats that
//! wiring; every traced op is compared against its untraced twin
//! (`RunReport` and `Verdict` equal), which is what keeps the two in step.
//!
//! Covers the protocol families the workloads use (iteration, epoch,
//! Momose–Ren, CKS); the broadcast and measurement workloads of `ba-bench`
//! are not benchmarked and are refused.

use std::sync::Arc;

use ba_adversary::{
    AdaptiveEclipse, CertForger, CommitteeEraser, CrashAt, EclipseBurst, EquivocationSpammer,
    SilenceThenBurst, VoteFlipper,
};
use ba_bench::{AdversarySpec, EligMode, EligSeed, ProtocolSpec, Scenario};
use ba_core::auth::{Auth, FsService};
use ba_core::cks::{CksConfig, CksMsg, CksNode};
use ba_core::epoch::{EpochConfig, EpochMsg, EpochNode};
use ba_core::iter::{self, IterConfig, IterMsg, IterNode};
use ba_core::momose_ren::{MrConfig, MrMsg, MrNode};
use ba_fmine::{Eligibility, IdealMine, Keychain, MineParams, RealMine, SigMode};
use ba_net::TcpTransport;
use ba_sim::transport::latency::LatencyTransport;
use ba_sim::transport::lockstep::LockstepTransport;
use ba_sim::{
    evaluate, Adversary, BaseTransport, Bit, FaultyTransport, Message, NodeId, Passive,
    PopulationMode, Problem, Protocol, RunReport, Sim, SimConfig, Transport, TransportSpec,
    Verdict,
};

use crate::seams::{Counters, TracedAdversary, TracedElig, TracedNode, TracedTransport};
use crate::trace::{span, Seam};

/// `ba-bench`'s threshold above which the real backend skips per-node
/// fixed-base tables (`scenario.rs`, private there).
const REAL_ELIG_UNTABLED_N: usize = 4096;

/// Executes `scenario` under `seed` with every seam decorated. Must be
/// called inside [`crate::trace::trace_op`] for the spans to be recorded.
pub fn execute(scenario: &Scenario, seed: u64, counters: &Arc<Counters>) -> (RunReport, Verdict) {
    assert!(
        scenario.elig_seed == EligSeed::PerRun,
        "the workloads use per-run eligibility backends only"
    );
    let transport = match scenario.fault_plan {
        Some(plan) => scenario.transport.with_fault_plan(plan),
        None => scenario.transport,
    };
    let sim = SimConfig::new(scenario.n.max(1), scenario.f, scenario.model, seed)
        .with_threads(scenario.sim_threads)
        .with_population(scenario.population)
        .with_transport(transport);
    let run = Run { scenario, seed, sim, counters };
    let n = scenario.n;
    match &scenario.protocol {
        ProtocolSpec::SubqHalf { lambda, max_iters } => {
            let mut cfg = IterConfig::subq_half(n, run.elig(*lambda))
                .with_cert_encoding(scenario.cert_encoding);
            if let Some(mi) = max_iters {
                cfg.max_iters = *mi;
            }
            run.iter(cfg)
        }
        ProtocolSpec::QuadraticHalf => {
            let cfg = IterConfig::quadratic_half(n, run.keychain(), seed)
                .with_cert_encoding(scenario.cert_encoding);
            run.iter(cfg)
        }
        ProtocolSpec::WarmupThird { epochs } => {
            run.epoch(EpochConfig::warmup_third(n, *epochs, run.keychain()))
        }
        ProtocolSpec::SubqThird { lambda, epochs } => {
            run.epoch(EpochConfig::subq_third(n, *epochs, run.elig(*lambda)))
        }
        ProtocolSpec::SubqShared { lambda, epochs } => {
            let elig = run.elig(*lambda);
            run.epoch(EpochConfig::subq_shared(n, *epochs, elig, run.keychain()))
        }
        ProtocolSpec::ChenMicali { lambda, epochs, erasure } => {
            let elig = run.elig(*lambda);
            let fs = {
                let _span = span(Seam::KeychainSetup);
                Arc::new(FsService::from_seed(seed, n, *epochs as usize + 1))
            };
            run.epoch(EpochConfig::chen_micali(n, *epochs, elig, fs, *erasure))
        }
        ProtocolSpec::MomoseRenHalf { views } => {
            let cfg = MrConfig::half(n, *views, run.keychain())
                .with_cert_encoding(scenario.cert_encoding);
            let adversary = run.shared_adversary::<MrMsg>(Some(cfg.quorum));
            let max_rounds = run.sim.max_rounds.min(cfg.total_rounds() + 2);
            run.dense(max_rounds, adversary, Seam::MomoseRenStep, move |id, input, seed| {
                MrNode::new(cfg.clone(), id, input, seed)
            })
        }
        ProtocolSpec::CksAdaptive { phases } => {
            let cfg = CksConfig::adaptive(n, *phases, run.keychain())
                .with_cert_encoding(scenario.cert_encoding);
            let adversary = run.shared_adversary::<CksMsg>(Some(cfg.quorum));
            let max_rounds = run.sim.max_rounds.min(cfg.total_rounds() + 2);
            run.dense(max_rounds, adversary, Seam::CksStep, move |id, input, seed| {
                CksNode::new(cfg.clone(), id, input, seed)
            })
        }
        other => panic!("traced execution does not cover {other:?}"),
    }
}

/// One traced execution in the making.
struct Run<'a> {
    scenario: &'a Scenario,
    seed: u64,
    sim: SimConfig,
    counters: &'a Arc<Counters>,
}

impl Run<'_> {
    /// `Scenario::build_elig`, decorated.
    fn elig(&self, lambda: f64) -> Arc<dyn Eligibility> {
        let params = MineParams::new(self.scenario.n, lambda);
        let inner: Arc<dyn Eligibility> = {
            let _span = span(Seam::EligSetup);
            match self.scenario.elig {
                EligMode::Ideal => Arc::new(IdealMine::new(self.seed, params)),
                EligMode::Real if self.scenario.n >= REAL_ELIG_UNTABLED_N => {
                    Arc::new(RealMine::from_seed_untabled(self.seed, params))
                }
                EligMode::Real => Arc::new(RealMine::from_seed(self.seed, params)),
            }
        };
        Arc::new(TracedElig { inner, counters: Arc::clone(self.counters) })
    }

    fn keychain(&self) -> Arc<Keychain> {
        let _span = span(Seam::KeychainSetup);
        Arc::new(Keychain::from_seed(self.seed, self.scenario.n, SigMode::Ideal))
    }

    /// `Scenario::typed_runnable`'s family-agnostic adversaries.
    fn shared_adversary<M: Message + Send + Sync + 'static>(
        &self,
        quorum: Option<usize>,
    ) -> Box<dyn Adversary<M> + Send> {
        let (n, f) = (self.scenario.n, self.scenario.f);
        match self.scenario.adversary {
            AdversarySpec::Passive => Box::new(Passive),
            AdversarySpec::CommitteeEraser => Box::new(CommitteeEraser::new()),
            AdversarySpec::StarveQuorum => Box::new(CommitteeEraser::starve_quorum(
                quorum.expect("starve_quorum needs a quorum-bearing protocol"),
            )),
            AdversarySpec::CrashTail { at_round } => {
                Box::new(CrashAt { nodes: (n - f..n).map(NodeId).collect(), at_round })
            }
            AdversarySpec::SilenceThenBurst { at_round } => {
                Box::new(SilenceThenBurst::tail(n, f, at_round))
            }
            AdversarySpec::AdaptiveEclipse { per_round: 0 } => Box::new(AdaptiveEclipse::new()),
            AdversarySpec::AdaptiveEclipse { per_round } => {
                Box::new(AdaptiveEclipse::paced(per_round))
            }
            AdversarySpec::EclipseBurst { at_round } => {
                Box::new(EclipseBurst::tail(n, f, at_round))
            }
            other => panic!("{other:?} does not attack {:?}", self.scenario.protocol),
        }
    }

    /// `Scenario::run_iter` over `iter::run`.
    fn iter(&self, cfg: IterConfig) -> (RunReport, Verdict) {
        let adversary: Box<dyn Adversary<IterMsg> + Send> = match self.scenario.adversary {
            AdversarySpec::CertForger { target } => Box::new(
                CertForger::new(
                    self.scenario.n,
                    self.scenario.f,
                    target,
                    cfg.quorum,
                    cfg.auth.clone(),
                )
                .with_encoding(cfg.effective_cert_encoding()),
            ),
            _ => self.shared_adversary(Some(cfg.quorum)),
        };
        let max_rounds = self.sim.max_rounds.min(cfg.total_rounds() + 2);
        let sparse = self.sim.population == PopulationMode::Sparse
            && self.sim.transport == TransportSpec::Lockstep
            && cfg.supports_sparse();
        if sparse {
            // The sparse engine's node factory and activation oracle are
            // private to `iter::run`; only the eligibility backend inside
            // `cfg` and the adversary can be decorated on this path.
            let _span = span(Seam::Population);
            let inputs = self.inputs();
            return iter::run(&cfg, &self.sim, inputs, TracedAdversary { inner: adversary });
        }
        self.dense(max_rounds, adversary, Seam::IterStep, move |id, input, seed| {
            IterNode::new(cfg.clone(), id, input, seed)
        })
    }

    /// `Scenario::run_epoch` over `epoch::run`.
    fn epoch(&self, cfg: EpochConfig) -> (RunReport, Verdict) {
        let auth: Auth = cfg.auth.clone();
        let adversary: Box<dyn Adversary<EpochMsg> + Send> = match self.scenario.adversary {
            AdversarySpec::VoteFlipper => Box::new(VoteFlipper::new(auth, cfg.quorum)),
            AdversarySpec::EquivocationSpammer => {
                Box::new(EquivocationSpammer::new(self.scenario.n, self.scenario.f, auth))
            }
            _ => self.shared_adversary(Some(cfg.quorum)),
        };
        assert!(
            self.sim.population == PopulationMode::Dense,
            "no workload runs the epoch family sparsely"
        );
        let max_rounds = self.sim.max_rounds.max(cfg.total_rounds() + 1);
        self.dense(max_rounds, adversary, Seam::EpochStep, move |id, input, seed| {
            EpochNode::new(cfg.clone(), id, input, seed)
        })
    }

    fn inputs(&self) -> Vec<Bit> {
        self.scenario.inputs.generate(self.scenario.n, self.seed)
    }

    /// The dense-engine path every family's `run` takes: `ba_net::execute`
    /// → `Sim`, with nodes, adversary and transport decorated.
    fn dense<M, P>(
        &self,
        max_rounds: u64,
        adversary: Box<dyn Adversary<M> + Send>,
        step: Seam,
        node: impl Fn(NodeId, Bit, u64) -> P,
    ) -> (RunReport, Verdict)
    where
        M: Message + Send + Sync + 'static,
        P: Protocol<M> + Send + 'static,
    {
        let mut sim = self.sim.clone();
        sim.max_rounds = max_rounds;
        let inputs = self.inputs();
        let transport = self.transport::<M>(&sim);
        let report = {
            let _span = span(Seam::Engine);
            let node_inputs = inputs.clone();
            Sim::run_with_transport(
                &sim,
                inputs,
                TracedAdversary { inner: adversary },
                move |id, seed| {
                    Box::new(TracedNode {
                        inner: node(id, node_inputs[id.index()], seed),
                        seam: step,
                    })
                },
                transport,
            )
        };
        let verdict = evaluate(Problem::Agreement, &report);
        (report, verdict)
    }

    /// `Sim::new` + `ba_net::execute`'s backend dispatch, decorated.
    fn transport<M: Message + Send + Sync + 'static>(
        &self,
        sim: &SimConfig,
    ) -> Box<dyn Transport<M>> {
        let n = sim.n;
        let traced = |inner: Box<dyn Transport<M>>, seam, outermost: bool, faulted| {
            Box::new(TracedTransport {
                inner,
                seam,
                counters: outermost.then(|| Arc::clone(self.counters)),
                n,
                faulted,
            }) as Box<dyn Transport<M>>
        };
        let base = |base: BaseTransport, outermost: bool| match base {
            BaseTransport::Lockstep => {
                traced(Box::new(LockstepTransport::new()), Seam::Lockstep, outermost, false)
            }
            BaseTransport::Latency { round_ms, gst_ms, dist } => traced(
                Box::new(LatencyTransport::new(n, round_ms, gst_ms, dist, sim.seed)),
                Seam::Latency,
                outermost,
                false,
            ),
            BaseTransport::Tcp => traced(
                Box::new(TcpTransport::new(n).expect("bind TCP loopback transport")),
                Seam::Tcp,
                outermost,
                false,
            ),
        };
        match sim.transport {
            TransportSpec::Faulty { inner, plan } => traced(
                Box::new(FaultyTransport::new(base(inner, false), plan, n, sim.seed)),
                Seam::Fault,
                true,
                !plan.is_empty(),
            ),
            bare => base(BaseTransport::try_from(bare).expect("non-faulty specs convert"), true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{drain, trace_op};
    use crate::workloads::{generate, WORKLOADS};

    /// Traced and untraced executions of `scenario` must be the same
    /// execution; returns the traced op's wall and the sum of self times.
    fn assert_transparent(scenario: &Scenario, seed: u64) {
        let twin = scenario.execute(seed);
        let counters = Arc::new(Counters::default());
        let ((report, verdict), aggs) = trace_op(0, || execute(scenario, seed, &counters));
        assert_eq!(Some(report), twin.report, "{}: RunReport differs", scenario.label);
        assert_eq!(Some(verdict), twin.verdict, "{}: Verdict differs", scenario.label);
        let wall = aggs[Seam::Op as usize].busy_ns;
        assert!(wall > 0);
        assert_eq!(
            aggs.iter().map(|a| a.self_ns).sum::<u64>(),
            wall,
            "self times partition the op"
        );
    }

    #[test]
    fn decorators_are_transparent_on_one_op_per_workload() {
        for name in WORKLOADS {
            let workload = generate(name, 3);
            let op = &workload.ops[0];
            let mut scenario = workload.cell(op).scenario.clone();
            // The sparse cell, shrunk to keep the test quick; still sparse.
            scenario.n = scenario.n.min(5_000);
            assert_transparent(&scenario, op.seed);
        }
        assert!(!drain().spans.is_empty());
    }

    /// The gauntlet is where the adversary wiring lives: every adversary ×
    /// model × family cell must survive decoration unchanged.
    #[test]
    fn decorators_are_transparent_on_every_gauntlet_cell() {
        let workload = generate("gauntlet_wire", 0);
        for op in &workload.ops {
            assert_transparent(&workload.cell(op).scenario, op.seed);
        }
    }

    #[test]
    fn every_net_chaos_cell_is_transparent_too() {
        let workload = generate("net_chaos", 0);
        for cell in &workload.cells {
            assert_transparent(&cell.scenario, 1);
        }
    }
}
