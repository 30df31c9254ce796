//! # ba-net
//!
//! Real-I/O delivery backends for `ba-sim`'s sans-I/O transport seam.
//!
//! The simulation core deliberately contains no sockets: protocol stepping
//! is pure, and a [`ba_sim::Transport`] decides when messages arrive. This
//! crate supplies the backend that cannot live inside the core — a real TCP
//! loopback network ([`tcp::TcpTransport`]) with one reader task per
//! materialized node — plus [`execute`], the one-stop entry point that
//! builds whichever backend a [`SimConfig`] names and runs the execution.
//!
//! Everything protocol-visible (verdicts, bit counts, rounds) stays
//! byte-identical to lockstep under the TCP backend — delivery still paces
//! round-by-round in send order; what changes is that every copy crosses a
//! kernel socket and the report's latency observables become genuine
//! wall-clock measurements instead of virtual-clock arithmetic.

pub mod tcp;

use ba_sim::adversary::Adversary;
use ba_sim::engine::{BoxedProtocol, RunReport, Sim, SimConfig};
use ba_sim::ids::{Bit, NodeId};
use ba_sim::message::Message;
use ba_sim::population::Committee;

pub use tcp::TcpTransport;

/// Runs one execution under whatever transport `config.transport` names:
/// [`Sim::run_population`] with this crate's TCP loopback backend standing
/// by for the specs that need real sockets — what lets protocol crates stay
/// free of I/O while still offering every backend.
///
/// # Panics
///
/// Panics if the loopback listener cannot be bound (no TCP smoke is
/// meaningful without it), and propagates the engine's own panics.
pub fn execute<M, A>(
    config: &SimConfig,
    inputs: Vec<Bit>,
    adversary: A,
    factory: impl FnMut(NodeId, u64) -> BoxedProtocol<M> + Send + 'static,
    committee: Option<Committee<M>>,
) -> RunReport
where
    M: Message + Send + Sync + 'static,
    A: Adversary<M> + Send,
{
    Sim::run_population(config, inputs, adversary, factory, committee, || {
        Box::new(TcpTransport::new(config.n).expect("bind TCP loopback transport"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::adversary::{CorruptionModel, Passive};
    use ba_sim::ids::Round;
    use ba_sim::message::{Incoming, Outbox};
    use ba_sim::protocol::Protocol;
    use ba_sim::transport::{BaseTransport, TransportSpec};

    #[derive(Clone, Debug)]
    struct Vote(bool);

    impl Message for Vote {
        fn size_bits(&self) -> usize {
            1
        }
    }

    struct Echo {
        input: Bit,
        done: Option<Bit>,
    }

    impl Protocol<Vote> for Echo {
        fn step(&mut self, round: Round, inbox: &[Incoming<Vote>], out: &mut Outbox<Vote>) {
            match round.0 {
                0 => out.multicast(Vote(self.input)),
                _ => {
                    let ones = inbox.iter().filter(|m| m.msg.0).count();
                    self.done = Some(ones * 2 > inbox.len());
                }
            }
        }
        fn output(&self) -> Option<Bit> {
            self.done
        }
        fn halted(&self) -> bool {
            self.done.is_some()
        }
    }

    fn run_with(spec: TransportSpec) -> RunReport {
        let config = SimConfig::new(5, 0, CorruptionModel::Static, 7).with_transport(spec);
        let inputs = vec![true, true, true, false, true];
        let node_inputs = inputs.clone();
        let factory = move |id: NodeId, _| -> BoxedProtocol<Vote> {
            Box::new(Echo { input: node_inputs[id.index()], done: None })
        };
        execute(&config, inputs, Passive, factory, None)
    }

    #[test]
    fn execute_dispatches_lockstep() {
        let report = run_with(TransportSpec::Lockstep);
        assert!(report.outputs.iter().all(|o| *o == Some(true)));
        assert!(report.metrics.latency.is_none(), "lockstep keeps no clock");
    }

    #[test]
    fn faulty_wrapper_with_empty_plan_matches_bare_tcp() {
        use ba_sim::transport::fault::FaultPlan;
        let bare = run_with(TransportSpec::Tcp);
        let wrapped = run_with(TransportSpec::Faulty {
            inner: BaseTransport::Tcp,
            plan: FaultPlan::default(),
        });
        assert_eq!(wrapped, bare, "empty fault plan is a structural pass-through");
        assert!(wrapped.metrics.faults.is_none(), "empty plan keeps no fault stats");
        let latency = wrapped.metrics.latency.as_ref().expect("inner tcp still measures");
        assert_eq!(latency.delivered, 25);
    }

    #[test]
    fn tcp_matches_lockstep_observables_with_wall_clock_stats() {
        let lockstep = run_with(TransportSpec::Lockstep);
        let tcp = run_with(TransportSpec::Tcp);
        // Protocol observables identical (Metrics equality excludes the
        // substrate measurements by design).
        assert_eq!(tcp, lockstep);
        let latency = tcp.metrics.latency.as_ref().expect("tcp measures wall clock");
        assert_eq!(latency.delivered, 25, "5 multicasts x 5 recipients");
        assert_eq!(latency.undelivered, 0);
        assert!(latency.commit_p99_ms > 0.0, "wall clock advanced");
        assert!(latency.delay_p50_ms <= latency.delay_p99_ms);
    }
}
