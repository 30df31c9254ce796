//! # ba-sim
//!
//! A deterministic, synchronous, round-based protocol-execution simulator
//! realizing the ITM execution model of *"Communication Complexity of
//! Byzantine Agreement, Revisited"* (Appendix A.1):
//!
//! * an environment `Z` supplies inputs and collects outputs;
//! * honest nodes run [`protocol::Protocol`] state machines;
//! * an [`adversary::Adversary`] observes each round's traffic *before*
//!   delivery (rushing) and adaptively corrupts nodes, subject to the
//!   [`adversary::CorruptionModel`]:
//!   static / adaptive (no after-the-fact removal) / strongly adaptive
//!   (with after-the-fact removal);
//! * messages multicast in round `r` arrive at every honest node at the
//!   beginning of round `r + 1` (synchrony);
//! * [`metrics::Metrics`] implements the paper's Definition 6 (classical
//!   communication complexity) and Definition 7 (multicast complexity).
//!
//! Every execution is a pure function of a `u64` seed.
//!
//! There is one round engine, [`engine::Sim`]: it steps a live set of
//! materialized nodes — every node ordinarily; a lazily grown subset
//! ([`population`]) when a committee-subsampled family supplies its
//! [`Committee`] and delivery is lockstep — and hands each round's traffic
//! to a [`Transport`] ([`transport`]). See the [`engine::Sim`] docs for a
//! complete runnable example.

pub mod adversary;
pub mod engine;
pub mod ids;
pub mod message;
pub mod metrics;
pub mod population;
pub mod protocol;
pub mod transport;
pub mod verdict;

pub use adversary::{AdvActionError, AdvCtx, Adversary, CorruptionModel, Passive};
pub use engine::{BoxedProtocol, RunReport, Sim, SimConfig};
pub use ids::{Bit, NodeId, Round};
pub use message::{Envelope, Incoming, Message, MsgId, Outbox, Recipient};
pub use metrics::{LatencyStats, Metrics};
pub use population::{ActivationOracle, Committee, LazyBreach, PopulationMode};
pub use protocol::Protocol;
pub use transport::fault::{
    DropFault, DupFault, FaultPlan, FaultStats, FaultyTransport, PartitionFault, ReorderFault,
    Scheduler,
};
pub use transport::{
    BaseTransport, DelayDist, Transport, TransportError, TransportSpec, TransportStats,
    DEFAULT_ROUND_MS,
};
pub use verdict::{evaluate, Problem, Verdict};

/// Describes `payload` if it is one of the structured failures an execution
/// raises through `std::panic::panic_any` — a [`TransportError`] or a
/// [`LazyBreach`] — so a supervisor that caught the unwind can quarantine
/// that one execution; `None` for any other panic (a bug, to be re-raised).
pub fn structured_failure(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    let transport = payload.downcast_ref::<TransportError>().map(ToString::to_string);
    transport.or_else(|| payload.downcast_ref::<LazyBreach>().map(ToString::to_string))
}
