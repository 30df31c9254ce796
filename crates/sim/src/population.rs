//! The lazy live set: what the round engine keeps instead of `n` live nodes.
//!
//! The paper's subquadratic protocols have a structural property an
//! all-live execution ignores: in any round, only `O(λ · polylog n)` nodes
//! *speak* — committee members elected through `F_mine` — while the silent
//! majority merely listens to multicasts and updates identical local state.
//! At `n = 10^5..10^6` an all-live execution pays `O(n)` memory for protocol
//! instances and `O(n · multicasts)` for inbox fan-out, which caps feasible
//! grid sizes long before the paper's asymptotics become visible.
//!
//! There is one round engine, [`crate::engine::Sim`]; its live set is every
//! node unless the caller supplies a [`Committee`], in which case it starts
//! empty and grows on demand. This module holds the parts that make the
//! growth sound:
//!
//! * the **activation oracle** ([`ActivationOracle`]) names each round's
//!   possible speakers ahead of the round; with every corrupt node and every
//!   unicast receiver they form the live set;
//! * a **multicast history** `delivered[r]` — the messages every silent node
//!   would hold at the start of round `r`. One retained copy stands in for
//!   `n - live` identical inboxes;
//! * two **ghost instances**, one per input bit, that replay the silent
//!   majority's state machine. A silent node's observable bookkeeping
//!   (output, output round, halted flag) is mirrored from the ghost carrying
//!   its input.
//!
//! When a silent node is touched — the oracle names it, the adversary
//! corrupts it, or a unicast/injection reaches it — it is **materialized**:
//! a fresh instance is built from the same per-node seed an all-live
//! execution uses, replayed through the multicast history, and inserted into
//! the live set. A replayed node or a ghost that sends breaks the premise
//! (the oracle under-approximated, or the configuration is not sparse-safe)
//! and raises a structured [`LazyBreach`] instead of silently diverging.
//!
//! # Byte-identity
//!
//! A lazy execution's [`crate::engine::RunReport`] is **equal** to the
//! all-live one's at every thread count: same outputs, rounds, corruption
//! schedule, and every protocol observable in [`crate::metrics::Metrics`].
//! The only fields that differ are the engine-memory gauges
//! (`peak_live_nodes`, `peak_resident_msgs`), which are excluded from
//! `Metrics` equality by design. Which executions may run lazily is decided
//! in one place, [`crate::engine::Sim::run_population`].

use crate::engine::BoxedProtocol;
use crate::ids::{Bit, NodeId, Round};
use crate::message::{Incoming, Message, Outbox};

/// How much of the population an execution keeps live. A resource knob, not
/// a protocol parameter: reports are byte-identical wherever both run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PopulationMode {
    /// Materialize all `n` protocol instances up front.
    #[default]
    Dense,
    /// Materialize only active nodes; mirror the silent majority through
    /// ghosts and a retained multicast history. Falls back to dense where
    /// [`crate::engine::Sim::run_population`] says a lazy live set is
    /// unsound or the protocol supplies no [`Committee`].
    Sparse,
}

impl PopulationMode {
    /// Canonical lowercase name (CLI/wire encoding).
    pub fn as_str(&self) -> &'static str {
        match self {
            PopulationMode::Dense => "dense",
            PopulationMode::Sparse => "sparse",
        }
    }
}

impl std::fmt::Display for PopulationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for PopulationMode {
    type Err = String;

    fn from_str(s: &str) -> Result<PopulationMode, String> {
        match s {
            "dense" => Ok(PopulationMode::Dense),
            "sparse" => Ok(PopulationMode::Sparse),
            other => Err(format!("unknown population mode '{other}' (want dense|sparse)")),
        }
    }
}

/// Names the nodes that may speak (or otherwise need real state) in a round.
///
/// Implementations answer *before* the round runs, typically by probing the
/// eligibility backend's side-effect-free `would_mine`. Over-approximation is
/// safe — activating a node that stays silent costs memory, never
/// observables — but **under-approximation is not**: a node that would have
/// spoken while unmaterialized raises [`LazyBreach::ReplayedNodeSent`].
pub trait ActivationOracle: Send {
    /// Node ids that must be live when `round` steps. Already-live and
    /// out-of-range ids are ignored; order and duplicates don't matter.
    fn candidates(&mut self, round: Round) -> Vec<NodeId>;
}

/// What a committee-subsampled protocol family supplies, beside its node
/// factory, so its executions can run over a lazy live set.
pub struct Committee<M> {
    /// One representative silent node per input bit (`ghosts[0]` holds input
    /// `false`, `ghosts[1]` input `true`), built so that it can never mine a
    /// committee seat (e.g. with a `NeverMine`-wrapped eligibility). Silent
    /// honest nodes mirror the ghost carrying their input.
    pub ghosts: [BoxedProtocol<M>; 2],
    /// Names each round's speakers ahead of the round.
    pub oracle: Box<dyn ActivationOracle>,
}

/// A lazy execution caught its premise failing: a node that was treated as
/// silent sent a message. Raised through `std::panic::panic_any` (node
/// stepping returns `()`), like [`crate::transport::TransportError`], so a
/// supervising layer can quarantine the one execution
/// ([`crate::structured_failure`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LazyBreach {
    /// `node` sent while being replayed through `round`: the activation
    /// oracle under-approximated the round's speakers.
    ReplayedNodeSent {
        /// The node being materialized.
        node: usize,
        /// The replayed round it sent in.
        round: u64,
    },
    /// The ghost carrying `input` sent in `round`: the protocol
    /// configuration is not sparse-safe.
    GhostSent {
        /// The ghost's input bit.
        input: Bit,
        /// The round it sent in.
        round: u64,
    },
}

impl std::fmt::Display for LazyBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LazyBreach::ReplayedNodeSent { node, round } => write!(
                f,
                "lazy activation: node {node} sent while replaying round {round}; \
                 the activation oracle under-approximated the active set"
            ),
            LazyBreach::GhostSent { input, round } => write!(
                f,
                "lazy ghost (input bit {input}) sent in round {round}; \
                 this protocol configuration is not sparse-safe"
            ),
        }
    }
}

impl std::error::Error for LazyBreach {}

/// A ghost: the shared state machine of every silent node with one input bit.
struct Ghost<M> {
    proto: BoxedProtocol<M>,
    /// Set once the ghost halts *and* its halt has been mirrored — from then
    /// on the silent nodes it represents are frozen, exactly as halted live
    /// nodes are.
    done: bool,
}

/// The engine-side state of a lazy execution: the [`Committee`] parts, the
/// node factory and the multicast history late activations replay.
pub(crate) struct Lazy<M> {
    factory: Box<dyn FnMut(NodeId, u64) -> BoxedProtocol<M> + Send>,
    ghosts: [Ghost<M>; 2],
    pub(crate) oracle: Box<dyn ActivationOracle>,
    seed: u64,
    /// `delivered[r]` = the multicasts every silent honest node holds at the
    /// start of round `r` (so `delivered[0]` is empty). Retained for the
    /// whole run: it is the replay tape for late activations.
    delivered: Vec<Vec<Incoming<M>>>,
    /// Total messages in `delivered` (the resident-message gauge's share for
    /// the silent inboxes the history stands in for).
    pub(crate) history_msgs: u64,
}

impl<M: Message> Lazy<M> {
    pub(crate) fn new(
        committee: Committee<M>,
        factory: Box<dyn FnMut(NodeId, u64) -> BoxedProtocol<M> + Send>,
        seed: u64,
    ) -> Lazy<M> {
        Lazy {
            factory,
            ghosts: committee.ghosts.map(|proto| Ghost { proto, done: false }),
            oracle: committee.oracle,
            seed,
            delivered: vec![Vec::new()],
            history_msgs: 0,
        }
    }

    /// The inbox every silent honest node holds at the start of `round`.
    pub(crate) fn silent_inbox(&self, round: Round) -> &[Incoming<M>] {
        &self.delivered[round.0 as usize]
    }

    /// Appends the multicasts delivered for the next round to the history.
    pub(crate) fn retain(&mut self, multicasts: Vec<Incoming<M>>) {
        self.history_msgs += multicasts.len() as u64;
        self.delivered.push(multicasts);
    }

    /// Builds node `i` from the per-node seed its all-live twin gets and
    /// replays it through rounds `0..steps` of the multicast history. A send
    /// during replay means the oracle missed a speaker — observables would
    /// already have diverged.
    pub(crate) fn materialize(&mut self, i: usize, steps: u64) -> BoxedProtocol<M> {
        let mut proto = (self.factory)(NodeId(i), crate::engine::node_seed(self.seed, i));
        let mut out = Outbox::new();
        for round in 0..steps {
            if proto.halted() {
                break; // halted honest nodes are no longer stepped
            }
            proto.step(Round(round), &self.delivered[round as usize], &mut out);
            if !out.take().is_empty() {
                std::panic::panic_any(LazyBreach::ReplayedNodeSent { node: i, round });
            }
        }
        proto
    }

    /// Steps the unfrozen ghosts with the silent-majority inbox. They were
    /// built never to win a committee seat, so a send is a breach.
    pub(crate) fn step_ghosts(&mut self, round: Round) {
        let inbox = &self.delivered[round.0 as usize];
        for (input, ghost) in self.ghosts.iter_mut().enumerate().filter(|(_, g)| !g.done) {
            let mut out = Outbox::new();
            ghost.proto.step(round, inbox, &mut out);
            if !out.take().is_empty() {
                std::panic::panic_any(LazyBreach::GhostSent { input: input == 1, round: round.0 });
            }
        }
    }

    /// What the silent honest nodes with input `false` / `true` report after
    /// this round's step — `(output, halted)`, or `None` once frozen. A
    /// ghost that has now halted is frozen from the next round on.
    pub(crate) fn ghost_reports(&mut self) -> [Option<(Option<Bit>, bool)>; 2] {
        let report = |ghost: &mut Ghost<M>| {
            let halted = ghost.proto.halted();
            let report = (!ghost.done).then(|| (ghost.proto.output(), halted));
            ghost.done |= halted;
            report
        };
        let [g0, g1] = &mut self.ghosts;
        [report(g0), report(g1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_mode_round_trips_through_str() {
        for mode in [PopulationMode::Dense, PopulationMode::Sparse] {
            let parsed: PopulationMode = mode.as_str().parse().expect("round trip");
            assert_eq!(parsed, mode);
        }
        assert!("ultra".parse::<PopulationMode>().is_err());
        assert_eq!(PopulationMode::default(), PopulationMode::Dense);
    }
}
