//! Adversary interface and the corruption-model rules of the paper.
//!
//! The engine is the authority on what an adversary may do: every corruption
//! or message removal goes through [`AdvCtx`], which enforces the budget and
//! the model-specific legality rules:
//!
//! * [`CorruptionModel::Static`] — corruptions only before the execution
//!   starts.
//! * [`CorruptionModel::Adaptive`] — corrupt any time (after observing a
//!   node's round-`r` messages, rushing-style), and make the new corrupt node
//!   send *additional* messages in the same round — but **messages already
//!   sent cannot be erased** ("no after-the-fact removal"). This is the model
//!   under which the paper's upper bounds hold.
//! * [`CorruptionModel::StronglyAdaptive`] — additionally erase messages a
//!   node sent in the round it became corrupt ("after-the-fact removal").
//!   This is the model of the Ω(f²) lower bound (Theorems 1 and 4).

use rand::rngs::StdRng;

use crate::ids::{Bit, NodeId, Round};
use crate::message::{Envelope, Incoming, Message, MsgId, Recipient};

/// When and how the adversary may corrupt nodes. See module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CorruptionModel {
    /// Corruption set fixed before round 0.
    Static,
    /// Adaptive corruption without after-the-fact removal.
    Adaptive,
    /// Adaptive corruption with after-the-fact removal.
    StronglyAdaptive,
}

/// Canonical lowercase name (report metadata and wire encoding), accepted
/// back by [`std::str::FromStr`].
impl std::fmt::Display for CorruptionModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CorruptionModel::Static => "static",
            CorruptionModel::Adaptive => "adaptive",
            CorruptionModel::StronglyAdaptive => "strongly_adaptive",
        })
    }
}

impl std::str::FromStr for CorruptionModel {
    type Err = String;

    fn from_str(s: &str) -> Result<CorruptionModel, String> {
        match s {
            "static" => Ok(CorruptionModel::Static),
            "adaptive" => Ok(CorruptionModel::Adaptive),
            "strongly_adaptive" => Ok(CorruptionModel::StronglyAdaptive),
            other => Err(format!(
                "unknown corruption model '{other}' (want static|adaptive|strongly_adaptive)"
            )),
        }
    }
}

/// Why an adversary action was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdvActionError {
    /// The corruption budget `f` is exhausted.
    BudgetExhausted,
    /// The target node is already corrupt.
    AlreadyCorrupt,
    /// Static adversaries cannot corrupt after the execution started.
    StaticAfterStart,
    /// Message removal requires the strongly adaptive model.
    RemovalNeedsStrongAdaptivity,
    /// Only messages sent in the current round can be removed.
    RemovalTooLate,
    /// The message's sender is not corrupt (corrupt the sender first).
    SenderNotCorrupt,
    /// No such message, or it was already removed.
    UnknownMessage,
    /// Injection requires a corrupt sender.
    InjectorNotCorrupt,
}

impl std::fmt::Display for AdvActionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AdvActionError::BudgetExhausted => "corruption budget exhausted",
            AdvActionError::AlreadyCorrupt => "node is already corrupt",
            AdvActionError::StaticAfterStart => "static adversary cannot corrupt after start",
            AdvActionError::RemovalNeedsStrongAdaptivity => {
                "after-the-fact removal requires the strongly adaptive model"
            }
            AdvActionError::RemovalTooLate => "only current-round messages can be removed",
            AdvActionError::SenderNotCorrupt => "sender must be corrupted before removal",
            AdvActionError::UnknownMessage => "unknown or already-removed message",
            AdvActionError::InjectorNotCorrupt => "injection requires a corrupt sender",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for AdvActionError {}

/// Internal mutable world state the context mediates access to.
///
/// Owned by the engine; `pub(crate)` fields keep the enforcement logic in
/// this module while the engine orchestrates rounds.
#[derive(Debug)]
pub(crate) struct AdvWorld<M> {
    pub(crate) model: CorruptionModel,
    pub(crate) f: usize,
    pub(crate) round: Round,
    pub(crate) in_setup: bool,
    pub(crate) corrupt_at: Vec<Option<Round>>,
    pub(crate) pending: Vec<Envelope<M>>,
    pub(crate) injected: Vec<Envelope<M>>,
    pub(crate) next_msg_id: u64,
    pub(crate) inputs: Vec<Bit>,
    pub(crate) outputs: Vec<Option<Bit>>,
    pub(crate) halted: Vec<bool>,
    pub(crate) removals: usize,
}

/// The adversary's handle on the world during [`Adversary::intervene`].
///
/// All mutating actions are validated against the corruption model; illegal
/// actions return an [`AdvActionError`] and leave the world unchanged.
pub struct AdvCtx<'a, M> {
    pub(crate) world: &'a mut AdvWorld<M>,
    pub(crate) rng: &'a mut StdRng,
}

impl<'a, M: Message> AdvCtx<'a, M> {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.world.corrupt_at.len()
    }

    /// Total corruption budget `f`.
    pub fn f(&self) -> usize {
        self.world.f
    }

    /// Corruptions performed so far.
    pub fn corrupted_count(&self) -> usize {
        self.world.corrupt_at.iter().filter(|c| c.is_some()).count()
    }

    /// Remaining corruption budget.
    pub fn budget_left(&self) -> usize {
        self.world.f.saturating_sub(self.corrupted_count())
    }

    /// The corruption model in force.
    pub fn model(&self) -> CorruptionModel {
        self.world.model
    }

    /// Current round (meaningless during setup).
    pub fn round(&self) -> Round {
        self.world.round
    }

    /// True while the pre-execution setup phase is running.
    pub fn in_setup(&self) -> bool {
        self.world.in_setup
    }

    /// Whether `node` is corrupt.
    pub fn is_corrupt(&self, node: NodeId) -> bool {
        self.world.corrupt_at[node.index()].is_some()
    }

    /// The environment's input to `node` (A and Z may communicate freely, so
    /// the adversary knows all inputs).
    pub fn input_of(&self, node: NodeId) -> Bit {
        self.world.inputs[node.index()]
    }

    /// The output `node` has reported to the environment, if any.
    pub fn output_of(&self, node: NodeId) -> Option<Bit> {
        self.world.outputs[node.index()]
    }

    /// Whether `node` has halted.
    pub fn has_halted(&self, node: NodeId) -> bool {
        self.world.halted[node.index()]
    }

    /// The messages sent this round (including ones already marked removed),
    /// visible before delivery — the adversary is rushing.
    pub fn pending(&self) -> &[Envelope<M>] {
        &self.world.pending
    }

    /// Seeded adversary randomness.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Adaptively corrupts `node`.
    ///
    /// # Errors
    ///
    /// Fails if the budget is exhausted, the node is already corrupt, or the
    /// model is static and the execution has begun.
    pub fn corrupt(&mut self, node: NodeId) -> Result<(), AdvActionError> {
        if self.world.corrupt_at[node.index()].is_some() {
            return Err(AdvActionError::AlreadyCorrupt);
        }
        if self.budget_left() == 0 {
            return Err(AdvActionError::BudgetExhausted);
        }
        if self.world.model == CorruptionModel::Static && !self.world.in_setup {
            return Err(AdvActionError::StaticAfterStart);
        }
        self.world.corrupt_at[node.index()] = Some(self.world.round);
        Ok(())
    }

    /// Performs after-the-fact removal of a message sent this round.
    ///
    /// # Errors
    ///
    /// Fails unless the model is [`CorruptionModel::StronglyAdaptive`], the
    /// message was sent in the current round, and its sender is corrupt at
    /// the time of removal.
    pub fn remove(&mut self, id: MsgId) -> Result<(), AdvActionError> {
        if self.world.model != CorruptionModel::StronglyAdaptive {
            return Err(AdvActionError::RemovalNeedsStrongAdaptivity);
        }
        let round = self.world.round;
        let corrupt_at = &self.world.corrupt_at;
        let env = self
            .world
            .pending
            .iter_mut()
            .find(|e| e.id == id && !e.removed)
            .ok_or(AdvActionError::UnknownMessage)?;
        if env.round != round {
            return Err(AdvActionError::RemovalTooLate);
        }
        if corrupt_at[env.from.index()].is_none() {
            return Err(AdvActionError::SenderNotCorrupt);
        }
        env.removed = true;
        self.world.removals += 1;
        Ok(())
    }

    /// Makes the corrupt node `from` send an additional message this round
    /// (delivered with the round's traffic at the start of the next round).
    ///
    /// # Errors
    ///
    /// Fails if `from` is not corrupt.
    pub fn inject(&mut self, from: NodeId, to: Recipient, msg: M) -> Result<MsgId, AdvActionError> {
        if self.world.corrupt_at[from.index()].is_none() {
            return Err(AdvActionError::InjectorNotCorrupt);
        }
        let id = MsgId(self.world.next_msg_id);
        self.world.next_msg_id += 1;
        self.world.injected.push(Envelope {
            id,
            from,
            to,
            round: self.world.round,
            honest_send: false,
            removed: false,
            msg: std::sync::Arc::new(msg),
        });
        Ok(id)
    }
}

/// An adversary strategy.
///
/// All hooks default to "do nothing" / "corrupt nodes keep running the
/// honest protocol", so the unit adversary `()` below is the passive
/// (honest-execution) adversary.
pub trait Adversary<M: Message> {
    /// Called once before round 0; static adversaries pick their corruption
    /// set here.
    fn setup(&mut self, ctx: &mut AdvCtx<'_, M>) {
        let _ = ctx;
    }

    /// Filters a corrupt node's inbox before its (still-running) honest
    /// logic sees it. Default: deliver everything.
    fn filter_corrupt_inbox(
        &mut self,
        node: NodeId,
        inbox: Vec<Incoming<M>>,
        round: Round,
    ) -> Vec<Incoming<M>> {
        let _ = (node, round);
        inbox
    }

    /// Rewrites the messages a corrupt node is about to send (the planned
    /// sends are what its honest logic produced). Default: send them
    /// unchanged ("honest-behaving corrupt node").
    fn corrupt_outbox(
        &mut self,
        node: NodeId,
        planned: Vec<(Recipient, M)>,
        round: Round,
    ) -> Vec<(Recipient, M)> {
        let _ = (node, round);
        planned
    }

    /// Main intervention point, called after all nodes produced their
    /// round-`r` messages and before delivery: observe traffic, corrupt,
    /// remove (strongly adaptive only), inject.
    fn intervene(&mut self, ctx: &mut AdvCtx<'_, M>) {
        let _ = ctx;
    }
}

/// A boxed strategy is a strategy: `Box<dyn Adversary<M> + Send>` lets one
/// constructor serve every message type's engine.
impl<M: Message, A: Adversary<M> + ?Sized> Adversary<M> for Box<A> {
    fn setup(&mut self, ctx: &mut AdvCtx<'_, M>) {
        (**self).setup(ctx)
    }

    fn filter_corrupt_inbox(
        &mut self,
        node: NodeId,
        inbox: Vec<Incoming<M>>,
        round: Round,
    ) -> Vec<Incoming<M>> {
        (**self).filter_corrupt_inbox(node, inbox, round)
    }

    fn corrupt_outbox(
        &mut self,
        node: NodeId,
        planned: Vec<(Recipient, M)>,
        round: Round,
    ) -> Vec<(Recipient, M)> {
        (**self).corrupt_outbox(node, planned, round)
    }

    fn intervene(&mut self, ctx: &mut AdvCtx<'_, M>) {
        (**self).intervene(ctx)
    }
}

/// The passive adversary: corrupts nobody, changes nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Passive;

impl<M: Message> Adversary<M> for Passive {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    impl Message for u8 {
        fn size_bits(&self) -> usize {
            8
        }
    }

    fn world(model: CorruptionModel, n: usize, f: usize) -> AdvWorld<u8> {
        AdvWorld {
            model,
            f,
            round: Round(3),
            in_setup: false,
            corrupt_at: vec![None; n],
            pending: Vec::new(),
            injected: Vec::new(),
            next_msg_id: 100,
            inputs: vec![false; n],
            outputs: vec![None; n],
            halted: vec![false; n],
            removals: 0,
        }
    }

    fn env(id: u64, from: usize, round: Round, honest: bool) -> Envelope<u8> {
        Envelope {
            id: MsgId(id),
            from: NodeId(from),
            to: Recipient::All,
            round,
            honest_send: honest,
            removed: false,
            msg: std::sync::Arc::new(0),
        }
    }

    #[test]
    fn corruption_budget_enforced() {
        let mut w = world(CorruptionModel::Adaptive, 4, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = AdvCtx { world: &mut w, rng: &mut rng };
        assert!(ctx.corrupt(NodeId(0)).is_ok());
        assert_eq!(ctx.corrupt(NodeId(0)), Err(AdvActionError::AlreadyCorrupt));
        assert!(ctx.corrupt(NodeId(1)).is_ok());
        assert_eq!(ctx.corrupt(NodeId(2)), Err(AdvActionError::BudgetExhausted));
        assert_eq!(ctx.budget_left(), 0);
        assert_eq!(ctx.corrupted_count(), 2);
    }

    #[test]
    fn static_model_blocks_mid_run_corruption() {
        let mut w = world(CorruptionModel::Static, 4, 2);
        let mut rng = StdRng::seed_from_u64(0);
        {
            let mut ctx = AdvCtx { world: &mut w, rng: &mut rng };
            assert_eq!(ctx.corrupt(NodeId(0)), Err(AdvActionError::StaticAfterStart));
        }
        w.in_setup = true;
        let mut ctx = AdvCtx { world: &mut w, rng: &mut rng };
        assert!(ctx.corrupt(NodeId(0)).is_ok());
    }

    #[test]
    fn removal_rules() {
        // Adaptive model: no removal at all.
        let mut w = world(CorruptionModel::Adaptive, 4, 2);
        w.pending.push(env(1, 0, Round(3), true));
        let mut rng = StdRng::seed_from_u64(0);
        {
            let mut ctx = AdvCtx { world: &mut w, rng: &mut rng };
            ctx.corrupt(NodeId(0)).unwrap();
            assert_eq!(ctx.remove(MsgId(1)), Err(AdvActionError::RemovalNeedsStrongAdaptivity));
        }

        // Strongly adaptive: must corrupt sender first, same round only.
        let mut w = world(CorruptionModel::StronglyAdaptive, 4, 2);
        w.pending.push(env(1, 0, Round(3), true));
        w.pending.push(env(2, 1, Round(2), true)); // stale round
        let mut ctx = AdvCtx { world: &mut w, rng: &mut rng };
        assert_eq!(ctx.remove(MsgId(1)), Err(AdvActionError::SenderNotCorrupt));
        ctx.corrupt(NodeId(0)).unwrap();
        assert!(ctx.remove(MsgId(1)).is_ok());
        assert_eq!(ctx.remove(MsgId(1)), Err(AdvActionError::UnknownMessage)); // already removed
        ctx.corrupt(NodeId(1)).unwrap();
        assert_eq!(ctx.remove(MsgId(2)), Err(AdvActionError::RemovalTooLate));
        assert_eq!(ctx.remove(MsgId(99)), Err(AdvActionError::UnknownMessage));
        assert_eq!(ctx.world.removals, 1);
    }

    #[test]
    fn injection_requires_corrupt_sender() {
        let mut w = world(CorruptionModel::Adaptive, 4, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = AdvCtx { world: &mut w, rng: &mut rng };
        assert_eq!(
            ctx.inject(NodeId(2), Recipient::All, 9),
            Err(AdvActionError::InjectorNotCorrupt)
        );
        ctx.corrupt(NodeId(2)).unwrap();
        let id = ctx.inject(NodeId(2), Recipient::One(NodeId(0)), 9).unwrap();
        assert_eq!(id, MsgId(100));
        assert_eq!(ctx.world.injected.len(), 1);
        assert!(!ctx.world.injected[0].honest_send);
    }

    #[test]
    fn error_display_is_informative() {
        let e = AdvActionError::RemovalNeedsStrongAdaptivity;
        assert!(e.to_string().contains("strongly adaptive"));
    }
}
