//! Momose–Ren's optimal-communication authenticated BA (arXiv 2007.13175) —
//! the competitor baseline at the *other* end of the resilience/communication
//! trade-off: `t < n/2` with **O(n²) words** total, matching the
//! Dolev–Reischuk lower bound for authenticated agreement.
//!
//! ## Reproduced structure
//!
//! The paper's protocol is a rotating-leader view sequence in which every
//! view costs O(n) words — all heavy traffic is relayed through the view's
//! leader, and quorums travel as *one* (threshold/aggregate) certificate
//! instead of a vote transcript. Over the worst-case O(t) views this totals
//! O(n²) words. This module reproduces exactly that skeleton on the repo's
//! seams: [`Auth::Signed`] evidence, [`crate::cert`] quorum certificates in
//! either [`CertEncoding`] (the aggregate encoding plays the paper's
//! threshold-signature role), and the shared kernel's leader-driven tail
//! and decide-relay termination gadget.
//!
//! ## Round schedule
//!
//! * **Round 0 — Input**: every node multicasts its signed input bit. The
//!   resulting support counts gate certificate-less proposals (a bit is
//!   *admissible* once `t + 1` distinct nodes input it), which is what makes
//!   unanimity-validity hold against corrupt early leaders. One O(n²)-word
//!   round, inside the claimed budget.
//! * **View `v` (5 rounds, leader `L_v = (v − 1) mod n`)**:
//!   1. *Status* — every node unicasts its highest certificate to `L_v`.
//!   2. *Propose* — `L_v` multicasts the highest-certificate bit (or, with
//!      no certificate anywhere, the better-supported admissible bit).
//!   3. *Vote* — a node unicasts a signed vote to `L_v` iff the proposal's
//!      certificate rank is at least its own highest rank (and, for rank-0
//!      proposals, the bit is admissible).
//!   4. *Lock* — on `n − t` votes `L_v` multicasts the new view-`v`
//!      certificate; receivers adopt it as their lock.
//!   5. *CommitVote* — lock adopters unicast a signed commit to `L_v`; on
//!      `n − t` commits the leader multicasts a `Decide` carrying the commit
//!      quorum. Receivers decide, relay the quorum once, and halt.
//!
//! Quorum intersection (`2(n − t) − n ≥ 1` honest node at `t < n/2`) plus
//! the lock rule carries a committed bit into every later view's proposals.
//! Leader *equivocation* inside a view is not attacked by the gauntlet's
//! family-agnostic roster (honest lockstep multicasts are atomic); the
//! paper's equivocation-evidence sub-protocol is out of scope here and
//! documented as such in `docs/PAPER_MAP.md`.

use std::collections::HashMap;
use std::sync::Arc;

use ba_fmine::{Keychain, MineTag, MsgKind};
use ba_sim::{
    Adversary, Bit, Incoming, Message, NodeId, Outbox, Problem, Protocol, Round, RunReport,
    SimConfig, Verdict,
};

use crate::auth::{Auth, Evidence};
use crate::cert::{CertEncoding, Certificate};
use crate::kernel::{self, Budget, LeaderTail, Pool, QuorumRules, Slot, TailMsg};
use crate::runnable::Runnable;

/// Messages of the Momose–Ren view family.
#[derive(Clone, Debug, PartialEq)]
pub enum MrMsg {
    /// Round-0 signed input bit (admissibility support).
    Input {
        /// The sender's input.
        bit: Bit,
        /// Evidence for `(Status, 0, bit)`.
        ev: Evidence,
    },
    /// `(Status, v)` — the sender's highest certificate, unicast to `L_v`.
    Status {
        /// View.
        view: u64,
        /// Highest certificate known to the sender (`None` = rank 0).
        cert: Option<Certificate>,
        /// Evidence for `(Status, v, bit)` (⊥ tag when no certificate).
        ev: Evidence,
    },
    /// `(Propose, v, b)` — the leader's proposal with its justifying
    /// certificate attached.
    Propose {
        /// View.
        view: u64,
        /// Proposed bit.
        bit: Bit,
        /// The certificate justifying `bit` (`None` = rank-0 proposal,
        /// justified by input support instead).
        cert: Option<Certificate>,
        /// Evidence for `(Propose, v, b)`.
        ev: Evidence,
    },
    /// Vote, Lock, CommitVote or Decide — the tail shared with CKS.
    Tail(TailMsg),
}

impl From<TailMsg> for MrMsg {
    fn from(msg: TailMsg) -> MrMsg {
        MrMsg::Tail(msg)
    }
}

impl Message for MrMsg {
    fn size_bits(&self) -> usize {
        match self {
            MrMsg::Input { ev, .. } | MrMsg::Status { ev, .. } | MrMsg::Propose { ev, .. } => {
                8 + 64 + 2 + self.cert_bits() + ev.size_bits()
            }
            MrMsg::Tail(msg) => msg.size_bits(),
        }
    }

    fn cert_bits(&self) -> usize {
        match self {
            MrMsg::Input { .. } => 0,
            MrMsg::Status { cert, .. } | MrMsg::Propose { cert, .. } => {
                cert.as_ref().map_or(0, |c| c.size_bits())
            }
            MrMsg::Tail(msg) => msg.cert_bits(),
        }
    }
}

/// Configuration of one Momose–Ren instance.
#[derive(Clone, Debug)]
pub struct MrConfig {
    /// Number of nodes.
    pub n: usize,
    /// Tolerated faults `t < n/2`.
    pub t: usize,
    /// Certificate/commit quorum `n − t`.
    pub quorum: usize,
    /// Authentication regime (always signed for this family).
    pub auth: Auth,
    /// View cap (liveness safety net; round-robin reaches an honest leader
    /// within `t + 1` views).
    pub views: u64,
    /// Requested certificate encoding; the aggregate encoding realizes the
    /// paper's threshold-signature compression.
    pub cert_encoding: CertEncoding,
}

impl MrConfig {
    /// The optimal-resilience instance: `t = ⌊(n − 1)/2⌋`, quorum `n − t`.
    pub fn half(n: usize, views: u64, keychain: Arc<Keychain>) -> MrConfig {
        let t = (n - 1) / 2;
        MrConfig {
            n,
            t,
            quorum: n - t,
            auth: Auth::Signed { keychain },
            views,
            cert_encoding: CertEncoding::Vector,
        }
    }

    /// Requests a certificate encoding (builder style).
    pub fn with_cert_encoding(mut self, encoding: CertEncoding) -> MrConfig {
        self.cert_encoding = encoding;
        self
    }

    /// The encoding certificates are actually built with (the signed regime
    /// always aggregates, so this mirrors the request).
    pub fn effective_cert_encoding(&self) -> CertEncoding {
        self.auth.effective_encoding(self.cert_encoding)
    }

    /// The round-robin leader of `view` (1-based).
    pub fn leader(&self, view: u64) -> NodeId {
        kernel::round_robin_leader(self.n, view)
    }

    /// Synchronous rounds consumed by the input round plus `views` views,
    /// with slack for the decide-relay cascade.
    pub fn total_rounds(&self) -> u64 {
        1 + 5 * self.views + 2
    }
}

/// One node of the Momose–Ren protocol.
pub struct MrNode {
    cfg: MrConfig,
    id: NodeId,
    input: Bit,
    /// Distinct round-0 input supporters per bit (admissibility counts).
    support: Pool,
    /// The view's accepted proposal `(bit, rank)`, if any.
    proposal: HashMap<u64, (Bit, u64)>,
    /// Lock state, vote/commit tallies and the decide relay.
    tail: LeaderTail,
}

impl MrNode {
    /// Creates a node with its input bit (the per-node seed is unused: the
    /// protocol is deterministic).
    pub fn new(cfg: MrConfig, id: NodeId, input: Bit, _seed: u64) -> MrNode {
        let rules = QuorumRules::new(&cfg.auth, cfg.quorum, cfg.cert_encoding);
        MrNode {
            tail: LeaderTail::new(id, cfg.n, rules),
            cfg,
            id,
            input,
            support: Pool::default(),
            proposal: HashMap::new(),
        }
    }

    /// Whether `t + 1` distinct nodes input `bit` (rank-0 admissibility).
    fn admissible(&self, bit: Bit) -> bool {
        self.support.count(0, bit) > self.cfg.t
    }

    fn ingest(&mut self, inbox: &[Incoming<MrMsg>]) {
        let auth = &self.cfg.auth;
        for m in inbox {
            match &*m.msg {
                MrMsg::Input { bit, ev } => {
                    self.support.admit_count(auth, (MsgKind::Status, 0, *bit), m.from, ev);
                }
                MrMsg::Status { view, cert, ev } => {
                    let tag = kernel::status_tag(*view, cert.as_ref().map(|c| c.bit));
                    if !auth.verify(m.from, &tag, ev) {
                        continue;
                    }
                    if let Some(c) = cert {
                        self.tail.ledger.adopt(c, &self.tail.rules);
                    }
                }
                MrMsg::Propose { view, bit, cert, ev } => {
                    let tag = MineTag::new(MsgKind::Propose, *view, *bit);
                    if !auth.verify(m.from, &tag, ev) || m.from != self.cfg.leader(*view) {
                        continue;
                    }
                    let rank = match cert {
                        Some(c) if c.bit == *bit && self.tail.ledger.adopt(c, &self.tail.rules) => {
                            c.iter
                        }
                        Some(_) => continue, // malformed attachment: drop
                        None => 0,
                    };
                    self.proposal.entry(*view).or_insert((*bit, rank));
                }
                MrMsg::Tail(msg) => {
                    self.tail.ingest(m.from, msg);
                }
            }
        }
    }
}

impl Protocol<MrMsg> for MrNode {
    fn step(&mut self, round: Round, inbox: &[Incoming<MrMsg>], out: &mut Outbox<MrMsg>) {
        if self.tail.relay.done() {
            return;
        }
        self.ingest(inbox);
        if self.tail.settle(out) {
            return;
        }
        let Some((view, slot)) = round.0.checked_sub(1).map(kernel::view_slot) else {
            // Round 0: the input round; views follow back to back.
            let tag = MineTag::new(MsgKind::Status, 0, self.input);
            if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
                out.multicast(MrMsg::Input { bit: self.input, ev });
            }
            return;
        };
        if view > self.cfg.views {
            return; // out of schedule; non-termination will be reported
        }
        match slot {
            Slot::Open => {
                let cert = self.tail.ledger.best().cloned();
                let tag = kernel::status_tag(view, cert.as_ref().map(|c| c.bit));
                if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
                    out.unicast(self.cfg.leader(view), MrMsg::Status { view, cert, ev });
                }
            }
            Slot::Propose => {
                if self.cfg.leader(view) != self.id {
                    return;
                }
                let cert = self.tail.ledger.best().cloned();
                let bit = match &cert {
                    Some(c) => c.bit,
                    None => {
                        // Rank-0 proposal: the better-supported admissible
                        // bit (ties prefer 1); with no admissible bit the
                        // leader's own input (the view will not certify).
                        let (s0, s1) = (self.support.count(0, false), self.support.count(0, true));
                        if self.admissible(true) && (s1 >= s0 || !self.admissible(false)) {
                            true
                        } else if self.admissible(false) {
                            false
                        } else {
                            self.input
                        }
                    }
                };
                let tag = MineTag::new(MsgKind::Propose, view, bit);
                if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
                    out.multicast(MrMsg::Propose { view, bit, cert, ev });
                }
            }
            Slot::Vote => {
                let Some((bit, rank)) = self.proposal.get(&view).copied() else {
                    return;
                };
                // The lock rule: the proposal must carry a certificate at
                // least as high as anything this node has seen; rank-0
                // proposals additionally need input admissibility.
                if rank >= self.tail.ledger.top_rank() && (rank > 0 || self.admissible(bit)) {
                    self.tail.vote(view, bit, out);
                }
            }
            Slot::Lock => {
                self.tail.lock(view, out);
            }
            // The commit vote follows the lock, which arrives in this
            // round's inbox on the undisturbed schedule (`settle` above).
            Slot::CommitVote => {}
        }
    }

    fn output(&self) -> Option<Bit> {
        self.tail.relay.output()
    }

    fn halted(&self) -> bool {
        self.tail.relay.done()
    }
}

/// Runs one execution and evaluates the agreement verdict. The family is
/// signed full-participation, so it always runs under the dense engine.
pub fn run<A: Adversary<MrMsg> + Send>(
    cfg: &MrConfig,
    sim: &SimConfig,
    inputs: Vec<Bit>,
    adversary: A,
) -> (RunReport, Verdict) {
    let budget = Budget::Cap(cfg.total_rounds() + 2);
    let cfg = cfg.clone();
    let node = move |id, input, seed| MrNode::new(cfg.clone(), id, input, seed);
    kernel::run(sim, budget, Problem::Agreement, inputs, adversary, node, None)
}

/// Packages one execution as a thread-dispatchable [`Runnable`].
pub fn runnable<A: Adversary<MrMsg> + Send + 'static>(
    cfg: &MrConfig,
    inputs: Vec<Bit>,
    adversary: A,
) -> Runnable {
    let cfg = cfg.clone();
    Runnable::new(move |sim| run(&cfg, sim, inputs, adversary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_fmine::SigMode;
    use ba_sim::{CorruptionModel, Passive};

    fn cfg(n: usize, views: u64, seed: u64) -> MrConfig {
        MrConfig::half(n, views, Arc::new(Keychain::from_seed(seed, n, SigMode::Ideal)))
    }

    #[test]
    fn leader_rotates_round_robin() {
        let c = cfg(5, 8, 1);
        assert_eq!(c.leader(1), NodeId(0));
        assert_eq!(c.leader(5), NodeId(4));
        assert_eq!(c.leader(6), NodeId(0));
        assert_eq!(c.quorum, 5 - 2);
    }

    #[test]
    fn validity_unanimous() {
        for bit in [false, true] {
            let c = cfg(9, 4, 1);
            let sim = SimConfig::new(9, 0, CorruptionModel::Static, 1);
            let (report, verdict) = run(&c, &sim, vec![bit; 9], Passive);
            assert!(verdict.all_ok(), "bit={bit}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(bit)));
            // Honest view-1 leader: decided within the first view plus the
            // decide cascade.
            assert!(report.rounds_used <= 9, "rounds={}", report.rounds_used);
        }
    }

    #[test]
    fn consistency_mixed_inputs() {
        for seed in 0..8 {
            let c = cfg(11, 4, seed);
            let sim = SimConfig::new(11, 0, CorruptionModel::Static, seed);
            let inputs: Vec<Bit> = (0..11).map(|i| i % 2 == 0).collect();
            let (report, verdict) = run(&c, &sim, inputs, Passive);
            assert!(verdict.all_ok(), "seed={seed}: {verdict:?}");
            assert!(report.rounds_used <= 9, "seed={seed} rounds={}", report.rounds_used);
        }
    }

    #[test]
    fn words_scale_quadratically() {
        // Total words (n per multicast + 1 per unicast) should grow ~n²
        // between honest runs at doubled n: the O(n²) claim's shape.
        let words = |n: usize| -> u64 {
            let c = cfg(n, 4, 2);
            let sim = SimConfig::new(n, 0, CorruptionModel::Static, 2);
            let inputs: Vec<Bit> = (0..n).map(|i| i % 2 == 0).collect();
            let (report, verdict) = run(&c, &sim, inputs, Passive);
            assert!(verdict.all_ok(), "n={n}");
            report.metrics.honest_multicasts * n as u64 + report.metrics.honest_unicasts
        };
        let (small, large) = (words(16), words(32));
        let ratio = large as f64 / small as f64;
        assert!(
            (2.5..8.0).contains(&ratio),
            "words should scale ~quadratically: n=16 -> {small}, n=32 -> {large}"
        );
    }

    #[test]
    fn aggregate_encoding_preserves_decisions_and_shrinks_certs() {
        let n = 24;
        let inputs: Vec<Bit> = (0..n).map(|i| i % 2 == 0).collect();
        let sim = SimConfig::new(n, 0, CorruptionModel::Static, 3);
        let (vec_rep, vec_v) = run(&cfg(n, 4, 3), &sim, inputs.clone(), Passive);
        let c = cfg(n, 4, 3).with_cert_encoding(CertEncoding::Aggregate);
        let (agg_rep, agg_v) = run(&c, &sim, inputs, Passive);
        assert!(vec_v.all_ok() && agg_v.all_ok());
        assert_eq!(vec_rep.outputs, agg_rep.outputs);
        assert_eq!(vec_rep.rounds_used, agg_rep.rounds_used);
        assert!(
            agg_rep.metrics.honest_cert_bits * 2 < vec_rep.metrics.honest_cert_bits,
            "aggregate {} bits vs vector {} bits",
            agg_rep.metrics.honest_cert_bits,
            vec_rep.metrics.honest_cert_bits
        );
    }

    #[test]
    fn step_counts_votes_through_the_shared_pool() {
        // n = 5, quorum 3; node 0 leads view 1, whose Lock slot is round 4.
        // Node 1's vote three times, node 2's vote signed under view 2's
        // statement and node 3's genuine view-2 vote are two distinct
        // view-1 voters short: no lock. With nodes 2 and 3 voting for
        // view 1 the leader locks on the sorted quorum.
        let c = cfg(5, 2, 5);
        let vote = |from: usize, claimed: u64, signed: u64| {
            let tag = MineTag::new(MsgKind::Vote, signed, true);
            let ev = c.auth.attest(NodeId(from), &tag).expect("signed");
            Incoming::new(NodeId(from), TailMsg::Vote { view: claimed, bit: true, ev }.into())
        };
        let lock_after = |inbox: &[Incoming<MrMsg>]| {
            let mut leader = MrNode::new(c.clone(), NodeId(0), true, 0);
            let mut out = Outbox::new();
            leader.step(Round(4), inbox, &mut out);
            out.take().pop()
        };
        let stale = [vote(1, 1, 1), vote(1, 1, 1), vote(1, 1, 1), vote(2, 1, 2), vote(3, 2, 2)];
        assert!(lock_after(&stale).is_none(), "duplicates and replays must not reach quorum");
        let mut genuine = stale.to_vec();
        genuine.extend([vote(3, 1, 1), vote(2, 1, 1)]);
        let Some((_, MrMsg::Tail(TailMsg::Lock { view: 1, bit: true, cert, .. }))) =
            lock_after(&genuine)
        else {
            panic!("a genuine quorum must lock");
        };
        assert!(cert.verify(&c.auth, c.quorum));
        let crate::cert::CertBody::Vector(votes) = &cert.body else { panic!("vector encoding") };
        assert_eq!(votes.iter().map(|v| v.from.index()).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn inadmissible_bit_cannot_be_certified() {
        // A rank-0 proposal for a bit with at most t supporters must not
        // collect votes: seed a node directly and feed it a proposal for
        // the unsupported bit.
        let c = cfg(5, 2, 7);
        let support = |node: &mut MrNode, bit: Bit, supporters: usize| {
            let tag = MineTag::new(MsgKind::Status, 0, bit);
            for i in (0..supporters).map(NodeId) {
                node.support.insert(0, bit, i, &c.auth.attest(i, &tag).expect("signed"));
            }
        };
        let mut node = MrNode::new(c.clone(), NodeId(1), true, 0);
        // Only 2 supporters for `false` (t = 2: not admissible).
        support(&mut node, false, 2);
        support(&mut node, true, 3);
        node.proposal.insert(1, (false, 0));
        let mut out = Outbox::new();
        node.step(Round(3), &[], &mut out); // view 1 vote phase
        assert!(out.is_empty(), "must not vote for an inadmissible rank-0 proposal");
        // The admissible bit does get a vote.
        let mut voter = MrNode::new(c.clone(), NodeId(2), true, 0);
        support(&mut voter, true, 3);
        voter.proposal.insert(1, (true, 0));
        let mut out = Outbox::new();
        voter.step(Round(3), &[], &mut out);
        assert_eq!(out.len(), 1);
    }
}
