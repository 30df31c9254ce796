//! Cohen–Keidar–Spiegelman's adaptive "fewer words" BA (arXiv 2202.09123) —
//! the competitor whose communication *adapts to the actual number of
//! faults*: O((f + 1)·n) words, where `f` is the number of corruptions that
//! really occur, not the tolerance `t`. With no faults the protocol costs
//! O(n) words total.
//!
//! ## Reproduced structure
//!
//! The paper's mechanism is a rotating-leader phase sequence in which *every
//! phase is cheap* — all traffic is unicast to or multicast from the phase
//! leader, so a phase costs O(n) words whether it succeeds or fails. A
//! failed phase needs no blame traffic: under lockstep synchrony the absent
//! leader multicast *is* the proof of failure, and nodes simply move to the
//! next leader. Round-robin rotation reaches an honest leader after at most
//! `f` corrupt ones, and an honest leader's phase terminates everyone — so
//! the total is O((f + 1)·n) words. This module reproduces exactly that
//! skeleton; the paper additionally reaches `t < n/2` resilience with
//! threshold primitives and achieves adaptivity against an adaptive
//! adversary via VRF leader self-election, which are out of scope — we
//! instantiate the adaptive-phase mechanism at `t < n/3` quorums, where
//! pigeonhole over `n − t ≥ 2t + 1` reports always yields a justifiable
//! value (documented in `docs/PAPER_MAP.md`).
//!
//! ## Phase schedule (5 rounds per phase, leader `L_p = (p − 1) mod n`)
//!
//! 1. *Report* — every undecided node unicasts its current value and
//!    highest certificate to `L_p`. No input round is needed: report
//!    evidence doubles as the support base, keeping the good case O(n).
//! 2. *Propose* — `L_p` multicasts a bit with a justification: the highest
//!    report certificate, or (if none exist) a [`SupportQuorum`] of `t + 1`
//!    matching report evidences — more reports than that for one bit imply
//!    at least one honest reporter held it.
//! 3. *Vote* — nodes check the justification against their own lock and
//!    unicast a signed vote to `L_p`; they also *adopt* the justified bit,
//!    which converges values across failed phases.
//! 4. *Lock* — on `n − t` votes `L_p` multicasts the phase certificate.
//! 5. *CommitVote* — lock adopters unicast a signed commit; on `n − t`
//!    commits the leader multicasts `Decide` with the commit quorum, and
//!    receivers decide, relay once, and halt (slots 3–5 are the shared
//!    kernel's leader-driven tail, as in [`crate::momose_ren`]).
//!
//! Safety at `t < n/3`: a certificate takes `n − t` votes, a conflicting
//! one would need `n − t` more, and `2(n − t) − n ≥ t + 1` nodes would have
//! voted twice — more than the corrupt budget. Locked honest nodes refuse
//! support-based justifications for a conflicting bit, so a committed bit
//! survives leader rotation.

use std::collections::HashMap;
use std::sync::Arc;

use ba_fmine::{Keychain, MineTag, MsgKind, AGG_SIG_BITS};
use ba_sim::{
    Adversary, Bit, Incoming, Message, NodeId, Outbox, Problem, Protocol, Round, RunReport,
    SimConfig, Verdict,
};

use crate::auth::{Auth, Evidence};
use crate::cert::{distinct_and_valid, AggregateQuorum, CertEncoding, Certificate, VoteRef};
use crate::kernel::{self, Budget, LeaderTail, Pool, QuorumRules, Slot, TailMsg};
use crate::runnable::Runnable;

/// One verified report evidence inside a vector [`SupportQuorum`]: the
/// reporting node and its evidence over the `(Status, phase, bit)` tag.
pub type ReportRef = VoteRef;

/// `t + 1` report evidences for one bit — the rank-0 justification that at
/// least one honest node held the proposed value.
#[derive(Clone, Debug, PartialEq)]
pub enum SupportQuorum {
    /// Explicit evidence list.
    Vector(Vec<ReportRef>),
    /// One aggregate signature over the report tag.
    Aggregate(AggregateQuorum),
}

impl SupportQuorum {
    /// Number of distinct supporters claimed.
    pub fn len(&self) -> usize {
        match self {
            SupportQuorum::Vector(refs) => refs.len(),
            SupportQuorum::Aggregate(q) => q.signers.len(),
        }
    }

    /// Whether the quorum claims no supporters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Verifies at least `min` distinct, authentic report evidences for
    /// `(phase, bit)`.
    pub fn verify(&self, phase: u64, bit: Bit, auth: &Auth, min: usize) -> bool {
        if phase == 0 || self.len() < min {
            return false;
        }
        let tag = MineTag::new(MsgKind::Status, phase, bit);
        match self {
            SupportQuorum::Vector(refs) => distinct_and_valid(refs, tag, auth),
            SupportQuorum::Aggregate(q) => auth.verify_aggregate(&tag, q),
        }
    }

    /// Wire size in bits.
    pub fn size_bits(&self) -> usize {
        match self {
            SupportQuorum::Vector(refs) => {
                refs.iter().map(|r| 64 + r.ev.size_bits()).sum::<usize>()
            }
            SupportQuorum::Aggregate(q) => q.n + AGG_SIG_BITS,
        }
    }
}

/// Why the leader's proposed bit is safe to vote for.
#[derive(Clone, Debug, PartialEq)]
pub enum Justification {
    /// A certificate from an earlier phase (lock carry-over).
    Lock(Certificate),
    /// `t + 1` phase reports for the bit (no certificate exists anywhere).
    Support(SupportQuorum),
}

impl Justification {
    fn size_bits(&self) -> usize {
        match self {
            Justification::Lock(c) => c.size_bits(),
            Justification::Support(q) => q.size_bits(),
        }
    }
}

/// Messages of the CKS adaptive phase family.
#[derive(Clone, Debug, PartialEq)]
pub enum CksMsg {
    /// `(Report, p)` — current value plus highest certificate, unicast to
    /// `L_p`.
    Report {
        /// Phase.
        phase: u64,
        /// The sender's current value.
        bit: Bit,
        /// Highest certificate known to the sender.
        lock: Option<Certificate>,
        /// Evidence for `(Status, p, bit)`.
        ev: Evidence,
    },
    /// `(Propose, p, b)` — the leader's justified proposal.
    Propose {
        /// Phase.
        phase: u64,
        /// Proposed bit.
        bit: Bit,
        /// Why `bit` is safe.
        just: Justification,
        /// Evidence for `(Propose, p, b)`.
        ev: Evidence,
    },
    /// Vote, Lock, CommitVote or Decide — the tail shared with Momose–Ren
    /// (its `view` is this family's phase).
    Tail(TailMsg),
}

impl From<TailMsg> for CksMsg {
    fn from(msg: TailMsg) -> CksMsg {
        CksMsg::Tail(msg)
    }
}

impl Message for CksMsg {
    fn size_bits(&self) -> usize {
        match self {
            CksMsg::Report { ev, .. } | CksMsg::Propose { ev, .. } => {
                8 + 64 + 2 + self.cert_bits() + ev.size_bits()
            }
            CksMsg::Tail(msg) => msg.size_bits(),
        }
    }

    fn cert_bits(&self) -> usize {
        match self {
            CksMsg::Report { lock, .. } => lock.as_ref().map_or(0, |c| c.size_bits()),
            CksMsg::Propose { just, .. } => just.size_bits(),
            CksMsg::Tail(msg) => msg.cert_bits(),
        }
    }
}

/// Configuration of one CKS instance.
#[derive(Clone, Debug)]
pub struct CksConfig {
    /// Number of nodes.
    pub n: usize,
    /// Tolerated faults `t < n/3` (see the module docs for why the repro
    /// instantiates below the paper's `t < n/2`).
    pub t: usize,
    /// Certificate/commit quorum `n − t`.
    pub quorum: usize,
    /// Rank-0 support threshold `t + 1`.
    pub support: usize,
    /// Authentication regime (always signed for this family).
    pub auth: Auth,
    /// Phase cap (liveness safety net; round-robin reaches an honest
    /// leader within `f + 1` phases).
    pub phases: u64,
    /// Requested certificate encoding.
    pub cert_encoding: CertEncoding,
}

impl CksConfig {
    /// The adaptive instance: `t = ⌊(n − 1)/3⌋`, quorum `n − t`, support
    /// `t + 1`.
    pub fn adaptive(n: usize, phases: u64, keychain: Arc<Keychain>) -> CksConfig {
        let t = (n - 1) / 3;
        CksConfig {
            n,
            t,
            quorum: n - t,
            support: t + 1,
            auth: Auth::Signed { keychain },
            phases,
            cert_encoding: CertEncoding::Vector,
        }
    }

    /// Requests a certificate encoding (builder style).
    pub fn with_cert_encoding(mut self, encoding: CertEncoding) -> CksConfig {
        self.cert_encoding = encoding;
        self
    }

    /// The encoding certificates are actually built with.
    pub fn effective_cert_encoding(&self) -> CertEncoding {
        self.auth.effective_encoding(self.cert_encoding)
    }

    /// The round-robin leader of `phase` (1-based).
    pub fn leader(&self, phase: u64) -> NodeId {
        kernel::round_robin_leader(self.n, phase)
    }

    /// Synchronous rounds consumed by `phases` phases, with slack for the
    /// decide-relay cascade.
    pub fn total_rounds(&self) -> u64 {
        5 * self.phases + 3
    }
}

/// One node of the CKS protocol.
pub struct CksNode {
    cfg: CksConfig,
    id: NodeId,
    /// Current value — starts at the input, adopts justified proposals.
    value: Bit,
    /// Verified reports per `(phase, bit)` (leader role).
    reports: Pool,
    /// The phase's accepted, justified proposal.
    proposal: HashMap<u64, Bit>,
    /// Lock state, vote/commit tallies and the decide relay.
    tail: LeaderTail,
}

impl CksNode {
    /// Creates a node with its input bit (deterministic protocol; the
    /// per-node seed is unused).
    pub fn new(cfg: CksConfig, id: NodeId, input: Bit, _seed: u64) -> CksNode {
        let rules = QuorumRules::new(&cfg.auth, cfg.quorum, cfg.cert_encoding);
        CksNode {
            tail: LeaderTail::new(id, cfg.n, rules),
            cfg,
            id,
            value: input,
            reports: Pool::default(),
            proposal: HashMap::new(),
        }
    }

    fn ingest(&mut self, inbox: &[Incoming<CksMsg>]) {
        let auth = &self.cfg.auth;
        for m in inbox {
            match &*m.msg {
                CksMsg::Report { phase, bit, lock, ev } => {
                    if !self.reports.admit(auth, (MsgKind::Status, *phase, *bit), m.from, ev) {
                        continue;
                    }
                    if let Some(c) = lock {
                        self.tail.ledger.adopt(c, &self.tail.rules);
                    }
                }
                CksMsg::Propose { phase, bit, just, ev } => {
                    let tag = MineTag::new(MsgKind::Propose, *phase, *bit);
                    if !auth.verify(m.from, &tag, ev) || m.from != self.cfg.leader(*phase) {
                        continue;
                    }
                    let ledger = &mut self.tail.ledger;
                    let justified = match just {
                        // Lock rule: the carried certificate must match or
                        // beat everything this node saw.
                        Justification::Lock(c) => {
                            c.bit == *bit
                                && ledger.adopt(c, &self.tail.rules)
                                && c.iter >= ledger.top_rank()
                        }
                        // Support only justifies when this node has no
                        // conflicting lock: `t + 1` reports prove an honest
                        // holder, but a lock proves a possible earlier
                        // commit and takes precedence.
                        Justification::Support(q) => {
                            q.verify(*phase, *bit, auth, self.cfg.support)
                                && ledger.best().is_none_or(|c| c.bit == *bit)
                        }
                    };
                    if justified {
                        self.proposal.entry(*phase).or_insert(*bit);
                    }
                }
                CksMsg::Tail(msg) => {
                    if let Some(bit) = self.tail.ingest(m.from, msg) {
                        self.value = bit;
                    }
                }
            }
        }
    }
}

impl Protocol<CksMsg> for CksNode {
    fn step(&mut self, round: Round, inbox: &[Incoming<CksMsg>], out: &mut Outbox<CksMsg>) {
        if self.tail.relay.done() {
            return;
        }
        self.ingest(inbox);
        if self.tail.settle(out) {
            return;
        }
        let (phase, slot) = kernel::view_slot(round.0);
        if phase > self.cfg.phases {
            return;
        }
        match slot {
            Slot::Open => {
                let bit = self.value;
                let lock = self.tail.ledger.best().cloned();
                let tag = MineTag::new(MsgKind::Status, phase, bit);
                if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
                    out.unicast(self.cfg.leader(phase), CksMsg::Report { phase, bit, lock, ev });
                }
            }
            Slot::Propose => {
                if self.cfg.leader(phase) != self.id {
                    return;
                }
                let (bit, just) = match self.tail.ledger.best() {
                    Some(c) => (c.bit, Justification::Lock(c.clone())),
                    None => {
                        // Pigeonhole over the quorum of reports: with
                        // `n − t ≥ 2t + 1` reports, some bit has `t + 1`.
                        // Prefer the better-supported bit; ties prefer 1.
                        let bit =
                            self.reports.count(phase, true) >= self.reports.count(phase, false);
                        let support = self.cfg.support;
                        let Some(refs) = self.reports.sorted_quorum_prefix(phase, bit, support)
                        else {
                            return; // not enough reports: silent phase
                        };
                        let quorum = self.tail.rules.assemble(
                            (MsgKind::Status, phase, bit),
                            refs,
                            SupportQuorum::Vector,
                            SupportQuorum::Aggregate,
                        );
                        (bit, Justification::Support(quorum))
                    }
                };
                let tag = MineTag::new(MsgKind::Propose, phase, bit);
                if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
                    out.multicast(CksMsg::Propose { phase, bit, just, ev });
                }
            }
            Slot::Vote => {
                let Some(bit) = self.proposal.get(&phase).copied() else {
                    return;
                };
                // Adopt the justified value: converges honest values even
                // when the phase fails to certify, and is safe because a
                // justification implies at least one honest holder.
                self.value = bit;
                self.tail.vote(phase, bit, out);
            }
            Slot::Lock => {
                if let Some(bit) = self.tail.lock(phase, out) {
                    self.value = bit;
                }
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

/// Runs one execution and evaluates the agreement verdict (signed
/// full-participation: always the dense engine).
pub fn run<A: Adversary<CksMsg> + Send>(
    cfg: &CksConfig,
    sim: &SimConfig,
    inputs: Vec<Bit>,
    adversary: A,
) -> (RunReport, Verdict) {
    let budget = Budget::Cap(cfg.total_rounds() + 2);
    let cfg = cfg.clone();
    let node = move |id, input, seed| CksNode::new(cfg.clone(), id, input, seed);
    kernel::run(sim, budget, Problem::Agreement, inputs, adversary, node, None)
}

/// Packages one execution as a thread-dispatchable [`Runnable`].
pub fn runnable<A: Adversary<CksMsg> + Send + 'static>(
    cfg: &CksConfig,
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

    fn cfg(n: usize, phases: u64, seed: u64) -> CksConfig {
        CksConfig::adaptive(n, phases, Arc::new(Keychain::from_seed(seed, n, SigMode::Ideal)))
    }

    #[test]
    fn validity_unanimous() {
        for bit in [false, true] {
            let c = cfg(10, 4, 1);
            let sim = SimConfig::new(10, 0, CorruptionModel::Static, 1);
            let (report, verdict) = run(&c, &sim, vec![bit; 10], Passive);
            assert!(verdict.all_ok(), "bit={bit}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(bit)));
            // Good case: decided inside the first phase plus the cascade.
            assert!(report.rounds_used <= 8, "rounds={}", report.rounds_used);
        }
    }

    #[test]
    fn consistency_mixed_inputs() {
        for seed in 0..8 {
            let c = cfg(13, 4, seed);
            let sim = SimConfig::new(13, 0, CorruptionModel::Static, seed);
            let inputs: Vec<Bit> = (0..13).map(|i| i % 3 == 0).collect();
            let (report, verdict) = run(&c, &sim, inputs, Passive);
            assert!(verdict.all_ok(), "seed={seed}: {verdict:?}");
            assert!(report.rounds_used <= 8, "seed={seed} rounds={}", report.rounds_used);
        }
    }

    #[test]
    fn good_case_words_scale_linearly() {
        // With zero faults one phase decides, so total words (n per
        // multicast + 1 per unicast) should scale ~linearly in n — the
        // adaptive O((f+1)·n) claim at f = 0. Multicast count itself must
        // stay O(1) per run: leader proposal + lock + decide + n relays.
        let words = |n: usize| -> u64 {
            let c = cfg(n, 4, 2);
            let sim = SimConfig::new(n, 0, CorruptionModel::Static, 2);
            let inputs: Vec<Bit> = (0..n).map(|i| i % 2 == 0).collect();
            let (report, verdict) = run(&c, &sim, inputs, Passive);
            assert!(verdict.all_ok(), "n={n}");
            // The decide relay is n multicasts (one per decider) — the
            // pre-decision phase traffic is what the adaptive bound
            // governs, so count unicasts plus leader multicasts.
            report.metrics.honest_unicasts + report.metrics.honest_multicasts
        };
        let (small, large) = (words(16), words(32));
        let ratio = large as f64 / small as f64;
        assert!(
            (1.5..3.0).contains(&ratio),
            "phase words should scale ~linearly: n=16 -> {small}, n=32 -> {large}"
        );
    }

    #[test]
    fn aggregate_encoding_preserves_decisions() {
        let n = 16;
        let inputs: Vec<Bit> = (0..n).map(|i| i % 2 == 0).collect();
        let sim = SimConfig::new(n, 0, CorruptionModel::Static, 3);
        let (vec_rep, vec_v) = run(&cfg(n, 4, 3), &sim, inputs.clone(), Passive);
        let c = cfg(n, 4, 3).with_cert_encoding(CertEncoding::Aggregate);
        let (agg_rep, agg_v) = run(&c, &sim, inputs, Passive);
        assert!(vec_v.all_ok() && agg_v.all_ok());
        assert_eq!(vec_rep.outputs, agg_rep.outputs);
        assert_eq!(vec_rep.rounds_used, agg_rep.rounds_used);
    }

    #[test]
    fn step_counts_reports_and_votes_through_the_shared_pool() {
        // n = 7: quorum 5, support 3; node 0 leads phase 1 (Propose slot =
        // round 1, Lock slot = round 3).
        let c = cfg(7, 2, 5);
        let signed = |from: usize, kind: MsgKind, phase: u64| {
            c.auth.attest(NodeId(from), &MineTag::new(kind, phase, true)).expect("signed")
        };
        let report = |from: usize, claimed: u64, attested: u64| {
            let ev = signed(from, MsgKind::Status, attested);
            Incoming::new(
                NodeId(from),
                CksMsg::Report { phase: claimed, bit: true, lock: None, ev },
            )
        };
        let vote = |from: usize, claimed: u64, attested: u64| {
            let ev = signed(from, MsgKind::Vote, attested);
            Incoming::new(NodeId(from), TailMsg::Vote { view: claimed, bit: true, ev }.into())
        };
        let leader_sends = |round: u64, inbox: &[Incoming<CksMsg>]| {
            let mut leader = CksNode::new(c.clone(), NodeId(0), true, 0);
            let mut out = Outbox::new();
            leader.step(Round(round), inbox, &mut out);
            out.take().pop()
        };
        // Reports: one sender three times plus a replayed phase-2 report
        // are two supporters short of `t + 1 = 3`: a silent phase.
        let stale = [report(1, 1, 1), report(1, 1, 1), report(1, 1, 1), report(2, 1, 2)];
        assert!(leader_sends(1, &stale).is_none(), "duplicate reports must not justify");
        let mut genuine = stale.to_vec();
        genuine.extend([report(5, 1, 1), report(2, 1, 1)]);
        let Some((_, CksMsg::Propose { just: Justification::Support(q), .. })) =
            leader_sends(1, &genuine)
        else {
            panic!("three genuine reports must justify a proposal");
        };
        assert!(q.verify(1, true, &c.auth, c.support));
        let SupportQuorum::Vector(refs) = &q else { panic!("vector encoding") };
        assert_eq!(refs.iter().map(|r| r.from.index()).collect::<Vec<_>>(), [1, 2, 5]);
        // Votes: four distinct voters padded with duplicates and a replay
        // stay short of the quorum of five.
        let mut votes: Vec<_> = (1..5).map(|i| vote(i, 1, 1)).collect();
        votes.extend([vote(1, 1, 1), vote(4, 1, 1), vote(5, 1, 2), vote(6, 2, 2)]);
        assert!(leader_sends(3, &votes).is_none(), "duplicate votes must not reach quorum");
        votes.push(vote(6, 1, 1));
        assert!(matches!(
            leader_sends(3, &votes),
            Some((_, CksMsg::Tail(TailMsg::Lock { view: 1, bit: true, .. })))
        ));
    }

    #[test]
    fn support_quorum_rejects_duplicates_and_forgeries() {
        let c = cfg(7, 2, 9);
        let tag = MineTag::new(MsgKind::Status, 1, true);
        let evs: Vec<ReportRef> = (0..3)
            .map(|i| {
                let id = NodeId(i);
                ReportRef { from: id, ev: c.auth.attest(id, &tag).expect("signed") }
            })
            .collect();
        let q = SupportQuorum::Vector(evs.clone());
        assert!(q.verify(1, true, &c.auth, 3));
        assert!(!q.verify(1, false, &c.auth, 3), "wrong bit must fail");
        assert!(!q.verify(2, true, &c.auth, 3), "wrong phase must fail");
        assert!(!q.verify(1, true, &c.auth, 4), "short quorum must fail");
        let mut dup = evs.clone();
        dup[2] = dup[0].clone();
        assert!(
            !SupportQuorum::Vector(dup).verify(1, true, &c.auth, 3),
            "duplicate supporter must fail"
        );
        assert!(!SupportQuorum::Vector(evs).verify(0, true, &c.auth, 3), "phase 0 must fail");
    }

    #[test]
    fn locked_node_refuses_conflicting_support_justification() {
        // A node holding a certificate for bit 1 must not accept a
        // support-only proposal for bit 0 (lock precedence), but must
        // accept a support proposal for bit 1.
        let c = cfg(7, 3, 11);
        let quorum = c.quorum; // 5
        let vote_tag = MineTag::new(MsgKind::Vote, 1, true);
        let votes: Vec<VoteRef> = (0..quorum)
            .map(|i| {
                let id = NodeId(i);
                VoteRef { from: id, ev: c.auth.attest(id, &vote_tag).expect("signed") }
            })
            .collect();
        let cert = Certificate::from_votes(1, true, votes);
        let mut node = CksNode::new(c.clone(), NodeId(3), false, 0);
        assert!(node.tail.ledger.adopt(&cert, &node.tail.rules));
        assert_eq!(node.tail.ledger.top_rank(), 1);
        let support_tag = MineTag::new(MsgKind::Status, 2, false);
        let refs: Vec<ReportRef> = (0..c.support)
            .map(|i| {
                let id = NodeId(i);
                ReportRef { from: id, ev: c.auth.attest(id, &support_tag).expect("signed") }
            })
            .collect();
        let leader = c.leader(2);
        let prop_tag = MineTag::new(MsgKind::Propose, 2, false);
        let ev = c.auth.attest(leader, &prop_tag).expect("signed");
        let msg = CksMsg::Propose {
            phase: 2,
            bit: false,
            just: Justification::Support(SupportQuorum::Vector(refs)),
            ev,
        };
        node.ingest(&[Incoming::new(leader, msg)]);
        assert!(
            !node.proposal.contains_key(&2),
            "locked node must refuse a conflicting support justification"
        );
    }
}
