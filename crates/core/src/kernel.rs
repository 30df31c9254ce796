//! The round-protocol kernel the BA families share.
//!
//! The paper's two constructions (§3 epoch/ack, Appendix C
//! iteration/certificate) and the two competitors run beside them
//! (Momose–Ren, Cohen–Keidar–Spiegelman) are one skeleton: verify an inbox,
//! pool deduplicated attestations per `(view, bit)`, turn a quorum into a
//! certificate, keep the highest-ranked certificate per bit, relay a commit
//! quorum once and halt. This module holds that skeleton once:
//!
//! * [`Pool`] — the sender-deduplicating tally every vote / commit / ack /
//!   report / support count goes through;
//! * [`QuorumRules`] — a family's auth regime, quorum size and effective
//!   encoding, and the one assembler turning a sorted quorum prefix into a
//!   [`Certificate`], [`CommitQuorum`] or CKS support quorum;
//! * [`Ledger`] — the highest verified certificate per bit;
//! * [`DecideRelay`] — decide, relay the commit quorum once, output, halt;
//! * [`LeaderTail`] / [`TailMsg`] — the leader-driven
//!   Vote → Lock → CommitVote → Decide tail of the two competitor families;
//! * [`run`] — the one execution path: round budget, execution, verdict;
//! * [`committees`] — the memoised `would_mine` committee oracle and ghost
//!   nodes a lazy live set needs, from a family's `round → tags` function.
//!
//! What stays in a family's own file is its phase table, its justification
//! rules and its quorum sizes.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ba_fmine::{Eligibility, MineTag, MsgKind, NeverMine};
use ba_sim::{
    evaluate, ActivationOracle, Adversary, Bit, BoxedProtocol, Committee, Message, NodeId, Outbox,
    Problem, Protocol, Round, RunReport, SimConfig, Verdict,
};

use crate::auth::{Auth, Evidence};
use crate::cert::{AggregateQuorum, CertBody, CertEncoding, Certificate, CommitQuorum, VoteRef};

/// What a family fixes about its quorums: who may attest, how many
/// attestations make a quorum, and how a quorum travels on the wire.
#[derive(Clone)]
pub(crate) struct QuorumRules {
    pub auth: Auth,
    pub quorum: usize,
    /// The effective encoding ([`Auth::effective_encoding`]).
    pub encoding: CertEncoding,
}

impl QuorumRules {
    pub fn new(auth: &Auth, quorum: usize, requested: CertEncoding) -> QuorumRules {
        QuorumRules { auth: auth.clone(), quorum, encoding: auth.effective_encoding(requested) }
    }

    /// Assembles the quorum `refs` — a prefix from
    /// [`Pool::sorted_quorum_prefix`] — attesting `(kind, view, bit)` in the
    /// effective encoding. Falls back to the vector transcript if
    /// aggregation unexpectedly fails (it cannot for verified evidence
    /// under a signed regime, the only regime whose effective encoding is
    /// ever `Aggregate`).
    pub fn assemble<Q>(
        &self,
        (kind, view, bit): (MsgKind, u64, Bit),
        refs: &[VoteRef],
        vector: fn(Vec<VoteRef>) -> Q,
        aggregate: fn(AggregateQuorum) -> Q,
    ) -> Q {
        if self.encoding == CertEncoding::Aggregate {
            if let Some(q) = self.auth.aggregate_quorum(&MineTag::new(kind, view, bit), refs) {
                return aggregate(q);
            }
        }
        vector(refs.to_vec())
    }

    /// The view-`view` certificate for `bit` from a quorum of its votes.
    pub fn certificate(&self, view: u64, bit: Bit, votes: &[VoteRef]) -> Certificate {
        let statement = (MsgKind::Vote, view, bit);
        let body = self.assemble(statement, votes, CertBody::Vector, CertBody::Aggregate);
        Certificate { iter: view, bit, body }
    }

    /// The commit quorum a `Terminate` / `Decide` message carries.
    pub fn commit_quorum(&self, view: u64, bit: Bit, commits: &[VoteRef]) -> CommitQuorum {
        let statement = (MsgKind::Commit, view, bit);
        self.assemble(statement, commits, CommitQuorum::Vector, CommitQuorum::Aggregate)
    }
}

/// Deduplicated attestations per `(view, bit)`: one entry per sender, so a
/// tally counts distinct nodes. Keying by view keeps a vote for another
/// view out of this view's count no matter when it arrives.
#[derive(Default)]
pub(crate) struct Pool {
    tallies: BTreeMap<(u64, bool), Tally>,
}

#[derive(Default)]
struct Tally {
    /// Everyone counted, sorted: the duplicate check is a binary search
    /// over ids instead of a scan over the much wider evidence entries.
    senders: Vec<NodeId>,
    /// The evidence of the senders whose evidence was kept.
    refs: Vec<VoteRef>,
}

impl Tally {
    /// Counts `from` once; whether it was new.
    fn mark(&mut self, from: NodeId) -> bool {
        let at = self.senders.binary_search(&from);
        if let Err(at) = at {
            self.senders.insert(at, from);
        }
        at.is_err()
    }
}

impl Pool {
    /// Records `from`'s attestation for `(view, bit)` unless one is already
    /// held, and returns the tally. The evidence must already be verified
    /// (or be this node's own).
    pub fn insert(&mut self, view: u64, bit: Bit, from: NodeId, ev: &Evidence) -> usize {
        let tally = self.tallies.entry((view, bit)).or_default();
        if tally.mark(from) {
            tally.refs.push(VoteRef { from, ev: ev.clone() });
        }
        tally.senders.len()
    }

    /// [`Pool::insert`] behind the evidence check: `ev` must attest
    /// `(kind, view, bit)` for `from`. Evidence forged, or replayed from
    /// another view's or bit's statement, fails here and is never counted.
    pub fn admit(
        &mut self,
        auth: &Auth,
        (kind, view, bit): (MsgKind, u64, Bit),
        from: NodeId,
        ev: &Evidence,
    ) -> bool {
        let valid = auth.verify(from, &MineTag::new(kind, view, bit), ev);
        if valid {
            self.insert(view, bit, from, ev);
        }
        valid
    }

    /// [`Pool::admit`] for tallies that are only ever counted (acks, input
    /// support), never assembled into a quorum: the evidence is checked
    /// the same way but not kept.
    pub fn admit_count(
        &mut self,
        auth: &Auth,
        (kind, view, bit): (MsgKind, u64, Bit),
        from: NodeId,
        ev: &Evidence,
    ) -> bool {
        let valid = auth.verify(from, &MineTag::new(kind, view, bit), ev);
        if valid {
            self.tallies.entry((view, bit)).or_default().mark(from);
        }
        valid
    }

    /// Distinct attesters of `(view, bit)`.
    pub fn count(&self, view: u64, bit: Bit) -> usize {
        self.tallies.get(&(view, bit)).map_or(0, |t| t.senders.len())
    }

    /// The `q` lowest-id attestations of `(view, bit)`, `None` short of a
    /// quorum. Sorting makes the assembled quorum independent of arrival
    /// order.
    pub fn sorted_quorum_prefix(&mut self, view: u64, bit: Bit, q: usize) -> Option<&[VoteRef]> {
        let tally = self.tallies.get_mut(&(view, bit)).filter(|t| t.refs.len() >= q)?;
        tally.refs.sort_by_key(|r| r.from);
        Some(&tally.refs[..q])
    }

    /// The lowest `(view, bit)` holding a quorum among the views `led`
    /// accepts.
    pub fn first_quorum(&self, q: usize, led: impl Fn(u64) -> bool) -> Option<(u64, Bit)> {
        let full = |((view, _), t): &(&(u64, bool), &Tally)| t.refs.len() >= q && led(*view);
        self.tallies.iter().find(full).map(|(key, _)| *key)
    }
}

/// The highest-ranked verified certificate per bit (a node's lock state).
#[derive(Default)]
pub(crate) struct Ledger {
    best: [Option<Certificate>; 2],
}

impl Ledger {
    /// Rank of the certificate held for `bit` (0 = none).
    pub fn rank(&self, bit: Bit) -> u64 {
        Certificate::rank(&self.best[bit as usize])
    }

    /// The node's overall highest rank (its lock rank).
    pub fn top_rank(&self) -> u64 {
        self.rank(false).max(self.rank(true))
    }

    /// The overall highest certificate, `None` if no certificate is known.
    /// Ties prefer bit 1 (arbitrary, deterministic).
    pub fn best(&self) -> Option<&Certificate> {
        self.best[(self.rank(true) >= self.rank(false)) as usize].as_ref()
    }

    /// Keeps `cert` if it outranks the certificate held for its bit. For
    /// certificates this node formed itself from verified votes.
    pub fn install(&mut self, cert: Certificate) {
        let slot = &mut self.best[cert.bit as usize];
        if Certificate::rank(slot) < cert.iter {
            *slot = Some(cert);
        }
    }

    /// Verifies a received certificate and, if it verifies, keeps it when it
    /// outranks the held one. Returns whether it verified.
    pub fn adopt(&mut self, cert: &Certificate, rules: &QuorumRules) -> bool {
        let valid = cert.verify(&rules.auth, rules.quorum);
        if valid && self.rank(cert.bit) < cert.iter {
            self.install(cert.clone());
        }
        valid
    }
}

/// The termination gadget: the first decision wins, its commit quorum is
/// relayed once, then the node outputs and halts.
#[derive(Default)]
pub(crate) struct DecideRelay {
    /// `(view, bit)` decided, with the verified commit quorum that came
    /// with the decision when the node cannot rebuild one from its own
    /// commit pool.
    decided: Option<(u64, Bit, Option<CommitQuorum>)>,
    output: Option<Bit>,
    done: bool,
}

impl DecideRelay {
    /// Records a decision for `(view, bit)`; later decisions are ignored.
    pub fn decide(&mut self, view: u64, bit: Bit, carried: Option<CommitQuorum>) {
        if self.decided.is_none() {
            self.decided = Some((view, bit, carried));
        }
    }

    pub fn decided(&self) -> bool {
        self.decided.is_some()
    }

    pub fn output(&self) -> Option<Bit> {
        self.output
    }

    pub fn done(&self) -> bool {
        self.done
    }

    /// If a decision is recorded: multicasts `wrap(view, bit, commits, ev)`
    /// — `commits` being what `rebuild` makes of the node's own pool, else
    /// the quorum carried with the decision — outputs, halts and returns
    /// `true`.
    pub fn finish<M: Message>(
        &mut self,
        id: NodeId,
        auth: &Auth,
        rebuild: impl FnOnce(u64, Bit) -> Option<CommitQuorum>,
        wrap: impl FnOnce(u64, Bit, CommitQuorum, Evidence) -> M,
        out: &mut Outbox<M>,
    ) -> bool {
        let Some((view, bit, carried)) = &mut self.decided else { return false };
        let (view, bit) = (*view, *bit);
        if let Some(ev) = auth.attest(id, &MineTag::terminate(bit)) {
            if let Some(commits) = rebuild(view, bit).or_else(|| carried.take()) {
                out.multicast(wrap(view, bit, commits, ev));
            }
        }
        self.output = Some(bit);
        self.done = true;
        true
    }
}

/// The statement a status report attests: its certified bit, or ⊥ when the
/// reporter holds no certificate.
pub(crate) fn status_tag(view: u64, bit: Option<Bit>) -> MineTag {
    match bit {
        Some(b) => MineTag::new(MsgKind::Status, view, b),
        None => MineTag::bot(MsgKind::Status, view),
    }
}

/// A view's five-round cadence: the family's opening slot (status /
/// report) and its proposal, then the shared tail.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Slot {
    Open,
    Propose,
    Vote,
    Lock,
    CommitVote,
}

/// Maps a round of back-to-back views to its 1-based `(view, slot)`.
pub(crate) fn view_slot(round: u64) -> (u64, Slot) {
    let slot = match round % 5 {
        0 => Slot::Open,
        1 => Slot::Propose,
        2 => Slot::Vote,
        3 => Slot::Lock,
        _ => Slot::CommitVote,
    };
    (1 + round / 5, slot)
}

/// The round-robin leader of 1-based `view`. View 0 names no slot; a
/// hostile message claiming it must not underflow.
pub(crate) fn round_robin_leader(n: usize, view: u64) -> NodeId {
    NodeId((view.saturating_sub(1) % n as u64) as usize)
}

/// Messages of the leader-driven tail Momose–Ren and CKS share. A "view" is
/// Momose–Ren's view and CKS's phase.
#[derive(Clone, Debug, PartialEq)]
pub enum TailMsg {
    /// `(Vote, v, b)` — unicast to the view's leader.
    Vote {
        /// View.
        view: u64,
        /// Voted bit.
        bit: Bit,
        /// Evidence for `(Vote, v, b)`.
        ev: Evidence,
    },
    /// `(Lock, v, b)` — the leader's freshly formed view-`v` certificate.
    Lock {
        /// View.
        view: u64,
        /// Certified bit.
        bit: Bit,
        /// The view-`v` certificate (quorum of view-`v` votes).
        cert: Certificate,
        /// Evidence for `(Ack, v, b)`.
        ev: Evidence,
    },
    /// `(Commit, v, b)` — unicast to the leader after adopting the lock.
    CommitVote {
        /// View.
        view: u64,
        /// Committed bit.
        bit: Bit,
        /// Evidence for `(Commit, v, b)`.
        ev: Evidence,
    },
    /// `(Decide, v, b)` — a commit quorum; multicast by the leader, relayed
    /// once by every decider.
    Decide {
        /// View whose commits are attached.
        view: u64,
        /// Decided bit.
        bit: Bit,
        /// Quorum of commits for `(v, b)`, in the sender's encoding.
        commits: CommitQuorum,
        /// Evidence for `(Terminate, b)`.
        ev: Evidence,
    },
}

impl Message for TailMsg {
    fn size_bits(&self) -> usize {
        let (TailMsg::Vote { ev, .. }
        | TailMsg::Lock { ev, .. }
        | TailMsg::CommitVote { ev, .. }
        | TailMsg::Decide { ev, .. }) = self;
        8 + 64 + 2 + self.cert_bits() + ev.size_bits()
    }

    fn cert_bits(&self) -> usize {
        match self {
            TailMsg::Vote { .. } | TailMsg::CommitVote { .. } => 0,
            TailMsg::Lock { cert, .. } => cert.size_bits(),
            TailMsg::Decide { commits, .. } => commits.size_bits(),
        }
    }
}

/// The leader-driven tail of a view: nodes unicast votes to the view's
/// round-robin leader; on a quorum the leader multicasts the certificate
/// (*lock*); lock adopters unicast a commit; on a quorum of commits the
/// leader multicasts `Decide`, which every receiver relays once before
/// halting. What a family adds is when a node may vote.
pub(crate) struct LeaderTail {
    id: NodeId,
    n: usize,
    pub rules: QuorumRules,
    pub ledger: Ledger,
    /// Votes per `(view, bit)` (leader role).
    votes: Pool,
    /// Commit votes per `(view, bit)` (leader role).
    commits: Pool,
    /// Views whose lock this node already commit-voted for.
    committed: Vec<u64>,
    /// Lock adopted from this round's inbox; [`LeaderTail::settle`] turns it
    /// into the commit vote in the same `step` call.
    pending_commit: Option<(u64, Bit)>,
    pub relay: DecideRelay,
}

impl LeaderTail {
    pub fn new(id: NodeId, n: usize, rules: QuorumRules) -> LeaderTail {
        LeaderTail {
            id,
            n,
            rules,
            ledger: Ledger::default(),
            votes: Pool::default(),
            commits: Pool::default(),
            committed: Vec::new(),
            pending_commit: None,
            relay: DecideRelay::default(),
        }
    }

    pub fn leader(&self, view: u64) -> NodeId {
        round_robin_leader(self.n, view)
    }

    /// Absorbs one tail message. Returns the bit of a valid lock from the
    /// view's leader, which the caller may take as its value.
    pub fn ingest(&mut self, from: NodeId, msg: &TailMsg) -> Option<Bit> {
        let auth = &self.rules.auth;
        match msg {
            TailMsg::Vote { view, bit, ev } => {
                self.votes.admit(auth, (MsgKind::Vote, *view, *bit), from, ev);
            }
            TailMsg::CommitVote { view, bit, ev } => {
                self.commits.admit(auth, (MsgKind::Commit, *view, *bit), from, ev);
            }
            TailMsg::Lock { view, bit, cert, ev } => {
                if auth.verify(from, &MineTag::new(MsgKind::Ack, *view, *bit), ev)
                    && from == self.leader(*view)
                    && (cert.iter, cert.bit) == (*view, *bit)
                    && self.ledger.adopt(cert, &self.rules)
                {
                    // Commit-vote at most once per view.
                    if !self.committed.contains(view) {
                        self.committed.push(*view);
                        self.pending_commit = Some((*view, *bit));
                    }
                    return Some(*bit);
                }
            }
            TailMsg::Decide { view, bit, commits, ev } => {
                if auth.verify(from, &MineTag::terminate(*bit), ev)
                    && commits.verify(*view, *bit, auth, self.rules.quorum)
                {
                    self.relay.decide(*view, *bit, Some(commits.clone()));
                }
            }
        }
        None
    }

    /// The duties that follow the inbox wherever the round falls in the
    /// cadence: relay a received decision, or decide as leader as soon as a
    /// commit quorum exists (commits from view `v` arrive in view `v + 1`'s
    /// first round), else commit-vote for a lock adopted this round (it
    /// lands in the CommitVote slot on the undisturbed schedule). Returns
    /// whether the node halted.
    pub fn settle<M: Message + From<TailMsg>>(&mut self, out: &mut Outbox<M>) -> bool {
        let (id, n, q) = (self.id, self.n, self.rules.quorum);
        if !self.relay.decided() {
            let led = |view| round_robin_leader(n, view) == id;
            if let Some((view, bit)) = self.commits.first_quorum(q, led) {
                let refs = self.commits.sorted_quorum_prefix(view, bit, q).expect("quorum pool");
                self.relay.decide(view, bit, Some(self.rules.commit_quorum(view, bit, refs)));
            }
        }
        let decide = |view, bit, commits, ev| TailMsg::Decide { view, bit, commits, ev }.into();
        if self.relay.finish(id, &self.rules.auth, |_, _| None, decide, out) {
            return true;
        }
        if let Some((view, bit)) = self.pending_commit.take() {
            let tag = MineTag::new(MsgKind::Commit, view, bit);
            if let Some(ev) = self.rules.auth.attest(id, &tag) {
                out.unicast(self.leader(view), TailMsg::CommitVote { view, bit, ev }.into());
            }
        }
        false
    }

    /// Unicasts this node's vote for `(view, bit)` to the view's leader.
    pub fn vote<M: Message + From<TailMsg>>(&self, view: u64, bit: Bit, out: &mut Outbox<M>) {
        let tag = MineTag::new(MsgKind::Vote, view, bit);
        if let Some(ev) = self.rules.auth.attest(self.id, &tag) {
            out.unicast(self.leader(view), TailMsg::Vote { view, bit, ev }.into());
        }
    }

    /// The leader's Lock slot: certifies the first bit (1 before 0) whose
    /// view-`view` votes reach a quorum, adopts and multicasts the
    /// certificate, and returns the locked bit.
    pub fn lock<M: Message + From<TailMsg>>(
        &mut self,
        view: u64,
        out: &mut Outbox<M>,
    ) -> Option<Bit> {
        if self.leader(view) != self.id {
            return None;
        }
        let q = self.rules.quorum;
        let bit = [true, false].into_iter().find(|&bit| self.votes.count(view, bit) >= q)?;
        let votes = self.votes.sorted_quorum_prefix(view, bit, q).expect("quorum pool");
        let cert = self.rules.certificate(view, bit, votes);
        let ev = self.rules.auth.attest(self.id, &MineTag::new(MsgKind::Ack, view, bit))?;
        self.ledger.install(cert.clone());
        out.multicast(TailMsg::Lock { view, bit, cert, ev }.into());
        Some(bit)
    }
}

/// How a family's round budget meets the caller's `max_rounds` — fixed per
/// family, not a setting.
pub(crate) enum Budget {
    /// Early-terminating families: never run past their schedule.
    Cap(u64),
    /// Fixed-length families: always get their whole schedule.
    AtLeast(u64),
}

/// Runs one execution: applies the round budget, builds `node(id, input,
/// seed)` per node, runs it through [`ba_net::execute`] (which realizes
/// whatever [`SimConfig::transport`] names) and evaluates `problem`.
///
/// `committee` is what lets the execution honor
/// [`ba_sim::PopulationMode::Sparse`]; whether it then runs over a lazy
/// live set is the engine's decision ([`ba_sim::Sim::run_population`]), and
/// the report is the same either way.
pub(crate) fn run<M, P, A>(
    sim: &SimConfig,
    budget: Budget,
    problem: Problem,
    inputs: Vec<Bit>,
    adversary: A,
    node: impl Fn(NodeId, Bit, u64) -> P + Send + 'static,
    committee: Option<Committee<M>>,
) -> (RunReport, Verdict)
where
    M: Message + Send + Sync + 'static,
    P: Protocol<M> + Send + 'static,
    A: Adversary<M> + Send,
{
    let mut sim = sim.clone();
    sim.max_rounds = match budget {
        Budget::Cap(rounds) => sim.max_rounds.min(rounds),
        Budget::AtLeast(rounds) => sim.max_rounds.max(rounds),
    };
    let node_inputs = inputs.clone();
    let factory = move |id: NodeId, seed: u64| -> BoxedProtocol<M> {
        Box::new(node(id, node_inputs[id.index()], seed))
    };
    let report = ba_net::execute(&sim, inputs, adversary, factory, committee);
    let verdict = evaluate(problem, &report);
    (report, verdict)
}

/// Builds what a mined regime adds so its executions can run over a lazy
/// live set (`None` for any other regime): `tags(round)` lists every
/// statement the family's schedule lets a node attest in `round`, and
/// `ghost(auth, input)` builds the family's node under the given regime
/// with the out-of-range id `n`.
///
/// Ghosts can never win a committee seat ([`NeverMine`]) but verify exactly
/// like real nodes, and their id makes any accidental send detectable.
pub(crate) fn committees<M, P: Protocol<M> + Send + 'static>(
    auth: &Auth,
    n: usize,
    tags: impl Fn(u64) -> Vec<MineTag> + Send + 'static,
    ghost: impl Fn(Auth, Bit) -> P,
) -> Option<Committee<M>> {
    let Auth::Mined { elig, bit_specific, keychain } = auth else { return None };
    let never = |bit| -> BoxedProtocol<M> {
        let auth = Auth::Mined {
            elig: Arc::new(NeverMine(Arc::clone(elig))),
            bit_specific: *bit_specific,
            keychain: keychain.clone(),
        };
        Box::new(ghost(auth, bit))
    };
    let oracle = CommitteeOracle {
        n,
        bit_specific: *bit_specific,
        elig: Arc::clone(elig),
        tags: Box::new(tags),
        memo: HashMap::new(),
    };
    Some(Committee { ghosts: [never(false), never(true)], oracle: Box::new(oracle) })
}

/// Predicts each round's possible speakers for a lazy live set by probing
/// the eligibility backend's side-effect-free `would_mine` for every tag the
/// family's schedule names for the round. Committees are memoized per
/// probed tag, so each tag costs one `O(n)` probe sweep over the whole run.
struct CommitteeOracle {
    n: usize,
    /// Mirrors [`Auth::Mined`]'s flag: shared committees probe the
    /// bit-erased tag, exactly as `attest` mines it.
    bit_specific: bool,
    elig: Arc<dyn Eligibility>,
    tags: Box<dyn Fn(u64) -> Vec<MineTag> + Send>,
    memo: HashMap<MineTag, Vec<NodeId>>,
}

impl ActivationOracle for CommitteeOracle {
    fn candidates(&mut self, round: Round) -> Vec<NodeId> {
        let mut out = Vec::new();
        for tag in (self.tags)(round.0) {
            let probe = if self.bit_specific { tag } else { tag.sharedized() };
            let (n, elig) = (self.n, &self.elig);
            out.extend_from_slice(self.memo.entry(probe).or_insert_with(|| {
                (0..n).map(NodeId).filter(|&i| elig.would_mine(i, &probe)).collect()
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_fmine::{Keychain, SigMode};

    /// Real signatures, so a forged or replayed evidence is a signature that
    /// fails to verify rather than a missing registry entry.
    fn rules(n: usize, quorum: usize, encoding: CertEncoding) -> QuorumRules {
        let auth = Auth::Signed { keychain: Arc::new(Keychain::from_seed(7, n, SigMode::Real)) };
        QuorumRules::new(&auth, quorum, encoding)
    }

    fn attest(rules: &QuorumRules, node: usize, kind: MsgKind, view: u64, bit: Bit) -> Evidence {
        rules.auth.attest(NodeId(node), &MineTag::new(kind, view, bit)).expect("signed regime")
    }

    fn votes(rules: &QuorumRules, view: u64, bit: Bit, voters: &[usize]) -> Vec<VoteRef> {
        let vote = |&i| VoteRef { from: NodeId(i), ev: attest(rules, i, MsgKind::Vote, view, bit) };
        voters.iter().map(vote).collect()
    }

    #[test]
    fn view_slot_mapping() {
        assert_eq!(view_slot(0), (1, Slot::Open));
        assert_eq!(view_slot(1), (1, Slot::Propose));
        assert_eq!(view_slot(4), (1, Slot::CommitVote));
        assert_eq!(view_slot(5), (2, Slot::Open));
    }

    #[test]
    fn pool_counts_only_distinct_genuine_attesters_of_the_view() {
        use MsgKind::{Commit, Vote};
        let rules = rules(5, 3, CertEncoding::Vector);
        // Each row presents evidence signed by `signer` over `signed` as
        // `sender`'s vote for `claimed`; `tally` is the (Vote, 2, 1) count
        // afterwards. Only rows 1, 8 and 9 may move it.
        #[rustfmt::skip]
        let rows = [
            ("genuine vote",                0, (2, true), 0, (Vote, 2, true),   1),
            ("duplicate sender",            0, (2, true), 0, (Vote, 2, true),   1),
            ("vote for another view",       1, (3, true), 1, (Vote, 3, true),   1),
            ("replayed from an older view", 1, (2, true), 1, (Vote, 1, true),   1),
            ("replayed from the other bit", 1, (2, true), 1, (Vote, 2, false),  1),
            ("a commit passed off as vote", 1, (2, true), 1, (Commit, 2, true), 1),
            ("forged: another node's sig",  2, (2, true), 3, (Vote, 2, true),   1),
            ("second genuine voter",        1, (2, true), 1, (Vote, 2, true),   2),
            ("third genuine voter",         2, (2, true), 2, (Vote, 2, true),   3),
        ];
        let (mut pool, mut counted) = (Pool::default(), Pool::default());
        for (label, sender, (view, bit), signer, (kind, sv, sb), tally) in rows {
            if tally == 3 {
                assert!(pool.sorted_quorum_prefix(2, true, 3).is_none(), "quorum before {label}");
            }
            let ev = attest(&rules, signer, kind, sv, sb);
            pool.admit(&rules.auth, (Vote, view, bit), NodeId(sender), &ev);
            counted.admit_count(&rules.auth, (Vote, view, bit), NodeId(sender), &ev);
            assert_eq!(pool.count(2, true), tally, "{label}");
            assert_eq!(counted.count(2, true), tally, "{label} (count only)");
        }
        let quorum = pool.sorted_quorum_prefix(2, true, 3).expect("three genuine voters");
        assert_eq!(quorum.iter().map(|r| r.from.index()).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(pool.count(3, true), 1, "the view-3 vote sits under its own key");
        assert!(counted.sorted_quorum_prefix(2, true, 3).is_none(), "no evidence was kept");
        assert_eq!(pool.first_quorum(3, |view| view == 2), Some((2, true)));
        assert_eq!(pool.first_quorum(3, |view| view == 3), None);
    }

    #[test]
    fn sorted_prefix_certificate_is_independent_of_arrival_order() {
        for encoding in [CertEncoding::Vector, CertEncoding::Aggregate] {
            let rules = rules(5, 3, encoding);
            let all = votes(&rules, 4, true, &[0, 1, 2, 3, 4]);
            let certify = |order: [usize; 5]| {
                let mut pool = Pool::default();
                for i in order {
                    pool.insert(4, true, all[i].from, &all[i].ev);
                }
                let prefix = pool.sorted_quorum_prefix(4, true, 3).expect("five votes");
                rules.certificate(4, true, prefix)
            };
            let reference = certify([0, 1, 2, 3, 4]);
            assert!(reference.verify(&rules.auth, 3), "{encoding}");
            assert_eq!(
                matches!(reference.body, CertBody::Aggregate(_)),
                encoding != CertEncoding::Vector
            );
            for order in [[4, 3, 2, 1, 0], [2, 4, 0, 3, 1], [3, 0, 4, 1, 2]] {
                assert_eq!(certify(order), reference, "{encoding}: arrival order {order:?}");
            }
        }
    }

    #[test]
    fn ledger_keeps_the_highest_verified_certificate_per_bit() {
        let rules = rules(5, 3, CertEncoding::Vector);
        let cert = |iter, bit, voters: &[usize]| {
            Certificate::from_votes(iter, bit, votes(&rules, iter, bit, voters))
        };
        let mut ledger = Ledger::default();
        assert!(ledger.best().is_none() && ledger.top_rank() == 0);
        assert!(ledger.adopt(&cert(2, true, &[0, 1, 2]), &rules));
        assert_eq!(ledger.rank(true), 2);
        // Valid but lower-ranked: verified, never displaces.
        assert!(ledger.adopt(&cert(1, true, &[1, 2, 3]), &rules));
        assert_eq!(ledger.rank(true), 2);
        ledger.install(cert(1, true, &[1, 2, 3]));
        assert_eq!(ledger.rank(true), 2);
        // Higher-ranked but unverifiable: short of a quorum, padded with a
        // duplicate, or carrying a vote signed for the other bit.
        let short = cert(9, true, &[0, 1]);
        let padded = cert(9, true, &[0, 1, 0]);
        let mut mixed = votes(&rules, 9, true, &[0, 1]);
        mixed.extend(votes(&rules, 9, false, &[2]));
        for (label, bad) in [
            ("short", short),
            ("padded", padded),
            ("mixed", Certificate::from_votes(9, true, mixed)),
        ] {
            assert!(!ledger.adopt(&bad, &rules), "{label}");
            assert_eq!(ledger.top_rank(), 2, "{label}");
        }
        // Ties prefer bit 1; a strictly higher bit-0 certificate wins.
        assert!(ledger.adopt(&cert(2, false, &[2, 3, 4]), &rules));
        assert!(ledger.best().is_some_and(|c| c.bit && c.iter == 2));
        assert!(ledger.adopt(&cert(3, false, &[2, 3, 4]), &rules));
        assert!(ledger.best().is_some_and(|c| !c.bit && c.iter == 3));
        assert_eq!((ledger.rank(true), ledger.top_rank()), (2, 3));
    }

    #[test]
    fn decide_relay_keeps_the_first_decision_and_relays_once() {
        let rules = rules(4, 2, CertEncoding::Vector);
        let commits = |view, bit| {
            let refs: Vec<VoteRef> = [0, 1]
                .map(|i| VoteRef {
                    from: NodeId(i),
                    ev: attest(&rules, i, MsgKind::Commit, view, bit),
                })
                .into();
            rules.commit_quorum(view, bit, &refs)
        };
        let mut relay = DecideRelay::default();
        let mut out: Outbox<TailMsg> = Outbox::new();
        let wrap = |view, bit, commits, ev| TailMsg::Decide { view, bit, commits, ev };
        assert!(!relay.finish(NodeId(3), &rules.auth, |_, _| None, wrap, &mut out));
        assert!(out.is_empty() && !relay.done());
        relay.decide(1, true, Some(commits(1, true)));
        relay.decide(2, false, Some(commits(2, false)));
        assert!(relay.finish(NodeId(3), &rules.auth, |_, _| None, wrap, &mut out));
        assert_eq!((relay.output(), relay.done()), (Some(true), true));
        let sends = out.take();
        assert_eq!(sends.len(), 1);
        let TailMsg::Decide { view, bit, commits: relayed, .. } = &sends[0].1 else {
            panic!("expected a Decide relay, got {:?}", sends[0].1);
        };
        assert_eq!((*view, *bit, relayed), (1, true, &commits(1, true)));
    }
}
