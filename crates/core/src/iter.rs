//! The iteration-based BA family (Appendix C of the paper) — the headline
//! construction.
//!
//! * **Quadratic** (C.1, after Abraham et al. \[1\]): `n = 2f + 1`, signed
//!   messages, a public random-leader oracle, quorum `f + 1`, expected O(1)
//!   iterations, `Θ(n)` multicasts per round.
//! * **Subquadratic** (C.2): the same machine compiled with `F_mine`/VRF
//!   **bit-specific** eligibility — quorum `λ/2`, leader self-election at
//!   difficulty `1/(2n)`, polylog multicasts, resilience `f < (1/2 − ε)n`,
//!   still expected O(1) iterations. This is Theorem 2's protocol.
//!
//! ## Iteration structure (4 synchronous rounds; iteration 1 skips the
//! first two)
//!
//! 1. **Status** — every (eligible) node reports its highest certified bit
//!    with the certificate attached.
//! 2. **Propose** — the leader picks the bit with the highest certificate it
//!    has seen (ties arbitrary; no certificate ranks lowest) and proposes it
//!    with the certificate attached.
//! 3. **Vote** — a node votes for the proposal `b` unless it knows a
//!    strictly higher certificate for `1 − b`. Votes attach the leader
//!    proposal that justifies them (footnote 11: the justification is *not*
//!    part of certificates). Iteration-1 votes are for the node's input and
//!    need no justification.
//! 4. **Commit** — on `quorum` iteration-`r` votes for `b` and **no**
//!    (justified) iteration-`r` vote for `1 − b`, commit `b` with the newly
//!    formed certificate attached.
//!
//! **Terminate** (any round): on `quorum` commits for the same `(r, b)`,
//! multicast `(Terminate, b)` carrying the commit quorum, output `b`, halt.
//! Receivers of a valid `Terminate` adopt, (conditionally) relay, output,
//! and halt in the next round.

use std::collections::HashMap;
use std::sync::Arc;

use ba_crypto::hmac::HmacDrbg;
use ba_fmine::{Eligibility, Keychain, MineTag, MsgKind};
use ba_sim::{
    Adversary, Bit, Incoming, Message, NodeId, Outbox, Problem, Protocol, Round, RunReport,
    SimConfig, Verdict,
};

use crate::auth::{Auth, Evidence};
use crate::cert::{CertBody, CertEncoding, Certificate, CommitQuorum};
use crate::kernel::{self, Budget, DecideRelay, Ledger, Pool, QuorumRules};
use crate::runnable::Runnable;

/// Reference to a leader proposal, attached to votes as justification.
#[derive(Clone, Debug, PartialEq)]
pub struct ProposalRef {
    /// The proposer.
    pub from: NodeId,
    /// Evidence for `(Propose, iter, bit)` (bit taken from the vote).
    pub ev: Evidence,
}

/// Messages of the iteration family.
#[derive(Clone, Debug, PartialEq)]
pub enum IterMsg {
    /// `(Status, r, b, C)` — highest certified bit so far (`None` = ⊥).
    Status {
        /// Iteration.
        iter: u64,
        /// Reported bit, `None` when the node has no certificate.
        bit: Option<Bit>,
        /// The certificate justifying `bit` (present iff `bit` is).
        cert: Option<Certificate>,
        /// Authorization evidence.
        ev: Evidence,
    },
    /// `(Propose, r, b)` with the highest certificate attached.
    Propose {
        /// Iteration.
        iter: u64,
        /// Proposed bit.
        bit: Bit,
        /// Highest certificate for `bit` (absent = iteration-0 rank).
        cert: Option<Certificate>,
        /// Authorization evidence.
        ev: Evidence,
    },
    /// `(Vote, r, b)` justified by a leader proposal (except iteration 1).
    Vote {
        /// Iteration.
        iter: u64,
        /// Voted bit.
        bit: Bit,
        /// The proposal justifying this vote (`None` only in iteration 1).
        just: Option<ProposalRef>,
        /// Authorization evidence.
        ev: Evidence,
    },
    /// `(Commit, r, b)` with the iteration-`r` certificate attached.
    Commit {
        /// Iteration.
        iter: u64,
        /// Committed bit.
        bit: Bit,
        /// The certificate formed from this iteration's votes.
        cert: Certificate,
        /// Authorization evidence.
        ev: Evidence,
    },
    /// `(Terminate, b)` with a quorum of commits attached.
    Terminate {
        /// Iteration whose commits are attached.
        iter: u64,
        /// Decided bit.
        bit: Bit,
        /// Quorum of commits for `(iter, bit)`, in the sender's encoding.
        commits: CommitQuorum,
        /// Authorization evidence for `(Terminate, b)`.
        ev: Evidence,
    },
}

impl Message for IterMsg {
    fn size_bits(&self) -> usize {
        let header = 8 + 64 + 2;
        match self {
            IterMsg::Status { ev, .. } | IterMsg::Propose { ev, .. } => {
                header + self.cert_bits() + ev.size_bits()
            }
            IterMsg::Vote { just, ev, .. } => {
                header + just.as_ref().map_or(0, |j| 32 + j.ev.size_bits()) + ev.size_bits()
            }
            IterMsg::Commit { ev, .. } | IterMsg::Terminate { ev, .. } => {
                header + self.cert_bits() + ev.size_bits()
            }
        }
    }

    /// The certificate share of the wire size: attached vote certificates
    /// and commit quorums. Vote justifications are *not* certificates
    /// (footnote 11) and don't count.
    fn cert_bits(&self) -> usize {
        match self {
            IterMsg::Status { cert, .. } | IterMsg::Propose { cert, .. } => {
                cert.as_ref().map_or(0, |c| c.size_bits())
            }
            IterMsg::Vote { .. } => 0,
            IterMsg::Commit { cert, .. } => cert.size_bits(),
            IterMsg::Terminate { commits, .. } => commits.size_bits(),
        }
    }
}

/// Leader election for the iteration family.
#[derive(Clone, Debug)]
pub enum IterLeaderMode {
    /// C.1's idealized oracle: a public random leader per iteration, derived
    /// from a shared seed (known to everyone, including the adversary).
    Oracle {
        /// The shared oracle seed.
        seed: u64,
    },
    /// C.2: private self-election by mining `(Propose, r, b)`.
    Mined,
}

/// Configuration of one iteration-family instance.
#[derive(Clone, Debug)]
pub struct IterConfig {
    /// Number of nodes.
    pub n: usize,
    /// Certificate/commit quorum (`f + 1` or `λ/2`).
    pub quorum: usize,
    /// Authentication regime.
    pub auth: Auth,
    /// Leader election mechanism.
    pub leader: IterLeaderMode,
    /// Iteration cap (liveness safety net; expected O(1) needed).
    pub max_iters: u64,
    /// Requested wire encoding for certificates and commit quorums. The
    /// encoding actually used is [`IterConfig::effective_cert_encoding`]:
    /// regimes that cannot aggregate fall back to the vector transcript.
    pub cert_encoding: CertEncoding,
}

impl IterConfig {
    /// Appendix C.1: quadratic, signed, `f < n/2`.
    pub fn quadratic_half(n: usize, keychain: Arc<Keychain>, leader_seed: u64) -> IterConfig {
        IterConfig {
            n,
            quorum: n / 2 + 1,
            auth: Auth::Signed { keychain },
            leader: IterLeaderMode::Oracle { seed: leader_seed },
            max_iters: 64,
            cert_encoding: CertEncoding::Vector,
        }
    }

    /// Appendix C.2: subquadratic with bit-specific eligibility (Theorem 2).
    pub fn subq_half(n: usize, elig: Arc<dyn Eligibility>) -> IterConfig {
        let lambda = elig.lambda();
        IterConfig {
            n,
            quorum: (lambda / 2.0).ceil() as usize,
            auth: Auth::Mined { elig, bit_specific: true, keychain: None },
            leader: IterLeaderMode::Mined,
            max_iters: 64,
            cert_encoding: CertEncoding::Vector,
        }
    }

    /// Requests a certificate encoding (builder style).
    pub fn with_cert_encoding(mut self, encoding: CertEncoding) -> IterConfig {
        self.cert_encoding = encoding;
        self
    }

    /// The encoding certificates are actually built with
    /// ([`Auth::effective_encoding`] of [`IterConfig::cert_encoding`]).
    pub fn effective_cert_encoding(&self) -> CertEncoding {
        self.auth.effective_encoding(self.cert_encoding)
    }

    /// The oracle's leader for `iter` (oracle mode only).
    pub fn oracle_leader(&self, iter: u64) -> Option<NodeId> {
        match &self.leader {
            IterLeaderMode::Oracle { seed } => {
                let mut material = [0u8; 16];
                material[..8].copy_from_slice(&seed.to_be_bytes());
                material[8..].copy_from_slice(&iter.to_be_bytes());
                let mut drbg = HmacDrbg::new(&material, b"iter-leader-oracle");
                Some(NodeId((drbg.next_u64() % self.n as u64) as usize))
            }
            IterLeaderMode::Mined => None,
        }
    }

    /// Whether `who` may propose in `iter`: only the oracle's leader, or
    /// anyone under mined self-election (eligibility decides).
    fn may_propose(&self, iter: u64, who: NodeId) -> bool {
        self.oracle_leader(iter).is_none_or(|leader| leader == who)
    }

    /// Synchronous rounds consumed by `max_iters` iterations.
    pub fn total_rounds(&self) -> u64 {
        2 + (self.max_iters.saturating_sub(1)) * 4 + 2
    }

    /// Whether this configuration can run over a lazy live set
    /// ([`ba_sim::population`]): speakers must be predictable by probing the eligibility
    /// backend, which requires mined (committee-subsampled) authentication
    /// and mined leader self-election. Signed regimes (everyone speaks every
    /// round) and the public-leader oracle (id-dependent schedule with full
    /// Status/Vote participation) run all-live.
    pub fn supports_sparse(&self) -> bool {
        matches!(self.leader, IterLeaderMode::Mined) && matches!(self.auth, Auth::Mined { .. })
    }
}

/// The round-to-phase schedule: iteration 1 runs Vote/Commit in rounds 0–1;
/// iterations `r >= 2` run Status/Propose/Vote/Commit in rounds
/// `2 + 4(r-2) .. 5 + 4(r-2)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Status,
    Propose,
    Vote,
    Commit,
}

fn schedule(round: u64) -> (u64, Phase) {
    if round < 2 {
        (1, if round == 0 { Phase::Vote } else { Phase::Commit })
    } else {
        let iter = 2 + (round - 2) / 4;
        let phase = match (round - 2) % 4 {
            0 => Phase::Status,
            1 => Phase::Propose,
            2 => Phase::Vote,
            _ => Phase::Commit,
        };
        (iter, phase)
    }
}

/// One node of the iteration protocol.
pub struct IterNode {
    cfg: IterConfig,
    id: NodeId,
    input: Bit,
    rules: QuorumRules,
    /// Highest verified certificate per bit.
    ledger: Ledger,
    /// Valid votes per `(iter, bit)`.
    votes: Pool,
    /// Valid commits per `(iter, bit)`.
    commits: Pool,
    /// Per-iteration highest proposal rank per bit, `None` = no proposal.
    proposals: HashMap<u64, [Option<u64>; 2]>,
    /// The proposal evidence to attach as vote justification.
    proposal_refs: HashMap<(u64, bool), ProposalRef>,
    coins: HmacDrbg,
    /// Decided once a commit quorum or Terminate message was observed.
    relay: DecideRelay,
}

impl IterNode {
    /// Creates a node with its input bit and per-node seed.
    pub fn new(cfg: IterConfig, id: NodeId, input: Bit, seed: u64) -> IterNode {
        IterNode {
            rules: QuorumRules::new(&cfg.auth, cfg.quorum, cfg.cert_encoding),
            cfg,
            id,
            input,
            ledger: Ledger::default(),
            votes: Pool::default(),
            commits: Pool::default(),
            proposals: HashMap::new(),
            proposal_refs: HashMap::new(),
            coins: HmacDrbg::new(&seed.to_be_bytes(), b"iter-coins"),
            relay: DecideRelay::default(),
        }
    }

    fn record_vote(&mut self, iter: u64, bit: Bit, from: NodeId, ev: &Evidence) {
        self.votes.insert(iter, bit, from, ev);
        // A quorum of votes IS a certificate — adopt it immediately.
        if self.ledger.rank(bit) < iter {
            if let Some(votes) = self.votes.sorted_quorum_prefix(iter, bit, self.rules.quorum) {
                self.ledger.install(self.rules.certificate(iter, bit, votes));
            }
        }
    }

    fn record_commit(&mut self, iter: u64, bit: Bit, from: NodeId, ev: &Evidence) {
        if self.commits.insert(iter, bit, from, ev) >= self.rules.quorum {
            self.relay.decide(iter, bit, None);
        }
    }

    /// Whether a vote's justification is acceptable.
    fn vote_justified(&self, iter: u64, bit: Bit, just: &Option<ProposalRef>) -> bool {
        if iter == 1 {
            return true; // iteration-1 votes are input votes
        }
        let Some(j) = just else { return false };
        if !self.cfg.may_propose(iter, j.from) {
            return false;
        }
        let tag = MineTag::new(MsgKind::Propose, iter, bit);
        self.rules.auth.verify(j.from, &tag, &j.ev)
    }

    /// Collects every authentication claim an inbox carries — top-level
    /// message evidence, certificate votes, commit quorums, and vote
    /// justifications — and verifies them in one [`Auth::verify_batch`]
    /// call. The per-message logic afterwards re-asks the same questions
    /// and hits the services' statement caches.
    fn batch_verify_inbox(&self, inbox: &[Incoming<IterMsg>]) {
        if !self.rules.auth.supports_batch() {
            return;
        }
        fn push_cert<'a>(claims: &mut Vec<(NodeId, MineTag, &'a Evidence)>, cert: &'a Certificate) {
            // Aggregate bodies carry no individual evidence; they verify
            // through their own fast path (one Straus check + claim cache).
            let CertBody::Vector(votes) = &cert.body else { return };
            let tag = MineTag::new(MsgKind::Vote, cert.iter, cert.bit);
            for v in votes {
                claims.push((v.from, tag, &v.ev));
            }
        }
        let mut claims: Vec<(NodeId, MineTag, &Evidence)> = Vec::new();
        for m in inbox {
            match &*m.msg {
                IterMsg::Status { iter, bit, cert, ev } => {
                    claims.push((m.from, kernel::status_tag(*iter, *bit), ev));
                    if let Some(c) = cert {
                        push_cert(&mut claims, c);
                    }
                }
                IterMsg::Propose { iter, bit, cert, ev } => {
                    claims.push((m.from, MineTag::new(MsgKind::Propose, *iter, *bit), ev));
                    if let Some(c) = cert {
                        push_cert(&mut claims, c);
                    }
                }
                IterMsg::Vote { iter, bit, just, ev } => {
                    claims.push((m.from, MineTag::new(MsgKind::Vote, *iter, *bit), ev));
                    if let Some(j) = just {
                        claims.push((j.from, MineTag::new(MsgKind::Propose, *iter, *bit), &j.ev));
                    }
                }
                IterMsg::Commit { iter, bit, cert, ev } => {
                    claims.push((m.from, MineTag::new(MsgKind::Commit, *iter, *bit), ev));
                    push_cert(&mut claims, cert);
                }
                IterMsg::Terminate { iter, bit, commits, ev } => {
                    claims.push((m.from, MineTag::terminate(*bit), ev));
                    if let CommitQuorum::Vector(refs) = commits {
                        let tag = MineTag::new(MsgKind::Commit, *iter, *bit);
                        for c in refs {
                            claims.push((c.from, tag, &c.ev));
                        }
                    }
                }
            }
        }
        let _ = self.rules.auth.verify_batch(&claims);
    }

    fn ingest(&mut self, inbox: &[Incoming<IterMsg>]) {
        self.batch_verify_inbox(inbox);
        for m in inbox {
            match &*m.msg {
                IterMsg::Status { iter, bit, cert, ev } => {
                    if !self.rules.auth.verify(m.from, &kernel::status_tag(*iter, *bit), ev) {
                        continue;
                    }
                    if let (Some(b), Some(c)) = (bit, cert) {
                        if c.bit == *b {
                            self.ledger.adopt(c, &self.rules);
                        }
                    }
                }
                IterMsg::Propose { iter, bit, cert, ev } => {
                    let tag = MineTag::new(MsgKind::Propose, *iter, *bit);
                    if !self.rules.auth.verify(m.from, &tag, ev) {
                        continue;
                    }
                    if !self.cfg.may_propose(*iter, m.from) {
                        continue;
                    }
                    // Rank of the attached certificate; it must certify the
                    // proposed bit and verify, else the proposal counts as
                    // rank 0 (which is still a valid certificate-less
                    // proposal).
                    let rank = match cert {
                        Some(c) if c.bit == *bit && self.ledger.adopt(c, &self.rules) => c.iter,
                        Some(_) => continue, // malformed attachment: drop
                        None => 0,
                    };
                    let entry = self.proposals.entry(*iter).or_insert([None, None]);
                    let slot = &mut entry[*bit as usize];
                    if slot.is_none_or(|old| old < rank) {
                        *slot = Some(rank);
                    }
                    self.proposal_refs
                        .entry((*iter, *bit))
                        .or_insert_with(|| ProposalRef { from: m.from, ev: ev.clone() });
                }
                IterMsg::Vote { iter, bit, just, ev } => {
                    let tag = MineTag::new(MsgKind::Vote, *iter, *bit);
                    if !self.rules.auth.verify(m.from, &tag, ev) {
                        continue;
                    }
                    if !self.vote_justified(*iter, *bit, just) {
                        continue;
                    }
                    self.record_vote(*iter, *bit, m.from, ev);
                }
                IterMsg::Commit { iter, bit, cert, ev } => {
                    let tag = MineTag::new(MsgKind::Commit, *iter, *bit);
                    if !self.rules.auth.verify(m.from, &tag, ev) {
                        continue;
                    }
                    if (cert.iter, cert.bit) != (*iter, *bit)
                        || !self.ledger.adopt(cert, &self.rules)
                    {
                        continue;
                    }
                    self.record_commit(*iter, *bit, m.from, ev);
                }
                IterMsg::Terminate { iter, bit, commits, ev } => {
                    let tag = MineTag::terminate(*bit);
                    if !self.rules.auth.verify(m.from, &tag, ev) {
                        continue;
                    }
                    if !commits.verify(*iter, *bit, &self.rules.auth, self.rules.quorum) {
                        continue;
                    }
                    match commits {
                        CommitQuorum::Vector(refs) => {
                            for c in refs {
                                self.record_commit(*iter, *bit, c.from, &c.ev);
                            }
                            self.relay.decide(*iter, *bit, None);
                        }
                        // No individual evidence to record; the verified
                        // quorum rides with the decision for relaying.
                        CommitQuorum::Aggregate(_) => {
                            self.relay.decide(*iter, *bit, Some(commits.clone()));
                        }
                    }
                }
            }
        }
    }

    /// On a decision: emits `(Terminate, b)` with a commit quorum rebuilt
    /// from this node's own pool, outputs, and halts. An aggregate-encoded
    /// Terminate carried no individual commit evidence to rebuild from, so
    /// its verified quorum is relayed as received. (Under vector encoding
    /// ingesting a Terminate records its commits, so the pool always holds
    /// a quorum.)
    fn finish(&mut self, out: &mut Outbox<IterMsg>) -> bool {
        let (rules, pool) = (&self.rules, &mut self.commits);
        let rebuild = |iter, bit| {
            let commits = pool.sorted_quorum_prefix(iter, bit, rules.quorum)?;
            Some(rules.commit_quorum(iter, bit, commits))
        };
        let terminate = |iter, bit, commits, ev| IterMsg::Terminate { iter, bit, commits, ev };
        self.relay.finish(self.id, &rules.auth, rebuild, terminate, out)
    }
}

impl Protocol<IterMsg> for IterNode {
    fn step(&mut self, round: Round, inbox: &[Incoming<IterMsg>], out: &mut Outbox<IterMsg>) {
        if self.relay.done() {
            return;
        }
        self.ingest(inbox);
        if self.finish(out) {
            return;
        }
        let (iter, phase) = schedule(round.0);
        if iter > self.cfg.max_iters {
            return; // out of schedule; non-termination will be reported
        }
        match phase {
            Phase::Status => {
                let cert = self.ledger.best().cloned();
                let bit = cert.as_ref().map(|c| c.bit);
                if let Some(ev) = self.rules.auth.attest(self.id, &kernel::status_tag(iter, bit)) {
                    out.multicast(IterMsg::Status { iter, bit, cert, ev });
                }
            }
            Phase::Propose => {
                if !self.cfg.may_propose(iter, self.id) {
                    return;
                }
                let cert = self.ledger.best().cloned();
                let bit = match &cert {
                    Some(c) => c.bit,
                    None => self.coins.next_byte() & 1 == 1,
                };
                let tag = MineTag::new(MsgKind::Propose, iter, bit);
                if let Some(ev) = self.rules.auth.attest(self.id, &tag) {
                    out.multicast(IterMsg::Propose { iter, bit, cert, ev });
                }
            }
            Phase::Vote => {
                let (bit, just) = if iter == 1 {
                    (Some(self.input), None)
                } else {
                    let ranks = self.proposals.get(&iter).copied().unwrap_or([None, None]);
                    match ranks {
                        [Some(rank), None] if rank >= self.ledger.rank(true) => {
                            (Some(false), self.proposal_refs.get(&(iter, false)).cloned())
                        }
                        [None, Some(rank)] if rank >= self.ledger.rank(false) => {
                            (Some(true), self.proposal_refs.get(&(iter, true)).cloned())
                        }
                        // No valid proposal, conflicting proposals, or a
                        // proposal losing to a higher opposite certificate:
                        // abstain.
                        _ => (None, None),
                    }
                };
                if let Some(b) = bit {
                    if iter > 1 && just.is_none() {
                        return; // cannot justify the vote; abstain
                    }
                    let tag = MineTag::new(MsgKind::Vote, iter, b);
                    if let Some(ev) = self.rules.auth.attest(self.id, &tag) {
                        // Record our own vote so our commit tally sees it.
                        self.record_vote(iter, b, self.id, &ev);
                        out.multicast(IterMsg::Vote { iter, bit: b, just, ev });
                    }
                }
            }
            Phase::Commit => {
                for bit in [false, true] {
                    if self.votes.count(iter, !bit) > 0 {
                        continue;
                    }
                    // Build the iteration-r certificate from the vote pool
                    // (the ledger may hold a higher-ranked one).
                    let quorum = self.rules.quorum;
                    let Some(votes) = self.votes.sorted_quorum_prefix(iter, bit, quorum) else {
                        continue;
                    };
                    let cert = self.rules.certificate(iter, bit, votes);
                    let tag = MineTag::new(MsgKind::Commit, iter, bit);
                    if let Some(ev) = self.rules.auth.attest(self.id, &tag) {
                        self.record_commit(iter, bit, self.id, &ev);
                        out.multicast(IterMsg::Commit { iter, bit, cert, ev });
                    }
                    break;
                }
            }
        }
    }

    fn output(&self) -> Option<Bit> {
        self.relay.output()
    }

    fn halted(&self) -> bool {
        self.relay.done()
    }
}

/// Every tag `round`'s schedule lets a node attest — plus the Terminate
/// tags, which `finish` can fire in **any** round once a node decides. The
/// lazy live set's committee oracle probes exactly these.
fn round_tags(round: u64, max_iters: u64) -> Vec<MineTag> {
    let mut tags = vec![MineTag::terminate(false), MineTag::terminate(true)];
    let (iter, phase) = schedule(round);
    if iter <= max_iters {
        let kind = match phase {
            Phase::Status => {
                tags.push(MineTag::bot(MsgKind::Status, iter));
                MsgKind::Status
            }
            Phase::Propose => MsgKind::Propose,
            Phase::Vote => MsgKind::Vote,
            Phase::Commit => MsgKind::Commit,
        };
        tags.extend([MineTag::new(kind, iter, false), MineTag::new(kind, iter, true)]);
    }
    tags
}

/// Runs one execution of an iteration-family protocol and evaluates the
/// agreement verdict. Honors [`SimConfig::population`]: sparse-capable
/// configurations ([`IterConfig::supports_sparse`]) may run over a lazy live
/// set (byte-identical report, see [`ba_sim::Sim::run_population`]); others
/// silently run all-live.
pub fn run<A: Adversary<IterMsg> + Send>(
    cfg: &IterConfig,
    sim: &SimConfig,
    inputs: Vec<Bit>,
    adversary: A,
) -> (RunReport, Verdict) {
    let (n, max_iters) = (cfg.n, cfg.max_iters);
    // A ghost's seed only feeds the leader-coin DRBG, which a non-candidate
    // never exposes.
    let ghost = |auth, bit| IterNode::new(IterConfig { auth, ..cfg.clone() }, NodeId(n), bit, 0);
    let sparse = if cfg.supports_sparse() {
        kernel::committees(&cfg.auth, n, move |round| round_tags(round, max_iters), ghost)
    } else {
        None
    };
    let budget = Budget::Cap(cfg.total_rounds() + 2);
    let cfg = cfg.clone();
    let node = move |id, input, seed| IterNode::new(cfg.clone(), id, input, seed);
    kernel::run(sim, budget, Problem::Agreement, inputs, adversary, node, sparse)
}

/// Packages one iteration-family execution as a thread-dispatchable
/// [`Runnable`] (the uniform constructor sweep harnesses dispatch over).
pub fn runnable<A: Adversary<IterMsg> + Send + 'static>(
    cfg: &IterConfig,
    inputs: Vec<Bit>,
    adversary: A,
) -> Runnable {
    let cfg = cfg.clone();
    Runnable::new(move |sim| run(&cfg, sim, inputs, adversary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_fmine::{IdealMine, MineParams, SigMode};
    use ba_sim::{CorruptionModel, Passive, PopulationMode};

    fn quad_cfg(n: usize, seed: u64) -> IterConfig {
        IterConfig::quadratic_half(n, Arc::new(Keychain::from_seed(seed, n, SigMode::Ideal)), seed)
    }

    fn subq_cfg(n: usize, lambda: f64, seed: u64) -> IterConfig {
        IterConfig::subq_half(n, Arc::new(IdealMine::new(seed, MineParams::new(n, lambda))))
    }

    #[test]
    fn schedule_mapping() {
        assert_eq!(schedule(0), (1, Phase::Vote));
        assert_eq!(schedule(1), (1, Phase::Commit));
        assert_eq!(schedule(2), (2, Phase::Status));
        assert_eq!(schedule(3), (2, Phase::Propose));
        assert_eq!(schedule(4), (2, Phase::Vote));
        assert_eq!(schedule(5), (2, Phase::Commit));
        assert_eq!(schedule(6), (3, Phase::Status));
    }

    #[test]
    fn step_counts_votes_through_the_shared_pool() {
        // n = 5, quorum 3. Node 0 votes for its input in round 0; round 1's
        // inbox then carries node 1's vote three times and node 2's vote
        // signed under iteration 2's statement. Two distinct voters: no
        // commit. One more genuine voter: the commit carries the sorted
        // quorum as its certificate.
        let cfg = quad_cfg(5, 1);
        let vote = |from: usize, claimed: u64, signed: u64| {
            let tag = MineTag::new(MsgKind::Vote, signed, true);
            let ev = cfg.auth.attest(NodeId(from), &tag).expect("signed regime always attests");
            Incoming::new(NodeId(from), IterMsg::Vote { iter: claimed, bit: true, just: None, ev })
        };
        let commit_after = |inbox: &[Incoming<IterMsg>]| {
            let mut node = IterNode::new(cfg.clone(), NodeId(0), true, 0);
            let mut out = Outbox::new();
            node.step(Round(0), &[], &mut out);
            assert!(matches!(out.take()[..], [(_, IterMsg::Vote { iter: 1, bit: true, .. })]));
            node.step(Round(1), inbox, &mut out);
            out.take().pop()
        };
        let stale = [vote(1, 1, 1), vote(1, 1, 1), vote(1, 1, 1), vote(2, 1, 2)];
        assert!(commit_after(&stale).is_none(), "duplicates and replays must not reach quorum");
        let mut genuine = stale.to_vec();
        genuine.push(vote(4, 1, 1));
        let Some((_, IterMsg::Commit { iter: 1, bit: true, cert, .. })) = commit_after(&genuine)
        else {
            panic!("a genuine quorum must commit");
        };
        let CertBody::Vector(votes) = &cert.body else { panic!("vector encoding") };
        assert_eq!(votes.iter().map(|v| v.from.index()).collect::<Vec<_>>(), [0, 1, 4]);
        assert!(cert.verify(&cfg.auth, cfg.quorum));
    }

    #[test]
    fn quadratic_validity_unanimous() {
        for bit in [false, true] {
            let cfg = quad_cfg(7, 1);
            let sim = SimConfig::new(7, 0, CorruptionModel::Static, 1);
            let (report, verdict) = run(&cfg, &sim, vec![bit; 7], Passive);
            assert!(verdict.all_ok(), "bit={bit}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(bit)));
            // Unanimous inputs decide in iteration 1: vote round 0, commit
            // round 1, terminate by round ~3.
            assert!(report.rounds_used <= 5, "rounds={}", report.rounds_used);
        }
    }

    #[test]
    fn quadratic_consistency_mixed_inputs() {
        for seed in 0..10 {
            let cfg = quad_cfg(9, seed);
            let sim = SimConfig::new(9, 0, CorruptionModel::Static, seed);
            let inputs: Vec<Bit> = (0..9).map(|i| i % 2 == 0).collect();
            let (report, verdict) = run(&cfg, &sim, inputs, Passive);
            assert!(verdict.all_ok(), "seed={seed}: {verdict:?}");
            // All honest leaders: termination within a few iterations.
            assert!(report.rounds_used < 20, "seed={seed} rounds={}", report.rounds_used);
        }
    }

    #[test]
    fn subq_validity_unanimous() {
        for seed in 0..5 {
            let cfg = subq_cfg(80, 24.0, seed);
            let sim = SimConfig::new(80, 0, CorruptionModel::Static, seed);
            let (report, verdict) = run(&cfg, &sim, vec![true; 80], Passive);
            assert!(verdict.all_ok(), "seed={seed}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(true)), "seed={seed}");
        }
    }

    #[test]
    fn subq_consistency_mixed_inputs() {
        let mut ok = 0;
        for seed in 0..10 {
            let cfg = subq_cfg(80, 24.0, seed);
            let sim = SimConfig::new(80, 0, CorruptionModel::Static, seed);
            let inputs: Vec<Bit> = (0..80).map(|i| i < 40).collect();
            let (_report, verdict) = run(&cfg, &sim, inputs, Passive);
            if verdict.all_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 8, "only {ok}/10 mixed-input subq runs fully succeeded");
    }

    #[test]
    fn subq_multicasts_do_not_scale_with_n() {
        let lambda = 20.0;
        let count = |n: usize| -> u64 {
            let cfg = subq_cfg(n, lambda, 3);
            let sim = SimConfig::new(n, 0, CorruptionModel::Static, 3);
            let inputs: Vec<Bit> = (0..n).map(|i| i % 2 == 0).collect();
            let (report, verdict) = run(&cfg, &sim, inputs, Passive);
            assert!(verdict.consistent, "n={n}");
            report.metrics.honest_multicasts
        };
        let small = count(64);
        let large = count(512);
        let ratio = large as f64 / small as f64;
        assert!(
            ratio < 3.0,
            "multicasts should be ~n-independent: n=64 -> {small}, n=512 -> {large}"
        );
    }

    #[test]
    fn quadratic_has_linear_multicasts_per_round() {
        let cfg = quad_cfg(21, 2);
        let sim = SimConfig::new(21, 0, CorruptionModel::Static, 2);
        let (report, _) = run(&cfg, &sim, vec![true; 21], Passive);
        // Everyone votes in round 0: at least n multicasts in the run.
        assert!(report.metrics.honest_multicasts >= 21);
    }

    #[test]
    fn oracle_leader_is_deterministic_and_varies() {
        let cfg = quad_cfg(11, 5);
        let l1 = cfg.oracle_leader(1).unwrap();
        let l1b = cfg.oracle_leader(1).unwrap();
        assert_eq!(l1, l1b);
        let distinct: std::collections::HashSet<_> =
            (1..20).map(|r| cfg.oracle_leader(r).unwrap()).collect();
        assert!(distinct.len() > 3, "20 draws should hit several leaders");
        assert!(subq_cfg(8, 4.0, 0).oracle_leader(1).is_none());
    }

    #[test]
    fn sparse_subq_byte_identical_to_dense() {
        for seed in 0..4 {
            let cfg = subq_cfg(96, 24.0, seed);
            let inputs: Vec<Bit> = (0..96).map(|i| i % 3 != 0).collect();
            let dense_sim = SimConfig::new(96, 0, CorruptionModel::Static, seed);
            let sparse_sim = dense_sim.clone().with_population(PopulationMode::Sparse);
            let (dense, dv) = run(&cfg, &dense_sim, inputs.clone(), Passive);
            let (sparse, sv) = run(&cfg, &sparse_sim, inputs.clone(), Passive);
            assert_eq!(sparse, dense, "seed={seed}");
            assert_eq!(format!("{sv:?}"), format!("{dv:?}"), "seed={seed}");
        }
    }

    #[test]
    fn sparse_materializes_committees_not_population() {
        // The memory win needs lambda << n: with per-tag eligibility
        // probability 16/512, the union of all phase committees over a short
        // run stays well below n.
        let n = 512;
        let cfg = subq_cfg(n, 16.0, 5);
        let inputs = vec![true; n]; // unanimous: decides in iteration 1
        let sim = SimConfig::new(n, 0, CorruptionModel::Static, 5)
            .with_population(PopulationMode::Sparse);
        let (report, verdict) = run(&cfg, &sim, inputs, Passive);
        assert!(verdict.all_ok(), "{verdict:?}");
        assert!(
            report.metrics.peak_live_nodes < (n / 2) as u64,
            "peak_live={} should be far below n={n}",
            report.metrics.peak_live_nodes
        );
    }

    #[test]
    fn sparse_falls_back_to_dense_for_signed_regime() {
        let cfg = quad_cfg(9, 4);
        assert!(!cfg.supports_sparse());
        let dense_sim = SimConfig::new(9, 0, CorruptionModel::Static, 4);
        let sparse_sim = dense_sim.clone().with_population(PopulationMode::Sparse);
        let inputs: Vec<Bit> = (0..9).map(|i| i % 2 == 0).collect();
        let (dense, _) = run(&cfg, &dense_sim, inputs.clone(), Passive);
        let (fallback, _) = run(&cfg, &sparse_sim, inputs, Passive);
        assert_eq!(fallback, dense);
        // Dense fallback materializes everyone.
        assert_eq!(fallback.metrics.peak_live_nodes, 9);
    }

    #[test]
    fn expected_constant_iterations_quadratic() {
        // Mean termination round over seeds should be far below the cap —
        // the expected-O(1)-rounds claim (Corollary 16).
        let mut total_rounds = 0u64;
        let runs = 20;
        for seed in 0..runs {
            let cfg = quad_cfg(9, seed);
            let sim = SimConfig::new(9, 0, CorruptionModel::Static, seed);
            let inputs: Vec<Bit> = (0..9).map(|i| i % 3 == 0).collect();
            let (report, verdict) = run(&cfg, &sim, inputs, Passive);
            assert!(verdict.terminated, "seed={seed}");
            total_rounds += report.rounds_used;
        }
        let mean = total_rounds as f64 / runs as f64;
        assert!(mean < 16.0, "mean rounds {mean} should be small (expected O(1) iterations)");
    }
}
