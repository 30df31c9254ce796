//! The **certificate forger** — resilience-boundary attack for the
//! iteration family (experiment E4).
//!
//! A static adversary corrupting `f` nodes tries to fabricate, from corrupt
//! credentials alone, a full decision chain for the *wrong* bit: an
//! iteration-1 vote certificate, a commit quorum, and a `Terminate`
//! message, then delivers it to honest nodes.
//!
//! * Quadratic protocol (quorum `f* + 1 = ⌊n/2⌋ + 1`): the forgery needs
//!   `quorum ≤ f` — possible exactly when `f` reaches a majority. This is
//!   the `f < n/2` resilience bound.
//! * Subquadratic protocol (quorum `λ/2`): the forgery needs at least `λ/2`
//!   corrupt nodes eligible to vote *and* `λ/2` eligible to commit for the
//!   target bit. By the Chernoff argument of Lemma 11 this has probability
//!   `exp(−Ω(ε²λ))` when `f ≤ (1/2 − ε)n` and probability `Ω(1)` once
//!   `f/n` crosses 1/2 — the measured success rate traces the resilience
//!   threshold.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ba_core::auth::Auth;
use ba_core::cert::{
    AggregateQuorum, CertBody, CertEncoding, Certificate, CommitQuorum, CommitRef, VoteRef,
};
use ba_core::iter::IterMsg;
use ba_fmine::{MineTag, MsgKind};
use ba_sim::{AdvCtx, Adversary, Bit, NodeId, Recipient};

/// Shared counters for the adversary's *aggregate-forgery* side channel:
/// certificate shapes that only exist under the aggregate encoding (inflated
/// bitmaps, duplicate signers, cross-statement aggregates). Every attempt is
/// checked against the protocol's own verifier **locally** — a rejected
/// forgery is never sent, so the attack leaves the honest transcript
/// untouched and the counters are pure diagnostics.
#[derive(Default, Debug)]
pub struct ForgeStats {
    attempts: AtomicU64,
    blocked: AtomicU64,
}

impl ForgeStats {
    /// Aggregate-forgery shapes tried so far.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Attempts the verifier rejected. Soundness of the aggregate encoding
    /// means this always equals [`ForgeStats::attempts`].
    pub fn blocked(&self) -> u64 {
        self.blocked.load(Ordering::Relaxed)
    }

    fn record(&self, rejected: bool) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        if rejected {
            self.blocked.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// How the forged `Terminate` is delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Delivery {
    /// Multicast to everyone (aims at a validity violation).
    All,
    /// Unicast to the odd-indexed honest nodes only (aims at a consistency
    /// violation).
    HalfHonest,
}

/// Static certificate-forging adversary (see module docs).
#[derive(Clone, Debug)]
pub struct CertForger {
    /// Nodes to corrupt at setup.
    pub corrupt: Vec<NodeId>,
    /// The bit to force (experiments run honest inputs `= !target`).
    pub target: Bit,
    /// Vote/commit quorum of the attacked protocol.
    pub quorum: usize,
    /// Delivery strategy.
    pub delivery: Delivery,
    /// Authentication services (shared with the protocol).
    pub auth: Auth,
    /// Certificate encoding the attacked protocol runs under; the forged
    /// `Terminate` mimics it so the forgery is indistinguishable from an
    /// honest message of the same run.
    pub encoding: CertEncoding,
    /// Statistics: whether the full chain was forged.
    pub forged: bool,
    /// Aggregate-forgery attempt counters (see [`ForgeStats`]).
    pub stats: Arc<ForgeStats>,
}

impl CertForger {
    /// Creates the adversary corrupting the `f` highest-numbered nodes.
    pub fn new(n: usize, f: usize, target: Bit, quorum: usize, auth: Auth) -> CertForger {
        CertForger {
            corrupt: (n - f..n).map(NodeId).collect(),
            target,
            quorum,
            delivery: Delivery::All,
            auth,
            encoding: CertEncoding::Vector,
            forged: false,
            stats: Arc::new(ForgeStats::default()),
        }
    }

    /// Switches to split delivery (consistency attack).
    pub fn with_split_delivery(mut self) -> CertForger {
        self.delivery = Delivery::HalfHonest;
        self
    }

    /// Selects the certificate encoding to mimic.
    pub fn with_encoding(mut self, encoding: CertEncoding) -> CertForger {
        self.encoding = encoding;
        self
    }

    /// A clone of the forgery-statistics handle (survives moving the
    /// adversary into an execution).
    pub fn stats(&self) -> Arc<ForgeStats> {
        self.stats.clone()
    }

    /// Aggregates the corrupt nodes' own (valid) commit evidence — the
    /// starting material for the forgery shapes below, and the quorum body
    /// of the forged `Terminate` when the protocol runs aggregate-encoded.
    fn aggregate_commits(&self, tag: &MineTag, refs: &[CommitRef]) -> Option<AggregateQuorum> {
        let mut sorted = refs.to_vec();
        sorted.sort_by_key(|r| r.from);
        self.auth.aggregate_quorum(tag, &sorted)
    }

    /// Tries the certificate shapes that only the aggregate encoding could
    /// even express, checking each against [`Auth::verify_aggregate`]
    /// locally. Nothing here is ever injected: a sound verifier rejects all
    /// of them, and sending a rejected message would only perturb the
    /// corrupt-traffic observables.
    fn attempt_aggregate_forgeries(&self, iter: u64, bit: Bit, commits: &[CommitRef]) {
        if commits.is_empty() {
            return;
        }
        let tag = MineTag::new(MsgKind::Commit, iter, bit);
        let Some(base) = self.aggregate_commits(&tag, commits) else {
            return; // regime has no aggregation; nothing to forge
        };

        // Bitmap inflation: keep the honest aggregate but claim one extra
        // signer that never signed. Padding the bitmap is free — if this
        // verified, quorum counting under aggregation would be meaningless.
        let extra = (0..base.n).map(NodeId).find(|id| !base.signers.contains(id));
        if let Some(extra) = extra {
            let mut signers = base.signers.clone();
            signers.push(extra);
            signers.sort_by_key(|id| id.0);
            let inflated = AggregateQuorum { n: base.n, signers, agg: base.agg };
            self.stats.record(!self.auth.verify_aggregate(&tag, &inflated));
        }

        // Duplicate signer: list the same signer twice to double-count it
        // toward the quorum.
        let mut signers = base.signers.clone();
        signers.insert(0, signers[0]);
        let duplicated = AggregateQuorum { n: base.n, signers, agg: base.agg };
        self.stats.record(!self.auth.verify_aggregate(&tag, &duplicated));

        // Mixed statement: a perfectly valid aggregate — over *this*
        // iteration's commit statement — replayed as a commit quorum for
        // the next iteration, which none of the signers ever signed. The
        // signatures are real; only the statement is swapped.
        let next_tag = MineTag::new(MsgKind::Commit, iter + 1, bit);
        self.stats.record(!self.auth.verify_aggregate(&next_tag, &base));
    }
}

impl Adversary<IterMsg> for CertForger {
    fn setup(&mut self, ctx: &mut AdvCtx<'_, IterMsg>) {
        for &node in &self.corrupt {
            ctx.corrupt(node).expect("corrupt set exceeds budget");
        }
    }

    fn intervene(&mut self, ctx: &mut AdvCtx<'_, IterMsg>) {
        if ctx.round().0 != 0 || self.forged {
            return; // forge against iteration 1, whose votes need no
                    // leader-proposal justification
        }
        let iter = 1u64;
        let bit = self.target;

        // 1. Vote certificate from corrupt credentials.
        let vote_tag = MineTag::new(MsgKind::Vote, iter, bit);
        let mut votes: Vec<VoteRef> = Vec::new();
        for &node in &self.corrupt {
            if votes.len() >= self.quorum {
                break;
            }
            if let Some(ev) = self.auth.attest(node, &vote_tag) {
                votes.push(VoteRef { from: node, ev });
            }
        }
        // 2. Commit quorum (gathered before the quorum bail-outs so the
        // local aggregate-forgery probes run even when Lemma 11 holds and
        // the chain itself cannot be completed).
        let commit_tag = MineTag::new(MsgKind::Commit, iter, bit);
        let mut commits: Vec<CommitRef> = Vec::new();
        for &node in &self.corrupt {
            if commits.len() >= self.quorum {
                break;
            }
            if let Some(ev) = self.auth.attest(node, &commit_tag) {
                commits.push(CommitRef { from: node, ev });
            }
        }
        self.attempt_aggregate_forgeries(iter, bit, &commits);

        if votes.len() < self.quorum {
            return; // Lemma 11 held: not enough corrupt eligible voters
        }
        let cert = Certificate { iter, bit, body: CertBody::Vector(votes) };
        if commits.len() < self.quorum {
            return;
        }

        // 3. A terminate-eligible corrupt node to front the message.
        let term_tag = MineTag::terminate(bit);
        let Some((speaker, term_ev)) = self
            .corrupt
            .iter()
            .find_map(|&node| self.auth.attest(node, &term_tag).map(|ev| (node, ev)))
        else {
            return;
        };

        let quorum_body = if self.encoding == CertEncoding::Aggregate {
            self.aggregate_commits(&commit_tag, &commits)
                .map(CommitQuorum::Aggregate)
                .unwrap_or(CommitQuorum::Vector(commits))
        } else {
            CommitQuorum::Vector(commits)
        };
        let msg = IterMsg::Terminate { iter, bit, commits: quorum_body, ev: term_ev };
        let _ = cert; // the commit quorum alone decides; cert kept for clarity
        match self.delivery {
            Delivery::All => {
                ctx.inject(speaker, Recipient::All, msg).expect("speaker is corrupt");
            }
            Delivery::HalfHonest => {
                let n = ctx.n();
                for i in (0..n).filter(|i| i % 2 == 1) {
                    if !ctx.is_corrupt(NodeId(i)) {
                        ctx.inject(speaker, Recipient::One(NodeId(i)), msg.clone())
                            .expect("speaker is corrupt");
                    }
                }
            }
        }
        self.forged = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use ba_core::iter::{self, IterConfig};
    use ba_fmine::{IdealMine, Keychain, MineParams, SigMode};
    use ba_sim::{CorruptionModel, SimConfig};

    fn run_attack_quadratic(n: usize, f: usize, seed: u64) -> bool {
        run_attack_quadratic_enc(n, f, seed, SigMode::Ideal, CertEncoding::Vector).0
    }

    fn run_attack_quadratic_enc(
        n: usize,
        f: usize,
        seed: u64,
        sig_mode: SigMode,
        encoding: CertEncoding,
    ) -> (bool, Arc<ForgeStats>) {
        let kc = Arc::new(Keychain::from_seed(seed, n, sig_mode));
        let cfg = IterConfig::quadratic_half(n, kc, seed).with_cert_encoding(encoding);
        let adv = CertForger::new(n, f, true, cfg.quorum, cfg.auth.clone()).with_encoding(encoding);
        let stats = adv.stats();
        let sim = SimConfig::new(n, f, CorruptionModel::Static, seed);
        // Honest nodes all input 0; a validity violation means some honest
        // node output 1.
        let (_report, verdict) = iter::run(&cfg, &sim, vec![false; n], adv);
        (!verdict.all_ok(), stats)
    }

    fn run_attack_subq(n: usize, f: usize, lambda: f64, seed: u64) -> bool {
        let elig = Arc::new(IdealMine::new(seed, MineParams::new(n, lambda)));
        let cfg = IterConfig::subq_half(n, elig);
        let adv = CertForger::new(n, f, true, cfg.quorum, cfg.auth.clone());
        let sim = SimConfig::new(n, f, CorruptionModel::Static, seed);
        let (_report, verdict) = iter::run(&cfg, &sim, vec![false; n], adv);
        !verdict.all_ok()
    }

    #[test]
    fn quadratic_protocol_safe_below_majority() {
        // f = quorum - 1 = n/2: forging is impossible, the run stays clean.
        for seed in 0..3 {
            assert!(!run_attack_quadratic(9, 4, seed), "seed={seed}");
        }
    }

    #[test]
    fn quadratic_protocol_broken_at_majority() {
        // f = n/2 + 1 >= quorum: the forged terminate wins every time.
        for seed in 0..3 {
            assert!(run_attack_quadratic(9, 5, seed), "seed={seed}");
        }
    }

    #[test]
    fn subq_protocol_safe_at_low_corruption() {
        // f = n/4 << n/2: corrupt eligible voters << lambda/2.
        let n = 200;
        let mut wins = 0;
        for seed in 0..5 {
            if run_attack_subq(n, n / 4, 24.0, seed) {
                wins += 1;
            }
        }
        assert!(wins <= 1, "forgery should rarely succeed at f = n/4: wins={wins}");
    }

    #[test]
    fn subq_protocol_broken_beyond_half() {
        // f = 0.7n: expected corrupt eligible = 0.7*lambda >> lambda/2.
        let n = 200;
        let mut wins = 0;
        for seed in 0..5 {
            if run_attack_subq(n, 7 * n / 10, 24.0, seed) {
                wins += 1;
            }
        }
        assert!(wins >= 4, "forgery should usually succeed at f = 0.7n: wins={wins}");
    }

    #[test]
    fn aggregate_forgeries_all_blocked_under_ideal_signatures() {
        for seed in 0..3 {
            // Safe regime: the honest run is untouched, but the forger still
            // probes the aggregate verifier with every forged shape.
            let (broken, stats) =
                run_attack_quadratic_enc(9, 4, seed, SigMode::Ideal, CertEncoding::Aggregate);
            assert!(!broken, "seed={seed}");
            assert_eq!(stats.attempts(), 3, "seed={seed}");
            assert_eq!(stats.blocked(), 3, "all forged shapes must be rejected (seed={seed})");
        }
    }

    #[test]
    fn aggregate_forgeries_all_blocked_under_real_signatures() {
        let (broken, stats) =
            run_attack_quadratic_enc(9, 4, 0, SigMode::Real, CertEncoding::Aggregate);
        assert!(!broken);
        assert_eq!(stats.attempts(), 3);
        assert_eq!(stats.blocked(), 3, "real multi-signature verifier must reject all shapes");
    }

    #[test]
    fn aggregate_encoded_attack_matches_vector_outcome() {
        // The resilience boundary is an encoding-independent protocol fact:
        // the forged Terminate carries the corrupt nodes' own valid commit
        // credentials either way, so the attack lands (or fails)
        // identically under both encodings.
        for seed in 0..3 {
            for &(f, expect_broken) in &[(4usize, false), (5usize, true)] {
                let (vec_broken, _) =
                    run_attack_quadratic_enc(9, f, seed, SigMode::Ideal, CertEncoding::Vector);
                let (agg_broken, _) =
                    run_attack_quadratic_enc(9, f, seed, SigMode::Ideal, CertEncoding::Aggregate);
                assert_eq!(vec_broken, expect_broken, "vector f={f} seed={seed}");
                assert_eq!(agg_broken, expect_broken, "aggregate f={f} seed={seed}");
            }
        }
    }

    #[test]
    fn split_delivery_still_defeats_the_protocol() {
        let n = 9;
        let seed = 2;
        let kc = Arc::new(Keychain::from_seed(seed, n, SigMode::Ideal));
        let cfg = IterConfig::quadratic_half(n, kc, seed);
        let adv = CertForger::new(n, 5, true, cfg.quorum, cfg.auth.clone()).with_split_delivery();
        let sim = SimConfig::new(n, 5, CorruptionModel::Static, seed);
        let (report, verdict) = iter::run(&cfg, &sim, vec![false; n], adv);
        // The Terminate relay gadget heals the split: the targeted nodes
        // relay the forged terminate, so everyone converges on the forged
        // bit — consistency survives but validity is destroyed.
        assert!(!verdict.all_ok(), "{report:?}");
        assert!(!verdict.valid);
    }
}
