//! The epoch-based BA family (§3.1 and §3.2 of the paper).
//!
//! One state machine covers four instantiations that differ only in their
//! authentication regime and leader election:
//!
//! * **Warmup** (§3.1): every node speaks, signed messages, round-robin
//!   leader oracle, quorum `2n/3`, tolerates `< n/3` corruptions,
//!   `Θ(n)` multicasts per epoch.
//! * **Subquadratic, bit-specific** (§3.2): conditional multicast through
//!   `F_mine`/VRF with **bit-specific** tags, quorum `2λ/3`, leader
//!   self-election at difficulty `1/(2n)` — the paper's construction.
//! * **Subquadratic, shared committee**: the same protocol with
//!   non-bit-specific election — the configuration the Remark in §3.3
//!   proves insecure (experiment E8 demonstrates the attack).
//! * **Chen–Micali strawman**: shared committee + forward-secure
//!   signatures; secure only in the memory-erasure model.
//!
//! ## Protocol (each epoch `r`, two synchronous rounds)
//!
//! 1. *Propose*: the epoch's leader (oracle or self-elected) flips a random
//!    coin `b` and multicasts `(Propose, r, b)`.
//! 2. *Ack*: every node sets `b* := b_i` if its sticky flag is set or no
//!    valid proposal arrived, else `b* :=` the proposal; it then
//!    (conditionally) multicasts `(Ack, r, b*)`.
//! 3. On tallying the epoch's acks at the start of the next epoch: if at
//!    least `quorum` distinct-sender acks vouch for the same `b*`, set
//!    `b_i := b*` and the sticky flag; else clear the sticky flag. (If —
//!    which happens only under attack — *both* bits reach quorum, the node
//!    keeps its current belief with the sticky flag set.)
//!
//! After `R` epochs every node outputs the bit it last acked (its final
//! `b*`).

use std::sync::Arc;

use ba_crypto::hmac::HmacDrbg;
use ba_fmine::{Eligibility, Keychain, MineTag, MsgKind};
use ba_sim::{
    Adversary, Bit, Incoming, Message, NodeId, Outbox, Problem, Protocol, Round, RunReport,
    SimConfig, Verdict,
};

use crate::auth::{Auth, Evidence, FsService};
use crate::kernel::{self, Budget, Pool};
use crate::runnable::Runnable;

/// Messages of the epoch family.
#[derive(Clone, Debug, PartialEq)]
pub enum EpochMsg {
    /// Leader proposal `(Propose, r, b)`.
    Propose {
        /// Epoch number.
        epoch: u64,
        /// Proposed bit.
        bit: Bit,
        /// Authorization evidence.
        ev: Evidence,
    },
    /// Acknowledgement `(Ack, r, b)`.
    Ack {
        /// Epoch number.
        epoch: u64,
        /// Acked bit.
        bit: Bit,
        /// Authorization evidence.
        ev: Evidence,
    },
}

impl Message for EpochMsg {
    fn size_bits(&self) -> usize {
        let (EpochMsg::Propose { ev, .. } | EpochMsg::Ack { ev, .. }) = self;
        8 + 64 + 1 + ev.size_bits()
    }
}

/// How the epoch leader is chosen.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeaderMode {
    /// §3.1's idealized oracle: epoch `r`'s leader is node `r mod n`.
    RoundRobin,
    /// §3.2: self-election by mining `(Propose, r, b)` at difficulty
    /// `1/(2n)`.
    Mined,
}

/// Configuration of one epoch-family instance.
#[derive(Clone, Debug)]
pub struct EpochConfig {
    /// Number of nodes.
    pub n: usize,
    /// Number of epochs `R` (the paper sets `R = ω(log κ)`).
    pub epochs: u64,
    /// Ample-ack threshold (`2n/3` full participation, `2λ/3` subsampled).
    pub quorum: usize,
    /// Authentication regime.
    pub auth: Auth,
    /// Leader election mechanism.
    pub leader: LeaderMode,
}

impl EpochConfig {
    /// §3.1 warmup: signed, full participation, round-robin leaders.
    pub fn warmup_third(n: usize, epochs: u64, keychain: Arc<Keychain>) -> EpochConfig {
        EpochConfig {
            n,
            epochs,
            quorum: (2 * n).div_ceil(3),
            auth: Auth::Signed { keychain },
            leader: LeaderMode::RoundRobin,
        }
    }

    /// §3.2: subquadratic BA with bit-specific eligibility.
    pub fn subq_third(n: usize, epochs: u64, elig: Arc<dyn Eligibility>) -> EpochConfig {
        let lambda = elig.lambda();
        EpochConfig {
            n,
            epochs,
            quorum: (2.0 * lambda / 3.0).ceil() as usize,
            auth: Auth::Mined { elig, bit_specific: true, keychain: None },
            leader: LeaderMode::Mined,
        }
    }

    /// The shared-committee ablation (insecure; §3.3 Remark).
    pub fn subq_shared(
        n: usize,
        epochs: u64,
        elig: Arc<dyn Eligibility>,
        keychain: Arc<Keychain>,
    ) -> EpochConfig {
        let lambda = elig.lambda();
        EpochConfig {
            n,
            epochs,
            quorum: (2.0 * lambda / 3.0).ceil() as usize,
            auth: Auth::Mined { elig, bit_specific: false, keychain: Some(keychain) },
            leader: LeaderMode::Mined,
        }
    }

    /// The Chen–Micali strawman: shared committee + forward-secure keys.
    /// Secure iff `erasure` is on.
    pub fn chen_micali(
        n: usize,
        epochs: u64,
        elig: Arc<dyn Eligibility>,
        fs: Arc<FsService>,
        erasure: bool,
    ) -> EpochConfig {
        let lambda = elig.lambda();
        EpochConfig {
            n,
            epochs,
            quorum: (2.0 * lambda / 3.0).ceil() as usize,
            auth: Auth::FsMined { elig, fs, erasure },
            leader: LeaderMode::Mined,
        }
    }

    /// Whether `who` may propose in `epoch`: only node `epoch mod n` under
    /// the round-robin oracle, anyone under mined self-election (everyone
    /// attempts; `F_mine` decides).
    fn may_propose(&self, epoch: u64, who: NodeId) -> bool {
        self.leader == LeaderMode::Mined || who == NodeId((epoch % self.n as u64) as usize)
    }

    /// Total synchronous rounds an instance runs: two per epoch plus the
    /// final tally/output round.
    pub fn total_rounds(&self) -> u64 {
        2 * self.epochs + 1
    }

    /// Whether this configuration can run over a lazy live set
    /// ([`ba_sim::population`]). Requires mined leaders and plain mined authentication:
    /// round-robin leaders are id-dependent full-participation oracles, and
    /// the Chen–Micali forward-secure regime erases per-node slot keys on
    /// the shared [`FsService`] every round — a per-silent-node side effect
    /// a ghost cannot mirror. Both run all-live.
    pub fn supports_sparse(&self) -> bool {
        self.leader == LeaderMode::Mined && matches!(self.auth, Auth::Mined { .. })
    }
}

/// One node of the epoch protocol.
pub struct EpochNode {
    cfg: EpochConfig,
    id: NodeId,
    belief: Bit,
    sticky: bool,
    last_bstar: Bit,
    coins: HmacDrbg,
    output: Option<Bit>,
    done: bool,
}

impl EpochNode {
    /// Creates a node with the given input bit and per-node seed.
    pub fn new(cfg: EpochConfig, id: NodeId, input: Bit, seed: u64) -> EpochNode {
        EpochNode {
            cfg,
            id,
            belief: input,
            sticky: true, // footnote 4: the sticky bit starts at 1 so the
            // first epoch acks the input — this is what makes validity work.
            last_bstar: input,
            coins: HmacDrbg::new(&seed.to_be_bytes(), b"epoch-leader-coins"),
            output: None,
            done: false,
        }
    }

    /// Batch-verifies the claims the upcoming per-message pass will
    /// actually check — `kind` messages for `expect_epoch`, honoring the
    /// round-robin leader rule for proposals — in one combined
    /// multi-exponentiation (real-crypto regimes). The per-message checks
    /// then hit the statement caches. Filtering mirrors the per-message
    /// guards exactly: claims those guards skip for free (wrong epoch,
    /// non-leader proposals) must not be able to sink the batch.
    fn batch_verify_inbox(&self, inbox: &[Incoming<EpochMsg>], kind: MsgKind, expect_epoch: u64) {
        if !self.cfg.auth.supports_batch() {
            return;
        }
        let claims: Vec<(NodeId, MineTag, &Evidence)> = inbox
            .iter()
            .filter_map(|m| match &*m.msg {
                EpochMsg::Propose { epoch, bit, ev }
                    if kind == MsgKind::Propose && *epoch == expect_epoch =>
                {
                    self.cfg
                        .may_propose(*epoch, m.from)
                        .then(|| (m.from, MineTag::new(MsgKind::Propose, *epoch, *bit), ev))
                }
                EpochMsg::Ack { epoch, bit, ev }
                    if kind == MsgKind::Ack && *epoch == expect_epoch =>
                {
                    Some((m.from, MineTag::new(MsgKind::Ack, *epoch, *bit), ev))
                }
                _ => None,
            })
            .collect();
        let _ = self.cfg.auth.verify_batch(&claims);
    }

    /// Tally the previous epoch's acks and update `(belief, sticky)`.
    fn tally_acks(&mut self, epoch: u64, inbox: &[Incoming<EpochMsg>]) {
        self.batch_verify_inbox(inbox, MsgKind::Ack, epoch);
        let mut acks = Pool::default();
        for m in inbox {
            if let EpochMsg::Ack { epoch: e, bit, ev } = &*m.msg {
                if *e == epoch {
                    acks.admit_count(&self.cfg.auth, (MsgKind::Ack, *e, *bit), m.from, ev);
                }
            }
        }
        let ample = [false, true].map(|bit| acks.count(epoch, bit) >= self.cfg.quorum);
        match ample {
            [true, false] => {
                self.belief = false;
                self.sticky = true;
            }
            [false, true] => {
                self.belief = true;
                self.sticky = true;
            }
            [true, true] => {
                // Only reachable under attack (consistency-within-an-epoch
                // fails): keep the current belief, stickily.
                self.sticky = true;
            }
            [false, false] => self.sticky = false,
        }
    }

    /// The unique valid proposal bit for `epoch`, if any (both-bits-proposed
    /// resolves to an arbitrary-but-deterministic bit per the paper).
    fn proposal_bit(&self, epoch: u64, inbox: &[Incoming<EpochMsg>]) -> Option<Bit> {
        let mut seen = [false, false];
        for m in inbox {
            if let EpochMsg::Propose { epoch: e, bit, ev } = &*m.msg {
                if *e != epoch {
                    continue;
                }
                if !self.cfg.may_propose(epoch, m.from) {
                    continue;
                }
                let tag = MineTag::new(MsgKind::Propose, *e, *bit);
                if self.cfg.auth.verify(m.from, &tag, ev) {
                    seen[*bit as usize] = true;
                }
            }
        }
        match seen {
            [false, false] => None,
            [true, false] => Some(false),
            [false, true] => Some(true),
            // "if proposals for both b = 0 and b = 1 have been observed,
            // choose an arbitrary bit" — we fix bit 0.
            [true, true] => Some(false),
        }
    }

    fn try_propose(&mut self, epoch: u64, out: &mut Outbox<EpochMsg>) {
        if !self.cfg.may_propose(epoch, self.id) {
            return;
        }
        let coin = self.coins.next_byte() & 1 == 1;
        let tag = MineTag::new(MsgKind::Propose, epoch, coin);
        if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
            out.multicast(EpochMsg::Propose { epoch, bit: coin, ev });
        }
    }
}

impl Protocol<EpochMsg> for EpochNode {
    fn step(&mut self, round: Round, inbox: &[Incoming<EpochMsg>], out: &mut Outbox<EpochMsg>) {
        let r = round.0;
        if r >= self.cfg.total_rounds() {
            return;
        }
        if r == 2 * self.cfg.epochs {
            // Final round: tally the last epoch's acks (keeps the state
            // machine uniform), then output the last-acked bit.
            self.tally_acks(self.cfg.epochs - 1, inbox);
            self.output = Some(self.last_bstar);
            self.done = true;
            return;
        }
        let epoch = r / 2;
        if r.is_multiple_of(2) {
            // Propose round: first tally the previous epoch's acks.
            if epoch > 0 {
                self.tally_acks(epoch - 1, inbox);
            }
            self.try_propose(epoch, out);
        } else {
            // Ack round: adopt the leader's proposal unless sticky. The
            // inbox carries this epoch's proposals; batch-verify them first.
            self.batch_verify_inbox(inbox, MsgKind::Propose, epoch);
            let proposal = self.proposal_bit(epoch, inbox);
            let bstar = match (self.sticky, proposal) {
                (true, _) | (false, None) => self.belief,
                (false, Some(b)) => b,
            };
            self.last_bstar = bstar;
            let tag = MineTag::new(MsgKind::Ack, epoch, bstar);
            if let Some(ev) = self.cfg.auth.attest(self.id, &tag) {
                out.multicast(EpochMsg::Ack { epoch, bit: bstar, ev });
            }
            // Memory-erasure model: destroy this epoch's slot key even if we
            // did not speak, before the (rushing) adversary can corrupt us.
            self.cfg.auth.end_of_round(self.id, epoch);
        }
    }

    fn output(&self) -> Option<Bit> {
        self.output
    }

    fn halted(&self) -> bool {
        self.done
    }
}

/// Every tag `round`'s schedule lets a node attest (what the lazy live
/// set's committee oracle probes). The epoch schedule is rigid —
/// proposals on even rounds, acks on odd rounds, nothing in the final tally
/// round.
fn round_tags(round: u64, epochs: u64) -> Vec<MineTag> {
    if round >= 2 * epochs {
        return Vec::new();
    }
    let kind = if round.is_multiple_of(2) { MsgKind::Propose } else { MsgKind::Ack };
    vec![MineTag::new(kind, round / 2, false), MineTag::new(kind, round / 2, true)]
}

/// Runs one execution of an epoch-family protocol and evaluates the verdict
/// for the agreement problem. Honors [`SimConfig::population`]:
/// sparse-capable configurations ([`EpochConfig::supports_sparse`]) may run
/// over a lazy live set (byte-identical report, see
/// [`ba_sim::Sim::run_population`]); others silently run all-live.
pub fn run<A: Adversary<EpochMsg> + Send>(
    cfg: &EpochConfig,
    sim: &SimConfig,
    inputs: Vec<Bit>,
    adversary: A,
) -> (RunReport, Verdict) {
    let (n, epochs) = (cfg.n, cfg.epochs);
    // A ghost's seed only feeds the leader-coin DRBG, whose draws a
    // never-eligible candidate never exposes.
    let ghost = |auth, bit| EpochNode::new(EpochConfig { auth, ..cfg.clone() }, NodeId(n), bit, 0);
    let sparse = if cfg.supports_sparse() {
        kernel::committees(&cfg.auth, n, move |round| round_tags(round, epochs), ghost)
    } else {
        None
    };
    let budget = Budget::AtLeast(cfg.total_rounds() + 1);
    let cfg = cfg.clone();
    let node = move |id, input, seed| EpochNode::new(cfg.clone(), id, input, seed);
    kernel::run(sim, budget, Problem::Agreement, inputs, adversary, node, sparse)
}

/// Packages one epoch-family execution as a thread-dispatchable
/// [`Runnable`] (the uniform constructor sweep harnesses dispatch over).
pub fn runnable<A: Adversary<EpochMsg> + Send + 'static>(
    cfg: &EpochConfig,
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

    fn warmup_cfg(n: usize, epochs: u64) -> EpochConfig {
        EpochConfig::warmup_third(n, epochs, Arc::new(Keychain::from_seed(1, n, SigMode::Ideal)))
    }

    fn subq_cfg(n: usize, lambda: f64, epochs: u64, seed: u64) -> EpochConfig {
        EpochConfig::subq_third(
            n,
            epochs,
            Arc::new(IdealMine::new(seed, MineParams::new(n, lambda))),
        )
    }

    #[test]
    fn tally_rejects_stale_and_cross_epoch_acks() {
        // PR 9's chaos suite showed `subq_third` forking under 20% message
        // reordering while never slowing down. This pins the stale-vote
        // audit's conclusion: ack accumulation is *not* the culprit —
        // cross-epoch acks, evidence replayed from another epoch's tag,
        // and duplicate voters are all rejected, so the fork is a
        // synchrony-boundary artifact of the fixed 2R pacing (pinned as a
        // golden in `crates/bench/tests/faults.rs`), not a hygiene bug.
        let cfg = warmup_cfg(4, 4);
        let quorum = cfg.quorum;
        let mk_ack = |from: usize, claimed_epoch: u64, attested_epoch: u64, bit: Bit| {
            let tag = MineTag::new(MsgKind::Ack, attested_epoch, bit);
            let ev = cfg.auth.attest(NodeId(from), &tag).expect("signed regime always attests");
            Incoming::new(NodeId(from), EpochMsg::Ack { epoch: claimed_epoch, bit, ev })
        };
        let mut node = EpochNode::new(cfg.clone(), NodeId(0), false, 0);
        // Round 4 opens epoch 2 and tallies epoch 1's acks through the
        // shared pool (node 0 does not lead epoch 2, so it sends nothing).
        let tally = |node: &mut EpochNode, inbox: &[Incoming<EpochMsg>]| {
            let mut out = Outbox::new();
            node.step(Round(4), inbox, &mut out);
            assert!(out.is_empty());
        };
        // A full quorum of acks for bit 1, all claiming epoch 2 while the
        // node tallies epoch 1: cross-epoch, must not count.
        let cross: Vec<_> = (0..4).map(|i| mk_ack(i, 2, 2, true)).collect();
        tally(&mut node, &cross);
        assert!(!node.sticky && !node.belief, "cross-epoch acks must not reach quorum");
        // Evidence attested under epoch 0's tag replayed with an epoch-1
        // claim: the signature check must fail.
        let stale: Vec<_> = (0..4).map(|i| mk_ack(i, 1, 0, true)).collect();
        tally(&mut node, &stale);
        assert!(!node.sticky && !node.belief, "replayed evidence must not reach quorum");
        // One sender repeated four times: dedup keeps it a single vote.
        let dup: Vec<_> = (0..4).map(|_| mk_ack(3, 1, 1, true)).collect();
        tally(&mut node, &dup);
        assert!(!node.sticky, "duplicate voters must not reach quorum");
        // The genuine quorum for the same epoch does flip the belief.
        let good: Vec<_> = (0..quorum).map(|i| mk_ack(i, 1, 1, true)).collect();
        tally(&mut node, &good);
        assert!(node.sticky && node.belief, "a genuine quorum must be counted");
    }

    #[test]
    fn warmup_validity_unanimous_inputs() {
        for bit in [false, true] {
            let cfg = warmup_cfg(7, 6);
            let sim = SimConfig::new(7, 0, CorruptionModel::Static, 3);
            let (report, verdict) = run(&cfg, &sim, vec![bit; 7], Passive);
            assert!(verdict.all_ok(), "bit={bit}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(bit)));
        }
    }

    #[test]
    fn warmup_consistency_mixed_inputs() {
        for seed in 0..10 {
            let cfg = warmup_cfg(7, 10);
            let sim = SimConfig::new(7, 0, CorruptionModel::Static, seed);
            let inputs = vec![true, false, true, false, true, false, true];
            let (_report, verdict) = run(&cfg, &sim, inputs, Passive);
            assert!(verdict.consistent && verdict.terminated, "seed={seed}: {verdict:?}");
        }
    }

    #[test]
    fn warmup_round_count_is_fixed() {
        let cfg = warmup_cfg(4, 5);
        let sim = SimConfig::new(4, 0, CorruptionModel::Static, 1);
        let (report, _) = run(&cfg, &sim, vec![true; 4], Passive);
        assert_eq!(report.rounds_used, cfg.total_rounds());
    }

    #[test]
    fn subq_validity_unanimous_inputs() {
        for seed in 0..5 {
            let cfg = subq_cfg(60, 20.0, 8, seed);
            let sim = SimConfig::new(60, 0, CorruptionModel::Static, seed);
            let (report, verdict) = run(&cfg, &sim, vec![true; 60], Passive);
            assert!(verdict.all_ok(), "seed={seed}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(true)), "seed={seed}");
        }
    }

    #[test]
    fn subq_consistency_mixed_inputs() {
        let mut ok = 0;
        for seed in 0..10 {
            let cfg = subq_cfg(60, 20.0, 16, seed);
            let sim = SimConfig::new(60, 0, CorruptionModel::Static, seed);
            let inputs: Vec<Bit> = (0..60).map(|i| i % 2 == 0).collect();
            let (_report, verdict) = run(&cfg, &sim, inputs, Passive);
            if verdict.consistent && verdict.terminated {
                ok += 1;
            }
        }
        // With R=16 epochs the failure probability is tiny; allow 1 unlucky
        // seed out of 10.
        assert!(ok >= 9, "only {ok}/10 mixed-input runs were consistent");
    }

    #[test]
    fn subq_multicast_complexity_sublinear() {
        // The headline property: honest multicasts per run do not scale with
        // n (only with lambda and R).
        let (small_n, large_n) = (64usize, 512usize);
        let lambda = 16.0;
        let epochs = 6;
        let count = |n: usize| -> u64 {
            let cfg = subq_cfg(n, lambda, epochs, 7);
            let sim = SimConfig::new(n, 0, CorruptionModel::Static, 7);
            let (report, _) = run(&cfg, &sim, vec![true; n], Passive);
            report.metrics.honest_multicasts
        };
        let small = count(small_n);
        let large = count(large_n);
        // Expected multicasts ~ R * (lambda + 1/2) in both cases.
        let ratio = large as f64 / small as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "multicasts should be n-independent: {small} vs {large}"
        );
        // Contrast: the warmup protocol multicasts ~n per epoch.
        let warm = {
            let cfg = warmup_cfg(small_n, epochs);
            let sim = SimConfig::new(small_n, 0, CorruptionModel::Static, 7);
            let (report, _) = run(&cfg, &sim, vec![true; small_n], Passive);
            report.metrics.honest_multicasts
        };
        assert!(warm as f64 > 3.0 * large as f64, "warmup {warm} vs subq {large}");
    }

    #[test]
    fn shared_mode_honest_runs_still_work() {
        // Without an adversary the shared-committee variant behaves fine —
        // the flaw only shows under adaptive corruption (experiment E8).
        let n = 60;
        let elig = Arc::new(IdealMine::new(5, MineParams::new(n, 20.0)));
        let kc = Arc::new(Keychain::from_seed(5, n, SigMode::Ideal));
        let cfg = EpochConfig::subq_shared(n, 8, elig, kc);
        let sim = SimConfig::new(n, 0, CorruptionModel::Static, 5);
        let (report, verdict) = run(&cfg, &sim, vec![false; n], Passive);
        assert!(verdict.all_ok(), "{verdict:?}");
        assert!(report.outputs.iter().all(|o| *o == Some(false)));
    }

    #[test]
    fn chen_micali_honest_runs_work_with_and_without_erasure() {
        for erasure in [true, false] {
            let n = 40;
            let epochs = 6;
            let elig = Arc::new(IdealMine::new(9, MineParams::new(n, 16.0)));
            let fs = Arc::new(FsService::from_seed(9, n, epochs as usize + 1));
            let cfg = EpochConfig::chen_micali(n, epochs, elig, fs, erasure);
            let sim = SimConfig::new(n, 0, CorruptionModel::Static, 9);
            let (report, verdict) = run(&cfg, &sim, vec![true; n], Passive);
            assert!(verdict.all_ok(), "erasure={erasure}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(true)));
        }
    }

    #[test]
    fn sparse_subq_byte_identical_to_dense() {
        for seed in 0..4 {
            let cfg = subq_cfg(72, 18.0, 8, seed);
            let inputs: Vec<Bit> = (0..72).map(|i| i % 2 == 0).collect();
            let dense_sim = SimConfig::new(72, 0, CorruptionModel::Static, seed);
            let sparse_sim = dense_sim.clone().with_population(PopulationMode::Sparse);
            let (dense, _) = run(&cfg, &dense_sim, inputs.clone(), Passive);
            let (sparse, _) = run(&cfg, &sparse_sim, inputs.clone(), Passive);
            assert_eq!(sparse, dense, "seed={seed}");
        }
    }

    #[test]
    fn sparse_materializes_committees_not_population() {
        // lambda << n: ack committees (p = 12/400) over 5 epochs union to a
        // small fraction of the population.
        let n = 400;
        let cfg = subq_cfg(n, 12.0, 5, 3);
        let sim = SimConfig::new(n, 0, CorruptionModel::Static, 3)
            .with_population(PopulationMode::Sparse);
        let (report, verdict) = run(&cfg, &sim, vec![true; n], Passive);
        assert!(verdict.all_ok(), "{verdict:?}");
        assert!(
            report.metrics.peak_live_nodes < (n / 2) as u64,
            "peak_live={} should be far below n={n}",
            report.metrics.peak_live_nodes
        );
    }

    #[test]
    fn sparse_shared_committee_byte_identical_to_dense() {
        let n = 60;
        let elig = Arc::new(IdealMine::new(8, MineParams::new(n, 20.0)));
        let kc = Arc::new(Keychain::from_seed(8, n, SigMode::Ideal));
        let cfg = EpochConfig::subq_shared(n, 8, elig, kc);
        assert!(cfg.supports_sparse());
        let inputs: Vec<Bit> = (0..n).map(|i| i % 5 == 0).collect();
        let dense_sim = SimConfig::new(n, 0, CorruptionModel::Static, 8);
        let sparse_sim = dense_sim.clone().with_population(PopulationMode::Sparse);
        let (dense, _) = run(&cfg, &dense_sim, inputs.clone(), Passive);
        let (sparse, _) = run(&cfg, &sparse_sim, inputs, Passive);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn sparse_falls_back_for_round_robin_and_fs_regimes() {
        // Round-robin leaders: id-dependent, full participation.
        let cfg = warmup_cfg(7, 4);
        assert!(!cfg.supports_sparse());
        let dense_sim = SimConfig::new(7, 0, CorruptionModel::Static, 2);
        let sparse_sim = dense_sim.clone().with_population(PopulationMode::Sparse);
        let (dense, _) = run(&cfg, &dense_sim, vec![true; 7], Passive);
        let (fallback, _) = run(&cfg, &sparse_sim, vec![true; 7], Passive);
        assert_eq!(fallback, dense);
        assert_eq!(fallback.metrics.peak_live_nodes, 7);
        // Chen–Micali: per-node key erasure on the shared FsService.
        let n = 24;
        let elig = Arc::new(IdealMine::new(9, MineParams::new(n, 12.0)));
        let fs = Arc::new(FsService::from_seed(9, n, 7));
        let cm = EpochConfig::chen_micali(n, 6, elig, fs, true);
        assert!(!cm.supports_sparse());
    }

    #[test]
    fn message_sizes_reflect_evidence() {
        let kc = Arc::new(Keychain::from_seed(1, 4, SigMode::Ideal));
        let signed =
            EpochMsg::Ack { epoch: 0, bit: true, ev: Evidence::Sig(kc.sign(NodeId(0), b"x")) };
        let elig = IdealMine::new(1, MineParams::new(4, 4.0));
        let ticket = elig.mine(NodeId(0), &MineTag::new(MsgKind::Ack, 0, true)).unwrap();
        let mined = EpochMsg::Ack { epoch: 0, bit: true, ev: Evidence::Ticket(ticket) };
        assert!(signed.size_bits() < mined.size_bits());
    }
}
