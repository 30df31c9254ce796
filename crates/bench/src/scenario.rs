//! Declarative experiment scenarios.
//!
//! A [`Scenario`] describes one runnable configuration — protocol family,
//! eligibility mode (ideal `F_mine` vs the real VRF compiler), adversary,
//! corruption model, input pattern, and sizes — without constructing
//! anything. [`Scenario::run_seed`] materializes the configuration for one
//! seed, dispatches it through `ba-core`'s uniform [`Runnable`]
//! constructors, and distills the execution into a [`RunRecord`] of named
//! observables.
//!
//! Alongside the five protocol families, measurement workloads (the
//! Theorem 3/4 lower-bound constructions and the direct `F_mine` sampling
//! experiments) run through the same surface so one [`crate::Sweep`] grid
//! can mix them freely.

use std::fmt::{self, Display};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ba_adversary::{
    AdaptiveEclipse, CertForger, CommitteeEraser, CrashAt, EclipseBurst, EquivocationSpammer,
    SilenceThenBurst, VoteFlipper,
};
use ba_core::auth::FsService;
use ba_core::ba_from_bb;
use ba_core::broadcast;
use ba_core::cert::CertEncoding;
use ba_core::cks::{self, CksConfig};
use ba_core::dolev_strong::{self, DsConfig};
use ba_core::epoch::{self, EpochConfig, EpochMsg};
use ba_core::iter::{self, IterConfig};
use ba_core::momose_ren::{self, MrConfig};
use ba_core::runnable::Runnable;
use ba_fmine::{Eligibility, IdealMine, Keychain, MineParams, MineTag, MsgKind, RealMine, SigMode};
use ba_lowerbound::{theorem3, theorem4};
use ba_sim::{
    AdvCtx, Adversary, Bit, CorruptionModel, FaultPlan, NodeId, Passive, PopulationMode, RunReport,
    SimConfig, TransportSpec, Verdict,
};

use crate::sweep::RunRecord;

/// Above this population size, [`EligMode::Real`] builds its [`RealMine`]
/// backend without per-node fixed-base precomputation tables (~30 KiB per
/// node). Verdicts are bit-identical either way; only setup memory and
/// verify latency trade off.
const REAL_ELIG_UNTABLED_N: usize = 4096;

/// The argument list of one `head(value,key=value,…)` spec string — the one
/// shape every spec enum of this module renders to — consumed left to right
/// in the canonical order `Display` writes.
struct SpecArgs<'a>(&'a str);

/// Splits `head(args)`, or a bare `head`, into the head and its arguments.
fn split_spec(s: &str) -> Result<(&str, SpecArgs<'_>), String> {
    match s.split_once('(') {
        None => Ok((s, SpecArgs(""))),
        Some((head, rest)) => match rest.strip_suffix(')') {
            Some(args) => Ok((head, SpecArgs(args))),
            None => Err(format!("'{s}' does not close its argument list with ')'")),
        },
    }
}

impl SpecArgs<'_> {
    /// Takes the next argument if it starts with `key` — `"lambda="` for a
    /// keyed argument, `""` for a bare value — and parses the rest of it.
    fn opt<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        let (arg, rest) = self.0.split_once(',').unwrap_or((self.0, ""));
        let Some(value) = arg.strip_prefix(key) else { return Ok(None) };
        self.0 = rest;
        value.parse().map(Some).map_err(|_| format!("bad argument '{arg}'"))
    }

    /// Takes the next argument, which must be there.
    fn req<T: FromStr>(&mut self, key: &str) -> Result<T, String> {
        self.opt(key)?.ok_or_else(|| format!("expected '{key}…' at '{}'", self.0))
    }

    /// A bit argument, spelled `0` or `1`.
    fn bit(&mut self) -> Result<Bit, String> {
        match self.req::<u8>("")? {
            b @ 0..=1 => Ok(b == 1),
            b => Err(format!("a bit is 0 or 1, not {b}")),
        }
    }

    /// Refuses arguments the head does not take.
    fn end(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected argument '{}'", self.0))
        }
    }
}

/// How the environment assigns input bits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InputPattern {
    /// Every node inputs `b`.
    Unanimous(Bit),
    /// Node `i` inputs `i % 2 == 0`.
    Alternating,
    /// Node `i` inputs `i % 3 == 0`.
    EveryThird,
    /// Node `i` inputs `(i / n) < frac` (the first `frac` of the nodes).
    FirstFrac(f64),
    /// Broadcast only: the sender's bit is `seed % 2 == 0`.
    SenderParity,
}

impl InputPattern {
    /// The input vector for an agreement-style run.
    pub fn generate(&self, n: usize, _seed: u64) -> Vec<Bit> {
        match self {
            InputPattern::Unanimous(b) => vec![*b; n],
            InputPattern::Alternating => (0..n).map(|i| i % 2 == 0).collect(),
            InputPattern::EveryThird => (0..n).map(|i| i % 3 == 0).collect(),
            InputPattern::FirstFrac(frac) => {
                (0..n).map(|i| (i as f64 / n as f64) < *frac).collect()
            }
            InputPattern::SenderParity => {
                panic!("SenderParity is a broadcast-only input pattern")
            }
        }
    }

    /// The designated sender's bit for a broadcast-style run.
    pub fn sender_bit(&self, seed: u64) -> Bit {
        match self {
            InputPattern::Unanimous(b) => *b,
            InputPattern::SenderParity => seed.is_multiple_of(2),
            other => panic!("{other:?} does not define a single sender bit"),
        }
    }
}

/// `unanimous(1)`, `alternating`, `every_third`, `first_frac(0.375)`,
/// `sender_parity`; accepted back by [`FromStr`].
impl Display for InputPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputPattern::Unanimous(b) => write!(f, "unanimous({})", *b as u8),
            InputPattern::Alternating => f.write_str("alternating"),
            InputPattern::EveryThird => f.write_str("every_third"),
            InputPattern::FirstFrac(frac) => write!(f, "first_frac({frac})"),
            InputPattern::SenderParity => f.write_str("sender_parity"),
        }
    }
}

impl FromStr for InputPattern {
    type Err = String;

    fn from_str(s: &str) -> Result<InputPattern, String> {
        let (head, mut args) = split_spec(s)?;
        let inputs = match head {
            "unanimous" => InputPattern::Unanimous(args.bit()?),
            "alternating" => InputPattern::Alternating,
            "every_third" => InputPattern::EveryThird,
            "first_frac" => InputPattern::FirstFrac(args.req("")?),
            "sender_parity" => InputPattern::SenderParity,
            other => return Err(format!("unknown input pattern '{other}'")),
        };
        args.end().map(|()| inputs)
    }
}

/// Which eligibility backend mined families use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EligMode {
    /// The `F_mine` ideal functionality (Figure 1).
    Ideal,
    /// The Appendix D real-world VRF compiler.
    Real,
}

/// `ideal` or `real`; accepted back by [`FromStr`].
impl Display for EligMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if *self == EligMode::Ideal { "ideal" } else { "real" })
    }
}

impl FromStr for EligMode {
    type Err = String;

    fn from_str(s: &str) -> Result<EligMode, String> {
        match s {
            "ideal" => Ok(EligMode::Ideal),
            "real" => Ok(EligMode::Real),
            other => Err(format!("unknown eligibility mode '{other}' (want ideal|real)")),
        }
    }
}

/// How the eligibility backend is seeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EligSeed {
    /// A fresh backend per run, seeded by the run seed (the default; every
    /// seed is an independent world).
    PerRun,
    /// One backend seeded by the given value, built once per cell and
    /// `Arc`-shared across all worker threads executing the cell's seeds.
    Fixed(u64),
}

/// `per_run` or `fixed(7)`; accepted back by [`FromStr`].
impl Display for EligSeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EligSeed::PerRun => f.write_str("per_run"),
            EligSeed::Fixed(seed) => write!(f, "fixed({seed})"),
        }
    }
}

impl FromStr for EligSeed {
    type Err = String;

    fn from_str(s: &str) -> Result<EligSeed, String> {
        let (head, mut args) = split_spec(s)?;
        let seed = match head {
            "per_run" => EligSeed::PerRun,
            "fixed" => EligSeed::Fixed(args.req("")?),
            other => return Err(format!("unknown eligibility seeding '{other}'")),
        };
        args.end().map(|()| seed)
    }
}

/// The attacker, by strategy (materialized per run against the concrete
/// protocol configuration).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdversarySpec {
    /// No corruption.
    Passive,
    /// The Theorem 1 after-the-fact eraser (erase every honest send).
    CommitteeEraser,
    /// The eraser tuned to starve the protocol's quorum.
    StarveQuorum,
    /// Crash the last `f` nodes at the given round.
    CrashTail {
        /// Round at which the tail crashes.
        at_round: u64,
    },
    /// The certificate forger steering agreement toward `target`.
    CertForger {
        /// The bit the forger tries to force.
        target: Bit,
    },
    /// The §3.3-Remark vote flipper (epoch family only). Records
    /// `flips_injected` / `flips_blocked` observables.
    VoteFlipper,
    /// Conflicting signed votes to disjoint receiver halves (epoch family
    /// only). Records `equivocations` / `equiv_blocked` observables.
    EquivocationSpammer,
    /// Withholds the last `f` nodes' traffic until `at_round`, then
    /// releases the backlog in one burst (any family).
    SilenceThenBurst {
        /// Round at which the backlog is released.
        at_round: u64,
    },
    /// Corrupts nodes only after observing their committee eligibility and
    /// silences them from then on (any family).
    AdaptiveEclipse {
        /// Corruptions allowed per round (`0` = as fast as the budget
        /// allows).
        per_round: usize,
    },
    /// Budget-sharing composition: the last `⌊f/2⌋` nodes run
    /// silence-then-burst (released at `at_round`), the remaining budget is
    /// spent eclipsing observed speakers (any family).
    EclipseBurst {
        /// Round at which the silenced wing's backlog is released.
        at_round: u64,
    },
}

/// `passive`, `crash_tail(at=3)`, `cert_forger(1)`, `adaptive_eclipse`
/// (unpaced) or `adaptive_eclipse(per=2)`, …; accepted back by [`FromStr`].
/// The head alone — the text before `(` — is the short adversary name the
/// gauntlet's cell labels use.
impl Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use AdversarySpec as A;
        match self {
            A::Passive => f.write_str("passive"),
            A::CommitteeEraser => f.write_str("committee_eraser"),
            A::StarveQuorum => f.write_str("starve_quorum"),
            A::CrashTail { at_round } => write!(f, "crash_tail(at={at_round})"),
            A::CertForger { target } => write!(f, "cert_forger({})", *target as u8),
            A::VoteFlipper => f.write_str("vote_flipper"),
            A::EquivocationSpammer => f.write_str("equivocation_spammer"),
            A::SilenceThenBurst { at_round } => write!(f, "silence_burst(at={at_round})"),
            A::AdaptiveEclipse { per_round: 0 } => f.write_str("adaptive_eclipse"),
            A::AdaptiveEclipse { per_round } => write!(f, "adaptive_eclipse(per={per_round})"),
            A::EclipseBurst { at_round } => write!(f, "eclipse_burst(at={at_round})"),
        }
    }
}

impl FromStr for AdversarySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<AdversarySpec, String> {
        use AdversarySpec as A;
        let (head, mut args) = split_spec(s)?;
        let adversary = match head {
            "passive" => A::Passive,
            "committee_eraser" => A::CommitteeEraser,
            "starve_quorum" => A::StarveQuorum,
            "crash_tail" => A::CrashTail { at_round: args.req("at=")? },
            "cert_forger" => A::CertForger { target: args.bit()? },
            "vote_flipper" => A::VoteFlipper,
            "equivocation_spammer" => A::EquivocationSpammer,
            "silence_burst" => A::SilenceThenBurst { at_round: args.req("at=")? },
            "adaptive_eclipse" => A::AdaptiveEclipse { per_round: args.opt("per=")?.unwrap_or(0) },
            "eclipse_burst" => A::EclipseBurst { at_round: args.req("at=")? },
            other => return Err(format!("unknown adversary '{other}'")),
        };
        args.end().map(|()| adversary)
    }
}

/// The runnable configuration family, with its family-specific knobs.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolSpec {
    /// Appendix C.2 — Theorem 2's subquadratic iteration protocol.
    SubqHalf {
        /// Expected committee size λ.
        lambda: f64,
        /// Iteration-cap override (`None` = family default).
        max_iters: Option<u64>,
    },
    /// Appendix C.1 — the quadratic iteration baseline.
    QuadraticHalf,
    /// §3.1 — the full-participation epoch warmup.
    WarmupThird {
        /// Number of epochs `R`.
        epochs: u64,
    },
    /// §3.2 — the subquadratic epoch protocol with bit-specific eligibility.
    SubqThird {
        /// Expected committee size λ.
        lambda: f64,
        /// Number of epochs `R`.
        epochs: u64,
    },
    /// §3.3 Remark — the insecure shared-committee ablation.
    SubqShared {
        /// Expected committee size λ.
        lambda: f64,
        /// Number of epochs `R`.
        epochs: u64,
    },
    /// The Chen–Micali strawman (forward-secure keys, with or without
    /// memory erasure).
    ChenMicali {
        /// Expected committee size λ.
        lambda: f64,
        /// Number of epochs `R`.
        epochs: u64,
        /// Whether the memory-erasure discipline is enforced.
        erasure: bool,
    },
    /// Competitor: Momose–Ren's O(n²)-words authenticated BA at optimal
    /// resilience `t < n/2` (arXiv 2007.13175).
    MomoseRenHalf {
        /// View cap (liveness safety net; honest leaders are reached within
        /// `t + 1` round-robin views).
        views: u64,
    },
    /// Competitor: Cohen–Keidar–Spiegelman's adaptive O((f+1)·n)-words BA
    /// (arXiv 2202.09123), instantiated at `t < n/3` quorums.
    CksAdaptive {
        /// Phase cap (liveness safety net; an honest leader is reached
        /// within `f + 1` round-robin phases).
        phases: u64,
    },
    /// The Dolev–Strong broadcast baseline.
    DolevStrong {
        /// The protocol's resilience parameter (round count `f + 1`);
        /// independent of the simulation's corruption budget.
        ds_f: usize,
    },
    /// §1.1 — BA from `n` parallel Dolev–Strong broadcasts.
    BaFromBb {
        /// The broadcast instances' resilience parameter.
        ds_f: usize,
    },
    /// §1.1 — BB from the subquadratic iteration BA (sender `NodeId(0)`).
    IterBroadcast {
        /// Expected committee size λ of the inner BA.
        lambda: f64,
    },
    /// Theorem 4's Dolev–Reischuk adversary pair against the relay family.
    Theorem4 {
        /// Relay fanout (the message-budget knob).
        fanout: usize,
    },
    /// Theorem 3's merged `Q — 1 — Q′` execution (deterministic; run with
    /// one seed).
    Theorem3 {
        /// Committee size of the setup-free candidate.
        committee: usize,
    },
    /// Lemma 12 sampling: one leader-election iteration per seed.
    GoodIteration {
        /// Mining difficulty parameter λ for the propose tags.
        lambda: f64,
        /// The (fixed) `F_mine` instance seed.
        mine_seed: u64,
    },
    /// Lemmas 10/11 sampling: one committee draw per seed.
    CommitteeTails {
        /// Expected committee size λ.
        lambda: f64,
    },
    /// Appendix E sampling: four vote-committee sizes per seed.
    CommitteeSample {
        /// Expected committee size λ.
        lambda: f64,
    },
}

/// `iter/subq_half(lambda=24)`, `epoch/chen_micali(lambda=16,R=6,erasure=true)`,
/// `dolev_strong(f=3)`, …; accepted back by [`FromStr`].
///
/// The one rule beyond `head(key=value,…)`: the report label of
/// [`ProtocolSpec::SubqHalf`] has never carried `max_iters` (every
/// committed e1/e11/e13/e15 baseline cell pins `iter/subq_half(lambda=…)`),
/// so the cap is an optional trailing key — the parser accepts
/// `iter/subq_half(lambda=16,max_iters=6)`, and only the alternate
/// rendering `{:#}`, which the wire descriptor uses, writes it.
impl Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ProtocolSpec as P;
        match self {
            P::SubqHalf { lambda, max_iters } => {
                write!(f, "iter/subq_half(lambda={lambda}")?;
                if let (true, Some(cap)) = (f.alternate(), max_iters) {
                    write!(f, ",max_iters={cap}")?;
                }
                f.write_str(")")
            }
            P::QuadraticHalf => f.write_str("iter/quadratic_half"),
            P::WarmupThird { epochs } => write!(f, "epoch/warmup_third(R={epochs})"),
            P::SubqThird { lambda, epochs } => {
                write!(f, "epoch/subq_third(lambda={lambda},R={epochs})")
            }
            P::SubqShared { lambda, epochs } => {
                write!(f, "epoch/subq_shared(lambda={lambda},R={epochs})")
            }
            P::ChenMicali { lambda, epochs, erasure } => {
                write!(f, "epoch/chen_micali(lambda={lambda},R={epochs},erasure={erasure})")
            }
            P::MomoseRenHalf { views } => write!(f, "mr/half(views={views})"),
            P::CksAdaptive { phases } => write!(f, "cks/adaptive(P={phases})"),
            P::DolevStrong { ds_f } => write!(f, "dolev_strong(f={ds_f})"),
            P::BaFromBb { ds_f } => write!(f, "ba_from_bb(f={ds_f})"),
            P::IterBroadcast { lambda } => write!(f, "broadcast/iter_bb(lambda={lambda})"),
            P::Theorem4 { fanout } => write!(f, "lowerbound/theorem4(fanout={fanout})"),
            P::Theorem3 { committee } => write!(f, "lowerbound/theorem3(committee={committee})"),
            P::GoodIteration { lambda, mine_seed } => {
                write!(f, "fmine/good_iteration(lambda={lambda},mine_seed={mine_seed})")
            }
            P::CommitteeTails { lambda } => write!(f, "fmine/committee_tails(lambda={lambda})"),
            P::CommitteeSample { lambda } => write!(f, "fmine/committee_sample(lambda={lambda})"),
        }
    }
}

impl FromStr for ProtocolSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<ProtocolSpec, String> {
        use ProtocolSpec as P;
        let (head, mut args) = split_spec(s)?;
        let protocol = match head {
            "iter/subq_half" => {
                P::SubqHalf { lambda: args.req("lambda=")?, max_iters: args.opt("max_iters=")? }
            }
            "iter/quadratic_half" => P::QuadraticHalf,
            "epoch/warmup_third" => P::WarmupThird { epochs: args.req("R=")? },
            "epoch/subq_third" => {
                P::SubqThird { lambda: args.req("lambda=")?, epochs: args.req("R=")? }
            }
            "epoch/subq_shared" => {
                P::SubqShared { lambda: args.req("lambda=")?, epochs: args.req("R=")? }
            }
            "epoch/chen_micali" => P::ChenMicali {
                lambda: args.req("lambda=")?,
                epochs: args.req("R=")?,
                erasure: args.req("erasure=")?,
            },
            "mr/half" => P::MomoseRenHalf { views: args.req("views=")? },
            "cks/adaptive" => P::CksAdaptive { phases: args.req("P=")? },
            "dolev_strong" => P::DolevStrong { ds_f: args.req("f=")? },
            "ba_from_bb" => P::BaFromBb { ds_f: args.req("f=")? },
            "broadcast/iter_bb" => P::IterBroadcast { lambda: args.req("lambda=")? },
            "lowerbound/theorem4" => P::Theorem4 { fanout: args.req("fanout=")? },
            "lowerbound/theorem3" => P::Theorem3 { committee: args.req("committee=")? },
            "fmine/good_iteration" => P::GoodIteration {
                lambda: args.req("lambda=")?,
                mine_seed: args.req("mine_seed=")?,
            },
            "fmine/committee_tails" => P::CommitteeTails { lambda: args.req("lambda=")? },
            "fmine/committee_sample" => P::CommitteeSample { lambda: args.req("lambda=")? },
            other => return Err(format!("unknown protocol '{other}'")),
        };
        args.end().map(|()| protocol)
    }
}

impl ProtocolSpec {
    /// Whether the family is a broadcast (one designated sender's bit)
    /// rather than an agreement (one input bit per node).
    fn is_broadcast(&self) -> bool {
        matches!(self, ProtocolSpec::DolevStrong { .. } | ProtocolSpec::IterBroadcast { .. })
    }

    /// The source paper's claimed total word complexity for this family,
    /// evaluated at population `n` with corruption budget `f` (`None` for
    /// measurement workloads, which have no such claim). A comparison
    /// curve, not a ceiling: the papers hide constants, so measured words
    /// are read *against the shape* of this bound across a sweep, not
    /// against its absolute value at one point.
    ///
    /// Polylog factors are instantiated as `⌈log₂(n+1)⌉²` — bit-length
    /// arithmetic, so the curve is integer-exact and platform-stable
    /// (committed baselines depend on it).
    pub fn claimed_bound_words(&self, n: usize, f: usize) -> Option<f64> {
        let nf = n as f64;
        // Bit length of n = ⌈log₂(n+1)⌉; 0 for n = 0.
        let lg = (usize::BITS - n.leading_zeros()) as f64;
        match self {
            // Abraham et al.: O(n·polylog n) words (Theorems 1/2 and the
            // broadcast reduction inherit the same bound).
            ProtocolSpec::SubqHalf { .. }
            | ProtocolSpec::SubqThird { .. }
            | ProtocolSpec::SubqShared { .. }
            | ProtocolSpec::ChenMicali { .. }
            | ProtocolSpec::IterBroadcast { .. } => Some(nf * lg * lg),
            // Appendix C baselines and Momose–Ren: O(n²) words. Dolev–
            // Strong is O(n²) messages of up to f+1 signatures; the n²
            // curve tracks its message complexity.
            ProtocolSpec::QuadraticHalf
            | ProtocolSpec::WarmupThird { .. }
            | ProtocolSpec::MomoseRenHalf { .. }
            | ProtocolSpec::DolevStrong { .. } => Some(nf * nf),
            // n parallel Dolev–Strong instances.
            ProtocolSpec::BaFromBb { .. } => Some(nf * nf * nf),
            // Cohen–Keidar–Spiegelman: adaptive O((f+1)·n) expected words.
            ProtocolSpec::CksAdaptive { .. } => Some((f as f64 + 1.0) * nf),
            ProtocolSpec::Theorem4 { .. }
            | ProtocolSpec::Theorem3 { .. }
            | ProtocolSpec::GoodIteration { .. }
            | ProtocolSpec::CommitteeTails { .. }
            | ProtocolSpec::CommitteeSample { .. } => None,
        }
    }
}

/// A cell-scoped, lazily initialized eligibility backend, `Arc`-shared
/// across the worker threads executing the cell's seeds (used by
/// [`EligSeed::Fixed`] scenarios).
#[derive(Default)]
pub struct SharedElig(OnceLock<Arc<dyn Eligibility>>);

impl std::fmt::Debug for SharedElig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedElig").field("initialized", &self.0.get().is_some()).finish()
    }
}

impl SharedElig {
    /// An uninitialized slot.
    pub fn new() -> SharedElig {
        SharedElig(OnceLock::new())
    }

    fn get_or_build(&self, build: impl FnOnce() -> Arc<dyn Eligibility>) -> Arc<dyn Eligibility> {
        self.0.get_or_init(build).clone()
    }
}

/// One finished scenario execution: the distilled record plus (for protocol
/// runs) the full report and verdict.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// Named observables for sweep aggregation.
    pub record: RunRecord,
    /// The raw execution report (`None` for measurement workloads).
    pub report: Option<RunReport>,
    /// The security verdict (`None` for measurement workloads).
    pub verdict: Option<Verdict>,
}

/// One declaratively described runnable configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Display label (also the lookup key in reports).
    pub label: String,
    /// Number of nodes `n`.
    pub n: usize,
    /// Corruption budget `f` handed to the simulator.
    pub f: usize,
    /// Corruption model in force.
    pub model: CorruptionModel,
    /// Environment input assignment.
    pub inputs: InputPattern,
    /// The attacker.
    pub adversary: AdversarySpec,
    /// The runnable configuration family.
    pub protocol: ProtocolSpec,
    /// Eligibility backend for mined families.
    pub elig: EligMode,
    /// Eligibility seeding policy.
    pub elig_seed: EligSeed,
    /// Added to the sweep's seed index to form the run seed.
    pub seed_offset: u64,
    /// Per-scenario seed-count override (`None` = sweep default).
    pub seeds: Option<u64>,
    /// Worker threads *inside* each execution (`SimConfig::threads`). A
    /// pure wall-clock knob — reports are byte-identical at every value —
    /// so it is deliberately absent from [`Scenario::describe`] and the
    /// report JSON. Large-`n` cells want this > 1; many-cell grids keep it
    /// at 1 and let the sweep's across-run workers fill the cores.
    pub sim_threads: usize,
    /// Population engine (`SimConfig::population`). Like
    /// [`Scenario::sim_threads`] this is a resource knob — sparse-capable
    /// families produce byte-identical reports, others silently fall back
    /// to dense — so it is deliberately absent from [`Scenario::describe`]
    /// and the report JSON. Large-`n` grids want [`PopulationMode::Sparse`];
    /// `--population` on experiment binaries overrides it grid-wide.
    pub population: PopulationMode,
    /// Delivery transport (`SimConfig::transport`). Unlike
    /// [`Scenario::sim_threads`] and [`Scenario::population`] this is a
    /// *protocol-affecting* axis — the latency transport can deliver
    /// messages rounds after they were sent — so it appears in
    /// [`Scenario::describe`] and the report JSON. `--transport` on
    /// experiment binaries overrides it grid-wide.
    pub transport: TransportSpec,
    /// Quorum-certificate encoding for the iteration family: a vector of
    /// individually signed votes, or one aggregate multi-signature plus a
    /// signer bitmap. Like [`Scenario::transport`] this is a
    /// *protocol-affecting* axis — it changes the certificate share of
    /// every message (`cert_bits` and the `*_bits` observables) while
    /// provably leaving all decision observables untouched — so it
    /// appears in [`Scenario::describe`] and the report JSON;
    /// `--cert-encoding` on experiment binaries overrides it grid-wide.
    /// Families whose regime cannot aggregate (mined eligibility) fall
    /// back to the vector encoding.
    pub cert_encoding: CertEncoding,
    /// Declarative network-fault plan layered over [`Scenario::transport`]
    /// at execution time (`None` = no fault layer). A *network-affecting*
    /// axis: faults may delay or destroy copies, so liveness observables
    /// can move — safety observables must not. Appears in
    /// [`Scenario::describe`] and the report JSON only when the plan is
    /// non-empty (an empty plan is a structural pass-through and keeps
    /// reports byte-identical to the bare transport); `--faults` on
    /// experiment binaries overrides it grid-wide.
    pub fault_plan: Option<FaultPlan>,
    /// When set, the finished record carries a `claimed_bound_words`
    /// observable: the source paper's claimed word-complexity curve for
    /// this protocol family, evaluated at this `(n, f)` (see
    /// [`ProtocolSpec::claimed_bound_words`]). Opt-in and omitted from
    /// [`Scenario::describe`] / the wire descriptor when off, so
    /// pre-existing reports and their committed baselines stay
    /// byte-identical.
    pub claimed_bound: bool,
}

/// When an axis appears in [`Scenario::describe`], and so in report JSON.
#[derive(Clone, Copy, Debug)]
pub enum ReportRule {
    /// In every report.
    Always,
    /// In no report: the cell header (`label`, `n`, `f`, seeds) is written
    /// by the report itself, and resource knobs leave reports unchanged.
    Never,
    /// Only where the predicate holds — the field is set, and not to an
    /// empty value — so reports from before the axis existed (and their
    /// committed baselines) stay byte-identical.
    If(fn(&Scenario) -> bool),
}

/// One row of [`AXES`]: everything the report, the worker wire and the CLI
/// know about one [`Scenario`] field.
#[derive(Clone, Copy, Debug)]
pub struct Axis {
    /// The field's name in report JSON, wire descriptors and (with `_` as
    /// `-`) its grid-wide `--flag`.
    pub key: &'static str,
    /// The field rendered in its grammar (`{:#}` for the lossless form the
    /// wire carries), or nothing when it is unset.
    pub get: fn(&Scenario) -> Option<&dyn Display>,
    /// Parses the grammar back into the field.
    pub set: fn(&mut Scenario, &str) -> Result<(), String>,
    /// When `describe()` lists the axis.
    pub report: ReportRule,
    /// Whether a wire descriptor may omit the axis: tolerated absent, it
    /// keeps [`Scenario::new`]'s default; a required axis's absence is
    /// refused. The encoder omits an axis exactly when `get` yields nothing.
    pub optional: bool,
    /// For a grid-wide CLI override, the value grammar its help line shows.
    pub cli: Option<&'static str>,
}

impl Axis {
    /// A row for a field that every wire descriptor carries, no report
    /// lists and no flag overrides; the modifiers below lift each default.
    const fn new(
        key: &'static str,
        get: fn(&Scenario) -> Option<&dyn Display>,
        set: fn(&mut Scenario, &str) -> Result<(), String>,
    ) -> Axis {
        Axis { key, get, set, report: Never, optional: false, cli: None }
    }

    const fn reported(self, report: ReportRule) -> Axis {
        Axis { report, ..self }
    }

    const fn optional(self) -> Axis {
        Axis { optional: true, ..self }
    }

    const fn overridable(self, grammar: &'static str) -> Axis {
        Axis { cli: Some(grammar), ..self }
    }

    /// The axis's command-line flag (`--cert-encoding` for `cert_encoding`).
    pub fn flag(&self) -> String {
        format!("--{}", self.key.replace('_', "-"))
    }
}

/// Parses an axis value by the field type's own `FromStr` and hands it to
/// `assign` (which is not run, so the scenario not touched, on a bad value).
fn put<T: FromStr<Err: Display>>(value: &str, assign: impl FnOnce(T)) -> Result<(), String> {
    value.parse().map(assign).map_err(|e: T::Err| e.to_string())
}

use ReportRule::{Always, If, Never};

/// The axis table, one row per [`Scenario`] field, in wire order (which is
/// `describe()` order for the reported rows). `describe()`, the wire codec
/// (`crate::wire`) and the CLI overrides (`crate::cli`) are each one loop
/// over it, so a new axis is a field, its default in [`Scenario::new`], a
/// row here and its use in execution.
pub const AXES: &[Axis] = &[
    Axis::new("label", |sc| Some(&sc.label), |sc, v| put(v, |x| sc.label = x)),
    Axis::new("n", |sc| Some(&sc.n), |sc, v| put(v, |x| sc.n = x)),
    Axis::new("f", |sc| Some(&sc.f), |sc, v| put(v, |x| sc.f = x)),
    Axis::new("seed_offset", |sc| Some(&sc.seed_offset), |sc, v| put(v, |x| sc.seed_offset = x)),
    Axis::new(
        "seeds",
        |sc| sc.seeds.as_ref().map(|x| x as &dyn Display),
        |sc, v| put(v, |x| sc.seeds = Some(x)),
    )
    .optional(),
    Axis::new("protocol", |sc| Some(&sc.protocol), |sc, v| put(v, |x| sc.protocol = x))
        .reported(Always),
    Axis::new("adversary", |sc| Some(&sc.adversary), |sc, v| put(v, |x| sc.adversary = x))
        .reported(Always),
    Axis::new("inputs", |sc| Some(&sc.inputs), |sc, v| put(v, |x| sc.inputs = x)).reported(Always),
    Axis::new("model", |sc| Some(&sc.model), |sc, v| put(v, |x| sc.model = x)).reported(Always),
    Axis::new("elig", |sc| Some(&sc.elig), |sc, v| put(v, |x| sc.elig = x)).reported(Always),
    Axis::new("elig_seed", |sc| Some(&sc.elig_seed), |sc, v| put(v, |x| sc.elig_seed = x))
        .reported(Always),
    Axis::new(
        "sim_threads",
        |sc| Some(&sc.sim_threads),
        |sc, v| put(v, |x: usize| sc.sim_threads = x.max(1)),
    )
    .overridable("N"),
    Axis::new("population", |sc| Some(&sc.population), |sc, v| put(v, |x| sc.population = x))
        .optional()
        .overridable("sparse|dense"),
    Axis::new("transport", |sc| Some(&sc.transport), |sc, v| put(v, |x| sc.transport = x))
        .reported(Always)
        .optional()
        .overridable("lockstep|latency[:k=v,..]|tcp"),
    Axis::new(
        "cert_encoding",
        |sc| Some(&sc.cert_encoding),
        |sc, v| put(v, |x| sc.cert_encoding = x),
    )
    .reported(Always)
    .optional()
    .overridable("vector|aggregate"),
    // Set-but-empty is a state of its own (the fault wrapper as a
    // structural pass-through): the wire carries it, reports omit it.
    Axis::new(
        "faults",
        |sc| sc.fault_plan.as_ref().map(|plan| plan as &dyn Display),
        |sc, v| put(v, |x| sc.fault_plan = Some(x)),
    )
    .reported(If(|sc| sc.fault_plan.is_some_and(|plan| !plan.is_empty())))
    .optional()
    .overridable("PLAN"),
    Axis::new(
        "claimed_bound",
        |sc| sc.claimed_bound.then_some(&"on" as &dyn Display),
        |sc, v| {
            (v == "on").then(|| sc.claimed_bound = true).ok_or_else(|| format!("'{v}' is not 'on'"))
        },
    )
    .reported(If(|sc| sc.claimed_bound))
    .optional(),
];

impl Scenario {
    /// A passive, static, ideal-eligibility scenario with alternating
    /// inputs (broadcast families default to [`InputPattern::SenderParity`],
    /// the only kind of pattern that defines their sender bit) — override
    /// the rest through the builder methods.
    pub fn new(label: impl Into<String>, n: usize, protocol: ProtocolSpec) -> Scenario {
        let inputs = if protocol.is_broadcast() {
            InputPattern::SenderParity
        } else {
            InputPattern::Alternating
        };
        Scenario {
            label: label.into(),
            n,
            f: 0,
            model: CorruptionModel::Static,
            inputs,
            adversary: AdversarySpec::Passive,
            protocol,
            elig: EligMode::Ideal,
            elig_seed: EligSeed::PerRun,
            seed_offset: 0,
            seeds: None,
            sim_threads: 1,
            population: PopulationMode::Dense,
            transport: TransportSpec::Lockstep,
            cert_encoding: CertEncoding::Vector,
            fault_plan: None,
            claimed_bound: false,
        }
    }

    /// Sets the corruption budget.
    pub fn f(mut self, f: usize) -> Scenario {
        self.f = f;
        self
    }

    /// Sets the corruption model.
    pub fn model(mut self, model: CorruptionModel) -> Scenario {
        self.model = model;
        self
    }

    /// Sets the input pattern.
    pub fn inputs(mut self, inputs: InputPattern) -> Scenario {
        self.inputs = inputs;
        self
    }

    /// Sets the adversary.
    pub fn adversary(mut self, adversary: AdversarySpec) -> Scenario {
        self.adversary = adversary;
        self
    }

    /// Switches mined families to the real-world VRF backend.
    pub fn real_elig(mut self) -> Scenario {
        self.elig = EligMode::Real;
        self
    }

    /// Pins the eligibility backend to one fixed-seed instance, shared
    /// across workers.
    pub fn elig_fixed(mut self, seed: u64) -> Scenario {
        self.elig_seed = EligSeed::Fixed(seed);
        self
    }

    /// Offsets the run seeds (`seed = offset + index`).
    pub fn seed_offset(mut self, offset: u64) -> Scenario {
        self.seed_offset = offset;
        self
    }

    /// Overrides the sweep-level seed count for this scenario.
    pub fn seeds(mut self, seeds: u64) -> Scenario {
        self.seeds = Some(seeds);
        self
    }

    /// Sets the in-execution worker-thread count (see
    /// [`Scenario::sim_threads`]; `--sim-threads` on experiment binaries
    /// overrides it grid-wide).
    pub fn sim_threads(mut self, threads: usize) -> Scenario {
        self.sim_threads = threads.max(1);
        self
    }

    /// Sets the population engine (see [`Scenario::population`];
    /// `--population` on experiment binaries overrides it grid-wide).
    pub fn population(mut self, population: PopulationMode) -> Scenario {
        self.population = population;
        self
    }

    /// Sets the delivery transport (see [`Scenario::transport`];
    /// `--transport` on experiment binaries overrides it grid-wide).
    pub fn transport(mut self, transport: TransportSpec) -> Scenario {
        self.transport = transport;
        self
    }

    /// Sets the certificate encoding (see [`Scenario::cert_encoding`];
    /// `--cert-encoding` on experiment binaries overrides it grid-wide).
    pub fn cert_encoding(mut self, encoding: CertEncoding) -> Scenario {
        self.cert_encoding = encoding;
        self
    }

    /// Layers a network-fault plan over the transport (see
    /// [`Scenario::fault_plan`]; `--faults` on experiment binaries
    /// overrides it grid-wide).
    pub fn faults(mut self, plan: FaultPlan) -> Scenario {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables the `claimed_bound_words` observable (see
    /// [`Scenario::claimed_bound`]).
    pub fn with_claimed_bound(mut self) -> Scenario {
        self.claimed_bound = true;
        self
    }

    /// Key/value description of the configuration (report metadata): the
    /// [`AXES`] rows whose [`ReportRule`] admits this scenario.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        let reported = |axis: &&Axis| match axis.report {
            Always => true,
            Never => false,
            If(holds) => holds(self),
        };
        AXES.iter()
            .filter(reported)
            .filter_map(|axis| Some((axis.key, (axis.get)(self)?.to_string())))
            .collect()
    }

    /// Sets one axis by its [`AXES`] key from a string in its grammar — the
    /// by-key override the CLI's grid-wide flags apply.
    pub fn set_axis(&mut self, key: &str, value: &str) -> Result<(), String> {
        let axis = AXES.iter().find(|axis| axis.key == key);
        (axis.ok_or_else(|| format!("unknown axis '{key}'"))?.set)(self, value)
    }

    /// The canvas the table-driven decoders paint on: every optional axis
    /// at [`Scenario::new`]'s default, every required one a placeholder
    /// its row's `set` must overwrite.
    pub(crate) fn blank() -> Scenario {
        Scenario::new("", 0, ProtocolSpec::QuadraticHalf)
    }

    /// Whether the scenario's family can execute it — the rules the
    /// `panic!`s of execution hold as in-process invariants, stated once
    /// for descriptors that arrive from outside the process. (The
    /// measurement workloads read neither the adversary nor the inputs;
    /// they are held to the family-agnostic values all the same.) An `Err`
    /// names the offending axis first.
    pub fn check(&self) -> Result<(), String> {
        use {AdversarySpec as A, InputPattern as I, ProtocolSpec as P};
        let (n, f, p) = (self.n, self.f, &self.protocol);
        if f >= n {
            return Err(format!("f: corruption budget {f} must leave one honest node of n = {n}"));
        }
        let attacks = match (self.adversary, p) {
            (A::CertForger { .. }, P::SubqHalf { .. } | P::QuadraticHalf) => true,
            (
                A::VoteFlipper | A::EquivocationSpammer,
                P::WarmupThird { .. }
                | P::SubqThird { .. }
                | P::SubqShared { .. }
                | P::ChenMicali { .. },
            ) => true,
            (A::CertForger { .. } | A::VoteFlipper | A::EquivocationSpammer, _) => false,
            // Dolev–Strong has no quorum to starve.
            (A::StarveQuorum, P::DolevStrong { .. } | P::BaFromBb { .. }) => false,
            _ => true,
        };
        if !attacks {
            return Err(format!("adversary: {} does not attack {p}", self.adversary));
        }
        // The eraser corrupts its victims mid-run, as they speak.
        let erases = matches!(self.adversary, A::CommitteeEraser | A::StarveQuorum);
        if erases && self.model == CorruptionModel::Static && f > 0 {
            return Err(format!(
                "model: static forbids the mid-run corruptions of {}",
                self.adversary
            ));
        }
        // A broadcast needs one sender bit, an agreement one bit per node.
        let fits = match self.inputs {
            I::Unanimous(_) => true,
            I::SenderParity => p.is_broadcast(),
            I::Alternating | I::EveryThird | I::FirstFrac(_) => !p.is_broadcast(),
        };
        if !fits {
            return Err(format!("inputs: {} does not fit {p}", self.inputs));
        }
        let lambda = match *p {
            P::SubqHalf { lambda, .. }
            | P::SubqThird { lambda, .. }
            | P::SubqShared { lambda, .. }
            | P::ChenMicali { lambda, .. }
            | P::IterBroadcast { lambda }
            | P::GoodIteration { lambda, .. }
            | P::CommitteeTails { lambda }
            | P::CommitteeSample { lambda } => lambda,
            _ => 1.0,
        };
        if !(lambda > 0.0 && lambda <= n as f64) {
            return Err(format!("protocol: lambda = {lambda} must lie in (0, n = {n}]"));
        }
        match *p {
            P::WarmupThird { epochs: 0 }
            | P::SubqThird { epochs: 0, .. }
            | P::SubqShared { epochs: 0, .. }
            | P::ChenMicali { epochs: 0, .. } => Err(format!("protocol: {p} runs no epoch")),
            P::Theorem4 { .. } if f < 2 => {
                Err(format!("f: theorem4 corrupts a set of f/2 >= 1 nodes, and f = {f}"))
            }
            P::Theorem3 { committee } if n < 3 || !(1..n).contains(&committee) => Err(format!(
                "protocol: theorem3 needs n >= 3 and committee in [1, n), got n = {n}, \
                 committee = {committee}"
            )),
            _ => Ok(()),
        }
    }

    fn build_elig(&self, seed: u64, shared: &SharedElig, lambda: f64) -> Arc<dyn Eligibility> {
        let (n, mode) = (self.n, self.elig);
        let build = move |s: u64| -> Arc<dyn Eligibility> {
            match mode {
                EligMode::Ideal => Arc::new(IdealMine::new(s, MineParams::new(n, lambda))),
                // Eager per-node fixed-base tables cost ~30 KiB each — fine
                // for protocol-scale n, ruinous for population-scale grids
                // (3 GiB at n = 10^5). The untabled setup verifies
                // bit-identically through the plain-pow fallback and the
                // proven-statement cache.
                EligMode::Real if n >= REAL_ELIG_UNTABLED_N => {
                    Arc::new(RealMine::from_seed_untabled(s, MineParams::new(n, lambda)))
                }
                EligMode::Real => Arc::new(RealMine::from_seed(s, MineParams::new(n, lambda))),
            }
        };
        match self.elig_seed {
            EligSeed::PerRun => build(seed),
            EligSeed::Fixed(s) => shared.get_or_build(move || build(s)),
        }
    }

    /// Executes the scenario under `seed` and distills a [`RunRecord`]
    /// (the sweep-engine entry point).
    pub fn run_seed(&self, seed: u64, shared: &SharedElig) -> RunRecord {
        self.execute_shared(seed, shared).record
    }

    /// Executes the scenario under `seed`, returning the full outcome
    /// (stand-alone entry point for examples and tests).
    pub fn execute(&self, seed: u64) -> ScenarioRun {
        self.execute_shared(seed, &SharedElig::new())
    }

    fn execute_shared(&self, seed: u64, shared: &SharedElig) -> ScenarioRun {
        // The fault layer wraps whatever base transport the scenario names;
        // empty plans still wrap (structural pass-through), so `--faults
        // none` exercises the wrapper itself.
        let transport = match self.fault_plan {
            Some(plan) => self.transport.with_fault_plan(plan),
            None => self.transport,
        };
        let sim = SimConfig::new(self.n.max(1), self.f, self.model, seed)
            .with_threads(self.sim_threads)
            .with_population(self.population)
            .with_transport(transport);
        match &self.protocol {
            ProtocolSpec::SubqHalf { lambda, max_iters } => {
                let mut cfg = IterConfig::subq_half(self.n, self.build_elig(seed, shared, *lambda))
                    .with_cert_encoding(self.cert_encoding);
                if let Some(mi) = max_iters {
                    cfg.max_iters = *mi;
                }
                self.run_iter(cfg, &sim, seed)
            }
            ProtocolSpec::QuadraticHalf => {
                let kc = Arc::new(Keychain::from_seed(seed, self.n, SigMode::Ideal));
                let cfg = IterConfig::quadratic_half(self.n, kc, seed)
                    .with_cert_encoding(self.cert_encoding);
                self.run_iter(cfg, &sim, seed)
            }
            ProtocolSpec::WarmupThird { epochs } => {
                let kc = Arc::new(Keychain::from_seed(seed, self.n, SigMode::Ideal));
                self.run_epoch(EpochConfig::warmup_third(self.n, *epochs, kc), &sim, seed)
            }
            ProtocolSpec::SubqThird { lambda, epochs } => {
                let elig = self.build_elig(seed, shared, *lambda);
                self.run_epoch(EpochConfig::subq_third(self.n, *epochs, elig), &sim, seed)
            }
            ProtocolSpec::SubqShared { lambda, epochs } => {
                let elig = self.build_elig(seed, shared, *lambda);
                let kc = Arc::new(Keychain::from_seed(seed, self.n, SigMode::Ideal));
                self.run_epoch(EpochConfig::subq_shared(self.n, *epochs, elig, kc), &sim, seed)
            }
            ProtocolSpec::ChenMicali { lambda, epochs, erasure } => {
                let elig = self.build_elig(seed, shared, *lambda);
                let fs = Arc::new(FsService::from_seed(seed, self.n, *epochs as usize + 1));
                let cfg = EpochConfig::chen_micali(self.n, *epochs, elig, fs, *erasure);
                self.run_epoch(cfg, &sim, seed)
            }
            ProtocolSpec::MomoseRenHalf { views } => {
                let kc = Arc::new(Keychain::from_seed(seed, self.n, SigMode::Ideal));
                let cfg = MrConfig::half(self.n, *views, kc).with_cert_encoding(self.cert_encoding);
                let inputs = self.inputs.generate(self.n, seed);
                let quorum = cfg.quorum;
                let runnable = self
                    .typed_runnable(Some(quorum), |adv| momose_ren::runnable(&cfg, inputs, adv));
                self.finish(seed, runnable.execute(&sim), Vec::new())
            }
            ProtocolSpec::CksAdaptive { phases } => {
                let kc = Arc::new(Keychain::from_seed(seed, self.n, SigMode::Ideal));
                let cfg =
                    CksConfig::adaptive(self.n, *phases, kc).with_cert_encoding(self.cert_encoding);
                let inputs = self.inputs.generate(self.n, seed);
                let quorum = cfg.quorum;
                let runnable =
                    self.typed_runnable(Some(quorum), |adv| cks::runnable(&cfg, inputs, adv));
                self.finish(seed, runnable.execute(&sim), Vec::new())
            }
            ProtocolSpec::DolevStrong { ds_f } => {
                let kc = Arc::new(Keychain::from_seed(seed, self.n, SigMode::Ideal));
                let cfg = DsConfig { n: self.n, f: *ds_f, sender: NodeId(0), keychain: kc };
                let runnable = self.typed_runnable(None, |adv| {
                    dolev_strong::runnable(&cfg, self.inputs.sender_bit(seed), adv)
                });
                self.finish(seed, runnable.execute(&sim), Vec::new())
            }
            ProtocolSpec::BaFromBb { ds_f } => {
                let kc = Arc::new(Keychain::from_seed(seed, self.n, SigMode::Ideal));
                let inputs = self.inputs.generate(self.n, seed);
                let runnable = self.typed_runnable(None, |adv| {
                    ba_from_bb::runnable(self.n, *ds_f, kc, inputs, adv)
                });
                self.finish(seed, runnable.execute(&sim), Vec::new())
            }
            ProtocolSpec::IterBroadcast { lambda } => {
                let cfg = IterConfig::subq_half(self.n, self.build_elig(seed, shared, *lambda))
                    .with_cert_encoding(self.cert_encoding);
                let kc = Arc::new(Keychain::from_seed(seed, self.n, SigMode::Ideal));
                let runnable = self.typed_runnable(Some(cfg.quorum), |adv| {
                    broadcast::runnable_iter_bb(
                        &cfg,
                        kc,
                        NodeId(0),
                        self.inputs.sender_bit(seed),
                        adv,
                    )
                });
                self.finish(seed, runnable.execute(&sim), Vec::new())
            }
            ProtocolSpec::Theorem4 { fanout } => {
                let sample = theorem4::run_seed(self.n, self.f, *fanout, seed);
                let mut record = RunRecord::new(seed);
                record.push("messages", sample.messages as f64);
                record.push_flag("isolated", sample.isolated);
                record.push_flag("violated", sample.violated);
                ScenarioRun { record, report: None, verdict: None }
            }
            ProtocolSpec::Theorem3 { committee } => {
                let rep = theorem3::run_experiment(self.n, *committee);
                let mut record = RunRecord::new(seed);
                record.push_flag("q_valid", rep.q_valid);
                record.push_flag("q_prime_valid", rep.q_prime_valid);
                record.push("node1_output", rep.node1_output.map_or(-1.0, |b| b as u64 as f64));
                record.push("corruptions_needed", rep.corruptions_needed as f64);
                record.push("q_multicasts", rep.q_multicasts as f64);
                record.push_flag("node1_inconsistent_with_q", rep.node1_inconsistent_with_q);
                record.push_flag(
                    "node1_inconsistent_with_q_prime",
                    rep.node1_inconsistent_with_q_prime,
                );
                record.push_flag("contradiction", rep.contradiction_established());
                ScenarioRun { record, report: None, verdict: None }
            }
            ProtocolSpec::GoodIteration { lambda, mine_seed } => {
                self.sample_good_iteration(seed, *lambda, *mine_seed)
            }
            ProtocolSpec::CommitteeTails { lambda } => self.sample_committee_tails(seed, *lambda),
            ProtocolSpec::CommitteeSample { lambda } => {
                let elig = self.build_elig(seed, shared, *lambda);
                let mut record = RunRecord::new(seed);
                for iter_no in 0..4u64 {
                    let tag = MineTag::new(MsgKind::Vote, iter_no, true);
                    let size =
                        (0..self.n).filter(|&i| elig.mine(NodeId(i), &tag).is_some()).count();
                    record.push("committee_size", size as f64);
                }
                ScenarioRun { record, report: None, verdict: None }
            }
        }
    }

    /// Builds the family-agnostic adversaries; families with typed
    /// adversaries (forger, flipper) construct them in their own `run_*`.
    fn typed_runnable<M: ba_sim::Message + Send + 'static>(
        &self,
        quorum: Option<usize>,
        make: impl FnOnce(Box<dyn Adversary<M> + Send>) -> Runnable,
    ) -> Runnable {
        let adv: Box<dyn Adversary<M> + Send> = match self.adversary {
            AdversarySpec::Passive => Box::new(Passive),
            AdversarySpec::CommitteeEraser => Box::new(CommitteeEraser::new()),
            AdversarySpec::StarveQuorum => Box::new(CommitteeEraser::starve_quorum(
                quorum.expect("starve_quorum needs a quorum-bearing protocol"),
            )),
            AdversarySpec::CrashTail { at_round } => Box::new(CrashAt {
                nodes: (self.n - self.f..self.n).map(NodeId).collect(),
                at_round,
            }),
            AdversarySpec::SilenceThenBurst { at_round } => {
                Box::new(SilenceThenBurst::tail(self.n, self.f, at_round))
            }
            AdversarySpec::AdaptiveEclipse { per_round: 0 } => Box::new(AdaptiveEclipse::new()),
            AdversarySpec::AdaptiveEclipse { per_round } => {
                Box::new(AdaptiveEclipse::paced(per_round))
            }
            AdversarySpec::EclipseBurst { at_round } => {
                Box::new(EclipseBurst::tail(self.n, self.f, at_round))
            }
            AdversarySpec::CertForger { .. }
            | AdversarySpec::VoteFlipper
            | AdversarySpec::EquivocationSpammer => {
                panic!(
                    "{} does not attack this protocol family ({})",
                    self.adversary, self.protocol
                )
            }
        };
        make(adv)
    }

    fn run_iter(&self, cfg: IterConfig, sim: &SimConfig, seed: u64) -> ScenarioRun {
        let inputs = self.inputs.generate(self.n, seed);
        match self.adversary {
            AdversarySpec::CertForger { target } => {
                let adv = CertForger::new(self.n, self.f, target, cfg.quorum, cfg.auth.clone())
                    .with_encoding(cfg.effective_cert_encoding());
                let stats = adv.stats();
                let outcome = iter::runnable(&cfg, inputs, adv).execute(sim);
                // Local probe counters only — a blocked forgery is never
                // sent, so these ride under the `cert_*` observable prefix
                // that encoding diffs already ignore.
                let extras = vec![
                    ("cert_forge_attempts", stats.attempts() as f64),
                    ("cert_forge_blocked", stats.blocked() as f64),
                ];
                self.finish(seed, outcome, extras)
            }
            _ => {
                let quorum = cfg.quorum;
                let runnable =
                    self.typed_runnable(Some(quorum), |adv| iter::runnable(&cfg, inputs, adv));
                self.finish(seed, runnable.execute(sim), Vec::new())
            }
        }
    }

    fn run_epoch(&self, cfg: EpochConfig, sim: &SimConfig, seed: u64) -> ScenarioRun {
        let inputs = self.inputs.generate(self.n, seed);
        match self.adversary {
            AdversarySpec::VoteFlipper => {
                let counters = Arc::new(FlipCounters::default());
                let adv = FlipCounting {
                    inner: VoteFlipper::new(cfg.auth.clone(), cfg.quorum),
                    out: counters.clone(),
                };
                let outcome = epoch::runnable(&cfg, inputs, adv).execute(sim);
                let extras = vec![
                    ("flips_injected", counters.injected.load(Ordering::Relaxed) as f64),
                    ("flips_blocked", counters.blocked.load(Ordering::Relaxed) as f64),
                ];
                self.finish(seed, outcome, extras)
            }
            AdversarySpec::EquivocationSpammer => {
                let adv = EquivocationSpammer::new(self.n, self.f, cfg.auth.clone());
                let stats = adv.stats();
                let outcome = epoch::runnable(&cfg, inputs, adv).execute(sim);
                let extras = vec![
                    ("equivocations", stats.equivocations() as f64),
                    ("equiv_blocked", stats.blocked() as f64),
                ];
                self.finish(seed, outcome, extras)
            }
            _ => {
                let quorum = cfg.quorum;
                let runnable =
                    self.typed_runnable(Some(quorum), |adv| epoch::runnable(&cfg, inputs, adv));
                self.finish(seed, runnable.execute(sim), Vec::new())
            }
        }
    }

    /// Distills a finished protocol run into the standard observables.
    fn finish(
        &self,
        seed: u64,
        (report, verdict): (RunReport, Verdict),
        extras: Vec<(&'static str, f64)>,
    ) -> ScenarioRun {
        let m = &report.metrics;
        let mut record = RunRecord::new(seed);
        record.push("rounds", report.rounds_used as f64);
        record.push("multicasts", m.honest_multicasts as f64);
        record.push("multicast_bits", m.honest_multicast_bits as f64);
        record.push("kbits", m.honest_multicast_bits as f64 / 1000.0);
        record.push("cert_bits", m.honest_cert_bits as f64);
        record.push("unicasts", m.honest_unicasts as f64);
        record.push("classical_msgs", m.classical_messages(self.n) as f64);
        record.push("corrupt_sends", m.corrupt_sends as f64);
        record.push("corrupt_bits", m.corrupt_bits as f64);
        record.push("injected_sends", m.injected_sends as f64);
        record.push("corruptions", m.corruptions as f64);
        record.push("removals", m.removals as f64);
        record.push("dropped_sends", m.dropped_sends as f64);
        // Substrate gauges: excluded from `Metrics` equality (they vary
        // between the dense and sparse engines), so baseline diffs across
        // engines ignore them (`--ignore-observable 'peak_*'`).
        record.push("peak_live_nodes", m.peak_live_nodes as f64);
        record.push("peak_resident_msgs", m.peak_resident_msgs as f64);
        if let Some(lat) = &m.latency {
            record.push("latency_commit_p50_ms", lat.commit_p50_ms);
            record.push("latency_commit_p95_ms", lat.commit_p95_ms);
            record.push("latency_commit_p99_ms", lat.commit_p99_ms);
            record.push("latency_delay_p50_ms", lat.delay_p50_ms);
            record.push("latency_delay_p95_ms", lat.delay_p95_ms);
            record.push("latency_delay_p99_ms", lat.delay_p99_ms);
            record.push("latency_delivered", lat.delivered as f64);
            record.push("latency_late_deliveries", lat.late_deliveries as f64);
            record.push("latency_undelivered", lat.undelivered as f64);
        }
        // Fault observables are seed-deterministic (injection decisions
        // hash only seed, plan, message id, and receiver), so unlike the
        // latency gauges they are stable across backends and belong in
        // committed baselines.
        if let Some(faults) = &m.faults {
            record.push("faults_dropped", faults.dropped as f64);
            record.push("faults_duplicated", faults.duplicated as f64);
            record.push("faults_reordered", faults.reordered as f64);
            record.push("faults_partitioned", faults.partitioned as f64);
            record.push("faults_undelivered", faults.undelivered as f64);
            record.push("partition_rounds", faults.partition_rounds as f64);
        }
        record.push_flag("consistent", verdict.consistent);
        record.push_flag("valid", verdict.valid);
        record.push_flag("terminated", verdict.terminated);
        record.push_flag("all_ok", verdict.all_ok());
        record.push_flag("defeated", !verdict.all_ok());
        if verdict.terminated {
            record.push("rounds_terminated", report.rounds_used as f64);
        }
        if self.claimed_bound {
            if let Some(words) = self.protocol.claimed_bound_words(self.n, self.f) {
                record.push("claimed_bound_words", words);
            }
        }
        if let Some(bit) = report.forever_honest().next().and_then(|i| report.outputs[i.index()]) {
            record.push("decision", bit as u64 as f64);
        }
        for (name, value) in extras {
            record.push(name, value);
        }
        ScenarioRun { record, report: Some(report), verdict: Some(verdict) }
    }

    /// One Lemma 12 leader-election iteration (iteration index = seed):
    /// `n − f` honest single-bit propose attempts plus `f` corrupt
    /// both-bit grinds against a fixed `F_mine` instance.
    fn sample_good_iteration(&self, seed: u64, lambda: f64, mine_seed: u64) -> ScenarioRun {
        let fmine = IdealMine::new(mine_seed, MineParams::new(self.n, lambda));
        let (n, f, r) = (self.n, self.f, seed);
        let mut honest_successes = 0u64;
        for i in 0..n - f {
            let bit = (i + r as usize).is_multiple_of(2);
            if fmine.mine(NodeId(i), &MineTag::new(MsgKind::Propose, r, bit)).is_some() {
                honest_successes += 1;
            }
        }
        let mut corrupt_successes = 0u64;
        for i in n - f..n {
            for bit in [false, true] {
                if fmine.mine(NodeId(i), &MineTag::new(MsgKind::Propose, r, bit)).is_some() {
                    corrupt_successes += 1;
                }
            }
        }
        let mut record = RunRecord::new(seed);
        record.push_flag("good", honest_successes == 1 && corrupt_successes == 0);
        record.push_flag("unique", honest_successes + corrupt_successes == 1);
        ScenarioRun { record, report: None, verdict: None }
    }

    /// One Lemmas 10/11 committee draw (trial index = seed): corrupt vs
    /// honest eligibility for a vote tag, plus the Lemma 10 terminator
    /// ticket check.
    fn sample_committee_tails(&self, seed: u64, lambda: f64) -> ScenarioRun {
        let (n, f, t) = (self.n, self.f, seed);
        let fmine =
            IdealMine::new(t.wrapping_mul(0x9E37).wrapping_add(11), MineParams::new(n, lambda));
        let quorum = (lambda / 2.0).ceil() as usize;
        let eps = 0.5 - f as f64 / n as f64;
        let terminators = ((eps * n as f64) / 2.0).ceil() as usize;
        let tag = MineTag::new(MsgKind::Vote, t, true);
        let corrupt_eligible =
            (n - f..n).filter(|&i| fmine.mine(NodeId(i), &tag).is_some()).count();
        let honest_eligible = (0..n - f).filter(|&i| fmine.mine(NodeId(i), &tag).is_some()).count();
        let term_tag = MineTag::terminate(true);
        let any_terminator =
            (0..terminators.min(n - f)).any(|i| fmine.mine(NodeId(i), &term_tag).is_some());
        let mut record = RunRecord::new(seed);
        record.push_flag("corrupt_quorum", corrupt_eligible >= quorum);
        record.push_flag("honest_starved", honest_eligible < quorum);
        record.push_flag("terminate_mute", !any_terminator);
        ScenarioRun { record, report: None, verdict: None }
    }
}

/// Cross-thread flip counters recovered from a [`VoteFlipper`] run.
#[derive(Default)]
struct FlipCounters {
    injected: AtomicU64,
    blocked: AtomicU64,
}

/// Forwards to the wrapped [`VoteFlipper`] and mirrors its statistics into
/// shared atomics after every intervention.
struct FlipCounting {
    inner: VoteFlipper,
    out: Arc<FlipCounters>,
}

impl Adversary<EpochMsg> for FlipCounting {
    fn intervene(&mut self, ctx: &mut AdvCtx<'_, EpochMsg>) {
        self.inner.intervene(ctx);
        self.out.injected.store(self.inner.flips_injected, Ordering::Relaxed);
        self.out.blocked.store(self.inner.flips_blocked, Ordering::Relaxed);
    }
}
