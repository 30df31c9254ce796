//! The sans-I/O transport seam: *who computes* is the engine's business,
//! *when messages arrive* is the transport's.
//!
//! The round engine ([`crate::engine::Sim`]) steps pure protocol state
//! machines and hands every round's surviving envelopes to a [`Transport`];
//! the transport alone decides at which round each copy lands in which
//! inbox, and (optionally) what that delivery cost in clock time. Three
//! backends ship behind the one trait:
//!
//! * [`lockstep::LockstepTransport`] — the classic synchronous model:
//!   everything sent in round `r` arrives at the start of round `r + 1`, in
//!   send order. Byte-identical to the pre-seam engine, and the only
//!   delivery rule under which the engine may keep a lazy live set
//!   ([`crate::engine::Sim::run_population`] says why).
//! * [`latency::LatencyTransport`] — a simulated-clock partial-synchrony
//!   model: each round occupies `round_ms` of virtual time (nodes pace
//!   themselves by timeout, not by a global barrier), every `(message,
//!   receiver)` link samples a delay from [`DelayDist`], and deliveries
//!   before the global stabilization time ([`TransportSpec::Latency`]'s
//!   `gst_ms`) are held until GST. Fully deterministic: delays are a pure
//!   function of `(seed, message id, receiver)`, so reports replay
//!   byte-identically and do not depend on iteration order or thread count.
//! * `ba-net`'s TCP loopback transport — real sockets, real wall-clock
//!   delays, one reader task per node. Lives outside `ba-sim` so the
//!   simulation core itself stays free of I/O.
//!
//! A fourth, composable layer wraps any of the three:
//! [`fault::FaultyTransport`] applies a declarative, seed-deterministic
//! [`fault::FaultPlan`] — drops, duplication, bounded reordering,
//! partitions with a heal round, and an adversarial scheduler — selected
//! via [`TransportSpec::Faulty`]; see `docs/FAULTS.md`.
//!
//! Delivery-delay and commit-latency percentiles surface through
//! [`TransportStats`] into [`crate::metrics::Metrics::latency`]; like the
//! engine-memory gauges they are *measurements of the execution substrate*,
//! not protocol observables, and are excluded from `Metrics` equality.

pub mod fault;
pub mod latency;
pub mod lockstep;

use crate::ids::Round;
use crate::message::{Envelope, Incoming, Message};

use fault::{FaultPlan, FaultStats};

/// Declarative transport selection carried by `SimConfig` (and, upstream, by
/// benchmark scenarios and the shared experiment CLI).
///
/// `Lockstep` and `Latency` are realized inside `ba-sim`; `Tcp` names a
/// backend that needs real sockets and is supplied by `ba-net` (see
/// [`TransportSpec::build`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TransportSpec {
    /// Deterministic in-memory lockstep (the default; the paper's model).
    #[default]
    Lockstep,
    /// Simulated-clock latency model with partial synchrony.
    Latency {
        /// Virtual duration of one protocol round in milliseconds: nodes
        /// step at `t = r · round_ms` and time out into round `r + 1` at
        /// `t = (r + 1) · round_ms` whether or not traffic arrived.
        round_ms: u64,
        /// Global stabilization time. Messages whose nominal arrival falls
        /// before `gst_ms` are held until GST *then* incur their link delay
        /// — before GST the network is allowed to be arbitrarily slow.
        gst_ms: u64,
        /// Per-link delay distribution, sampled deterministically per
        /// `(message, receiver)`.
        dist: DelayDist,
    },
    /// Real TCP loopback delivery (constructed by `ba-net`): every timing
    /// number is measured wall clock, so this variant carries no knobs.
    Tcp,
    /// Any base backend wrapped in the deterministic fault-injection
    /// layer ([`fault::FaultyTransport`]). A `Faulty` spec whose plan is
    /// empty routes through the wrapper but is byte-identical to the bare
    /// inner backend (the anchoring identity, asserted in CI).
    Faulty {
        /// The wrapped delivery backend.
        inner: BaseTransport,
        /// The declarative fault plan.
        plan: FaultPlan,
    },
}

/// The backends a [`TransportSpec::Faulty`] wrapper can enclose — the
/// three base variants of [`TransportSpec`], minus `Faulty` itself (fault
/// layers do not nest).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaseTransport {
    /// See [`TransportSpec::Lockstep`].
    Lockstep,
    /// See [`TransportSpec::Latency`].
    Latency {
        /// Virtual duration of one protocol round in milliseconds.
        round_ms: u64,
        /// Global stabilization time in milliseconds.
        gst_ms: u64,
        /// Per-link delay distribution.
        dist: DelayDist,
    },
    /// See [`TransportSpec::Tcp`].
    Tcp,
}

impl From<BaseTransport> for TransportSpec {
    fn from(base: BaseTransport) -> TransportSpec {
        match base {
            BaseTransport::Lockstep => TransportSpec::Lockstep,
            BaseTransport::Latency { round_ms, gst_ms, dist } => {
                TransportSpec::Latency { round_ms, gst_ms, dist }
            }
            BaseTransport::Tcp => TransportSpec::Tcp,
        }
    }
}

impl TryFrom<TransportSpec> for BaseTransport {
    type Error = String;

    fn try_from(spec: TransportSpec) -> Result<BaseTransport, String> {
        match spec {
            TransportSpec::Lockstep => Ok(BaseTransport::Lockstep),
            TransportSpec::Latency { round_ms, gst_ms, dist } => {
                Ok(BaseTransport::Latency { round_ms, gst_ms, dist })
            }
            TransportSpec::Tcp => Ok(BaseTransport::Tcp),
            TransportSpec::Faulty { .. } => Err("fault layers do not nest".into()),
        }
    }
}

/// Default virtual round duration (ms) when a latency/tcp spec is built
/// without an explicit value.
pub const DEFAULT_ROUND_MS: u64 = 10;

/// The largest millisecond value the transport grammars accept, for
/// `round_ms`, `gst_ms` and every [`DelayDist`] parameter (2³² ms, about
/// 50 days). Past it the latency clock's arithmetic can overflow: the
/// exponential sampler's `u128` product, the uniform width `hi − lo + 1`,
/// and `(r + 1) · round_ms` / `depart + delay` in flight scheduling. At it,
/// a run still has 2³² rounds of headroom.
pub const MAX_TRANSPORT_MS: u64 = 1 << 32;

/// Parses the millisecond value of `key`, refusing one past
/// [`MAX_TRANSPORT_MS`].
fn parse_ms(key: &str, val: &str) -> Result<u64, String> {
    let ms: u64 = val.parse().map_err(|_| format!("bad {key} '{val}' (want integer ms)"))?;
    if ms > MAX_TRANSPORT_MS {
        return Err(format!("{key} {ms} exceeds the {MAX_TRANSPORT_MS} ms ceiling"));
    }
    Ok(ms)
}

impl TransportSpec {
    /// A latency spec with the default round duration, no GST, zero delay —
    /// the configuration provably equivalent to lockstep.
    pub fn latency_zero() -> TransportSpec {
        TransportSpec::Latency { round_ms: DEFAULT_ROUND_MS, gst_ms: 0, dist: DelayDist::Zero }
    }

    /// Canonical backend name (`lockstep` / `latency` / `tcp` / `faulty`).
    pub fn kind(&self) -> &'static str {
        match self {
            TransportSpec::Lockstep => "lockstep",
            TransportSpec::Latency { .. } => "latency",
            TransportSpec::Tcp => "tcp",
            TransportSpec::Faulty { .. } => "faulty",
        }
    }

    /// Wraps this spec (or re-plans an already-`Faulty` spec) with `plan`.
    pub fn with_fault_plan(self, plan: FaultPlan) -> TransportSpec {
        TransportSpec::Faulty { inner: self.split().0, plan }
    }

    /// The base backend this spec names and the fault plan wrapped round
    /// it, if any.
    fn split(self) -> (BaseTransport, Option<FaultPlan>) {
        match self {
            TransportSpec::Faulty { inner, plan } => (inner, Some(plan)),
            bare => (BaseTransport::try_from(bare).expect("non-faulty specs always convert"), None),
        }
    }

    /// Whether this spec delivers by the lockstep rule — every copy sent in
    /// round `r` lands at the start of round `r + 1`, in send order: the
    /// lockstep backend, bare or under an *empty* fault plan (the wrapper's
    /// structural pass-through). The one delivery rule a lazy live set can
    /// reproduce (see [`crate::engine::Sim::run_population`]).
    pub fn is_lockstep(&self) -> bool {
        matches!(self.split(), (BaseTransport::Lockstep, plan) if plan.is_none_or(|p| p.is_empty()))
    }

    /// Builds the backend this spec names for an `n`-node execution seeded
    /// with `seed` — the one `TransportSpec` → backend dispatch. `tcp`
    /// supplies the real-socket backend, which lives outside `ba-sim`
    /// (`ba-net` passes its loopback transport; the in-core entry points
    /// refuse).
    pub fn build<M: Message + Send + Sync + 'static>(
        self,
        n: usize,
        seed: u64,
        tcp: impl FnOnce() -> Box<dyn Transport<M>>,
    ) -> Box<dyn Transport<M>> {
        let (base, plan) = self.split();
        let inner: Box<dyn Transport<M>> = match base {
            BaseTransport::Lockstep => Box::new(lockstep::LockstepTransport::new()),
            BaseTransport::Latency { round_ms, gst_ms, dist } => {
                Box::new(latency::LatencyTransport::new(n, round_ms, gst_ms, dist, seed))
            }
            BaseTransport::Tcp => tcp(),
        };
        match plan {
            Some(plan) => Box::new(fault::FaultyTransport::new(inner, plan, n, seed)),
            None => inner,
        }
    }
}

/// Canonical textual form, accepted back by [`std::str::FromStr`]:
/// `lockstep`, `tcp`, `latency:round_ms=10,gst_ms=0,dist=uniform:1..5`,
/// `faulty:<plan>;<inner>` (a `;` separates the plan from the wrapped
/// spec since both use `:` and `,` internally), e.g.
/// `faulty:drop:p=0.25;lockstep` or `faulty:none;tcp`.
impl std::fmt::Display for TransportSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportSpec::Lockstep => f.write_str("lockstep"),
            TransportSpec::Latency { round_ms, gst_ms, dist } => {
                write!(f, "latency:round_ms={round_ms},gst_ms={gst_ms},dist={dist}")
            }
            TransportSpec::Tcp => f.write_str("tcp"),
            TransportSpec::Faulty { inner, plan } => {
                write!(f, "faulty:{plan};{}", TransportSpec::from(*inner))
            }
        }
    }
}

impl std::str::FromStr for TransportSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<TransportSpec, String> {
        let (kind, rest) = match s.split_once(':') {
            Some((k, r)) => (k, Some(r)),
            None => (s, None),
        };
        match kind {
            "lockstep" => match rest {
                None | Some("") => Ok(TransportSpec::Lockstep),
                Some(r) => Err(format!("lockstep takes no parameters (got '{r}')")),
            },
            "latency" => {
                let mut round_ms = DEFAULT_ROUND_MS;
                let mut gst_ms = 0u64;
                let mut dist = DelayDist::Zero;
                for part in rest.unwrap_or("").split(',').filter(|p| !p.is_empty()) {
                    let (key, val) = part
                        .split_once('=')
                        .ok_or_else(|| format!("latency parameter '{part}' is not key=value"))?;
                    match key {
                        "round_ms" => round_ms = parse_ms(key, val)?,
                        "gst_ms" => gst_ms = parse_ms(key, val)?,
                        "dist" => dist = val.parse()?,
                        other => return Err(format!("unknown latency parameter '{other}'")),
                    }
                }
                if round_ms == 0 {
                    return Err("round_ms must be positive".into());
                }
                Ok(TransportSpec::Latency { round_ms, gst_ms, dist })
            }
            "tcp" => match rest {
                None | Some("") => Ok(TransportSpec::Tcp),
                Some(r) => Err(format!("tcp takes no parameters (got '{r}')")),
            },
            "faulty" => {
                let body = rest.unwrap_or("");
                let (plan, inner) = body
                    .split_once(';')
                    .ok_or_else(|| format!("faulty spec '{body}' (want faulty:<plan>;<inner>)"))?;
                let plan: FaultPlan = plan.parse()?;
                let inner: TransportSpec = inner.parse()?;
                let inner = BaseTransport::try_from(inner)?;
                Ok(TransportSpec::Faulty { inner, plan })
            }
            other => Err(format!("unknown transport '{other}' (want lockstep|latency|tcp|faulty)")),
        }
    }
}

/// Per-link delay distribution for the simulated-latency transport.
///
/// Samples are a pure function of `(transport seed, message id, receiver)`
/// — see [`link_delay_ms`] — so the same seed replays the same network no
/// matter how many threads step the protocol or in which order envelopes are
/// examined. All three variants sample in exact integer arithmetic — `Exp`'s
/// inverse-CDF runs on a Q32 fixed-point base-2 logarithm instead of
/// `f64::ln`, so pinned-seed goldens are bit-identical across platforms and
/// libm implementations for every distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DelayDist {
    /// Every link delivers instantly (within the send round).
    Zero,
    /// Uniform integer delay in `[lo_ms, hi_ms]`, inclusive.
    Uniform {
        /// Minimum link delay (ms).
        lo_ms: u64,
        /// Maximum link delay (ms), `>= lo_ms`.
        hi_ms: u64,
    },
    /// Exponential delay with the given mean, truncated to whole ms.
    Exp {
        /// Mean link delay (ms).
        mean_ms: u64,
    },
}

/// Canonical textual form: `zero`, `uniform:LO..HI`, `exp:MEAN`.
impl std::fmt::Display for DelayDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DelayDist::Zero => f.write_str("zero"),
            DelayDist::Uniform { lo_ms, hi_ms } => write!(f, "uniform:{lo_ms}..{hi_ms}"),
            DelayDist::Exp { mean_ms } => write!(f, "exp:{mean_ms}"),
        }
    }
}

impl std::str::FromStr for DelayDist {
    type Err = String;

    fn from_str(s: &str) -> Result<DelayDist, String> {
        if s == "zero" {
            return Ok(DelayDist::Zero);
        }
        if let Some(range) = s.strip_prefix("uniform:") {
            let (lo, hi) = range
                .split_once("..")
                .ok_or_else(|| format!("bad uniform range '{range}' (want LO..HI)"))?;
            let lo_ms = parse_ms("uniform lower bound", lo)?;
            let hi_ms = parse_ms("uniform upper bound", hi)?;
            if hi_ms < lo_ms {
                return Err(format!("uniform range {lo_ms}..{hi_ms} is empty"));
            }
            return Ok(DelayDist::Uniform { lo_ms, hi_ms });
        }
        if let Some(mean) = s.strip_prefix("exp:") {
            let mean_ms = parse_ms("exp mean", mean)?;
            return Ok(DelayDist::Exp { mean_ms });
        }
        Err(format!("unknown delay distribution '{s}' (want zero|uniform:LO..HI|exp:MEAN)"))
    }
}

impl DelayDist {
    /// Draws a delay in milliseconds from 64 uniform bits.
    fn sample_ms(&self, bits: u64) -> f64 {
        match *self {
            DelayDist::Zero => 0.0,
            DelayDist::Uniform { lo_ms, hi_ms } => {
                // Width fits u64 (hi >= lo and the ms ceiling are checked
                // at parse); modulo bias is irrelevant at simulation widths.
                (lo_ms + bits % (hi_ms - lo_ms + 1)) as f64
            }
            DelayDist::Exp { mean_ms } => {
                // Inverse CDF on u = k/2^53 for k = (bits >> 11) + 1 in
                // [1, 2^53], evaluated entirely in fixed point:
                // −ln u = (53 − log2 k)·ln 2, so the delay is
                // ⌊mean · (53·2^32 − log2_q32(k)) · ln2_q32 / 2^64⌋ ms.
                // Integer-only — bit-identical on every platform, where
                // `f64::ln` may differ in the last ulp across libms.
                let k = (bits >> 11) + 1;
                let neg_log2_u_q32 = (53u64 << 32) - log2_fixed_q32(k);
                // floor(ln 2 · 2^32)
                const LN2_Q32: u128 = 2_977_044_471;
                ((mean_ms as u128 * neg_log2_u_q32 as u128 * LN2_Q32) >> 64) as f64
            }
        }
    }
}

/// `log2(x)` for `x ≥ 1` in unsigned Q32 fixed point, by the classic
/// integer square-and-shift digit recurrence: exact normalization, then 32
/// binary fraction digits from repeated squaring of the mantissa. Pure
/// integer arithmetic — no libm, no platform variance.
fn log2_fixed_q32(x: u64) -> u64 {
    debug_assert!(x >= 1);
    let int_part = 63 - u64::from(x.leading_zeros());
    // Mantissa x / 2^int_part in [1, 2), held as Q63.
    let mut m = (x as u128) << (63 - int_part);
    let mut frac = 0u64;
    for _ in 0..32 {
        m = (m * m) >> 63;
        frac <<= 1;
        if m >= 1u128 << 64 {
            frac |= 1;
            m >>= 1;
        }
    }
    (int_part << 32) | frac
}

/// `splitmix64` — the standard 64-bit finalizer used to hash
/// `(seed, message, receiver)` into link-delay bits.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic per-link delay: a pure function of the transport seed,
/// the message id, and the receiver index. Independent of inspection order,
/// thread count, and every other message — the property that makes latency
/// runs replayable.
pub fn link_delay_ms(seed: u64, msg_id: u64, receiver: usize, dist: &DelayDist) -> f64 {
    let bits = splitmix64(seed ^ splitmix64(msg_id) ^ splitmix64(receiver as u64 ^ 0x6A09_E667));
    dist.sample_ms(bits)
}

/// End-of-run measurements a transport hands back to the engine.
///
/// The engine combines `round_end_ms` with each node's output round to get
/// per-node commit latencies; delay percentiles are computed by the
/// transport itself (it alone knows every per-copy delay without the engine
/// having to retain one float per delivered message).
#[derive(Clone, Debug, Default)]
pub struct TransportStats {
    /// `round_end_ms[r]` = clock time (virtual or wall, ms since run start)
    /// at which round `r` completed — i.e. when its outputs were observable.
    pub round_end_ms: Vec<f64>,
    /// Per-copy delivery-delay percentiles (ms).
    pub delay_p50_ms: f64,
    /// 95th percentile delivery delay (ms).
    pub delay_p95_ms: f64,
    /// 99th percentile delivery delay (ms).
    pub delay_p99_ms: f64,
    /// Message copies delivered (a multicast counts once per recipient).
    pub delivered: u64,
    /// Copies that arrived later than the classic synchronous bound
    /// (start of `send_round + 1`) — the deliveries lockstep cannot express.
    pub late_deliveries: u64,
    /// Copies still undelivered when the run ended (delayed past the final
    /// round; includes pre-GST holds that never matured).
    pub undelivered: u64,
}

/// Folds a transport's end-of-run measurements together with the engine's
/// output bookkeeping into the [`LatencyStats`] that land on
/// [`crate::metrics::Metrics::latency`]: commit latency is percentiled over
/// the forever-honest nodes that produced an output, each committing at the
/// end of its output round.
pub(crate) fn finalize_latency(
    stats: TransportStats,
    output_rounds: &[Option<Round>],
    corrupt_at: &[Option<Round>],
) -> crate::metrics::LatencyStats {
    let last_end = stats.round_end_ms.last().copied().unwrap_or(0.0);
    let mut commits: Vec<f64> = output_rounds
        .iter()
        .zip(corrupt_at)
        .filter(|(_, corrupt)| corrupt.is_none())
        .filter_map(|(out, _)| *out)
        .map(|r| stats.round_end_ms.get(r.0 as usize).copied().unwrap_or(last_end))
        .collect();
    crate::metrics::LatencyStats {
        commit_p50_ms: percentile_ms(&mut commits, 50.0),
        commit_p95_ms: percentile_ms(&mut commits, 95.0),
        commit_p99_ms: percentile_ms(&mut commits, 99.0),
        delay_p50_ms: stats.delay_p50_ms,
        delay_p95_ms: stats.delay_p95_ms,
        delay_p99_ms: stats.delay_p99_ms,
        delivered: stats.delivered,
        late_deliveries: stats.late_deliveries,
        undelivered: stats.undelivered,
    }
}

/// Nearest-rank percentile of an unsorted sample (q in [0, 100]).
pub(crate) fn percentile_ms(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("delay samples are finite"));
    let rank = ((q / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// A delivery backend: takes ownership of each round's surviving envelopes
/// and fills inboxes for subsequent rounds.
///
/// The engine upholds its half of the contract — `submit(r, ..)` is called
/// exactly once per executed round with pre-validated envelopes (no
/// `removed` flags, no out-of-range unicasts), immediately followed by
/// `deliver(r + 1, ..)` — and the transport upholds delivery: every copy
/// lands in its recipient's inbox in a deterministic order, or is counted in
/// [`TransportStats::undelivered`] if the run ends first.
pub trait Transport<M: Message>: Send {
    /// Accepts round `round`'s deliverable envelopes, in send order
    /// (ascending message id).
    fn submit(&mut self, round: Round, envelopes: Vec<Envelope<M>>);

    /// Pushes everything that arrives by the *start* of `round` into
    /// `inboxes` (indexed by node id).
    fn deliver(&mut self, round: Round, inboxes: &mut [Vec<Incoming<M>>]);

    /// Copies accepted but not yet delivered (feeds the engine's
    /// resident-message gauge).
    fn in_flight(&self) -> usize;

    /// End-of-run measurements; `None` for backends with no clock
    /// (lockstep), keeping their reports free of latency observables.
    fn finish(&mut self, rounds_used: u64) -> Option<TransportStats>;

    /// Fault-injection accounting; `Some` only for the fault wrapper with
    /// a non-empty plan (read after [`Transport::finish`], which folds
    /// still-held copies into the undelivered count), keeping unfaulted
    /// reports free of `faults_*` observables.
    fn fault_stats(&self) -> Option<FaultStats> {
        None
    }
}

/// A structured, non-panicking description of a transport that cannot make
/// progress — a peer connection that died and could not be re-established,
/// or an arrival that never came. Real-I/O backends raise it via
/// `std::panic::panic_any` (the [`Transport`] methods return `()`), so a
/// supervising layer can `catch_unwind` + `downcast` it into a quarantined
/// cell error instead of hanging or losing the detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportError {
    /// The peer the failure is attributed to, when known.
    pub node: Option<usize>,
    /// Human-readable failure description.
    pub detail: String,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.node {
            Some(node) => write!(f, "transport failure at node {node}: {}", self.detail),
            None => write!(f, "transport failure: {}", self.detail),
        }
    }
}

impl std::error::Error for TransportError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_str() {
        let specs = [
            TransportSpec::Lockstep,
            TransportSpec::Latency { round_ms: 10, gst_ms: 0, dist: DelayDist::Zero },
            TransportSpec::Latency {
                round_ms: 25,
                gst_ms: 120,
                dist: DelayDist::Uniform { lo_ms: 1, hi_ms: 9 },
            },
            TransportSpec::Latency { round_ms: 5, gst_ms: 0, dist: DelayDist::Exp { mean_ms: 7 } },
            TransportSpec::Tcp,
            TransportSpec::Faulty { inner: BaseTransport::Lockstep, plan: FaultPlan::default() },
            TransportSpec::Faulty {
                inner: BaseTransport::Tcp,
                plan: "drop:p=0.25,sched=adversarial".parse().unwrap(),
            },
            TransportSpec::Faulty {
                inner: BaseTransport::Latency {
                    round_ms: 10,
                    gst_ms: 50,
                    dist: DelayDist::Uniform { lo_ms: 1, hi_ms: 5 },
                },
                plan: "partition:2..5=8".parse().unwrap(),
            },
        ];
        for spec in specs {
            let parsed: TransportSpec = spec.to_string().parse().expect("round trip");
            assert_eq!(parsed, spec, "{spec}");
        }
        // Bare names parse with defaults.
        assert_eq!("lockstep".parse::<TransportSpec>().unwrap(), TransportSpec::Lockstep);
        assert_eq!("tcp".parse::<TransportSpec>().unwrap(), TransportSpec::Tcp);
        assert_eq!(
            "latency".parse::<TransportSpec>().unwrap(),
            TransportSpec::Latency { round_ms: DEFAULT_ROUND_MS, gst_ms: 0, dist: DelayDist::Zero }
        );
        assert_eq!(
            "latency:dist=uniform:2..4,gst_ms=50".parse::<TransportSpec>().unwrap(),
            TransportSpec::Latency {
                round_ms: DEFAULT_ROUND_MS,
                gst_ms: 50,
                dist: DelayDist::Uniform { lo_ms: 2, hi_ms: 4 }
            }
        );
    }

    #[test]
    fn spec_parse_rejects_malformed() {
        assert!("carrier-pigeon".parse::<TransportSpec>().is_err());
        assert!("lockstep:round_ms=3".parse::<TransportSpec>().is_err());
        assert!("latency:round_ms=0".parse::<TransportSpec>().is_err());
        assert!("latency:warp=9".parse::<TransportSpec>().is_err());
        assert!("latency:dist=uniform:9..2".parse::<TransportSpec>().is_err());
        assert!("latency:dist=normal:3".parse::<TransportSpec>().is_err());
        assert!("tcp:round_ms=10".parse::<TransportSpec>().is_err());
        // Faulty needs the ';' separator, a valid plan, and a base inner.
        assert!("faulty".parse::<TransportSpec>().is_err());
        assert!("faulty:drop:p=0.5".parse::<TransportSpec>().is_err());
        assert!("faulty:warp:p=0.5;lockstep".parse::<TransportSpec>().is_err());
        assert!("faulty:none;faulty:none;lockstep".parse::<TransportSpec>().is_err());
    }

    #[test]
    fn millisecond_knobs_are_bounded_by_the_ceiling() {
        let max = MAX_TRANSPORT_MS;
        // Unrefused, the first four would overflow the latency clock; the
        // rest sit one past the ceiling.
        for (spec, key) in [
            ("latency:dist=exp:576460752303423488".to_string(), "exp mean"),
            ("latency:dist=uniform:0..18446744073709551615".into(), "uniform upper bound"),
            (format!("latency:round_ms={}", u64::MAX), "round_ms"),
            (format!("latency:gst_ms={}", u64::MAX), "gst_ms"),
            (format!("latency:dist=exp:{}", max + 1), "exp mean"),
            (format!("latency:dist=uniform:{}..{}", max + 1, max + 1), "uniform lower bound"),
            (format!("faulty:none;latency:round_ms={}", max + 1), "round_ms"),
        ] {
            let err = spec.parse::<TransportSpec>().expect_err(&spec);
            assert!(err.starts_with(key) && err.contains("ceiling"), "{spec}: {err}");
        }
        let at_ceiling = format!("latency:round_ms={max},gst_ms={max},dist=exp:{max}");
        let spec: TransportSpec = at_ceiling.parse().expect("the ceiling itself parses");
        assert_eq!(spec.to_string(), at_ceiling);
        let uniform = DelayDist::Uniform { lo_ms: 0, hi_ms: max };
        assert_eq!(format!("uniform:0..{max}").parse::<DelayDist>(), Ok(uniform));
        // The extremes the ceiling admits stay in range when sampled.
        for msg in 0..64 {
            assert!(link_delay_ms(7, msg, 1, &uniform) <= max as f64);
            assert!(link_delay_ms(7, msg, 1, &DelayDist::Exp { mean_ms: max }) < 64.0 * max as f64);
        }
    }

    #[test]
    fn faulty_spec_parses_and_reports_kind() {
        let spec: TransportSpec = "faulty:drop:p=0.5;lockstep".parse().unwrap();
        assert_eq!(spec.kind(), "faulty");
        let TransportSpec::Faulty { inner, plan } = spec else { panic!("faulty") };
        assert_eq!(inner, BaseTransport::Lockstep);
        assert!(!plan.is_empty());
        // with_fault_plan wraps base specs and re-plans faulty ones.
        let wrapped = TransportSpec::Tcp.with_fault_plan(plan);
        assert_eq!(wrapped, TransportSpec::Faulty { inner: BaseTransport::Tcp, plan });
        let replanned = wrapped.with_fault_plan(FaultPlan::default());
        assert_eq!(
            replanned,
            TransportSpec::Faulty { inner: BaseTransport::Tcp, plan: FaultPlan::default() }
        );
    }

    #[test]
    fn transport_error_displays_with_and_without_node() {
        let e = TransportError { node: Some(3), detail: "connection reset".into() };
        assert_eq!(e.to_string(), "transport failure at node 3: connection reset");
        let e = TransportError { node: None, detail: "arrival timeout".into() };
        assert_eq!(e.to_string(), "transport failure: arrival timeout");
    }

    #[test]
    fn link_delay_is_order_independent_and_seeded() {
        let dist = DelayDist::Uniform { lo_ms: 0, hi_ms: 1000 };
        let a = link_delay_ms(42, 7, 3, &dist);
        assert_eq!(a, link_delay_ms(42, 7, 3, &dist), "same inputs, same delay");
        assert!((0.0..=1000.0).contains(&a));
        // Different seed / message / receiver each move the sample (with
        // overwhelming probability at this range; these triples do).
        assert_ne!(a, link_delay_ms(43, 7, 3, &dist));
        assert_ne!(a, link_delay_ms(42, 8, 3, &dist));
        assert_ne!(a, link_delay_ms(42, 7, 4, &dist));
    }

    #[test]
    fn zero_dist_always_zero() {
        for msg in 0..50u64 {
            assert_eq!(link_delay_ms(9, msg, 2, &DelayDist::Zero), 0.0);
        }
    }

    #[test]
    fn uniform_dist_stays_in_range() {
        let dist = DelayDist::Uniform { lo_ms: 5, hi_ms: 9 };
        let mut seen = std::collections::BTreeSet::new();
        for msg in 0..200u64 {
            let d = link_delay_ms(1, msg, 0, &dist);
            assert!((5.0..=9.0).contains(&d));
            seen.insert(d as u64);
        }
        assert!(seen.len() > 1, "200 draws should hit more than one value");
    }

    #[test]
    fn exp_dist_nonnegative_with_sane_mean() {
        let dist = DelayDist::Exp { mean_ms: 20 };
        let mut total = 0.0;
        for msg in 0..2000u64 {
            let d = link_delay_ms(3, msg, 1, &dist);
            assert!(d >= 0.0);
            total += d;
        }
        let mean = total / 2000.0;
        assert!((10.0..40.0).contains(&mean), "empirical mean {mean} far from 20");
    }

    #[test]
    fn fixed_point_log2_tracks_f64() {
        for x in [1u64, 2, 3, 7, 100, 1 << 20, (1 << 53) - 1, 1 << 53, u64::MAX] {
            let fixed = log2_fixed_q32(x) as f64 / (1u64 << 32) as f64;
            let float = (x as f64).log2();
            assert!((fixed - float).abs() < 1e-6, "log2({x}): fixed {fixed} vs f64 {float}");
        }
    }

    #[test]
    fn exp_dist_samples_are_pinned() {
        // Cross-platform determinism golden: exact draws for a pinned
        // (seed, msg, receiver) lattice. These values must never change —
        // CI's transport-matrix job replays an exp-delay run on this
        // guarantee, and any drift here invalidates every exp golden.
        let dist = DelayDist::Exp { mean_ms: 20 };
        let draws: Vec<u64> = (0..8u64).map(|msg| link_delay_ms(3, msg, 1, &dist) as u64).collect();
        assert_eq!(draws, vec![16, 11, 70, 51, 20, 4, 54, 15]);
        let dist = DelayDist::Exp { mean_ms: 7 };
        let draws: Vec<u64> = (0..8u64).map(|msg| link_delay_ms(9, msg, 2, &dist) as u64).collect();
        assert_eq!(draws, vec![5, 9, 7, 4, 1, 7, 0, 1]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut s = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile_ms(&mut s, 50.0), 2.0);
        assert_eq!(percentile_ms(&mut s, 99.0), 4.0);
        assert_eq!(percentile_ms(&mut s, 100.0), 4.0);
        assert_eq!(percentile_ms(&mut [], 50.0), 0.0);
        assert_eq!(percentile_ms(&mut [7.5], 95.0), 7.5);
    }
}
