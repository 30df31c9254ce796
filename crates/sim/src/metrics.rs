//! Communication metrics implementing the paper's Definitions 6 and 7.

/// Counters gathered over one execution.
///
/// * *Multicast complexity* (Definition 7): total bits **multicast by honest
///   nodes** — messages a strongly adaptive adversary later erases still
///   count (they were sent).
/// * *Classical communication complexity* (Definition 6): a multicast to `n`
///   nodes counts as `n` pairwise messages of the same length.
///
/// Equality compares the paper-defined protocol observables only — the
/// engine-diagnostic gauges ([`Metrics::peak_live_nodes`],
/// [`Metrics::peak_resident_msgs`]) are excluded by the manual
/// [`PartialEq`] below, so a sparse execution compares equal to its dense
/// twin even though the two (correctly) resided differently in memory.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Number of multicast operations performed by so-far-honest nodes.
    pub honest_multicasts: u64,
    /// Total bits multicast by so-far-honest nodes (Definition 7).
    pub honest_multicast_bits: u64,
    /// Number of unicast messages sent by so-far-honest nodes.
    pub honest_unicasts: u64,
    /// Total bits unicast by so-far-honest nodes.
    pub honest_unicast_bits: u64,
    /// The certificate share of honest send bits ([`Message::cert_bits`]
    /// summed over honest multicasts and unicasts): what quorum
    /// certificates — the dominant constant in the paper's bit bounds —
    /// cost on the wire under the encoding in force.
    ///
    /// [`Message::cert_bits`]: crate::message::Message::cert_bits
    pub honest_cert_bits: u64,
    /// Messages sent by corrupt nodes (multicasts and unicasts), including
    /// adversary injections.
    pub corrupt_sends: u64,
    /// Total bits of corrupt sends (multicasts, unicasts, and injections).
    /// Together with [`Metrics::injected_sends`] this attributes message
    /// overhead to the adversary: honest complexity (Definitions 6/7) never
    /// includes these, but word-count-inflating attacks show up here.
    pub corrupt_bits: u64,
    /// Messages the adversary injected through `AdvCtx::inject` — the subset
    /// of [`Metrics::corrupt_sends`] that did not come from a corrupt node's
    /// own (honest-logic) outbox.
    pub injected_sends: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Adaptive corruptions performed.
    pub corruptions: u64,
    /// After-the-fact removals performed (strongly adaptive only).
    pub removals: u64,
    /// Unicasts addressed to an out-of-range node and therefore never
    /// delivered. Honest protocol code must not produce these (the engine
    /// `debug_assert!`s that); adversarial injections may, and used to be
    /// lost without a trace.
    pub dropped_sends: u64,
    /// Peak number of materialized protocol instances over the execution —
    /// `n` for the dense engine, the high-water mark of the active set for
    /// the sparse engine. An engine-memory gauge, **not** a protocol
    /// observable: excluded from equality (see the manual [`PartialEq`]).
    pub peak_live_nodes: u64,
    /// Peak resident message count: undelivered inbox entries across
    /// materialized nodes, plus (sparse engine) the retained multicast
    /// history that stands in for silent nodes' inboxes. A multicast
    /// fans out into every dense inbox but is retained once per round by
    /// the sparse engine, so the two modes gauge differently by design.
    /// Excluded from equality like [`Metrics::peak_live_nodes`].
    pub peak_resident_msgs: u64,
    /// Clock-time measurements from transports that keep a clock (the
    /// simulated-latency and TCP backends); `None` under lockstep. Like the
    /// peak gauges these describe the *delivery substrate*, not the
    /// protocol, and are excluded from equality — a zero-delay latency run
    /// compares equal to its lockstep twin.
    pub latency: Option<LatencyStats>,
    /// Fault-injection accounting from the [`fault`] transport wrapper;
    /// `None` for bare backends and for `Faulty` wraps with an empty plan.
    /// Measures the injected chaos, not the protocol, and is excluded from
    /// equality like [`Metrics::latency`] — the safety-under-chaos suite
    /// compares protocol observables across fault plans and across inner
    /// backends, which these counters describe rather than perturb.
    ///
    /// [`fault`]: crate::transport::fault
    pub faults: Option<crate::transport::fault::FaultStats>,
}

/// Per-run latency percentiles derived from a transport's clock (virtual
/// milliseconds for the simulated backend, wall-clock for TCP).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Commit latency (ms from run start to a node's first output),
    /// percentiled over the forever-honest nodes that produced an output.
    pub commit_p50_ms: f64,
    /// 95th percentile commit latency (ms).
    pub commit_p95_ms: f64,
    /// 99th percentile commit latency (ms).
    pub commit_p99_ms: f64,
    /// Per-copy delivery delay (ms past the nominal send time).
    pub delay_p50_ms: f64,
    /// 95th percentile delivery delay (ms).
    pub delay_p95_ms: f64,
    /// 99th percentile delivery delay (ms).
    pub delay_p99_ms: f64,
    /// Message copies delivered (a multicast counts once per recipient).
    pub delivered: u64,
    /// Copies that missed the classic synchronous bound (arrived after the
    /// start of `send_round + 1`) — deliveries lockstep cannot express.
    pub late_deliveries: u64,
    /// Copies still in flight when the run ended.
    pub undelivered: u64,
}

/// Manual equality: protocol observables only. The two `peak_*` gauges
/// describe how the engine resided in memory, not what the protocol did, and
/// differ between byte-identical sparse and dense executions; `latency`
/// describes how the transport's clock ran, and differs between a lockstep
/// run and its zero-delay latency twin even though the protocol behaved
/// identically.
impl PartialEq for Metrics {
    fn eq(&self, other: &Metrics) -> bool {
        self.honest_multicasts == other.honest_multicasts
            && self.honest_multicast_bits == other.honest_multicast_bits
            && self.honest_unicasts == other.honest_unicasts
            && self.honest_unicast_bits == other.honest_unicast_bits
            && self.honest_cert_bits == other.honest_cert_bits
            && self.corrupt_sends == other.corrupt_sends
            && self.corrupt_bits == other.corrupt_bits
            && self.injected_sends == other.injected_sends
            && self.rounds == other.rounds
            && self.corruptions == other.corruptions
            && self.removals == other.removals
            && self.dropped_sends == other.dropped_sends
    }
}

impl Eq for Metrics {}

impl Metrics {
    /// Classical pairwise message count (Definition 6) for an `n`-node run:
    /// each honest multicast fans out to `n` recipients.
    pub fn classical_messages(&self, n: usize) -> u64 {
        self.honest_multicasts * n as u64 + self.honest_unicasts
    }

    /// Total honest sends (multicast ops + unicasts).
    pub fn honest_sends(&self) -> u64 {
        self.honest_multicasts + self.honest_unicasts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classical_complexity_fans_out_multicasts() {
        let m = Metrics {
            honest_multicasts: 3,
            honest_multicast_bits: 300,
            honest_unicasts: 5,
            honest_unicast_bits: 50,
            ..Metrics::default()
        };
        assert_eq!(m.classical_messages(10), 35);
        assert_eq!(m.honest_sends(), 8);
    }

    #[test]
    fn equality_ignores_engine_gauges() {
        let a = Metrics { honest_multicasts: 3, peak_live_nodes: 1000, ..Metrics::default() };
        let b = Metrics { honest_multicasts: 3, peak_live_nodes: 12, ..Metrics::default() };
        assert_eq!(a, b, "gauges are memory diagnostics, not protocol observables");
        let c = Metrics { honest_multicasts: 4, ..Metrics::default() };
        assert_ne!(a, c);
    }
}
