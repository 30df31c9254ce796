//! Deterministic network chaos: a composable fault-injection layer that
//! wraps **any** [`Transport`] backend and applies a declarative
//! [`FaultPlan`] — per-copy drops, duplication, bounded reordering,
//! node-set partitions with a heal round, and an adversarial scheduler —
//! all as a pure function of `(fault seed, message id, receiver)`.
//!
//! # Determinism
//!
//! Every fault decision hashes `(seed, fault kind, message id, receiver)`
//! through the same `splitmix64` construction the latency transport uses
//! for link delays, so decisions are independent of thread count,
//! inspection order, and — crucially — of the *inner backend*: the same
//! seed and plan drop/duplicate/defer exactly the same copies whether the
//! inner transport is lockstep, simulated latency, or real TCP. Reports
//! replay byte-for-byte.
//!
//! # The legal envelope
//!
//! [`FaultPlan::within_envelope`] is the one place that decides whether a
//! plan stays inside the synchronous model (`docs/FAULTS.md`):
//!
//! * **Inside:** the adversarial scheduler and duplication. The model never
//!   specifies *per-inbox order*, only which round a message arrives in;
//!   the scheduler re-orders each submitted batch (adversary traffic
//!   first, honest traffic latest-send-first) without moving anything
//!   across a round boundary. Tallies key by distinct sender, so a
//!   duplicate adds no quorum weight.
//! * **Outside:** drops, reordering (a copy deferred by up to `budget`
//!   rounds, the partial-synchrony freedom the latency backend prices in
//!   clock time) and partitions. They void the synchrony assumption, so
//!   liveness may legitimately degrade. A partition holds cross-cut
//!   traffic until its heal round (GST-style recovery), never forging or
//!   corrupting payloads — channels stay authenticated.
//!
//! # Copy semantics
//!
//! With a non-empty plan, each submitted envelope is split into one copy
//! per recipient (sharing the payload `Arc` and message id), and faults
//! apply per copy in a fixed order: partition-hold → drop → duplicate →
//! reorder-defer. Copies released from a hold re-join the next submitted
//! batch ahead of fresh traffic and are not re-faulted. An **empty plan
//! is a structural pass-through**: envelopes are forwarded to the inner
//! backend untouched and no fault stats are reported, which is what makes
//! `Faulty`-wrapped honest cells byte-identical to the bare backend.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ids::{NodeId, Round};
use crate::message::{Envelope, Incoming, Message, Recipient};

use super::{splitmix64, Transport, TransportStats};

/// Domain-separation tags for the per-kind fault hash.
const TAG_DROP: u64 = 1;
const TAG_DUP: u64 = 2;
const TAG_REORDER: u64 = 3;

/// Whitener mixed into the run seed so fault rolls never collide with the
/// latency transport's delay hashes of the same `(message, receiver)`.
const FAULT_SEED_WHITENER: u64 = 0xFA17_5EED_0BAD_C0DE;

/// Rates are stored in parts-per-million so plans stay `Eq + Hash` and
/// round-trip exactly through their textual form.
const PPM: u64 = 1_000_000;

/// Per-copy drop fault: each `(message, receiver)` copy is discarded with
/// probability `ppm / 1e6`, inside the `[from, until)` round window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DropFault {
    /// Drop probability in parts per million (`0..=1_000_000`).
    pub ppm: u32,
    /// First send round (inclusive) the fault is active in.
    pub from: u64,
    /// First send round the fault is no longer active in (`u64::MAX` =
    /// the whole run).
    pub until: u64,
}

/// Per-copy duplication fault: each surviving copy is delivered twice with
/// probability `ppm / 1e6` (the duplicate lands adjacent to the original).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DupFault {
    /// Duplication probability in parts per million.
    pub ppm: u32,
}

/// Bounded out-of-order delivery: each copy is deferred past its nominal
/// round by `1..=budget` extra rounds with probability `ppm / 1e6`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReorderFault {
    /// Deferral probability in parts per million.
    pub ppm: u32,
    /// Maximum deferral in rounds (`>= 1`). The honest scheduler samples
    /// the deferral uniformly from `1..=budget`; the adversarial scheduler
    /// always takes the full budget.
    pub budget: u64,
}

/// A node-set partition: during send rounds `[from, until)` the population
/// is cut into `{0..split}` and `{split..n}`, and every cross-cut copy is
/// held until the heal round `until` (delivered at the start of round
/// `until + 1`), modelling a GST-style network heal on any backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PartitionFault {
    /// First send round (inclusive) the cut is active in.
    pub from: u64,
    /// Heal round: the cut lifts for sends in round `until`, and held
    /// copies re-join that round's batch.
    pub until: u64,
    /// Nodes `< split` form one side, nodes `>= split` the other.
    pub split: usize,
}

/// Who picks the delivery order within the model's legal envelope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scheduler {
    /// Send order (ascending message id) — the classic model.
    #[default]
    Honest,
    /// Greedy adversarial order: adversary traffic first (it front-runs
    /// the inbox), honest traffic latest-send-first (the copies a
    /// committee has waited longest for arrive last), and reorder
    /// deferrals always take their full budget.
    Adversarial,
}

/// A declarative, seed-deterministic fault plan (see the module docs for
/// semantics and the textual grammar accepted by [`std::str::FromStr`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Per-copy drops.
    pub drop: Option<DropFault>,
    /// Per-copy duplication.
    pub duplicate: Option<DupFault>,
    /// Bounded out-of-order deferral.
    pub reorder: Option<ReorderFault>,
    /// Node-set partition with a heal round.
    pub partition: Option<PartitionFault>,
    /// Delivery-order policy.
    pub scheduler: Scheduler,
}

impl FaultPlan {
    /// True when the plan faults nothing — the wrapper becomes a
    /// structural pass-through (byte-identical to the bare backend).
    pub fn is_empty(&self) -> bool {
        self.drop.is_none()
            && self.duplicate.is_none()
            && self.reorder.is_none()
            && self.partition.is_none()
            && self.scheduler == Scheduler::Honest
    }

    /// Whether a model-legal network adversary could have produced every
    /// fault in the plan — no drop, no reorder, no partition (see the
    /// [module docs](self)). Inside the envelope the paper's claims apply
    /// in full; outside it the synchrony assumption fails, so liveness may
    /// degrade and safety is measured rather than promised.
    pub fn within_envelope(&self) -> bool {
        self.drop.is_none() && self.reorder.is_none() && self.partition.is_none()
    }
}

fn fmt_rate(ppm: u32) -> String {
    format!("{}", f64::from(ppm) / PPM as f64)
}

fn parse_rate(val: &str) -> Result<u32, String> {
    let p: f64 = val.parse().map_err(|_| format!("bad fault rate '{val}' (want 0..=1)"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("fault rate {p} outside [0, 1]"));
    }
    Ok((p * PPM as f64).round() as u32)
}

/// Canonical textual form: `none` for the empty plan, else comma-joined
/// components `drop:p=R[:from=A][:until=B]`, `dup:p=R`,
/// `reorder:p=R[:budget=K]`, `partition:A..B=S`, `sched=adversarial`.
impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        let mut parts: Vec<String> = Vec::new();
        if let Some(d) = &self.drop {
            let mut s = format!("drop:p={}", fmt_rate(d.ppm));
            if d.from != 0 {
                s.push_str(&format!(":from={}", d.from));
            }
            if d.until != u64::MAX {
                s.push_str(&format!(":until={}", d.until));
            }
            parts.push(s);
        }
        if let Some(d) = &self.duplicate {
            parts.push(format!("dup:p={}", fmt_rate(d.ppm)));
        }
        if let Some(r) = &self.reorder {
            let mut s = format!("reorder:p={}", fmt_rate(r.ppm));
            if r.budget != 1 {
                s.push_str(&format!(":budget={}", r.budget));
            }
            parts.push(s);
        }
        if let Some(p) = &self.partition {
            parts.push(format!("partition:{}..{}={}", p.from, p.until, p.split));
        }
        if self.scheduler == Scheduler::Adversarial {
            parts.push("sched=adversarial".into());
        }
        f.write_str(&parts.join(","))
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        if s == "none" || s.is_empty() {
            return Ok(plan);
        }
        for part in s.split(',') {
            if let Some(params) = part.strip_prefix("drop:") {
                let mut fault = DropFault { ppm: 0, from: 0, until: u64::MAX };
                let mut saw_p = false;
                for kv in params.split(':') {
                    let (key, val) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("drop parameter '{kv}' is not key=value"))?;
                    match key {
                        "p" => {
                            fault.ppm = parse_rate(val)?;
                            saw_p = true;
                        }
                        "from" => {
                            fault.from =
                                val.parse().map_err(|_| format!("bad drop from round '{val}'"))?
                        }
                        "until" => {
                            fault.until =
                                val.parse().map_err(|_| format!("bad drop until round '{val}'"))?
                        }
                        other => return Err(format!("unknown drop parameter '{other}'")),
                    }
                }
                if !saw_p {
                    return Err("drop needs p=RATE".into());
                }
                plan.drop = Some(fault);
            } else if let Some(params) = part.strip_prefix("dup:") {
                let val = params
                    .strip_prefix("p=")
                    .ok_or_else(|| format!("dup parameter '{params}' (want p=RATE)"))?;
                plan.duplicate = Some(DupFault { ppm: parse_rate(val)? });
            } else if let Some(params) = part.strip_prefix("reorder:") {
                let mut fault = ReorderFault { ppm: 0, budget: 1 };
                let mut saw_p = false;
                for kv in params.split(':') {
                    let (key, val) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("reorder parameter '{kv}' is not key=value"))?;
                    match key {
                        "p" => {
                            fault.ppm = parse_rate(val)?;
                            saw_p = true;
                        }
                        "budget" => {
                            fault.budget =
                                val.parse().map_err(|_| format!("bad reorder budget '{val}'"))?
                        }
                        other => return Err(format!("unknown reorder parameter '{other}'")),
                    }
                }
                if !saw_p {
                    return Err("reorder needs p=RATE".into());
                }
                if fault.budget == 0 {
                    return Err("reorder budget must be >= 1".into());
                }
                plan.reorder = Some(fault);
            } else if let Some(params) = part.strip_prefix("partition:") {
                let (range, split) = params
                    .split_once('=')
                    .ok_or_else(|| format!("partition '{params}' (want FROM..UNTIL=SPLIT)"))?;
                let (from, until) = range
                    .split_once("..")
                    .ok_or_else(|| format!("bad partition window '{range}' (want FROM..UNTIL)"))?;
                let from: u64 =
                    from.parse().map_err(|_| format!("bad partition from round '{from}'"))?;
                let until: u64 =
                    until.parse().map_err(|_| format!("bad partition heal round '{until}'"))?;
                if until <= from {
                    return Err(format!("partition window {from}..{until} is empty"));
                }
                let split: usize =
                    split.parse().map_err(|_| format!("bad partition split '{split}'"))?;
                plan.partition = Some(PartitionFault { from, until, split });
            } else if let Some(val) = part.strip_prefix("sched=") {
                plan.scheduler = match val {
                    "honest" => Scheduler::Honest,
                    "adversarial" => Scheduler::Adversarial,
                    other => {
                        return Err(format!(
                            "unknown scheduler '{other}' (want honest|adversarial)"
                        ))
                    }
                };
            } else {
                return Err(format!(
                    "unknown fault component '{part}' (want drop:|dup:|reorder:|partition:|sched=)"
                ));
            }
        }
        Ok(plan)
    }
}

/// Per-run fault accounting, surfaced through
/// [`crate::metrics::Metrics::faults`] as `faults_*` sweep observables.
/// Like the latency block, these measure the injected substrate, not the
/// protocol, and are excluded from `Metrics` equality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Copies discarded by the drop fault.
    pub dropped: u64,
    /// Extra copies minted by the duplication fault.
    pub duplicated: u64,
    /// Copies deferred out of order by the reorder fault.
    pub reordered: u64,
    /// Copies held at the partition cut.
    pub partitioned: u64,
    /// Send rounds that fell inside an active partition window.
    pub partition_rounds: u64,
    /// Held copies the run ended before releasing.
    pub undelivered: u64,
}

/// The fault-injection wrapper; see the [module docs](self).
pub struct FaultyTransport<M> {
    inner: Box<dyn Transport<M>>,
    plan: FaultPlan,
    n: usize,
    seed: u64,
    /// Deferred copies keyed by the submit round they re-join.
    held: BTreeMap<u64, Vec<Envelope<M>>>,
    stats: FaultStats,
}

impl<M: Message> FaultyTransport<M> {
    /// Wraps `inner`, deriving the fault seed from the run seed (whitened
    /// so fault rolls are independent of the latency transport's delay
    /// hashes over the same message/receiver pairs).
    pub fn new(inner: Box<dyn Transport<M>>, plan: FaultPlan, n: usize, seed: u64) -> Self {
        FaultyTransport {
            inner,
            plan,
            n,
            seed: splitmix64(seed ^ FAULT_SEED_WHITENER),
            held: BTreeMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// The per-copy fault roll: a pure function of the fault seed, the
    /// fault kind, the message id, and the receiver — never of the inner
    /// backend or iteration order.
    fn roll(&self, tag: u64, id: u64, receiver: usize) -> u64 {
        splitmix64(
            self.seed
                ^ splitmix64(tag)
                ^ splitmix64(id)
                ^ splitmix64(receiver as u64 ^ 0x6A09_E667),
        )
    }

    fn hits(&self, tag: u64, ppm: u32, id: u64, receiver: usize) -> bool {
        ppm > 0 && self.roll(tag, id, receiver) % PPM < u64::from(ppm)
    }

    fn held_count(&self) -> usize {
        self.held.values().map(Vec::len).sum()
    }

    /// Applies the plan to one per-receiver copy, pushing survivors onto
    /// `out` and deferrals into `held`.
    fn fault_copy(&mut self, round: u64, copy: Envelope<M>, out: &mut Vec<Envelope<M>>) {
        let plan = self.plan;
        let id = copy.id.0;
        let receiver = match copy.to {
            Recipient::One(node) => node.index(),
            // Copies are split before faulting; unreachable in practice.
            Recipient::All => 0,
        };
        if let Some(p) = plan.partition {
            if (p.from..p.until).contains(&round) {
                let sender_side = copy.from.index() < p.split;
                let receiver_side = receiver < p.split;
                if sender_side != receiver_side {
                    self.stats.partitioned += 1;
                    self.held.entry(p.until).or_default().push(copy);
                    return;
                }
            }
        }
        if let Some(d) = plan.drop {
            if (d.from..d.until).contains(&round) && self.hits(TAG_DROP, d.ppm, id, receiver) {
                self.stats.dropped += 1;
                return;
            }
        }
        let duplicate = match plan.duplicate {
            Some(d) if self.hits(TAG_DUP, d.ppm, id, receiver) => {
                self.stats.duplicated += 1;
                Some(copy.clone())
            }
            _ => None,
        };
        if let Some(r) = plan.reorder {
            if self.hits(TAG_REORDER, r.ppm, id, receiver) {
                self.stats.reordered += 1;
                let defer = match plan.scheduler {
                    // An extra hash (not the decision roll) picks the
                    // deferral uniformly from 1..=budget.
                    Scheduler::Honest => {
                        1 + self.roll(TAG_REORDER ^ 0xD1FF, id, receiver) % r.budget
                    }
                    // The adversary always takes the full legal budget.
                    Scheduler::Adversarial => r.budget,
                };
                self.held.entry(round + defer).or_default().push(copy);
                if let Some(dup) = duplicate {
                    out.push(dup);
                }
                return;
            }
        }
        out.push(copy);
        if let Some(dup) = duplicate {
            out.push(dup);
        }
    }
}

impl<M: Message + Send + Sync + 'static> Transport<M> for FaultyTransport<M> {
    fn submit(&mut self, round: Round, envelopes: Vec<Envelope<M>>) {
        if self.plan.is_empty() {
            // Structural pass-through: the bare backend sees exactly the
            // bytes it would have seen without the wrapper.
            return self.inner.submit(round, envelopes);
        }
        let r = round.0;
        if let Some(p) = self.plan.partition {
            if (p.from..p.until).contains(&r) {
                self.stats.partition_rounds += 1;
            }
        }
        // Copies released from holds re-join ahead of fresh traffic (their
        // ids are older) and are not re-faulted.
        let mut out: Vec<Envelope<M>> = Vec::new();
        let release: Vec<u64> =
            self.held.range(..=r).map(|(release_round, _)| *release_round).collect();
        for key in release {
            out.extend(self.held.remove(&key).expect("key came from the map"));
        }
        for env in envelopes {
            match env.to {
                Recipient::All => {
                    for receiver in 0..self.n {
                        let copy = Envelope {
                            id: env.id,
                            from: env.from,
                            to: Recipient::One(NodeId(receiver)),
                            round: env.round,
                            honest_send: env.honest_send,
                            removed: env.removed,
                            msg: Arc::clone(&env.msg),
                        };
                        self.fault_copy(r, copy, &mut out);
                    }
                }
                Recipient::One(_) => self.fault_copy(r, env, &mut out),
            }
        }
        if self.plan.scheduler == Scheduler::Adversarial {
            // Corrupt traffic front-runs every inbox; honest traffic lands
            // latest-send-first. Round placement is untouched, so this
            // stays inside the synchronous model's legal envelope.
            out.sort_by_key(|e| {
                (e.honest_send, if e.honest_send { u64::MAX - e.id.0 } else { e.id.0 })
            });
        }
        self.inner.submit(round, out);
    }

    fn deliver(&mut self, round: Round, inboxes: &mut [Vec<Incoming<M>>]) {
        self.inner.deliver(round, inboxes);
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight() + self.held_count()
    }

    fn finish(&mut self, rounds_used: u64) -> Option<TransportStats> {
        let leftover = self.held_count() as u64;
        self.stats.undelivered += leftover;
        self.held.clear();
        let inner_stats = self.inner.finish(rounds_used);
        match inner_stats {
            Some(mut stats) => {
                stats.undelivered += leftover;
                Some(stats)
            }
            None => None,
        }
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        if self.plan.is_empty() {
            None
        } else {
            Some(self.stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgId;
    use crate::transport::lockstep::LockstepTransport;

    #[derive(Clone, Debug, PartialEq)]
    struct Word(u64);

    impl Message for Word {
        fn size_bits(&self) -> usize {
            64
        }
    }

    fn env(id: u64, from: usize, to: Recipient, payload: u64) -> Envelope<Word> {
        Envelope {
            id: MsgId(id),
            from: NodeId(from),
            to,
            round: Round(0),
            honest_send: true,
            removed: false,
            msg: Arc::new(Word(payload)),
        }
    }

    fn faulty(plan: &str, n: usize, seed: u64) -> FaultyTransport<Word> {
        FaultyTransport::new(
            Box::new(LockstepTransport::new()),
            plan.parse().expect("plan parses"),
            n,
            seed,
        )
    }

    fn inbox_payloads(inboxes: &[Vec<Incoming<Word>>], i: usize) -> Vec<u64> {
        inboxes[i].iter().map(|m| m.msg.0).collect()
    }

    #[test]
    fn plan_round_trips_through_str() {
        let plans = [
            "none",
            "drop:p=0.25",
            "drop:p=0.1:from=2:until=6",
            "dup:p=0.5",
            "reorder:p=0.5:budget=3",
            "partition:2..5=8",
            "sched=adversarial",
            "drop:p=0.25,dup:p=0.1,reorder:p=0.5:budget=2,partition:0..4=4,sched=adversarial",
        ];
        for text in plans {
            let plan: FaultPlan = text.parse().expect(text);
            assert_eq!(plan.to_string(), text, "canonical form");
            let reparsed: FaultPlan = plan.to_string().parse().expect("round trip");
            assert_eq!(reparsed, plan);
        }
        assert!("none".parse::<FaultPlan>().unwrap().is_empty());
        assert!(!"drop:p=0.25".parse::<FaultPlan>().unwrap().is_empty());
    }

    #[test]
    fn legal_envelope_verdicts_of_the_chaos_matrix_plans() {
        for (text, within) in [
            ("none", true),
            ("sched=adversarial", true),
            ("dup:p=0.2", true),
            ("drop:p=0.1", false),
            ("drop:p=0.25", false),
            ("reorder:p=0.2:budget=2", false),
            ("partition:1..3=8", false),
            ("drop:p=0.1,dup:p=0.1,reorder:p=0.1:budget=2,sched=adversarial", false),
        ] {
            let plan: FaultPlan = text.parse().expect(text);
            assert_eq!(plan.within_envelope(), within, "{text}");
        }
    }

    #[test]
    fn plan_parse_rejects_malformed() {
        for bad in [
            "garbage",
            "drop:p=1.5",
            "drop:p=-0.1",
            "drop:from=2",
            "dup:rate=0.5",
            "reorder:p=0.5:budget=0",
            "partition:5..2=4",
            "partition:2..5",
            "sched=chaotic",
            "drop:p=abc",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "'{bad}' should be rejected");
        }
    }

    #[test]
    fn empty_plan_is_structural_pass_through() {
        let mut t = faulty("none", 3, 7);
        t.submit(
            Round(0),
            vec![env(0, 0, Recipient::All, 10), env(1, 1, Recipient::One(NodeId(2)), 11)],
        );
        let mut inboxes = vec![Vec::new(), Vec::new(), Vec::new()];
        t.deliver(Round(1), &mut inboxes);
        assert_eq!(inbox_payloads(&inboxes, 0), vec![10]);
        assert_eq!(inbox_payloads(&inboxes, 2), vec![10, 11]);
        assert!(t.fault_stats().is_none(), "empty plan reports no fault stats");
        assert!(t.finish(1).is_none());
    }

    #[test]
    fn certain_drop_discards_everything_in_window() {
        let mut t = faulty("drop:p=1:from=1:until=2", 3, 7);
        let mut inboxes = vec![Vec::new(), Vec::new(), Vec::new()];
        t.submit(Round(0), vec![env(0, 0, Recipient::All, 10)]);
        t.deliver(Round(1), &mut inboxes);
        assert_eq!(inbox_payloads(&inboxes, 1), vec![10], "round 0 is outside the window");
        inboxes.iter_mut().for_each(Vec::clear);
        t.submit(Round(1), vec![env(1, 0, Recipient::All, 11)]);
        t.deliver(Round(2), &mut inboxes);
        assert!(inboxes.iter().all(Vec::is_empty), "round 1 is inside the window");
        let stats = t.fault_stats().expect("non-empty plan");
        assert_eq!(stats.dropped, 3);
    }

    #[test]
    fn certain_duplication_doubles_every_copy() {
        let mut t = faulty("dup:p=1", 2, 7);
        t.submit(Round(0), vec![env(0, 0, Recipient::All, 10)]);
        let mut inboxes = vec![Vec::new(), Vec::new()];
        t.deliver(Round(1), &mut inboxes);
        assert_eq!(inbox_payloads(&inboxes, 0), vec![10, 10]);
        assert_eq!(inbox_payloads(&inboxes, 1), vec![10, 10]);
        assert_eq!(t.fault_stats().unwrap().duplicated, 2);
    }

    #[test]
    fn certain_reorder_defers_by_the_budget() {
        let mut t = faulty("reorder:p=1:budget=2,sched=adversarial", 2, 7);
        let mut inboxes = vec![Vec::new(), Vec::new()];
        t.submit(Round(0), vec![env(0, 0, Recipient::All, 10)]);
        assert_eq!(t.in_flight(), 2, "both copies held");
        t.deliver(Round(1), &mut inboxes);
        assert!(inboxes.iter().all(Vec::is_empty), "deferred past round 1");
        t.submit(Round(1), Vec::new());
        t.deliver(Round(2), &mut inboxes);
        assert!(inboxes.iter().all(Vec::is_empty), "budget 2 defers to the round-2 batch");
        t.submit(Round(2), Vec::new());
        t.deliver(Round(3), &mut inboxes);
        assert_eq!(inbox_payloads(&inboxes, 0), vec![10]);
        assert_eq!(inbox_payloads(&inboxes, 1), vec![10]);
        assert_eq!(t.fault_stats().unwrap().reordered, 2);
    }

    #[test]
    fn partition_holds_cross_cut_copies_until_heal() {
        // Nodes {0,1} | {2,3}, window 0..2: node 0's multicast reaches its
        // own side next round, the far side only after the heal.
        let mut t = faulty("partition:0..2=2", 4, 7);
        let mut inboxes = vec![Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        t.submit(Round(0), vec![env(0, 0, Recipient::All, 10)]);
        t.deliver(Round(1), &mut inboxes);
        assert_eq!(inbox_payloads(&inboxes, 0), vec![10]);
        assert_eq!(inbox_payloads(&inboxes, 1), vec![10]);
        assert!(inboxes[2].is_empty() && inboxes[3].is_empty(), "cross-cut copies held");
        inboxes.iter_mut().for_each(Vec::clear);
        t.submit(Round(1), Vec::new());
        t.deliver(Round(2), &mut inboxes);
        assert!(inboxes.iter().all(Vec::is_empty), "still partitioned in round 1");
        t.submit(Round(2), vec![env(1, 2, Recipient::All, 11)]);
        t.deliver(Round(3), &mut inboxes);
        assert_eq!(inbox_payloads(&inboxes, 2), vec![10, 11], "held copy re-joins at heal");
        assert_eq!(inbox_payloads(&inboxes, 0), vec![11], "round 2 is past the window");
        let stats = t.fault_stats().unwrap();
        assert_eq!(stats.partitioned, 2);
        assert_eq!(stats.partition_rounds, 2);
    }

    #[test]
    fn adversarial_scheduler_front_runs_corrupt_traffic() {
        let mut t = faulty("sched=adversarial", 2, 7);
        let mut corrupt = env(2, 1, Recipient::All, 99);
        corrupt.honest_send = false;
        t.submit(
            Round(0),
            vec![env(0, 0, Recipient::All, 10), env(1, 0, Recipient::All, 11), corrupt],
        );
        let mut inboxes = vec![Vec::new(), Vec::new()];
        t.deliver(Round(1), &mut inboxes);
        // Corrupt first, honest latest-send-first.
        assert_eq!(inbox_payloads(&inboxes, 0), vec![99, 11, 10]);
        assert_eq!(inbox_payloads(&inboxes, 1), vec![99, 11, 10]);
    }

    #[test]
    fn fault_rolls_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<Vec<u64>> {
            let mut t = faulty("drop:p=0.5,dup:p=0.3", 4, seed);
            let envs: Vec<_> = (0..32).map(|i| env(i, 0, Recipient::All, i)).collect();
            t.submit(Round(0), envs);
            let mut inboxes = vec![Vec::new(); 4];
            t.deliver(Round(1), &mut inboxes);
            (0..4).map(|i| inbox_payloads(&inboxes, i)).collect()
        };
        assert_eq!(run(42), run(42), "same seed replays the same faults");
        assert_ne!(run(42), run(43), "different seed moves the faults");
    }

    #[test]
    fn unreleased_holds_count_as_undelivered() {
        let mut t = faulty("partition:0..100=1", 2, 7);
        t.submit(Round(0), vec![env(0, 0, Recipient::All, 10)]);
        let mut inboxes = vec![Vec::new(), Vec::new()];
        t.deliver(Round(1), &mut inboxes);
        assert_eq!(t.in_flight(), 1, "the cross-cut copy is held");
        assert!(t.finish(1).is_none(), "lockstep inner keeps no clock");
        assert_eq!(t.fault_stats().unwrap().undelivered, 1);
    }
}
