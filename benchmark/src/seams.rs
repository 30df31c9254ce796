//! Decorators over the program's public trait seams. Each forwards every
//! call unchanged and opens a [`trace`](crate::trace) span around it, so a
//! traced execution produces the same `RunReport` as its untraced twin.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ba_fmine::{Eligibility, MineTag, Ticket};
use ba_sim::{
    AdvCtx, Adversary, Bit, Envelope, Incoming, Message, NodeId, Outbox, Protocol, Recipient,
    Round, Transport, TransportStats,
};

use crate::trace::{span, Seam};

/// Counts the decorators keep next to the spans (ratios are measured where
/// the work happens). One set per traced pass; single benchmark thread, so
/// `Relaxed` statistics counters suffice.
#[derive(Default, Debug)]
pub struct Counters {
    /// `mine` calls that returned a ticket.
    pub tickets: AtomicU64,
    /// Claims handed to `verify_batch`.
    pub batch_items: AtomicU64,
    /// Message copies handed to the outermost transport (a multicast counts
    /// once per recipient).
    pub submitted_copies: AtomicU64,
    /// Message copies the outermost transport put into inboxes.
    pub delivered_copies: AtomicU64,
    /// The two above, restricted to executions under a fault plan.
    pub fault_submitted: AtomicU64,
    pub fault_delivered: AtomicU64,
}

impl Counters {
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// [`Eligibility`] decorator (`ba-fmine`, with `ba-crypto` underneath).
pub struct TracedElig {
    pub inner: Arc<dyn Eligibility>,
    pub counters: Arc<Counters>,
}

impl Eligibility for TracedElig {
    fn mine(&self, node: NodeId, tag: &MineTag) -> Option<Ticket> {
        let _span = span(Seam::Mine);
        let ticket = self.inner.mine(node, tag);
        if ticket.is_some() {
            self.counters.tickets.fetch_add(1, Ordering::Relaxed);
        }
        ticket
    }

    fn would_mine(&self, node: NodeId, tag: &MineTag) -> bool {
        let _span = span(Seam::WouldMine);
        self.inner.would_mine(node, tag)
    }

    fn verify(&self, node: NodeId, tag: &MineTag, ticket: &Ticket) -> bool {
        let _span = span(Seam::Verify);
        self.inner.verify(node, tag, ticket)
    }

    fn verify_batch(&self, items: &[(NodeId, &MineTag, &Ticket)]) -> bool {
        let _span = span(Seam::VerifyBatch);
        self.counters.batch_items.fetch_add(items.len() as u64, Ordering::Relaxed);
        self.inner.verify_batch(items)
    }

    fn supports_batch(&self) -> bool {
        self.inner.supports_batch()
    }

    fn lambda(&self) -> f64 {
        self.inner.lambda()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }
}

/// [`Protocol`] decorator (`ba-core` node steps).
pub struct TracedNode<P> {
    pub inner: P,
    pub seam: Seam,
}

impl<M, P: Protocol<M>> Protocol<M> for TracedNode<P> {
    fn step(&mut self, round: Round, inbox: &[Incoming<M>], out: &mut Outbox<M>) {
        let _span = span(self.seam);
        self.inner.step(round, inbox, out)
    }

    fn output(&self) -> Option<Bit> {
        self.inner.output()
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }
}

/// [`Adversary`] decorator (`ba-adversary`).
pub struct TracedAdversary<M> {
    pub inner: Box<dyn Adversary<M> + Send>,
}

impl<M: Message> Adversary<M> for TracedAdversary<M> {
    fn setup(&mut self, ctx: &mut AdvCtx<'_, M>) {
        let _span = span(Seam::Intervene);
        self.inner.setup(ctx)
    }

    fn filter_corrupt_inbox(
        &mut self,
        node: NodeId,
        inbox: Vec<Incoming<M>>,
        round: Round,
    ) -> Vec<Incoming<M>> {
        let _span = span(Seam::CorruptStep);
        self.inner.filter_corrupt_inbox(node, inbox, round)
    }

    fn corrupt_outbox(
        &mut self,
        node: NodeId,
        planned: Vec<(Recipient, M)>,
        round: Round,
    ) -> Vec<(Recipient, M)> {
        let _span = span(Seam::CorruptStep);
        self.inner.corrupt_outbox(node, planned, round)
    }

    fn intervene(&mut self, ctx: &mut AdvCtx<'_, M>) {
        let _span = span(Seam::Intervene);
        self.inner.intervene(ctx)
    }
}

/// [`Transport`] decorator (`ba-sim::transport`, `ba-net`). The fault
/// wrapper is decorated around an already-decorated base backend, so its
/// self time is the fault layer alone.
pub struct TracedTransport<M> {
    pub inner: Box<dyn Transport<M>>,
    pub seam: Seam,
    /// Set on the outermost decorator only: it counts copies.
    pub counters: Option<Arc<Counters>>,
    pub n: usize,
    /// Whether the execution runs under a non-empty fault plan.
    pub faulted: bool,
}

impl<M: Message> Transport<M> for TracedTransport<M> {
    fn submit(&mut self, round: Round, envelopes: Vec<Envelope<M>>) {
        let _span = span(self.seam);
        if let Some(counters) = &self.counters {
            let copies: u64 = envelopes
                .iter()
                .map(|e| if e.to == Recipient::All { self.n as u64 } else { 1 })
                .sum();
            counters.submitted_copies.fetch_add(copies, Ordering::Relaxed);
            if self.faulted {
                counters.fault_submitted.fetch_add(copies, Ordering::Relaxed);
            }
        }
        self.inner.submit(round, envelopes)
    }

    fn deliver(&mut self, round: Round, inboxes: &mut [Vec<Incoming<M>>]) {
        let _span = span(self.seam);
        let before: usize = inboxes.iter().map(Vec::len).sum();
        self.inner.deliver(round, inboxes);
        if let Some(counters) = &self.counters {
            let after: usize = inboxes.iter().map(Vec::len).sum();
            let copies = (after - before) as u64;
            counters.delivered_copies.fetch_add(copies, Ordering::Relaxed);
            if self.faulted {
                counters.fault_delivered.fetch_add(copies, Ordering::Relaxed);
            }
        }
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn finish(&mut self, rounds_used: u64) -> Option<TransportStats> {
        let _span = span(self.seam);
        self.inner.finish(rounds_used)
    }

    fn fault_stats(&self) -> Option<ba_sim::FaultStats> {
        self.inner.fault_stats()
    }
}
