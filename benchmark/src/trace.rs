//! The in-memory span tracer behind the per-layer metrics.
//!
//! The benchmark may not edit the program, so spans are opened by the
//! decorators in [`crate::seams`] at the program's public trait seams. One
//! traced op is one tree: the root [`Seam::Op`] span, the engine run under
//! it, node steps / adversary hooks / transport calls under the engine, and
//! eligibility calls under whichever of those made them. A span's **self
//! time** is its duration minus the part its child spans cover, so the self
//! times of one op sum to the op's wall exactly; the root's own self time is
//! the `unattributed` remainder.
//!
//! Seams called more than ~10⁵ times per op (eligibility probes, node
//! steps) are *hot*: they are folded into one `(calls, busy_ns)` record per
//! op instead of one span per call.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Every place a span can be opened, in the order the tower is listed in
/// `benchmark/README.md`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Seam {
    /// One traced `(Scenario, seed)` execution; its self time is the
    /// unattributed remainder (scenario glue, input generation, verdict).
    Op,
    /// `RealMine::from_seed` / `IdealMine::new` — per-run trusted setup.
    EligSetup,
    /// `Keychain::from_seed` / `FsService::from_seed`.
    KeychainSetup,
    Mine,
    WouldMine,
    Verify,
    VerifyBatch,
    IterStep,
    EpochStep,
    MomoseRenStep,
    CksStep,
    /// `Sim::run_with_transport` (dense engine), steps/hooks/transport
    /// excluded by the self-time rule.
    Engine,
    /// `iter::run` under `PopulationMode::Sparse`: the population engine
    /// *and* the live nodes' steps, which no public seam separates.
    Population,
    Lockstep,
    Latency,
    Fault,
    Tcp,
    /// `Adversary::setup` + `Adversary::intervene`.
    Intervene,
    /// `filter_corrupt_inbox` + `corrupt_outbox`.
    CorruptStep,
}

/// Number of seams.
pub const SEAMS: usize = Seam::CorruptStep as usize + 1;

/// All seams, indexable by `seam as usize`.
pub const ALL_SEAMS: [Seam; SEAMS] = [
    Seam::Op,
    Seam::EligSetup,
    Seam::KeychainSetup,
    Seam::Mine,
    Seam::WouldMine,
    Seam::Verify,
    Seam::VerifyBatch,
    Seam::IterStep,
    Seam::EpochStep,
    Seam::MomoseRenStep,
    Seam::CksStep,
    Seam::Engine,
    Seam::Population,
    Seam::Lockstep,
    Seam::Latency,
    Seam::Fault,
    Seam::Tcp,
    Seam::Intervene,
    Seam::CorruptStep,
];

impl Seam {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Seam::Op => "op",
            Seam::EligSetup => "fmine.setup",
            Seam::KeychainSetup => "fmine.keychain.setup",
            Seam::Mine => "fmine.mine",
            Seam::WouldMine => "fmine.would_mine",
            Seam::Verify => "fmine.verify",
            Seam::VerifyBatch => "fmine.verify_batch",
            Seam::IterStep => "core.iter.step",
            Seam::EpochStep => "core.epoch.step",
            Seam::MomoseRenStep => "core.momose_ren.step",
            Seam::CksStep => "core.cks.step",
            Seam::Engine => "sim.engine",
            Seam::Population => "sim.population",
            Seam::Lockstep => "sim.transport.lockstep",
            Seam::Latency => "sim.transport.latency",
            Seam::Fault => "sim.transport.fault",
            Seam::Tcp => "net.tcp",
            Seam::Intervene => "adversary.intervene",
            Seam::CorruptStep => "adversary.corrupt_step",
        }
    }

    /// The layer (crate) a seam's self time is charged to.
    pub fn layer(self) -> &'static str {
        match self {
            Seam::Op => "unattributed",
            Seam::EligSetup
            | Seam::KeychainSetup
            | Seam::Mine
            | Seam::WouldMine
            | Seam::Verify
            | Seam::VerifyBatch => "ba-fmine+ba-crypto",
            Seam::IterStep | Seam::EpochStep | Seam::MomoseRenStep | Seam::CksStep => "ba-core",
            Seam::Engine => "ba-sim::engine",
            Seam::Population => "ba-sim::population",
            Seam::Lockstep | Seam::Latency | Seam::Fault => "ba-sim::transport",
            Seam::Tcp => "ba-net",
            Seam::Intervene | Seam::CorruptStep => "ba-adversary",
        }
    }

    /// Hot seams are aggregated per op instead of recorded per call.
    fn hot(self) -> bool {
        matches!(
            self,
            Seam::Mine
                | Seam::WouldMine
                | Seam::Verify
                | Seam::VerifyBatch
                | Seam::IterStep
                | Seam::EpochStep
                | Seam::MomoseRenStep
                | Seam::CksStep
                | Seam::CorruptStep
        )
    }
}

/// Calls and time of one seam, over one op or over a whole pass.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Agg {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    fn add(&mut self, other: &Agg) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.self_ns += other.self_ns;
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

/// One recorded span. Hot seams produce one per op with `calls > 1` and
/// `busy_ns` below `end_ns - start_ns`; every other span has `calls == 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub seam: Seam,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the trace (`None` for the op root).
    pub parent: Option<usize>,
    pub op: usize,
    pub calls: u64,
    pub busy_ns: u64,
}

struct Frame {
    seam: Seam,
    start_ns: u64,
    child_ns: u64,
    /// Index reserved in `spans` for a non-hot frame.
    span: Option<usize>,
}

/// The tracer state of the (single) benchmark thread.
#[derive(Default)]
struct Tracer {
    epoch: Option<Instant>,
    op: usize,
    stack: Vec<Frame>,
    /// Aggregates of the op in flight.
    current: [Agg; SEAMS],
    /// Finished ops' aggregates.
    per_op: Vec<(usize, [Agg; SEAMS])>,
    spans: Vec<Span>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    fn enter(&mut self, seam: Seam) {
        let start_ns = self.now_ns();
        let span = (!seam.hot()).then(|| {
            let parent = self.stack.iter().rev().find_map(|f| f.span);
            self.spans.push(Span {
                seam,
                start_ns,
                end_ns: start_ns,
                parent,
                op: self.op,
                calls: 1,
                busy_ns: 0,
            });
            self.spans.len() - 1
        });
        self.stack.push(Frame { seam, start_ns, child_ns: 0, span });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let frame = self.stack.pop().expect("exit matches an enter");
        let busy_ns = end_ns - frame.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += busy_ns;
        }
        let agg = &mut self.current[frame.seam as usize];
        agg.calls += 1;
        agg.busy_ns += busy_ns;
        agg.self_ns += busy_ns.saturating_sub(frame.child_ns);
        if let Some(i) = frame.span {
            self.spans[i].end_ns = end_ns;
            self.spans[i].busy_ns = busy_ns;
        }
    }
}

/// Closes its span when dropped, so a panicking op still unwinds the stack.
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            TRACER.with(|t| t.borrow_mut().exit());
        }
    }
}

/// Opens a span at `seam`; a no-op (one thread-local read) outside a traced
/// op, so the decorators cost nothing when tracing is off.
pub fn span(seam: Seam) -> SpanGuard {
    let active = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let active = t.epoch.is_some() && (seam == Seam::Op || !t.stack.is_empty());
        if active {
            t.enter(seam);
        }
        active
    });
    SpanGuard { active }
}

/// Runs `f` as traced op `op`: everything the decorators record while it
/// runs is charged to that op. Returns `f`'s result and the op's
/// per-seam aggregates.
pub fn trace_op<T>(op: usize, f: impl FnOnce() -> T) -> (T, [Agg; SEAMS]) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.epoch.get_or_insert_with(Instant::now);
        t.op = op;
        t.current = [Agg::default(); SEAMS];
    });
    let root_index = TRACER.with(|t| t.borrow().spans.len());
    let out = {
        let _root = span(Seam::Op);
        f()
    };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let root = t.spans[root_index].clone();
        let current = t.current;
        // One aggregated span per hot seam the op used.
        for seam in ALL_SEAMS {
            let agg = current[seam as usize];
            if seam.hot() && agg.calls > 0 {
                t.spans.push(Span {
                    seam,
                    start_ns: root.start_ns,
                    end_ns: root.end_ns,
                    parent: Some(root_index),
                    op,
                    calls: agg.calls,
                    busy_ns: agg.busy_ns,
                });
            }
        }
        t.per_op.push((op, current));
        (out, current)
    })
}

/// Everything recorded so far, leaving the tracer empty and switched off.
pub fn drain() -> Trace {
    TRACER.with(|t| {
        let t = std::mem::take(&mut *t.borrow_mut());
        Trace { per_op: t.per_op, spans: t.spans }
    })
}

/// The finished trace of one pass.
pub struct Trace {
    pub per_op: Vec<(usize, [Agg; SEAMS])>,
    pub spans: Vec<Span>,
}

impl Trace {
    /// Per-seam totals over every traced op.
    pub fn totals(&self) -> [Agg; SEAMS] {
        let mut totals = [Agg::default(); SEAMS];
        for (_, aggs) in &self.per_op {
            for (total, agg) in totals.iter_mut().zip(aggs) {
                total.add(agg);
            }
        }
        totals
    }

    /// Writes one JSON line per span.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"busy_ns\": {}}}",
                s.seam.name(),
                s.op,
                s.start_ns,
                s.end_ns,
                s.calls,
                s.busy_ns,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_op_wall() {
        let (_, aggs) = trace_op(7, || {
            spin(200);
            let _engine = span(Seam::Engine);
            spin(300);
            for _ in 0..3 {
                let _step = span(Seam::IterStep);
                spin(100);
                let _verify = span(Seam::Verify);
                spin(50);
            }
        });
        let root = aggs[Seam::Op as usize];
        assert_eq!(root.calls, 1);
        let self_sum: u64 = aggs.iter().map(|a| a.self_ns).sum();
        assert_eq!(self_sum, root.busy_ns, "self times partition the op wall");
        assert!(root.self_ns >= 200_000, "time outside every seam is the root's own");
        assert_eq!(aggs[Seam::IterStep as usize].calls, 3);
        assert_eq!(aggs[Seam::Verify as usize].calls, 3);
        assert!(aggs[Seam::IterStep as usize].self_ns < aggs[Seam::IterStep as usize].busy_ns);

        let trace = drain();
        // Root + engine as individual spans; step and verify folded.
        let names: Vec<&str> = trace.spans.iter().map(|s| s.seam.name()).collect();
        assert_eq!(names, ["op", "sim.engine", "fmine.verify", "core.iter.step"]);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].calls, 3);
        assert!(trace.spans.iter().all(|s| s.op == 7));
        let mut buf = Vec::new();
        trace.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 4);
    }

    #[test]
    fn spans_outside_a_traced_op_are_free() {
        {
            let _s = span(Seam::Verify);
        }
        let trace = drain();
        assert!(trace.spans.is_empty() && trace.per_op.is_empty());
    }
}
