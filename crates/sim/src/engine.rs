//! The synchronous round-driving engine.
//!
//! One [`Sim`] = one execution of a protocol `Π` with an environment-supplied
//! input vector, an adversary `A`, and a corruption model — a sample of the
//! paper's `EXEC_Π(A, Z, κ)`.
//!
//! There is one round driver. It steps a **live set** of materialized nodes:
//! ordinarily every node, or — when the protocol family supplies a
//! [`Committee`] and delivery is lockstep — a subset that starts empty and
//! grows as nodes are named by the activation oracle, corrupted, or reached
//! by a unicast ([`crate::population`]). Every phase of a round is written
//! once for both; they differ only in the delivery arm
//! ([`Sim::run_population`]).
//!
//! # In-execution parallelism
//!
//! Each round runs in three phases: honest live nodes step on up to
//! [`SimConfig::threads`] scoped worker threads (their steps are
//! independent — each touches only its own state and inbox), corrupt nodes
//! step serially through the one mutable adversary in node-id order, and the
//! per-node results merge back in node-id order (message ids, metrics,
//! output bookkeeping). Per-node protocol randomness is derived from the run
//! seed, never from ambient entropy, so reports are **byte-identical at
//! every thread count** — the knob only buys wall-clock on large-`n`
//! executions with real cryptography.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::{AdvCtx, AdvWorld, Adversary, CorruptionModel};
use crate::ids::{Bit, NodeId, Round};
use crate::message::{Envelope, Incoming, Message, MsgId, Outbox, Recipient};
use crate::metrics::Metrics;
use crate::population::{Committee, Lazy, PopulationMode};
use crate::protocol::Protocol;
use crate::transport::{finalize_latency, Transport, TransportSpec};

/// The per-node deterministic seed handed to protocol factories — a lazily
/// materialized node draws exactly the randomness its all-live twin drew.
pub(crate) fn node_seed(run_seed: u64, node: usize) -> u64 {
    run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(node as u64)
}

/// Static configuration of an execution.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of nodes `n`.
    pub n: usize,
    /// Corruption budget `f`.
    pub f: usize,
    /// Corruption model in force.
    pub model: CorruptionModel,
    /// Hard round cap (executions that run this long are termination
    /// failures).
    pub max_rounds: u64,
    /// Seed for the adversary's randomness.
    pub seed: u64,
    /// Worker threads stepping honest nodes *within* each round of this one
    /// execution (`1` = fully serial). A pure wall-clock knob: outboxes are
    /// merged in node-id order and per-node randomness is derived from
    /// `seed` at construction, so every value produces byte-identical
    /// reports. Worth raising for large `n` with real cryptography; the
    /// per-round fork/join overhead dominates on small executions.
    pub threads: usize,
    /// How much of the population this execution keeps live. Like
    /// [`SimConfig::threads`] this is a resource knob, not a protocol
    /// parameter: a lazy execution's report is byte-identical to the
    /// all-live one's, and executions that cannot run lazily — see
    /// [`Sim::run_population`] for the one rule — silently run all-live.
    pub population: PopulationMode,
    /// Delivery backend for this execution (see [`crate::transport`]). The
    /// default lockstep backend reproduces the pre-seam engine
    /// byte-for-byte; the latency backend changes *when* messages arrive
    /// and is therefore a protocol-visible parameter, not a resource knob.
    pub transport: TransportSpec,
}

impl SimConfig {
    /// Convenience constructor with the given model and an adversary seed.
    pub fn new(n: usize, f: usize, model: CorruptionModel, seed: u64) -> SimConfig {
        SimConfig {
            n,
            f,
            model,
            max_rounds: 10_000,
            seed,
            threads: 1,
            population: PopulationMode::Dense,
            transport: TransportSpec::Lockstep,
        }
    }

    /// Sets the in-execution worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> SimConfig {
        self.threads = threads.max(1);
        self
    }

    /// Sets the population mode (builder style).
    pub fn with_population(mut self, population: PopulationMode) -> SimConfig {
        self.population = population;
        self
    }

    /// Sets the delivery backend (builder style).
    pub fn with_transport(mut self, transport: TransportSpec) -> SimConfig {
        self.transport = transport;
        self
    }
}

/// Everything recorded about one finished execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Per-node decided outputs (index = node id).
    pub outputs: Vec<Option<Bit>>,
    /// Round at which each node first reported an output.
    pub output_rounds: Vec<Option<Round>>,
    /// Round at which each node was corrupted (`None` = forever honest).
    pub corrupt_at: Vec<Option<Round>>,
    /// Whether each node halted before the round cap.
    pub halted: Vec<bool>,
    /// Communication and adversary-action counters.
    pub metrics: Metrics,
    /// Rounds actually executed.
    pub rounds_used: u64,
    /// The inputs the environment supplied (echoed for verdict evaluation).
    pub inputs: Vec<Bit>,
}

impl RunReport {
    /// Iterator over forever-honest node indices.
    pub fn forever_honest(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.corrupt_at.iter().enumerate().filter(|(_, c)| c.is_none()).map(|(i, _)| NodeId(i))
    }
}

/// A type-erased protocol instance that can cross thread boundaries.
pub type BoxedProtocol<M> = Box<dyn Protocol<M> + Send>;

/// A single synchronous execution.
///
/// # Examples
///
/// ```
/// use ba_sim::adversary::{CorruptionModel, Passive};
/// use ba_sim::engine::{Sim, SimConfig};
/// use ba_sim::ids::{Bit, NodeId, Round};
/// use ba_sim::message::{Incoming, Message, Outbox};
/// use ba_sim::protocol::Protocol;
///
/// // A one-round "echo my input" protocol.
/// #[derive(Clone, Debug)]
/// struct Vote(Bit);
/// impl Message for Vote {
///     fn size_bits(&self) -> usize { 1 }
/// }
/// struct Echo { input: Bit, done: Option<Bit> }
/// impl Protocol<Vote> for Echo {
///     fn step(&mut self, round: Round, inbox: &[Incoming<Vote>], out: &mut Outbox<Vote>) {
///         match round.0 {
///             0 => out.multicast(Vote(self.input)),
///             _ => {
///                 let ones = inbox.iter().filter(|m| m.msg.0).count();
///                 self.done = Some(ones * 2 > inbox.len());
///             }
///         }
///     }
///     fn output(&self) -> Option<Bit> { self.done }
///     fn halted(&self) -> bool { self.done.is_some() }
/// }
///
/// let config = SimConfig::new(4, 0, CorruptionModel::Static, 7);
/// let inputs = vec![true, true, true, false];
/// let report = Sim::run_protocol(&config, inputs.clone(), Passive, |id, _seed| {
///     Box::new(Echo { input: inputs[id.index()], done: None })
/// });
/// assert!(report.outputs.iter().all(|o| *o == Some(true)));
/// ```
pub struct Sim<M, A> {
    live: Live<M>,
    world: AdvWorld<M>,
    adversary: A,
    metrics: Metrics,
    output_rounds: Vec<Option<Round>>,
    max_rounds: u64,
    /// In-execution worker count (see [`SimConfig::threads`]).
    threads: usize,
    rng: StdRng,
    delivery: Delivery<M>,
}

/// The materialized nodes, in ascending node-id order: `nodes[k]` and
/// `inboxes[k]` belong to node `ids[k]`. An all-live execution holds
/// `0..n`, so a position *is* a node id and `inboxes` is the id-indexed
/// slice a [`Transport`] fills. Consumption (phase 2) finishes before
/// delivery (phase 5) starts, so one inbox per node serves both.
struct Live<M> {
    ids: Vec<usize>,
    nodes: Vec<BoxedProtocol<M>>,
    inboxes: Vec<Vec<Incoming<M>>>,
}

impl<M> Live<M> {
    /// Node `i`'s position, or where it would be inserted.
    fn position(&self, i: usize) -> Result<usize, usize> {
        self.ids.binary_search(&i)
    }

    /// Adds silent node `i` to the live set; returns its position.
    fn insert(&mut self, i: usize, node: BoxedProtocol<M>, inbox: Vec<Incoming<M>>) -> usize {
        let k = self.position(i).expect_err("only silent nodes are materialized");
        self.ids.insert(k, i);
        self.nodes.insert(k, node);
        self.inboxes.insert(k, inbox);
        k
    }
}

/// Where a round's surviving envelopes go — the one phase in which an
/// all-live and a lazy execution differ (chosen in [`Sim::run_population`]).
enum Delivery<M> {
    /// Every node is live: the [`Transport`] alone decides each copy's
    /// arrival round and fills the id-indexed inboxes.
    Seam(Box<dyn Transport<M>>),
    /// A lazy live set: the lockstep rule applied in-engine, a unicast to a
    /// silent node materializing it on arrival.
    Lazy(Lazy<M>),
}

/// What one node's step produced, captured per node so honest steps can run
/// on worker threads and still merge into the world in node-id order.
struct NodeStep<M> {
    /// The node's (possibly adversary-rewritten) sends, in outbox order.
    sends: Vec<(Recipient, M)>,
    /// Whether the node was so-far-honest when it stepped.
    honest: bool,
    /// `output()` after the step (honest nodes only).
    output: Option<Bit>,
    /// `halted()` after the step (honest nodes only).
    halted: bool,
}

/// Records what honest node `i` reported to the environment after `round`:
/// the first output sticks, the halt flag follows the node.
fn record<M>(
    world: &mut AdvWorld<M>,
    output_rounds: &mut [Option<Round>],
    i: usize,
    round: Round,
    (output, halted): (Option<Bit>, bool),
) {
    if let (Some(bit), None) = (output, world.outputs[i]) {
        world.outputs[i] = Some(bit);
        output_rounds[i] = Some(round);
    }
    world.halted[i] = halted;
}

impl<M: Message + Send + Sync + 'static, A: Adversary<M>> Sim<M, A> {
    /// Runs one all-live execution to completion under the in-core backend
    /// `config.transport` names. `factory(id, seed)` constructs node `id`'s
    /// protocol instance; `seed` is a per-node deterministic seed derived
    /// from `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != config.n`, if `config.f >= config.n`, or
    /// if `config.transport` needs real sockets (run those through `ba-net`).
    pub fn run_protocol(
        config: &SimConfig,
        inputs: Vec<Bit>,
        adversary: A,
        factory: impl FnMut(NodeId, u64) -> BoxedProtocol<M>,
    ) -> RunReport {
        let transport = config.transport.build(config.n, config.seed, || {
            panic!("the TCP transport needs real sockets, which live outside ba-sim: use ba-net")
        });
        Sim::run_with_transport(config, inputs, adversary, factory, transport)
    }

    /// Like [`Sim::run_protocol`], with a caller-provided delivery backend —
    /// the injection point for transports `ba-sim` cannot build itself (real
    /// I/O, e.g. `ba-net`'s TCP loopback backend) and for decorated ones.
    pub fn run_with_transport(
        config: &SimConfig,
        inputs: Vec<Bit>,
        adversary: A,
        mut factory: impl FnMut(NodeId, u64) -> BoxedProtocol<M>,
        transport: Box<dyn Transport<M>>,
    ) -> RunReport {
        let mut sim = Sim::new(config, inputs, adversary, Delivery::Seam(transport));
        sim.live.ids = (0..config.n).collect();
        sim.live.nodes =
            (0..config.n).map(|i| factory(NodeId(i), node_seed(config.seed, i))).collect();
        sim.live.inboxes = vec![Vec::new(); config.n];
        sim.run()
    }

    /// Runs one execution, over a lazy live set when that is sound and asked
    /// for, all-live under `config.transport` otherwise (`tcp` supplies the
    /// real-socket backend, see [`TransportSpec::build`]). The reports are
    /// equal either way; only the `peak_*` gauges tell them apart.
    ///
    /// This is the one place the choice is made. A lazy execution needs
    /// [`PopulationMode::Sparse`], the family's [`Committee`], and
    /// **lockstep delivery** ([`TransportSpec::is_lockstep`]): it stands one
    /// retained multicast history and two ghosts in for every silent node,
    /// which is only right while all silent nodes with the same input hold
    /// the same inbox. The latency, TCP and fault backends decide delay,
    /// drop, duplication and partition per *(message, receiver)* link, so
    /// under them every silent node has an inbox of its own and nothing
    /// short of materializing it can say what it holds — a lazy live set
    /// cannot be routed through the [`Transport`] seam.
    pub fn run_population(
        config: &SimConfig,
        inputs: Vec<Bit>,
        adversary: A,
        factory: impl FnMut(NodeId, u64) -> BoxedProtocol<M> + Send + 'static,
        committee: Option<Committee<M>>,
        tcp: impl FnOnce() -> Box<dyn Transport<M>>,
    ) -> RunReport {
        match committee {
            Some(committee)
                if config.population == PopulationMode::Sparse
                    && config.transport.is_lockstep() =>
            {
                let lazy = Lazy::new(committee, Box::new(factory), config.seed);
                Sim::new(config, inputs, adversary, Delivery::Lazy(lazy)).run()
            }
            _ => {
                let transport = config.transport.build(config.n, config.seed, tcp);
                Sim::run_with_transport(config, inputs, adversary, factory, transport)
            }
        }
    }

    /// An execution with nobody live yet.
    fn new(config: &SimConfig, inputs: Vec<Bit>, adversary: A, delivery: Delivery<M>) -> Sim<M, A> {
        assert_eq!(inputs.len(), config.n, "one input per node");
        assert!(config.f < config.n, "corruption budget must leave one honest node");
        let world = AdvWorld {
            model: config.model,
            f: config.f,
            round: Round::ZERO,
            in_setup: false,
            corrupt_at: vec![None; config.n],
            pending: Vec::new(),
            injected: Vec::new(),
            next_msg_id: 0,
            inputs,
            outputs: vec![None; config.n],
            halted: vec![false; config.n],
            removals: 0,
        };
        Sim {
            live: Live { ids: Vec::new(), nodes: Vec::new(), inboxes: Vec::new() },
            world,
            adversary,
            metrics: Metrics::default(),
            output_rounds: vec![None; config.n],
            max_rounds: config.max_rounds,
            threads: config.threads.max(1),
            rng: StdRng::seed_from_u64(config.seed ^ 0xAD5E_55A1_D0BE_EF00),
            delivery,
        }
    }

    /// Runs the execution to completion (all honest nodes halted, or the
    /// round cap reached) and returns the report.
    fn run(mut self) -> RunReport {
        let n = self.n();
        // Setup phase: static adversaries corrupt here.
        self.world.in_setup = true;
        self.adversary.setup(&mut AdvCtx { world: &mut self.world, rng: &mut self.rng });
        self.world.in_setup = false;
        // Corrupt nodes are always live (no rounds to replay yet).
        if let Delivery::Lazy(lazy) = &mut self.delivery {
            for i in (0..n).filter(|&i| self.world.corrupt_at[i].is_some()) {
                self.live.insert(i, lazy.materialize(i, 0), Vec::new());
            }
        }
        self.metrics.peak_live_nodes = self.live.ids.len() as u64;

        let mut rounds_used = 0;
        for r in 0..self.max_rounds {
            let round = Round(r);
            self.world.round = round;
            rounds_used = r + 1;
            self.step_round(round);
            // Execution ends when every so-far-honest node has halted.
            let all_honest_halted = (0..n)
                .filter(|&i| self.world.corrupt_at[i].is_none())
                .all(|i| self.world.halted[i]);
            if all_honest_halted {
                break;
            }
        }

        self.metrics.rounds = rounds_used;
        self.metrics.corruptions =
            self.world.corrupt_at.iter().filter(|c| c.is_some()).count() as u64;
        self.metrics.removals = self.world.removals as u64;
        if let Delivery::Seam(transport) = &mut self.delivery {
            self.metrics.latency = transport
                .finish(rounds_used)
                .map(|stats| finalize_latency(stats, &self.output_rounds, &self.world.corrupt_at));
            // Read after finish(): still-held copies have been folded into
            // the fault wrapper's undelivered count by then.
            self.metrics.faults = transport.fault_stats();
        }
        RunReport {
            outputs: self.world.outputs,
            output_rounds: self.output_rounds,
            corrupt_at: self.world.corrupt_at,
            halted: self.world.halted,
            metrics: self.metrics,
            rounds_used,
            inputs: self.world.inputs,
        }
    }

    fn n(&self) -> usize {
        self.world.corrupt_at.len()
    }

    fn step_round(&mut self, round: Round) {
        let n = self.n();
        // 1. Lazy activation: every node the oracle names as a potential
        // speaker this round is replayed to the present and primed with the
        // inbox the silent majority holds.
        if let Delivery::Lazy(lazy) = &mut self.delivery {
            for i in lazy.oracle.candidates(round).iter().map(NodeId::index) {
                if i < n && self.live.position(i).is_err() {
                    let node = lazy.materialize(i, round.0);
                    self.live.insert(i, node, lazy.silent_inbox(round).to_vec());
                }
            }
        }

        // 2a. Step every so-far-honest live node, on worker threads when
        // configured. Corruption only happens in `setup`/`intervene`, so the
        // corrupt set is frozen for the whole phase, honest steps touch
        // nothing but their own node state and inbox, and each result lands
        // in its node's slot — the later merge is order-independent.
        let live = self.live.ids.len();
        let mut results: Vec<Option<NodeStep<M>>> = (0..live).map(|_| None).collect();
        {
            let (corrupt_at, halted) = (&self.world.corrupt_at, &self.world.halted);
            let step_honest = |ids: &[usize],
                               nodes: &mut [BoxedProtocol<M>],
                               inboxes: &mut [Vec<Incoming<M>>],
                               slots: &mut [Option<NodeStep<M>>]| {
                for (((&i, node), inbox), slot) in ids.iter().zip(nodes).zip(inboxes).zip(slots) {
                    if corrupt_at[i].is_some() {
                        continue; // stepped serially in phase 2b
                    }
                    if !halted[i] {
                        let mut outbox = Outbox::new();
                        node.step(round, inbox, &mut outbox);
                        *slot = Some(NodeStep {
                            sends: outbox.take(),
                            honest: true,
                            output: node.output(),
                            halted: node.halted(),
                        });
                    }
                    inbox.clear(); // halted honest nodes stay silent
                }
            };
            let Live { ids, nodes, inboxes } = &mut self.live;
            let workers = self.threads.min(live).max(1);
            if workers <= 1 {
                step_honest(ids, nodes, inboxes, &mut results);
            } else {
                let chunk = live.div_ceil(workers);
                std::thread::scope(|scope| {
                    let chunks = ids
                        .chunks(chunk)
                        .zip(nodes.chunks_mut(chunk))
                        .zip(inboxes.chunks_mut(chunk))
                        .zip(results.chunks_mut(chunk));
                    for (((ids, nodes), inboxes), slots) in chunks {
                        let step_honest = &step_honest;
                        scope.spawn(move || step_honest(ids, nodes, inboxes, slots));
                    }
                });
            }
        }
        if let Delivery::Lazy(lazy) = &mut self.delivery {
            lazy.step_ghosts(round);
        }

        // 2b. Step corrupt nodes serially, in node-id order: the adversary
        // is one mutable strategy object, and keeping its inbox-filter /
        // outbox-rewrite call sequence identical to a serial execution is
        // part of the byte-identity contract.
        for (k, slot) in results.iter_mut().enumerate() {
            let id = NodeId(self.live.ids[k]);
            if self.world.corrupt_at[id.index()].is_none() {
                continue;
            }
            let inbox = std::mem::take(&mut self.live.inboxes[k]);
            let mut filtered = self.adversary.filter_corrupt_inbox(id, inbox, round);
            let mut outbox = Outbox::new();
            self.live.nodes[k].step(round, &filtered, &mut outbox);
            // Recycle whichever buffer the adversary handed back so corrupt
            // nodes keep their inbox capacity too.
            filtered.clear();
            self.live.inboxes[k] = filtered;
            let sends = self.adversary.corrupt_outbox(id, outbox.take(), round);
            *slot = Some(NodeStep { sends, honest: false, output: None, halted: false });
        }

        // 2c. Merge in node-id order: message ids, envelopes, and
        // output/halt bookkeeping come out exactly as the serial
        // interleaving produced them. (Silent nodes have no sends by
        // definition, so skipping them leaves the id sequence unchanged.)
        let mut pending: Vec<Envelope<M>> = Vec::new();
        for (&i, slot) in self.live.ids.iter().zip(results) {
            let Some(step) = slot else { continue };
            for (to, msg) in step.sends {
                let id = MsgId(self.world.next_msg_id);
                self.world.next_msg_id += 1;
                pending.push(Envelope {
                    id,
                    from: NodeId(i),
                    to,
                    round,
                    honest_send: step.honest,
                    removed: false,
                    msg: Arc::new(msg),
                });
            }
            if step.honest {
                let report = (step.output, step.halted);
                record(&mut self.world, &mut self.output_rounds, i, round, report);
            }
        }
        // Silent honest nodes report what the ghost carrying their input
        // reports.
        if let Delivery::Lazy(lazy) = &mut self.delivery {
            let reports = lazy.ghost_reports();
            let mut live = self.live.ids.iter().peekable();
            for i in 0..n {
                if live.next_if_eq(&&i).is_some() || self.world.corrupt_at[i].is_some() {
                    continue;
                }
                if let Some(report) = reports[usize::from(self.world.inputs[i])] {
                    record(&mut self.world, &mut self.output_rounds, i, round, report);
                }
            }
        }

        // 3. Meter sends (Definition 7 counts messages *sent* by honest
        // nodes, regardless of later removal).
        for env in &pending {
            match (env.honest_send, env.to) {
                (true, Recipient::All) => {
                    self.metrics.honest_multicasts += 1;
                    self.metrics.honest_multicast_bits += env.msg.size_bits() as u64;
                    self.metrics.honest_cert_bits += env.msg.cert_bits() as u64;
                }
                (true, Recipient::One(_)) => {
                    self.metrics.honest_unicasts += 1;
                    self.metrics.honest_unicast_bits += env.msg.size_bits() as u64;
                    self.metrics.honest_cert_bits += env.msg.cert_bits() as u64;
                }
                (false, _) => {
                    self.metrics.corrupt_sends += 1;
                    self.metrics.corrupt_bits += env.msg.size_bits() as u64;
                }
            }
        }

        // 4. Adversary intervention: observe, corrupt, remove, inject.
        self.world.pending = pending;
        self.adversary.intervene(&mut AdvCtx { world: &mut self.world, rng: &mut self.rng });
        let injected = std::mem::take(&mut self.world.injected);
        for env in &injected {
            self.metrics.corrupt_sends += 1;
            self.metrics.corrupt_bits += env.msg.size_bits() as u64;
            self.metrics.injected_sends += 1;
            debug_assert!(!env.honest_send);
        }
        let mut deliverable = std::mem::take(&mut self.world.pending);
        deliverable.extend(injected);
        // A node corrupted this round while silent joins the live set: its
        // all-live twin stepped honestly through `round`, so the replay
        // includes it.
        if let Delivery::Lazy(lazy) = &mut self.delivery {
            for i in (0..n).filter(|&i| self.world.corrupt_at[i] == Some(round)) {
                if self.live.position(i).is_err() {
                    self.live.insert(i, lazy.materialize(i, round.0 + 1), Vec::new());
                }
            }
        }

        // 5. Validate what survived, then deliver.
        let mut dropped = 0u64;
        deliverable.retain(|env| {
            if env.removed {
                return false;
            }
            if let Recipient::One(target) = env.to {
                if target.index() >= n {
                    // Out-of-range unicasts cannot be delivered. Honest
                    // protocol code addressing a nonexistent node is a bug,
                    // not a modelling choice; adversarial injections may aim
                    // anywhere, and are merely counted instead of being lost
                    // without a trace.
                    debug_assert!(
                        !env.honest_send,
                        "honest node {:?} unicast to out-of-range node {:?}",
                        env.from, target
                    );
                    dropped += 1;
                    return false;
                }
            }
            true
        });
        self.metrics.dropped_sends += dropped;
        let held = match &mut self.delivery {
            // The transport alone decides each copy's arrival round; drain
            // everything arriving by the start of the next round into the
            // inboxes. (Under lockstep that is the entire submission; a
            // multicast still shares one `Arc` across all n recipients — no
            // payload deep-clone in the fan-out.)
            Delivery::Seam(transport) => {
                transport.submit(round, deliverable);
                transport.deliver(round.next(), &mut self.live.inboxes);
                transport.in_flight() as u64
            }
            // Multicasts fan out to the live inboxes and are retained once
            // in the history; a unicast reaching a silent node materializes
            // it mid-loop with exactly the inbox its all-live twin holds at
            // that point (all multicasts delivered so far, in envelope
            // order — earlier unicasts to it would have activated it
            // already).
            Delivery::Lazy(lazy) => {
                let mut multicasts: Vec<Incoming<M>> = Vec::new();
                for env in deliverable {
                    let incoming = Incoming { from: env.from, msg: env.msg };
                    match env.to {
                        Recipient::All => {
                            for inbox in &mut self.live.inboxes {
                                inbox.push(incoming.clone());
                            }
                            multicasts.push(incoming);
                        }
                        Recipient::One(target) => {
                            let k = self.live.position(target.index()).unwrap_or_else(|_| {
                                let node = lazy.materialize(target.index(), round.0 + 1);
                                self.live.insert(target.index(), node, multicasts.clone())
                            });
                            self.live.inboxes[k].push(incoming);
                        }
                    }
                }
                lazy.retain(multicasts);
                lazy.history_msgs
            }
        };

        // Gauges: the live-set high-water mark, and resident messages —
        // everything queued for next round plus whatever the transport
        // still holds in flight (all-live) or the retained history standing
        // in for the silent inboxes (lazy).
        self.metrics.peak_live_nodes = self.metrics.peak_live_nodes.max(self.live.ids.len() as u64);
        let queued: u64 = self.live.inboxes.iter().map(|b| b.len() as u64).sum();
        self.metrics.peak_resident_msgs = self.metrics.peak_resident_msgs.max(queued + held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Passive;
    use crate::population::{ActivationOracle, LazyBreach};

    #[derive(Clone, Debug, PartialEq)]
    struct Vote(u64);

    impl Message for Vote {
        fn size_bits(&self) -> usize {
            64
        }
    }

    /// A sparse-safe toy: a fixed committee multicasts its input in round 0,
    /// everyone tallies in round 1 and halts. Nodes outside the committee
    /// never send, and their state depends only on the multicast stream —
    /// exactly the structure the real subquadratic protocols have.
    struct CommitteeVote {
        input: Bit,
        speaks: bool,
        decided: Option<Bit>,
        /// When poked by a targeted `Vote(99)`, echo a multicast next round
        /// (makes a delivered unicast observable in the metrics).
        poked: bool,
    }

    impl CommitteeVote {
        fn new(input: Bit, speaks: bool) -> CommitteeVote {
            CommitteeVote { input, speaks, decided: None, poked: false }
        }
    }

    impl Protocol<Vote> for CommitteeVote {
        fn step(&mut self, round: Round, inbox: &[Incoming<Vote>], out: &mut Outbox<Vote>) {
            if inbox.iter().any(|m| m.msg.0 == 99) {
                self.poked = true;
            }
            match round.0 {
                0 if self.speaks => out.multicast(Vote(self.input as u64)),
                1 => {
                    if self.poked {
                        out.multicast(Vote(7));
                    }
                    let ones = inbox.iter().filter(|m| m.msg.0 == 1).count();
                    let zeros = inbox.iter().filter(|m| m.msg.0 == 0).count();
                    self.decided = Some(ones >= zeros);
                }
                _ => {}
            }
        }

        fn output(&self) -> Option<Bit> {
            self.decided
        }

        fn halted(&self) -> bool {
            self.decided.is_some()
        }
    }

    /// Nodes `0..COMMITTEE` speak; every test population is larger.
    const COMMITTEE: usize = 5;
    const N: usize = 12;

    fn inputs() -> Vec<Bit> {
        (0..N).map(|i| i % 3 == 0).collect()
    }

    fn factory() -> impl FnMut(NodeId, u64) -> BoxedProtocol<Vote> + Send + 'static {
        |id, _seed| Box::new(CommitteeVote::new(inputs()[id.index()], id.index() < COMMITTEE))
    }

    /// The trivially correct oracle: the committee, every round.
    struct CommitteeOracle(std::ops::Range<usize>);

    impl ActivationOracle for CommitteeOracle {
        fn candidates(&mut self, _round: Round) -> Vec<NodeId> {
            self.0.clone().map(NodeId).collect()
        }
    }

    fn committee(oracle: std::ops::Range<usize>, ghosts_speak: bool) -> Committee<Vote> {
        Committee {
            ghosts: [false, true].map(|bit| -> BoxedProtocol<Vote> {
                Box::new(CommitteeVote::new(bit, ghosts_speak))
            }),
            oracle: Box::new(CommitteeOracle(oracle)),
        }
    }

    fn config(f: usize, model: CorruptionModel) -> SimConfig {
        SimConfig::new(N, f, model, 42)
    }

    fn run_mode(
        cfg: &SimConfig,
        adversary: impl Adversary<Vote>,
        mode: PopulationMode,
    ) -> RunReport {
        let cfg = cfg.clone().with_population(mode);
        let committee = Some(committee(0..COMMITTEE, false));
        Sim::run_population(&cfg, inputs(), adversary, factory(), committee, || unreachable!())
    }

    /// Corrupts committee node 0 at setup; its outbox is silenced.
    struct SilenceNodeZero;

    impl Adversary<Vote> for SilenceNodeZero {
        fn setup(&mut self, ctx: &mut AdvCtx<'_, Vote>) {
            ctx.corrupt(NodeId(0)).expect("budget");
        }

        fn corrupt_outbox(
            &mut self,
            _node: NodeId,
            _planned: Vec<(Recipient, Vote)>,
            _round: Round,
        ) -> Vec<(Recipient, Vote)> {
            Vec::new()
        }
    }

    /// Strongly adaptive adversary: observes round-0 traffic, corrupts every
    /// sender it can afford and erases their messages (the "committee
    /// eraser" in miniature).
    struct EraseEverything;

    impl Adversary<Vote> for EraseEverything {
        fn intervene(&mut self, ctx: &mut AdvCtx<'_, Vote>) {
            if ctx.round().0 != 0 {
                return;
            }
            let pend: Vec<(MsgId, NodeId)> = ctx.pending().iter().map(|e| (e.id, e.from)).collect();
            for (id, from) in pend {
                if !ctx.is_corrupt(from) {
                    if ctx.budget_left() == 0 {
                        break; // out of corruptions; remaining messages survive
                    }
                    ctx.corrupt(from).expect("budget checked");
                }
                ctx.remove(id).expect("strongly adaptive removal");
            }
        }
    }

    /// Corrupts the first sender mid-round and finds after-the-fact removal
    /// refused outside the strongly adaptive model.
    struct TryRemove;

    impl Adversary<Vote> for TryRemove {
        fn intervene(&mut self, ctx: &mut AdvCtx<'_, Vote>) {
            if ctx.round().0 == 0 {
                let (first, from) = (ctx.pending()[0].id, ctx.pending()[0].from);
                ctx.corrupt(from).unwrap();
                assert!(ctx.remove(first).is_err());
            }
        }
    }

    /// Equivocation: corrupt node 0 sends an extra unicast only to node 1.
    struct InjectExtra;

    impl Adversary<Vote> for InjectExtra {
        fn setup(&mut self, ctx: &mut AdvCtx<'_, Vote>) {
            ctx.corrupt(NodeId(0)).unwrap();
        }

        fn intervene(&mut self, ctx: &mut AdvCtx<'_, Vote>) {
            if ctx.round().0 == 0 {
                ctx.inject(NodeId(0), Recipient::One(NodeId(1)), Vote(99)).unwrap();
            }
        }
    }

    /// Corrupts a *silent* node mid-run and injects unicasts at silent
    /// targets — in range (delivery-time activation) and past the last node
    /// (undeliverable).
    struct PokeSilent;

    impl Adversary<Vote> for PokeSilent {
        fn intervene(&mut self, ctx: &mut AdvCtx<'_, Vote>) {
            if ctx.round().0 == 0 {
                ctx.corrupt(NodeId(10)).expect("budget");
                ctx.inject(NodeId(10), Recipient::One(NodeId(9)), Vote(99)).expect("inject");
                ctx.inject(NodeId(10), Recipient::One(NodeId(9999)), Vote(99)).expect("inject");
            }
        }
    }

    /// Adversary-added envelopes must interleave with node sends the same
    /// way however the nodes were stepped.
    struct InjectEveryRound;

    impl Adversary<Vote> for InjectEveryRound {
        fn setup(&mut self, ctx: &mut AdvCtx<'_, Vote>) {
            ctx.corrupt(NodeId(0)).unwrap();
        }

        fn intervene(&mut self, ctx: &mut AdvCtx<'_, Vote>) {
            let r = ctx.round().0;
            ctx.inject(NodeId(0), Recipient::One(NodeId((r as usize + 1) % N)), Vote(r)).unwrap();
        }
    }

    type Row =
        (&'static str, usize, CorruptionModel, fn() -> Box<dyn Adversary<Vote>>, fn(&RunReport));

    /// The engine's adversary contract, once per live-set mode and thread
    /// count: every row's report is the same execution whether all `N` nodes
    /// are live or only the committee plus whoever the adversary touches,
    /// and however many workers step them (counts above the live set
    /// included) — and that one report is what the row says it is.
    #[test]
    fn adversary_table_is_one_execution_in_every_mode_at_every_thread_count() {
        use CorruptionModel::{Adaptive, Static, StronglyAdaptive};
        let rows: [Row; 8] = [
            (
                "passive",
                0,
                Static,
                || Box::new(Passive),
                |r| {
                    assert!(r.outputs.iter().all(|o| *o == Some(false)), "two ones, three zeros");
                    assert_eq!(r.metrics.honest_multicasts, 5);
                    assert_eq!(r.metrics.honest_multicast_bits, 5 * 64);
                    assert_eq!(r.metrics.classical_messages(N), 60);
                    assert_eq!(r.rounds_used, 2);
                    assert_eq!(r.forever_honest().count(), N);
                },
            ),
            (
                "silence_node_zero",
                1,
                Static,
                || Box::new(SilenceNodeZero),
                |r| {
                    // Corrupt sends do not count as honest; receivers saw four.
                    assert_eq!(r.metrics.honest_multicasts, 4);
                    assert_eq!(r.corrupt_at[0], Some(Round::ZERO));
                    assert!(r.forever_honest().all(|i| r.outputs[i.index()] == Some(false)));
                },
            ),
            (
                "erase_everything",
                4,
                StronglyAdaptive,
                || Box::new(EraseEverything),
                |r| {
                    // Budget 4 erases senders 0..4; sender 4's zero survives.
                    assert_eq!(r.forever_honest().count(), N - 4);
                    assert!(r.forever_honest().all(|i| r.outputs[i.index()] == Some(false)));
                    assert_eq!(r.metrics.removals, 4);
                    // Definition 7: removed messages still count as multicasts.
                    assert_eq!(r.metrics.honest_multicasts, 5);
                },
            ),
            (
                "erase_without_budget",
                0,
                StronglyAdaptive,
                || Box::new(EraseEverything),
                |r| {
                    assert_eq!((r.metrics.removals, r.metrics.corruptions), (0, 0));
                },
            ),
            (
                "removal_refused_when_adaptive",
                2,
                Adaptive,
                || Box::new(TryRemove),
                |r| {
                    assert_eq!(r.metrics.removals, 0);
                    // The corrupted node's round-0 message still went out (it
                    // was sent while honest and cannot be erased).
                    assert_eq!(r.metrics.honest_multicasts, 5);
                    assert!(r.forever_honest().all(|i| r.outputs[i.index()] == Some(false)));
                },
            ),
            (
                "inject_extra",
                1,
                Static,
                || Box::new(InjectExtra),
                |r| {
                    // Node 0's own multicast plus the injection are corrupt
                    // sends; node 1 echoes the poke it found in its next inbox.
                    assert_eq!(r.metrics.corrupt_sends, 2);
                    assert_eq!(r.metrics.injected_sends, 1);
                    assert_eq!(r.metrics.corrupt_bits, 2 * 64);
                    assert_eq!(r.metrics.honest_multicasts, 4 + 1);
                },
            ),
            (
                "poke_silent",
                1,
                Adaptive,
                || Box::new(PokeSilent),
                |r| {
                    // Only the in-range injection was deliverable (node 9
                    // echoed it); the other is counted as dropped, not lost.
                    assert_eq!(r.corrupt_at[10], Some(Round::ZERO));
                    assert_eq!(r.metrics.injected_sends, 2);
                    assert_eq!(r.metrics.dropped_sends, 1);
                    assert_eq!(r.metrics.honest_multicasts, 5 + 1);
                },
            ),
            (
                "inject_every_round",
                1,
                Static,
                || Box::new(InjectEveryRound),
                |r| {
                    assert_eq!(r.metrics.injected_sends, r.rounds_used);
                },
            ),
        ];
        for (name, f, model, adversary, check) in rows {
            let cfg = config(f, model);
            let all_live = run_mode(&cfg, adversary(), PopulationMode::Dense);
            check(&all_live);
            assert_eq!(all_live.metrics.peak_live_nodes, N as u64, "{name}");
            for threads in [1usize, 2, 3, 8, 64] {
                let cfg = cfg.clone().with_threads(threads);
                for mode in [PopulationMode::Dense, PopulationMode::Sparse] {
                    let report = run_mode(&cfg, adversary(), mode);
                    assert_eq!(report, all_live, "{name}: {mode} at threads={threads}");
                }
            }
            let lazy = run_mode(&cfg, adversary(), PopulationMode::Sparse);
            let touched = lazy.metrics.corruptions + lazy.metrics.injected_sends;
            assert!(lazy.metrics.peak_live_nodes <= COMMITTEE as u64 + touched, "{name}");
            assert!(lazy.metrics.peak_resident_msgs < all_live.metrics.peak_resident_msgs);
        }
    }

    /// The lazy live set is taken only where it is sound: asked for, offered
    /// by the family, and under lockstep delivery — where the fault wrapper
    /// with an empty plan is lockstep too.
    #[test]
    fn lazy_only_under_sparse_mode_a_committee_and_lockstep_delivery() {
        use crate::transport::fault::FaultPlan;
        let wrapped = |plan: &str| -> TransportSpec {
            TransportSpec::Lockstep.with_fault_plan(plan.parse::<FaultPlan>().expect("plan"))
        };
        let peak = |transport: TransportSpec, mode, offered: bool| {
            let cfg = config(0, CorruptionModel::Static).with_transport(transport);
            let cfg = cfg.with_population(mode);
            let committee = offered.then(|| committee(0..COMMITTEE, false));
            let dense = run_mode(&cfg, Passive, PopulationMode::Dense);
            let report = Sim::run_population(
                &cfg,
                inputs(),
                Passive,
                factory(),
                committee,
                || unreachable!(),
            );
            assert_eq!(report, dense, "{transport} {mode}");
            assert_eq!(report.metrics.faults, dense.metrics.faults);
            report.metrics.peak_live_nodes as usize
        };
        let (sparse, dense) = (PopulationMode::Sparse, PopulationMode::Dense);
        assert_eq!(peak(TransportSpec::Lockstep, sparse, true), COMMITTEE);
        assert_eq!(peak(wrapped("none"), sparse, true), COMMITTEE);
        assert_eq!(peak(TransportSpec::Lockstep, dense, true), N);
        assert_eq!(peak(TransportSpec::Lockstep, sparse, false), N);
        assert_eq!(peak(wrapped("drop:p=0.5"), sparse, true), N);
        assert_eq!(peak(TransportSpec::latency_zero(), sparse, true), N);
    }

    fn breach(run: impl FnOnce() -> RunReport) -> LazyBreach {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the breach must stop the execution");
        let detail = crate::structured_failure(&*payload).expect("a structured failure");
        let breach = payload.downcast_ref::<LazyBreach>().expect("a LazyBreach").clone();
        assert_eq!(detail, breach.to_string());
        breach
    }

    /// An oracle that misses a speaker must surface as a structured breach
    /// naming the node and the round, not silently drop its messages.
    #[test]
    fn under_approximating_oracle_raises_a_replay_breach() {
        // Corrupting node 0 at round 1 forces its late materialization; the
        // replay of round 0 catches the send the oracle hid.
        struct CorruptZeroLate;
        impl Adversary<Vote> for CorruptZeroLate {
            fn intervene(&mut self, ctx: &mut AdvCtx<'_, Vote>) {
                if ctx.round().0 == 1 {
                    ctx.corrupt(NodeId(0)).expect("budget");
                }
            }
        }
        let cfg = config(1, CorruptionModel::Adaptive).with_population(PopulationMode::Sparse);
        let misses_node_zero = Some(committee(1..COMMITTEE, false));
        let got = breach(|| {
            let tcp = || unreachable!();
            Sim::run_population(&cfg, inputs(), CorruptZeroLate, factory(), misses_node_zero, tcp)
        });
        assert_eq!(got, LazyBreach::ReplayedNodeSent { node: 0, round: 0 });
        assert!(got.to_string().contains("under-approximated"));
    }

    /// A ghost that would speak (mis-built committee parts) is a breach too.
    #[test]
    fn speaking_ghost_raises_a_ghost_breach() {
        let cfg = config(0, CorruptionModel::Static).with_population(PopulationMode::Sparse);
        let speaking_ghosts = Some(committee(0..COMMITTEE, true));
        let got = breach(|| {
            let tcp = || unreachable!();
            Sim::run_population(&cfg, inputs(), Passive, factory(), speaking_ghosts, tcp)
        });
        assert_eq!(got, LazyBreach::GhostSent { input: false, round: 0 });
        assert!(got.to_string().contains("not sparse-safe"));
    }

    #[test]
    fn round_cap_reported_as_non_termination() {
        struct Forever;
        impl Protocol<Vote> for Forever {
            fn step(&mut self, _round: Round, _inbox: &[Incoming<Vote>], out: &mut Outbox<Vote>) {
                out.multicast(Vote(0));
            }
            fn output(&self) -> Option<Bit> {
                None
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let mut cfg = SimConfig::new(3, 0, CorruptionModel::Static, 42);
        cfg.max_rounds = 5;
        let report = Sim::run_protocol(&cfg, vec![true; 3], Passive, |_, _| Box::new(Forever));
        assert_eq!(report.rounds_used, 5);
        assert!(report.halted.iter().all(|h| !h));
        assert!(report.outputs.iter().all(|o| o.is_none()));
    }

    #[test]
    #[should_panic(expected = "one input per node")]
    fn mismatched_inputs_panic() {
        let cfg = SimConfig::new(3, 0, CorruptionModel::Static, 42);
        let _ = Sim::run_protocol(&cfg, vec![true; 2], Passive, factory());
    }

    #[test]
    fn per_node_seeds_differ() {
        let cfg = SimConfig::new(3, 0, CorruptionModel::Static, 42);
        let mut seeds = Vec::new();
        let _ = Sim::run_protocol(&cfg, vec![true; 3], Passive, |_, seed| {
            seeds.push(seed);
            Box::new(CommitteeVote::new(true, true))
        });
        assert_eq!(seeds.len(), 3);
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds[1], seeds[2]);
    }
}
