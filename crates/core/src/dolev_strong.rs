//! The Dolev–Strong authenticated Byzantine Broadcast baseline \[13\].
//!
//! Classic `f + 1`-round protocol: the designated sender signs its bit; a
//! node that *extracts* a value `b` in round `k` (i.e. receives `b` carrying
//! a chain of `k` distinct signatures beginning with the sender's) adds its
//! own signature and relays. After `f + 1` rounds, a node outputs the unique
//! extracted value, or the default bit `0` if it extracted zero or two
//! values.
//!
//! This is the paper's reference point for classical quadratic
//! (`O(n²f)`-message) BB secure against a **strongly adaptive** adversary —
//! the regime where Theorem 1 says subquadratic is impossible. It appears in
//! experiments E1 and E10.

use std::sync::Arc;

use ba_fmine::{Keychain, Sig};

use crate::kernel::{self, Budget};
use crate::runnable::Runnable;
use ba_sim::{
    Adversary, Bit, Incoming, Message, NodeId, Outbox, Problem, Protocol, Round, RunReport,
    SimConfig, Verdict,
};

/// A signature chain entry: the signer and its signature over the value.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainSig {
    /// The signer.
    pub signer: NodeId,
    /// Signature over the canonical statement for the chained bit.
    pub sig: Sig,
}

/// A Dolev–Strong relay message: a bit plus its signature chain.
#[derive(Clone, Debug, PartialEq)]
pub struct DsMsg {
    /// The relayed bit.
    pub bit: Bit,
    /// Signature chain; `chain[0]` must be the designated sender.
    pub chain: Vec<ChainSig>,
}

impl Message for DsMsg {
    fn size_bits(&self) -> usize {
        1 + self.chain.iter().map(|c| 32 + c.sig.size_bits()).sum::<usize>()
    }
}

/// Canonical signed statement for bit `b`: all chain signatures cover the
/// same statement (the classic formulation).
fn statement(bit: Bit) -> [u8; 16] {
    let mut s = [0u8; 16];
    s[..15].copy_from_slice(b"dolev-strong/v1");
    s[15] = bit as u8;
    s
}

/// Configuration for a Dolev–Strong instance.
#[derive(Clone)]
pub struct DsConfig {
    /// Number of nodes.
    pub n: usize,
    /// Corruption bound `f`; the protocol runs `f + 1` rounds.
    pub f: usize,
    /// Designated sender (paper convention: node 0).
    pub sender: NodeId,
    /// Signing service.
    pub keychain: Arc<Keychain>,
}

/// One Dolev–Strong node.
pub struct DsNode {
    cfg: DsConfig,
    id: NodeId,
    input: Bit,
    /// Extracted values.
    extracted: [bool; 2],
    output: Option<Bit>,
    done: bool,
}

impl DsNode {
    /// Creates a node (`input` is meaningful only for the sender).
    pub fn new(cfg: DsConfig, id: NodeId, input: Bit) -> DsNode {
        DsNode { cfg, id, input, extracted: [false, false], output: None, done: false }
    }

    /// Validates a chain for round `k`: length `>= k`, first signer is the
    /// sender, signers distinct, all signatures valid, and none signed by us
    /// (we only relay fresh chains).
    fn chain_valid(&self, msg: &DsMsg, k: usize) -> bool {
        if msg.chain.len() < k || msg.chain.is_empty() {
            return false;
        }
        if msg.chain[0].signer != self.cfg.sender {
            return false;
        }
        let stmt = statement(msg.bit);
        let mut seen: Vec<NodeId> = Vec::with_capacity(msg.chain.len());
        for entry in &msg.chain {
            if seen.contains(&entry.signer) {
                return false;
            }
            seen.push(entry.signer);
            if !self.cfg.keychain.verify(entry.signer, &stmt, &entry.sig) {
                return false;
            }
        }
        true
    }
}

impl Protocol<DsMsg> for DsNode {
    fn step(&mut self, round: Round, inbox: &[Incoming<DsMsg>], out: &mut Outbox<DsMsg>) {
        let r = round.0 as usize;
        let rounds = self.cfg.f + 1;
        if r == 0 {
            if self.id == self.cfg.sender {
                let chain = vec![ChainSig {
                    signer: self.id,
                    sig: self.cfg.keychain.sign(self.id, &statement(self.input)),
                }];
                self.extracted[self.input as usize] = true;
                out.multicast(DsMsg { bit: self.input, chain });
            }
            return;
        }
        if r <= rounds {
            // Messages delivered at round r carry chains built in round r-1,
            // so they must have length >= r.
            for m in inbox {
                let bit = m.msg.bit;
                if self.extracted[bit as usize] {
                    continue;
                }
                if !self.chain_valid(&m.msg, r) {
                    continue;
                }
                if m.msg.chain.iter().any(|c| c.signer == self.id) {
                    continue;
                }
                self.extracted[bit as usize] = true;
                // Relay with our signature appended — except in the last
                // round, where relaying is pointless.
                if r < rounds {
                    let mut chain = m.msg.chain.clone();
                    chain.push(ChainSig {
                        signer: self.id,
                        sig: self.cfg.keychain.sign(self.id, &statement(bit)),
                    });
                    out.multicast(DsMsg { bit, chain });
                }
            }
        }
        if r == rounds {
            self.output = Some(match self.extracted {
                [false, true] => true,
                [true, false] => false,
                // Zero or two extracted values: the default bit.
                _ => false,
            });
            self.done = true;
        }
    }

    fn output(&self) -> Option<Bit> {
        self.output
    }

    fn halted(&self) -> bool {
        self.done
    }
}

/// Runs a Dolev–Strong broadcast and evaluates the broadcast verdict.
pub fn run<A: Adversary<DsMsg> + Send>(
    cfg: &DsConfig,
    sim: &SimConfig,
    sender_input: Bit,
    adversary: A,
) -> (RunReport, Verdict) {
    let mut inputs = vec![false; cfg.n];
    inputs[cfg.sender.index()] = sender_input;
    let (budget, problem) =
        (Budget::AtLeast(cfg.f as u64 + 3), Problem::Broadcast { sender: cfg.sender });
    let cfg = cfg.clone();
    let node = move |id, input, _seed| DsNode::new(cfg.clone(), id, input);
    kernel::run(sim, budget, problem, inputs, adversary, node, None)
}

/// Packages one Dolev–Strong broadcast as a thread-dispatchable
/// [`Runnable`] (the uniform constructor sweep harnesses dispatch over).
pub fn runnable<A: Adversary<DsMsg> + Send + 'static>(
    cfg: &DsConfig,
    sender_input: Bit,
    adversary: A,
) -> Runnable {
    let cfg = cfg.clone();
    Runnable::new(move |sim| run(&cfg, sim, sender_input, adversary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_fmine::SigMode;
    use ba_sim::{CorruptionModel, Passive};

    fn cfg(n: usize, f: usize) -> DsConfig {
        DsConfig {
            n,
            f,
            sender: NodeId(0),
            keychain: Arc::new(Keychain::from_seed(1, n, SigMode::Ideal)),
        }
    }

    #[test]
    fn honest_sender_broadcasts_both_bits() {
        for bit in [false, true] {
            let c = cfg(5, 2);
            let sim = SimConfig::new(5, 0, CorruptionModel::Static, 1);
            let (report, verdict) = run(&c, &sim, bit, Passive);
            assert!(verdict.all_ok(), "bit={bit}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(bit)));
            assert_eq!(report.rounds_used, 3 + 1); // f+1 rounds + round 0... sender round + f+1
        }
    }

    #[test]
    fn silent_sender_defaults_to_zero() {
        struct MuteSender;
        impl Adversary<DsMsg> for MuteSender {
            fn setup(&mut self, ctx: &mut ba_sim::AdvCtx<'_, DsMsg>) {
                ctx.corrupt(NodeId(0)).unwrap();
            }
            fn corrupt_outbox(
                &mut self,
                _node: NodeId,
                _planned: Vec<(ba_sim::Recipient, DsMsg)>,
                _round: Round,
            ) -> Vec<(ba_sim::Recipient, DsMsg)> {
                Vec::new()
            }
        }
        let c = cfg(5, 2);
        let sim = SimConfig::new(5, 2, CorruptionModel::Static, 1);
        let (report, verdict) = run(&c, &sim, true, MuteSender);
        assert!(verdict.consistent && verdict.terminated);
        for i in 1..5 {
            assert_eq!(report.outputs[i], Some(false), "non-sender {i} must default");
        }
    }

    #[test]
    fn equivocating_sender_yields_consistent_default() {
        // The sender signs both bits and sends 0 to half, 1 to the other
        // half; Dolev-Strong forces agreement anyway.
        struct Equivocator {
            keychain: Arc<Keychain>,
        }
        impl Adversary<DsMsg> for Equivocator {
            fn setup(&mut self, ctx: &mut ba_sim::AdvCtx<'_, DsMsg>) {
                ctx.corrupt(NodeId(0)).unwrap();
            }
            fn corrupt_outbox(
                &mut self,
                node: NodeId,
                _planned: Vec<(ba_sim::Recipient, DsMsg)>,
                round: Round,
            ) -> Vec<(ba_sim::Recipient, DsMsg)> {
                if round.0 != 0 {
                    return Vec::new();
                }
                let mk = |bit: Bit| DsMsg {
                    bit,
                    chain: vec![ChainSig {
                        signer: node,
                        sig: self.keychain.sign(node, &statement(bit)),
                    }],
                };
                vec![
                    (ba_sim::Recipient::One(NodeId(1)), mk(false)),
                    (ba_sim::Recipient::One(NodeId(2)), mk(false)),
                    (ba_sim::Recipient::One(NodeId(3)), mk(true)),
                    (ba_sim::Recipient::One(NodeId(4)), mk(true)),
                ]
            }
        }
        let c = cfg(5, 2);
        let adversary = Equivocator { keychain: c.keychain.clone() };
        let sim = SimConfig::new(5, 2, CorruptionModel::Static, 1);
        let (report, verdict) = run(&c, &sim, true, adversary);
        assert!(verdict.consistent, "{report:?}");
        assert!(verdict.terminated);
        // Everyone extracted both values by relaying, so all default to 0.
        for i in 1..5 {
            assert_eq!(report.outputs[i], Some(false));
        }
    }

    #[test]
    fn forged_chain_rejected() {
        // A corrupt non-sender fabricates a chain not rooted at the sender.
        struct Forger {
            keychain: Arc<Keychain>,
        }
        impl Adversary<DsMsg> for Forger {
            fn setup(&mut self, ctx: &mut ba_sim::AdvCtx<'_, DsMsg>) {
                ctx.corrupt(NodeId(1)).unwrap();
            }
            fn corrupt_outbox(
                &mut self,
                node: NodeId,
                _planned: Vec<(ba_sim::Recipient, DsMsg)>,
                round: Round,
            ) -> Vec<(ba_sim::Recipient, DsMsg)> {
                if round.0 != 0 {
                    return Vec::new();
                }
                // Chain rooted at the corrupt node itself, not the sender.
                vec![(
                    ba_sim::Recipient::All,
                    DsMsg {
                        bit: true,
                        chain: vec![ChainSig {
                            signer: node,
                            sig: self.keychain.sign(node, &statement(true)),
                        }],
                    },
                )]
            }
        }
        let c = cfg(5, 2);
        let adversary = Forger { keychain: c.keychain.clone() };
        let sim = SimConfig::new(5, 2, CorruptionModel::Static, 1);
        // Honest sender sends 0; the forged "1" chain must be ignored.
        let (report, verdict) = run(&c, &sim, false, adversary);
        assert!(verdict.all_ok());
        for i in [0usize, 2, 3, 4] {
            assert_eq!(report.outputs[i], Some(false));
        }
    }

    #[test]
    fn message_count_is_superquadratic_in_chains() {
        let c = cfg(9, 4);
        let sim = SimConfig::new(9, 0, CorruptionModel::Static, 1);
        let (report, _) = run(&c, &sim, true, Passive);
        // Every node relays once: ~n multicasts = n^2 classical messages.
        assert!(report.metrics.honest_multicasts >= 9);
        assert!(report.metrics.classical_messages(9) >= 81);
    }
}
