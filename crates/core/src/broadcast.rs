//! Byzantine Broadcast from Byzantine Agreement (§1.1 of the paper).
//!
//! The communication-preserving direction of the equivalence: the designated
//! sender multicasts its (signed) input bit, then every node runs the BA
//! instance with the received bit as input (default bit on silence). If the
//! BA protocol is communication-efficient, so is the resulting broadcast —
//! one extra multicast total.

use std::sync::Arc;

use ba_fmine::{Keychain, Sig};
use ba_sim::{
    Adversary, Bit, BoxedProtocol, Incoming, Message, NodeId, Outbox, Problem, Protocol, Round,
    RunReport, SimConfig, Verdict,
};

use crate::iter::{IterConfig, IterMsg, IterNode};
use crate::kernel::{self, Budget};
use crate::runnable::Runnable;

/// Wrapper message: the sender's input multicast, or an inner BA message.
#[derive(Clone, Debug, PartialEq)]
pub enum BbMsg<M> {
    /// Round-0 signed input from the designated sender.
    SenderInput {
        /// The sender's bit.
        bit: Bit,
        /// Signature over the input statement.
        sig: Sig,
    },
    /// A message of the underlying BA protocol.
    Inner(M),
}

impl<M: Message> Message for BbMsg<M> {
    fn size_bits(&self) -> usize {
        match self {
            BbMsg::SenderInput { sig, .. } => 1 + sig.size_bits(),
            BbMsg::Inner(m) => 8 + m.size_bits(),
        }
    }
}

fn input_statement(bit: Bit) -> [u8; 16] {
    let mut s = [0u8; 16];
    s[..15].copy_from_slice(b"bb-sender-input");
    s[15] = bit as u8;
    s
}

/// A node of the broadcast wrapper around an inner BA protocol.
pub struct BbNode<M> {
    id: NodeId,
    sender: NodeId,
    input: Bit,
    keychain: Arc<Keychain>,
    inner: Option<BoxedProtocol<M>>,
    #[allow(clippy::type_complexity)]
    make_inner: Option<Box<dyn FnOnce(Bit) -> BoxedProtocol<M> + Send>>,
}

impl<M: Message> BbNode<M> {
    /// Creates a wrapper node. `make_inner` constructs the BA instance once
    /// the sender's bit (or the default) is known.
    pub fn new(
        id: NodeId,
        sender: NodeId,
        input: Bit,
        keychain: Arc<Keychain>,
        make_inner: impl FnOnce(Bit) -> BoxedProtocol<M> + Send + 'static,
    ) -> BbNode<M> {
        BbNode { id, sender, input, keychain, inner: None, make_inner: Some(Box::new(make_inner)) }
    }

    /// The bit the sender multicast, if exactly one validly signed bit was
    /// received (equivocation or silence resolve to the default bit 0).
    fn extract_sender_bit(&self, inbox: &[Incoming<BbMsg<M>>]) -> Bit {
        let mut seen = [false, false];
        for m in inbox {
            if let BbMsg::SenderInput { bit, sig } = &*m.msg {
                if m.from == self.sender
                    && self.keychain.verify(m.from, &input_statement(*bit), sig)
                {
                    seen[*bit as usize] = true;
                }
            }
        }
        matches!(seen, [false, true])
    }
}

impl<M: Message> Protocol<BbMsg<M>> for BbNode<M> {
    fn step(&mut self, round: Round, inbox: &[Incoming<BbMsg<M>>], out: &mut Outbox<BbMsg<M>>) {
        if round.0 == 0 {
            if self.id == self.sender {
                let sig = self.keychain.sign(self.id, &input_statement(self.input));
                out.multicast(BbMsg::SenderInput { bit: self.input, sig });
            }
            return;
        }
        if round.0 == 1 {
            let bit = self.extract_sender_bit(inbox);
            let make = self.make_inner.take().expect("round 1 runs once");
            self.inner = Some(make(bit));
        }
        let inner = self.inner.as_mut().expect("inner exists from round 1 on");
        let inner_inbox: Vec<Incoming<M>> = inbox
            .iter()
            .filter_map(|m| match &*m.msg {
                BbMsg::Inner(im) => Some(Incoming::new(m.from, im.clone())),
                BbMsg::SenderInput { .. } => None,
            })
            .collect();
        let mut inner_out = Outbox::new();
        inner.step(Round(round.0 - 1), &inner_inbox, &mut inner_out);
        for (to, msg) in inner_out.take() {
            match to {
                ba_sim::Recipient::All => out.multicast(BbMsg::Inner(msg)),
                ba_sim::Recipient::One(t) => out.unicast(t, BbMsg::Inner(msg)),
            }
        }
    }

    fn output(&self) -> Option<Bit> {
        self.inner.as_ref().and_then(|i| i.output())
    }

    fn halted(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.halted())
    }
}

/// Runs Byzantine Broadcast built from an iteration-family BA instance
/// (quadratic or subquadratic) and evaluates the broadcast verdict.
pub fn run_iter_bb<A: Adversary<BbMsg<IterMsg>> + Send>(
    cfg: &IterConfig,
    keychain: Arc<Keychain>,
    sim: &SimConfig,
    sender: NodeId,
    sender_input: Bit,
    adversary: A,
) -> (RunReport, Verdict) {
    let mut inputs = vec![false; cfg.n];
    inputs[sender.index()] = sender_input;
    let budget = Budget::Cap(cfg.total_rounds() + 4);
    let cfg = cfg.clone();
    let node = move |id, _input, seed| {
        let inner_cfg = cfg.clone();
        BbNode::new(id, sender, sender_input, keychain.clone(), move |bit| {
            Box::new(IterNode::new(inner_cfg, id, bit, seed))
        })
    };
    kernel::run(sim, budget, Problem::Broadcast { sender }, inputs, adversary, node, None)
}

/// Packages one BB-from-iteration-BA execution as a thread-dispatchable
/// [`Runnable`] (the uniform constructor sweep harnesses dispatch over).
pub fn runnable_iter_bb<A: Adversary<BbMsg<IterMsg>> + Send + 'static>(
    cfg: &IterConfig,
    keychain: Arc<Keychain>,
    sender: NodeId,
    sender_input: Bit,
    adversary: A,
) -> Runnable {
    let cfg = cfg.clone();
    Runnable::new(move |sim| run_iter_bb(&cfg, keychain, sim, sender, sender_input, adversary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_fmine::{IdealMine, MineParams, SigMode};
    use ba_sim::{CorruptionModel, Passive, Recipient};

    fn subq_cfg(n: usize, lambda: f64, seed: u64) -> IterConfig {
        IterConfig::subq_half(n, Arc::new(IdealMine::new(seed, MineParams::new(n, lambda))))
    }

    #[test]
    fn honest_sender_propagates_both_bits() {
        for bit in [false, true] {
            let n = 60;
            let cfg = subq_cfg(n, 20.0, 4);
            let kc = Arc::new(Keychain::from_seed(4, n, SigMode::Ideal));
            let sim = SimConfig::new(n, 0, CorruptionModel::Static, 4);
            let (report, verdict) = run_iter_bb(&cfg, kc, &sim, NodeId(0), bit, Passive);
            assert!(verdict.all_ok(), "bit={bit}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(bit)), "bit={bit}");
        }
    }

    #[test]
    fn broadcast_adds_one_multicast() {
        let n = 60;
        let cfg = subq_cfg(n, 20.0, 9);
        let kc = Arc::new(Keychain::from_seed(9, n, SigMode::Ideal));
        let sim = SimConfig::new(n, 0, CorruptionModel::Static, 9);
        let (report, _) = run_iter_bb(&cfg, kc, &sim, NodeId(0), true, Passive);
        // Multicast complexity stays sublinear: committee traffic + 1.
        assert!(
            report.metrics.honest_multicasts < (n as u64) * 2,
            "got {}",
            report.metrics.honest_multicasts
        );
    }

    #[test]
    fn equivocating_sender_remains_consistent() {
        // A corrupt sender unicasts 0 to half the nodes and 1 to the rest;
        // consistency must still hold (validity is vacuous).
        struct SplitSender {
            keychain: Arc<Keychain>,
            n: usize,
        }
        impl Adversary<BbMsg<IterMsg>> for SplitSender {
            fn setup(&mut self, ctx: &mut ba_sim::AdvCtx<'_, BbMsg<IterMsg>>) {
                ctx.corrupt(NodeId(0)).unwrap();
            }
            fn corrupt_outbox(
                &mut self,
                node: NodeId,
                _planned: Vec<(Recipient, BbMsg<IterMsg>)>,
                round: Round,
            ) -> Vec<(Recipient, BbMsg<IterMsg>)> {
                if round.0 != 0 {
                    return Vec::new();
                }
                let mk = |bit: Bit| BbMsg::SenderInput {
                    bit,
                    sig: self.keychain.sign(node, &input_statement(bit)),
                };
                (1..self.n).map(|i| (Recipient::One(NodeId(i)), mk(i % 2 == 0))).collect()
            }
        }
        let n = 60;
        let cfg = subq_cfg(n, 20.0, 11);
        let kc = Arc::new(Keychain::from_seed(11, n, SigMode::Ideal));
        let adversary = SplitSender { keychain: kc.clone(), n };
        let sim = SimConfig::new(n, 1, CorruptionModel::Static, 11);
        let (_report, verdict) = run_iter_bb(&cfg, kc, &sim, NodeId(0), true, adversary);
        assert!(verdict.consistent, "{verdict:?}");
        assert!(verdict.valid, "corrupt sender: validity vacuous");
    }

    #[test]
    fn silent_sender_defaults() {
        struct Mute;
        impl Adversary<BbMsg<IterMsg>> for Mute {
            fn setup(&mut self, ctx: &mut ba_sim::AdvCtx<'_, BbMsg<IterMsg>>) {
                ctx.corrupt(NodeId(0)).unwrap();
            }
            fn corrupt_outbox(
                &mut self,
                _node: NodeId,
                _planned: Vec<(Recipient, BbMsg<IterMsg>)>,
                _round: Round,
            ) -> Vec<(Recipient, BbMsg<IterMsg>)> {
                Vec::new()
            }
        }
        let n = 60;
        let cfg = subq_cfg(n, 20.0, 13);
        let kc = Arc::new(Keychain::from_seed(13, n, SigMode::Ideal));
        let sim = SimConfig::new(n, 1, CorruptionModel::Static, 13);
        let (report, verdict) = run_iter_bb(&cfg, kc, &sim, NodeId(0), true, Mute);
        assert!(verdict.consistent && verdict.terminated, "{verdict:?}");
        for i in 1..n {
            assert_eq!(report.outputs[i], Some(false), "node {i} must use the default bit");
        }
    }
}
