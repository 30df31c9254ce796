//! The other direction of the §1.1 equivalence: Byzantine Agreement from
//! `n` parallel Byzantine Broadcasts.
//!
//! Every node Dolev–Strong-broadcasts its input; after all broadcasts
//! complete, everyone holds the same vector of `n` values (consistency of
//! each BB instance) and outputs its majority bit. This direction costs a
//! polynomial blow-up — `n` quadratic broadcasts — which is exactly why the
//! paper states upper bounds for BA and lower bounds for BB: the *cheap*
//! direction (BB from BA, [`crate::broadcast`]) preserves communication
//! efficiency, this one does not. Including it makes the equivalence
//! executable and its cost measurable (experiment E10 context).

use std::sync::Arc;

use ba_fmine::Keychain;
use ba_sim::{
    Adversary, Bit, Incoming, Message, NodeId, Outbox, Problem, Protocol, Round, RunReport,
    SimConfig, Verdict,
};

use crate::dolev_strong::{DsConfig, DsMsg, DsNode};
use crate::kernel::{self, Budget};
use crate::runnable::Runnable;

/// A message of one of the `n` parallel broadcast instances, tagged by the
/// instance's designated sender.
#[derive(Clone, Debug, PartialEq)]
pub struct TaggedDsMsg {
    /// The instance (its designated sender).
    pub instance: NodeId,
    /// The inner Dolev–Strong message.
    pub inner: DsMsg,
}

impl Message for TaggedDsMsg {
    fn size_bits(&self) -> usize {
        32 + self.inner.size_bits()
    }
}

/// BA-from-n-parallel-BB node: runs one [`DsNode`] per instance.
pub struct ParallelBbNode {
    instances: Vec<DsNode>,
    n: usize,
    output: Option<Bit>,
    done: bool,
}

impl ParallelBbNode {
    /// Creates the node: instance `j` broadcasts node `j`'s input.
    pub fn new(
        n: usize,
        f: usize,
        id: NodeId,
        input: Bit,
        keychain: Arc<Keychain>,
    ) -> ParallelBbNode {
        let instances = (0..n)
            .map(|j| {
                let cfg = DsConfig { n, f, sender: NodeId(j), keychain: keychain.clone() };
                // Only the instance where we are the sender uses our input.
                DsNode::new(cfg, id, input)
            })
            .collect();
        ParallelBbNode { instances, n, output: None, done: false }
    }
}

impl Protocol<TaggedDsMsg> for ParallelBbNode {
    fn step(
        &mut self,
        round: Round,
        inbox: &[Incoming<TaggedDsMsg>],
        out: &mut Outbox<TaggedDsMsg>,
    ) {
        if self.done {
            return;
        }
        // Demultiplex the inbox per instance.
        let mut per_instance: Vec<Vec<Incoming<DsMsg>>> = vec![Vec::new(); self.n];
        for m in inbox {
            let j = m.msg.instance.index();
            if j < self.n {
                per_instance[j].push(Incoming::new(m.from, m.msg.inner.clone()));
            }
        }
        // Step every instance, re-tagging its sends.
        for (j, node) in self.instances.iter_mut().enumerate() {
            let mut inner_out = Outbox::new();
            node.step(round, &per_instance[j], &mut inner_out);
            for (to, msg) in inner_out.take() {
                let tagged = TaggedDsMsg { instance: NodeId(j), inner: msg };
                match to {
                    ba_sim::Recipient::All => out.multicast(tagged),
                    ba_sim::Recipient::One(t) => out.unicast(t, tagged),
                }
            }
        }
        // Decide once every instance decided.
        if self.output.is_none() && self.instances.iter().all(|i| i.output().is_some()) {
            let ones = self.instances.iter().filter(|i| i.output() == Some(true)).count();
            self.output = Some(ones * 2 > self.n);
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

/// Runs the BA-from-parallel-BB reduction and evaluates the agreement
/// verdict.
pub fn run<A: Adversary<TaggedDsMsg> + Send>(
    n: usize,
    f: usize,
    keychain: Arc<Keychain>,
    sim: &SimConfig,
    inputs: Vec<Bit>,
    adversary: A,
) -> (RunReport, Verdict) {
    let node = move |id, input, _seed| ParallelBbNode::new(n, f, id, input, keychain.clone());
    let budget = Budget::AtLeast(f as u64 + 4);
    kernel::run(sim, budget, Problem::Agreement, inputs, adversary, node, None)
}

/// Packages one BA-from-parallel-BB execution as a thread-dispatchable
/// [`Runnable`] (the uniform constructor sweep harnesses dispatch over).
pub fn runnable<A: Adversary<TaggedDsMsg> + Send + 'static>(
    n: usize,
    f: usize,
    keychain: Arc<Keychain>,
    inputs: Vec<Bit>,
    adversary: A,
) -> Runnable {
    Runnable::new(move |sim| run(n, f, keychain, sim, inputs, adversary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_fmine::SigMode;
    use ba_sim::{CorruptionModel, Passive};

    #[test]
    fn unanimous_inputs_decide_that_bit() {
        for bit in [false, true] {
            let n = 7;
            let kc = Arc::new(Keychain::from_seed(1, n, SigMode::Ideal));
            let sim = SimConfig::new(n, 0, CorruptionModel::Static, 1);
            let (report, verdict) = run(n, 2, kc, &sim, vec![bit; n], Passive);
            assert!(verdict.all_ok(), "bit={bit}: {verdict:?}");
            assert!(report.outputs.iter().all(|o| *o == Some(bit)));
        }
    }

    #[test]
    fn majority_of_mixed_inputs_wins() {
        let n = 7;
        let kc = Arc::new(Keychain::from_seed(2, n, SigMode::Ideal));
        let sim = SimConfig::new(n, 0, CorruptionModel::Static, 2);
        // 5 ones, 2 zeros -> majority true.
        let inputs = vec![true, true, true, true, true, false, false];
        let (report, verdict) = run(n, 2, kc, &sim, inputs, Passive);
        assert!(verdict.all_ok(), "{verdict:?}");
        assert!(report.outputs.iter().all(|o| *o == Some(true)));
    }

    #[test]
    fn communication_blowup_is_quadratic_plus() {
        // The reduction's cost: n broadcasts of ~n multicasts each.
        let n = 9;
        let kc = Arc::new(Keychain::from_seed(3, n, SigMode::Ideal));
        let sim = SimConfig::new(n, 0, CorruptionModel::Static, 3);
        let (report, _) = run(n, 3, kc, &sim, vec![true; n], Passive);
        assert!(
            report.metrics.honest_multicasts >= (n * n) as u64 / 2,
            "expected ~n^2 multicasts, got {}",
            report.metrics.honest_multicasts
        );
    }

    #[test]
    fn consistent_under_crash_faults() {
        use ba_sim::{AdvCtx, Recipient};
        struct CrashTwo;
        impl Adversary<TaggedDsMsg> for CrashTwo {
            fn setup(&mut self, ctx: &mut AdvCtx<'_, TaggedDsMsg>) {
                ctx.corrupt(NodeId(5)).unwrap();
                ctx.corrupt(NodeId(6)).unwrap();
            }
            fn corrupt_outbox(
                &mut self,
                _node: NodeId,
                _planned: Vec<(Recipient, TaggedDsMsg)>,
                _round: Round,
            ) -> Vec<(Recipient, TaggedDsMsg)> {
                Vec::new()
            }
        }
        let n = 7;
        let kc = Arc::new(Keychain::from_seed(4, n, SigMode::Ideal));
        let sim = SimConfig::new(n, 2, CorruptionModel::Static, 4);
        let inputs = vec![true, true, true, false, false, true, true];
        let (report, verdict) = run(n, 2, kc, &sim, inputs, CrashTwo);
        assert!(verdict.consistent && verdict.terminated, "{verdict:?}");
        // Crashed senders' instances deliver the default 0 to everyone
        // consistently; honest instances deliver their inputs.
        let honest: Vec<_> = report.forever_honest().collect();
        let first = report.outputs[honest[0].index()];
        assert!(honest.iter().all(|i| report.outputs[i.index()] == first));
    }
}
