//! Property-based tests for the simulator's metrics and verdict logic.

use ba_sim::engine::RunReport;
use ba_sim::{evaluate, Metrics, NodeId, Problem, Round};
use proptest::prelude::*;

fn arb_metrics() -> impl Strategy<Value = Metrics> {
    (
        0u64..1000,
        0u64..100_000,
        0u64..1000,
        0u64..100_000,
        0u64..1000,
        0u64..100,
        0u64..100,
        0u64..100,
    )
        .prop_map(|(hm, hmb, hu, hub, cs, r, c, rem)| Metrics {
            honest_multicasts: hm,
            honest_multicast_bits: hmb,
            honest_unicasts: hu,
            honest_unicast_bits: hub,
            honest_cert_bits: hub / 2,
            corrupt_sends: cs,
            corrupt_bits: cs * 100,
            injected_sends: cs / 3,
            rounds: r,
            corruptions: c,
            removals: rem,
            dropped_sends: cs / 2,
            peak_live_nodes: hm % 17,
            peak_resident_msgs: hmb % 31,
            latency: None,
            faults: None,
        })
}

fn report_from(inputs: Vec<bool>, outputs: Vec<Option<bool>>, corrupt: Vec<bool>) -> RunReport {
    let n = inputs.len();
    RunReport {
        halted: outputs.iter().map(|o| o.is_some()).collect(),
        output_rounds: vec![None; n],
        outputs,
        corrupt_at: corrupt.into_iter().map(|c| if c { Some(Round(0)) } else { None }).collect(),
        metrics: Metrics::default(),
        rounds_used: 1,
        inputs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn classical_messages_scale_linearly_in_n(m in arb_metrics(), n in 1usize..100) {
        let expected = m.honest_multicasts * n as u64 + m.honest_unicasts;
        prop_assert_eq!(m.classical_messages(n), expected);
    }

    #[test]
    fn uniform_honest_outputs_are_consistent(
        outputs_bit in any::<bool>(),
        n in 2usize..20,
        corrupt_mask in prop::collection::vec(any::<bool>(), 2..20),
    ) {
        let n = n.min(corrupt_mask.len());
        let inputs = vec![false; n];
        let outputs = vec![Some(outputs_bit); n];
        let corrupt: Vec<bool> = corrupt_mask[..n].to_vec();
        prop_assume!(corrupt.iter().any(|c| !c)); // at least one honest
        let report = report_from(inputs, outputs, corrupt);
        let v = evaluate(Problem::Agreement, &report);
        prop_assert!(v.consistent);
        prop_assert!(v.terminated);
    }

    #[test]
    fn corrupt_outputs_never_affect_consistency(
        honest_bit in any::<bool>(),
        corrupt_bits in prop::collection::vec(any::<Option<bool>>(), 1..8),
        honest_count in 1usize..8,
    ) {
        let n = honest_count + corrupt_bits.len();
        let inputs = vec![honest_bit; n];
        let mut outputs = vec![Some(honest_bit); honest_count];
        outputs.extend(corrupt_bits.iter().cloned());
        let mut corrupt = vec![false; honest_count];
        corrupt.extend(std::iter::repeat_n(true, corrupt_bits.len()));
        let report = report_from(inputs, outputs, corrupt);
        let v = evaluate(Problem::Agreement, &report);
        prop_assert!(v.consistent && v.valid && v.terminated);
    }

    #[test]
    fn agreement_validity_requires_unanimity_to_bind(
        inputs in prop::collection::vec(any::<bool>(), 2..16),
        output_bit in any::<bool>(),
    ) {
        let n = inputs.len();
        let unanimous = inputs.windows(2).all(|w| w[0] == w[1]);
        let outputs = vec![Some(output_bit); n];
        let report = report_from(inputs.clone(), outputs, vec![false; n]);
        let v = evaluate(Problem::Agreement, &report);
        if unanimous && inputs[0] != output_bit {
            prop_assert!(!v.valid, "unanimous {} but output {}", inputs[0], output_bit);
        } else {
            prop_assert!(v.valid);
        }
    }

    #[test]
    fn broadcast_validity_binds_to_honest_sender(
        sender_input in any::<bool>(),
        output_bit in any::<bool>(),
        sender_corrupt in any::<bool>(),
        n in 2usize..12,
    ) {
        let mut inputs = vec![false; n];
        inputs[0] = sender_input;
        let outputs = vec![Some(output_bit); n];
        let mut corrupt = vec![false; n];
        corrupt[0] = sender_corrupt;
        let report = report_from(inputs, outputs, corrupt);
        let v = evaluate(Problem::Broadcast { sender: NodeId(0) }, &report);
        if !sender_corrupt && output_bit != sender_input {
            prop_assert!(!v.valid);
        } else {
            prop_assert!(v.valid);
        }
        prop_assert!(v.consistent);
    }

    #[test]
    fn missing_output_fails_termination(
        n in 2usize..12,
        missing in 0usize..12,
    ) {
        prop_assume!(missing < n);
        let inputs = vec![true; n];
        let mut outputs = vec![Some(true); n];
        outputs[missing] = None;
        let report = report_from(inputs, outputs, vec![false; n]);
        let v = evaluate(Problem::Agreement, &report);
        prop_assert!(!v.terminated);
    }
}
