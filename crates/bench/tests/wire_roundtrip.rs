//! Property tests for the distributed wire protocol: arbitrary cell
//! descriptors round-trip losslessly through encode → decode (every
//! scenario axis, including `u64` payloads beyond 2⁵³ and labels full of
//! JSON-hostile characters), and arbitrary result lines re-encode
//! byte-identically after decoding.

use ba_bench::wire::{
    decode_descriptor, decode_reply, encode_descriptor, CellDescriptor, WorkerReply,
};
use ba_bench::{
    to_json_cell_line, AdversarySpec, CellReport, InputPattern, ProtocolSpec, RunRecord, Scenario,
};
use ba_sim::CorruptionModel;
use proptest::prelude::*;

fn arb_lambda() -> impl Strategy<Value = f64> {
    // Mix integral and fractional committee sizes (both JSON renderings).
    prop_oneof![(1u32..512).prop_map(f64::from), 0.5f64..256.0]
}

fn arb_label() -> impl Strategy<Value = String> {
    // ASCII including control characters, quotes, and backslashes — the
    // characters the JSON escaper must handle.
    prop::collection::vec(0u8..127, 0..16)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as char).collect())
}

fn arb_inputs() -> BoxedStrategy<InputPattern> {
    prop_oneof![
        any::<bool>().prop_map(InputPattern::Unanimous),
        Just(InputPattern::Alternating),
        Just(InputPattern::EveryThird),
        (0.0f64..1.0).prop_map(InputPattern::FirstFrac),
        Just(InputPattern::SenderParity),
    ]
    .boxed()
}

fn arb_adversary() -> BoxedStrategy<AdversarySpec> {
    prop_oneof![
        Just(AdversarySpec::Passive),
        Just(AdversarySpec::CommitteeEraser),
        Just(AdversarySpec::StarveQuorum),
        any::<u64>().prop_map(|at_round| AdversarySpec::CrashTail { at_round }),
        any::<bool>().prop_map(|target| AdversarySpec::CertForger { target }),
        Just(AdversarySpec::VoteFlipper),
        Just(AdversarySpec::EquivocationSpammer),
        any::<u64>().prop_map(|at_round| AdversarySpec::SilenceThenBurst { at_round }),
        (0usize..64).prop_map(|per_round| AdversarySpec::AdaptiveEclipse { per_round }),
        any::<u64>().prop_map(|at_round| AdversarySpec::EclipseBurst { at_round }),
    ]
    .boxed()
}

fn arb_protocol() -> BoxedStrategy<ProtocolSpec> {
    prop_oneof![
        (arb_lambda(), any::<Option<u64>>())
            .prop_map(|(lambda, max_iters)| ProtocolSpec::SubqHalf { lambda, max_iters }),
        Just(ProtocolSpec::QuadraticHalf),
        any::<u64>().prop_map(|epochs| ProtocolSpec::WarmupThird { epochs }),
        (arb_lambda(), any::<u64>())
            .prop_map(|(lambda, epochs)| ProtocolSpec::SubqThird { lambda, epochs }),
        (arb_lambda(), any::<u64>())
            .prop_map(|(lambda, epochs)| ProtocolSpec::SubqShared { lambda, epochs }),
        (arb_lambda(), any::<u64>(), any::<bool>()).prop_map(|(lambda, epochs, erasure)| {
            ProtocolSpec::ChenMicali { lambda, epochs, erasure }
        }),
        (0usize..512).prop_map(|ds_f| ProtocolSpec::DolevStrong { ds_f }),
        (0usize..512).prop_map(|ds_f| ProtocolSpec::BaFromBb { ds_f }),
        arb_lambda().prop_map(|lambda| ProtocolSpec::IterBroadcast { lambda }),
        (0usize..512).prop_map(|fanout| ProtocolSpec::Theorem4 { fanout }),
        (0usize..512).prop_map(|committee| ProtocolSpec::Theorem3 { committee }),
        (arb_lambda(), any::<u64>())
            .prop_map(|(lambda, mine_seed)| ProtocolSpec::GoodIteration { lambda, mine_seed }),
        arb_lambda().prop_map(|lambda| ProtocolSpec::CommitteeTails { lambda }),
        arb_lambda().prop_map(|lambda| ProtocolSpec::CommitteeSample { lambda }),
    ]
    .boxed()
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let shape = (arb_label(), 1usize..2048, 0usize..512, arb_protocol(), arb_inputs());
    let knobs = (
        arb_adversary(),
        prop_oneof![
            Just(CorruptionModel::Static),
            Just(CorruptionModel::Adaptive),
            Just(CorruptionModel::StronglyAdaptive)
        ],
        any::<bool>(),
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        any::<u64>(),
        any::<Option<u64>>(),
        1usize..9,
    );
    (shape, knobs).prop_map(
        |(
            (label, n, f, protocol, inputs),
            (adversary, model, real, elig_fixed, seed_offset, seeds, sim_threads),
        )| {
            // The decoder refuses `f >= n` (no honest node left), so stay
            // inside the wire's domain.
            let mut sc = Scenario::new(label, n, protocol)
                .f(f % n)
                .model(model)
                .inputs(inputs)
                .adversary(adversary)
                .seed_offset(seed_offset)
                .sim_threads(sim_threads);
            if real {
                sc = sc.real_elig();
            }
            if let Some(seed) = elig_fixed {
                sc = sc.elig_fixed(seed);
            }
            sc.seeds = seeds;
            sc
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn descriptor_roundtrip_is_lossless(
        (id, sweep, seeds) in (any::<u64>(), arb_label(), any::<u64>()),
        scenario in arb_scenario(),
    ) {
        // Ids travel as plain JSON numbers; clamp into the exact range.
        let desc = CellDescriptor { id: id % (1 << 53), sweep, seeds, scenario };
        let line = encode_descriptor(&desc);
        let decoded = decode_descriptor(&line);
        prop_assert!(decoded.is_ok(), "decode failed: {:?} on {line}", decoded.err());
        prop_assert_eq!(decoded.unwrap(), desc);
    }

    #[test]
    fn result_lines_reencode_byte_identically(
        seeds in prop::collection::vec(0u64..1_000_000, 1..5),
        value_picks in prop::collection::vec((0usize..6, prop_oneof![
            (0u32..100_000).prop_map(f64::from),
            0.0f64..1.0,
            Just(f64::NAN),
        ]), 0..24),
    ) {
        const NAMES: [&str; 6] =
            ["rounds", "multicasts", "committee_size", "all_ok", "kbits", "decision"];
        let runs: Vec<RunRecord> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let mut record = RunRecord::new(seed);
                for (pick, value) in value_picks.iter().skip(i % 2) {
                    record.push(NAMES[*pick], *value);
                }
                record
            })
            .collect();
        let cell = CellReport {
            scenario: Scenario::new("cell", 5, ProtocolSpec::QuadraticHalf),
            runs,
            error: None,
        };
        let line = to_json_cell_line("sweep", 7, 3, &cell);
        let WorkerReply::Result { id, runs } = decode_reply(&line)
            .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?
        else {
            return Err(TestCaseError::fail("expected a result reply"));
        };
        prop_assert_eq!(id, 7);
        // Decoding normalizes interleaved repeats into grouped order, which
        // is exactly what the renderer emits — so re-encoding the decoded
        // records must reproduce the original line byte for byte.
        let reencoded = to_json_cell_line(
            "sweep",
            7,
            3,
            &CellReport { scenario: cell.scenario.clone(), runs, error: None },
        );
        prop_assert_eq!(reencoded, line);
    }
}

/// Scenario axes that the typed API cannot produce must still decode — or
/// fail — without panicking; pin one canonical u64-extremes descriptor.
#[test]
fn u64_extremes_survive_the_wire() {
    let scenario = Scenario::new(
        "extreme",
        3,
        ProtocolSpec::GoodIteration { lambda: 7.0, mine_seed: u64::MAX },
    )
    .seed_offset(u64::MAX - 1)
    .elig_fixed(u64::MAX / 3);
    let desc = CellDescriptor { id: 0, sweep: "s".into(), seeds: u64::MAX, scenario };
    let decoded = decode_descriptor(&encode_descriptor(&desc)).expect("decodes");
    assert_eq!(decoded, desc, "u64 payloads must not pass through the f64 number space");
}
