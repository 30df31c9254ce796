//! Property tests for the distributed wire protocol and the axis grammars
//! under it: arbitrary cell descriptors round-trip losslessly through
//! encode → decode (every scenario axis, including `u64` payloads beyond
//! 2⁵³ and labels full of JSON-hostile characters), every axis row's
//! rendering parses back to the same value, hostile strings are structured
//! errors and never panics, `describe()` is pair for pair the rendering the
//! committed baselines were written with, and arbitrary result lines
//! re-encode byte-identically after decoding.

use ba_bench::scenario::{Axis, AXES};
use ba_bench::wire::{
    decode_descriptor, decode_reply, encode_descriptor, CellDescriptor, WireError, WorkerReply,
};
use ba_bench::{
    gauntlet_sweeps, to_json_cell_line, AdversarySpec, CellReport, EligMode, EligSeed, Grid,
    InputPattern, ProtocolSpec, RunRecord, Scenario,
};
use ba_core::cert::CertEncoding;
use ba_sim::{CorruptionModel, DelayDist, FaultPlan, PopulationMode, TransportSpec};
use proptest::prelude::*;

fn arb_lambda() -> impl Strategy<Value = f64> {
    // Mix integral and fractional committee sizes (both renderings).
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
        any::<u64>().prop_map(|views| ProtocolSpec::MomoseRenHalf { views }),
        any::<u64>().prop_map(|phases| ProtocolSpec::CksAdaptive { phases }),
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

fn arb_transport() -> BoxedStrategy<TransportSpec> {
    let dist = prop_oneof![
        Just(DelayDist::Zero),
        (0u64..50, 0u64..50)
            .prop_map(|(lo_ms, span)| DelayDist::Uniform { lo_ms, hi_ms: lo_ms + span }),
        any::<u64>().prop_map(|mean_ms| DelayDist::Exp { mean_ms }),
    ];
    prop_oneof![
        Just(TransportSpec::Lockstep),
        Just(TransportSpec::Tcp),
        (1u64..1000, any::<u64>(), dist)
            .prop_map(|(round_ms, gst_ms, dist)| TransportSpec::Latency { round_ms, gst_ms, dist }),
    ]
    .boxed()
}

fn arb_faults() -> BoxedStrategy<Option<FaultPlan>> {
    let plan = |text: &str| Just(Some(text.parse::<FaultPlan>().expect("a canonical plan")));
    prop_oneof![
        Just(None),
        plan("none"),
        plan("drop:p=0.25:from=1:until=9"),
        plan("dup:p=0.1,reorder:p=0.05:budget=3,partition:2..5=24,sched=adversarial"),
    ]
    .boxed()
}

/// Arbitrary values on all 17 axes — deliberately including combinations
/// `Scenario::check` refuses (a forger against Dolev–Strong, λ > n): the
/// grammars must carry those too, and the decoder must refuse them in band.
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
    let network = (any::<bool>(), arb_transport(), any::<bool>(), arb_faults(), any::<bool>());
    (shape, knobs, network).prop_map(
        |(
            (label, n, f, protocol, inputs),
            (adversary, model, real, elig_fixed, seed_offset, seeds, sim_threads),
            (sparse, transport, aggregate, fault_plan, claimed_bound),
        )| {
            let mut sc = Scenario::new(label, n, protocol)
                .f(f % n)
                .model(model)
                .inputs(inputs)
                .adversary(adversary)
                .seed_offset(seed_offset)
                .sim_threads(sim_threads)
                .transport(transport);
            if real {
                sc = sc.real_elig();
            }
            if let Some(seed) = elig_fixed {
                sc = sc.elig_fixed(seed);
            }
            if sparse {
                sc = sc.population(PopulationMode::Sparse);
            }
            if aggregate {
                sc = sc.cert_encoding(CertEncoding::Aggregate);
            }
            sc.seeds = seeds;
            sc.fault_plan = fault_plan;
            sc.claimed_bound = claimed_bound;
            sc
        },
    )
}

/// `sc` with every size and count clamped small enough to execute in
/// milliseconds (and off real sockets), every axis *combination* kept.
fn executable_scale(mut sc: Scenario) -> Scenario {
    use {AdversarySpec as A, ProtocolSpec as P};
    sc.n = 1 + sc.n % 12;
    sc.f %= sc.n;
    sc.seeds = None;
    match &mut sc.protocol {
        P::SubqHalf { max_iters, .. } => *max_iters = max_iters.map(|cap| cap % 5),
        P::WarmupThird { epochs }
        | P::SubqThird { epochs, .. }
        | P::SubqShared { epochs, .. }
        | P::ChenMicali { epochs, .. } => *epochs %= 5,
        P::MomoseRenHalf { views: cap } | P::CksAdaptive { phases: cap } => *cap %= 5,
        P::DolevStrong { ds_f: k } | P::BaFromBb { ds_f: k } | P::Theorem4 { fanout: k } => {
            *k %= 14
        }
        P::Theorem3 { committee } => *committee %= 14,
        _ => {}
    }
    match &mut sc.adversary {
        A::CrashTail { at_round }
        | A::SilenceThenBurst { at_round }
        | A::EclipseBurst { at_round } => *at_round %= 7,
        _ => {}
    }
    if let TransportSpec::Latency { round_ms, gst_ms, dist } = &mut sc.transport {
        (*round_ms, *gst_ms) = (1 + *round_ms % 9, *gst_ms % 20);
        if let DelayDist::Exp { mean_ms } = dist {
            *mean_ms %= 20;
        }
    }
    if sc.transport == TransportSpec::Tcp {
        sc.transport = TransportSpec::Lockstep;
    }
    sc
}

/// An axis of `sc` in its lossless wire grammar (`None` when unset).
fn rendered(axis: &Axis, sc: &Scenario) -> Option<String> {
    (axis.get)(sc).map(|value| format!("{value:#}"))
}

/// A canonical string with one edit: a byte dropped, doubled, or replaced
/// by a structural character of the grammars.
fn mutate(canonical: &str, at: usize, edit: u8) -> String {
    let mut chars: Vec<char> = canonical.chars().collect();
    if chars.is_empty() {
        return "(".into();
    }
    let at = at % chars.len();
    match edit % 8 {
        0 => drop(chars.remove(at)),
        1 => chars.insert(at, chars[at]),
        n => chars[at] = ['(', ')', ',', '=', ':', '-'][usize::from(n) - 2],
    }
    chars.into_iter().collect()
}

// ---------------------------------------------------------------------------
// A verbatim copy of `Scenario::describe` as it stood before the axis table
// (hand-written, with its three `name()` renderings): the reference the
// table-driven `describe()` must match pair for pair, in order.
// ---------------------------------------------------------------------------

fn legacy_inputs_name(inputs: &InputPattern) -> String {
    match inputs {
        InputPattern::Unanimous(b) => format!("unanimous({})", *b as u8),
        InputPattern::Alternating => "alternating".into(),
        InputPattern::EveryThird => "every_third".into(),
        InputPattern::FirstFrac(frac) => format!("first_frac({frac})"),
        InputPattern::SenderParity => "sender_parity".into(),
    }
}

fn legacy_adversary_name(adversary: &AdversarySpec) -> String {
    match adversary {
        AdversarySpec::Passive => "passive".into(),
        AdversarySpec::CommitteeEraser => "committee_eraser".into(),
        AdversarySpec::StarveQuorum => "starve_quorum".into(),
        AdversarySpec::CrashTail { at_round } => format!("crash_tail(at={at_round})"),
        AdversarySpec::CertForger { target } => format!("cert_forger({})", *target as u8),
        AdversarySpec::VoteFlipper => "vote_flipper".into(),
        AdversarySpec::EquivocationSpammer => "equivocation_spammer".into(),
        AdversarySpec::SilenceThenBurst { at_round } => {
            format!("silence_burst(at={at_round})")
        }
        AdversarySpec::AdaptiveEclipse { per_round: 0 } => "adaptive_eclipse".into(),
        AdversarySpec::AdaptiveEclipse { per_round } => {
            format!("adaptive_eclipse(per={per_round})")
        }
        AdversarySpec::EclipseBurst { at_round } => {
            format!("eclipse_burst(at={at_round})")
        }
    }
}

fn legacy_protocol_name(protocol: &ProtocolSpec) -> String {
    match protocol {
        ProtocolSpec::SubqHalf { lambda, .. } => format!("iter/subq_half(lambda={lambda})"),
        ProtocolSpec::QuadraticHalf => "iter/quadratic_half".into(),
        ProtocolSpec::WarmupThird { epochs } => format!("epoch/warmup_third(R={epochs})"),
        ProtocolSpec::SubqThird { lambda, epochs } => {
            format!("epoch/subq_third(lambda={lambda},R={epochs})")
        }
        ProtocolSpec::SubqShared { lambda, epochs } => {
            format!("epoch/subq_shared(lambda={lambda},R={epochs})")
        }
        ProtocolSpec::ChenMicali { lambda, epochs, erasure } => {
            format!("epoch/chen_micali(lambda={lambda},R={epochs},erasure={erasure})")
        }
        ProtocolSpec::MomoseRenHalf { views } => format!("mr/half(views={views})"),
        ProtocolSpec::CksAdaptive { phases } => format!("cks/adaptive(P={phases})"),
        ProtocolSpec::DolevStrong { ds_f } => format!("dolev_strong(f={ds_f})"),
        ProtocolSpec::BaFromBb { ds_f } => format!("ba_from_bb(f={ds_f})"),
        ProtocolSpec::IterBroadcast { lambda } => {
            format!("broadcast/iter_bb(lambda={lambda})")
        }
        ProtocolSpec::Theorem4 { fanout } => format!("lowerbound/theorem4(fanout={fanout})"),
        ProtocolSpec::Theorem3 { committee } => {
            format!("lowerbound/theorem3(committee={committee})")
        }
        ProtocolSpec::GoodIteration { lambda, mine_seed } => {
            format!("fmine/good_iteration(lambda={lambda},mine_seed={mine_seed})")
        }
        ProtocolSpec::CommitteeTails { lambda } => {
            format!("fmine/committee_tails(lambda={lambda})")
        }
        ProtocolSpec::CommitteeSample { lambda } => {
            format!("fmine/committee_sample(lambda={lambda})")
        }
    }
}

fn legacy_describe(sc: &Scenario) -> Vec<(&'static str, String)> {
    let mut desc = vec![
        ("protocol", legacy_protocol_name(&sc.protocol)),
        ("adversary", legacy_adversary_name(&sc.adversary)),
        ("inputs", legacy_inputs_name(&sc.inputs)),
        (
            "model",
            match sc.model {
                CorruptionModel::Static => "static".into(),
                CorruptionModel::Adaptive => "adaptive".into(),
                CorruptionModel::StronglyAdaptive => "strongly_adaptive".into(),
            },
        ),
        ("elig", if sc.elig == EligMode::Ideal { "ideal".into() } else { "real".into() }),
        (
            "elig_seed",
            match sc.elig_seed {
                EligSeed::PerRun => "per_run".into(),
                EligSeed::Fixed(s) => format!("fixed({s})"),
            },
        ),
        ("transport", sc.transport.to_string()),
        ("cert_encoding", sc.cert_encoding.to_string()),
    ];
    if let Some(plan) = &sc.fault_plan {
        if !plan.is_empty() {
            desc.push(("faults", plan.to_string()));
        }
    }
    if sc.claimed_bound {
        desc.push(("claimed_bound", "on".into()));
    }
    desc
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
        let decoded = decode_descriptor(&encode_descriptor(&desc));
        match desc.scenario.check() {
            Ok(()) => prop_assert_eq!(decoded, Ok(desc)),
            // Well-formed but not executable: carried losslessly up to the
            // decoder's gate, refused there with `check`'s own reason.
            Err(detail) => {
                prop_assert_eq!(decoded, Err(WireError::Invalid { field: "scenario", detail }))
            }
        }
    }

    /// `check` is complete: what it accepts, its family executes — the
    /// worker never learns of a bad combination by panicking mid-cell.
    #[test]
    fn what_check_accepts_executes_without_panicking(scenario in arb_scenario(), seed in 0u64..4) {
        let scenario = executable_scale(scenario);
        if scenario.check().is_ok() {
            let run = scenario.clone();
            let outcome = std::panic::catch_unwind(move || run.execute(seed));
            prop_assert!(outcome.is_ok(), "check accepted, execution panicked: {scenario:?}");
        }
    }

    #[test]
    fn every_spec_grammar_parses_back(
        inputs in arb_inputs(),
        adversary in arb_adversary(),
        protocol in arb_protocol(),
        transport in arb_transport(),
    ) {
        prop_assert_eq!(inputs.to_string().parse(), Ok(inputs));
        prop_assert_eq!(adversary.to_string().parse(), Ok(adversary));
        prop_assert_eq!(transport.to_string().parse(), Ok(transport));
        // The lossless protocol rendering is the alternate one; the report
        // label drops exactly `SubqHalf::max_iters` and nothing else.
        prop_assert_eq!(format!("{protocol:#}").parse(), Ok(protocol.clone()));
        let label_only = match protocol.clone() {
            ProtocolSpec::SubqHalf { lambda, .. } => ProtocolSpec::SubqHalf { lambda, max_iters: None },
            other => other,
        };
        prop_assert_eq!(protocol.to_string().parse(), Ok(label_only));
    }

    #[test]
    fn every_axis_row_parses_its_own_rendering(from in arb_scenario(), onto in arb_scenario()) {
        for axis in AXES {
            let mut target = onto.clone();
            match rendered(axis, &from) {
                Some(value) => {
                    prop_assert_eq!((axis.set)(&mut target, &value), Ok(()), "{}", axis.key);
                    prop_assert_eq!(rendered(axis, &target), Some(value), "{}", axis.key);
                }
                // Unset is the `Scenario::new` default the decoder starts from.
                None => prop_assert_eq!(
                    rendered(axis, &Scenario::new("", 1, ProtocolSpec::QuadraticHalf)),
                    None,
                    "{}", axis.key
                ),
            }
            // Setting one axis touches no other.
            for other in AXES.iter().filter(|other| other.key != axis.key) {
                prop_assert_eq!(rendered(other, &target), rendered(other, &onto), "{}", other.key);
            }
        }
    }

    #[test]
    fn describe_matches_the_pre_table_rendering(scenario in arb_scenario()) {
        prop_assert_eq!(scenario.describe(), legacy_describe(&scenario));
    }

    #[test]
    fn hostile_axis_values_are_errors_never_panics(
        scenario in arb_scenario(),
        soup in prop::collection::vec(any::<u8>(), 0..48),
        (at, edit) in (any::<usize>(), any::<u8>()),
    ) {
        let soup = String::from_utf8_lossy(&soup).into_owned();
        for axis in AXES {
            let canonical = rendered(axis, &scenario).unwrap_or_default();
            for hostile in [soup.clone(), mutate(&canonical, at, edit)] {
                // A panic fails the test; otherwise the value was refused
                // or set, and what is set renders and parses back.
                let mut target = scenario.clone();
                if (axis.set)(&mut target, &hostile).is_ok() {
                    let value = rendered(axis, &target).expect("just set");
                    prop_assert_eq!((axis.set)(&mut target.clone(), &value), Ok(()));
                }
                // The same value inside a descriptor line: decoded or
                // refused by name, never a panic.
                let desc = CellDescriptor { id: 1, sweep: "s".into(), seeds: 1, scenario: scenario.clone() };
                let line = encode_descriptor(&desc);
                let member = format!("\"{}\": \"", axis.key);
                if let Some(start) = line.find(&member) {
                    let end = start + member.len() + line[start + member.len()..].find('"').unwrap();
                    let spliced = format!("{}{hostile}{}", &line[..start + member.len()], &line[end..]);
                    let _ = decode_descriptor(&spliced);
                }
            }
        }
    }

    #[test]
    fn byte_soup_descriptors_are_errors_never_panics(
        soup in prop::collection::vec(any::<u8>(), 0..256),
        (at, edit) in (any::<usize>(), any::<u8>()),
        scenario in arb_scenario(),
    ) {
        prop_assert!(decode_descriptor(&String::from_utf8_lossy(&soup)).is_err());
        let desc = CellDescriptor { id: 1, sweep: "s".into(), seeds: 1, scenario };
        let _ = decode_descriptor(&mutate(&encode_descriptor(&desc), at, edit));
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
        7,
        ProtocolSpec::GoodIteration { lambda: 7.0, mine_seed: u64::MAX },
    )
    .seed_offset(u64::MAX - 1)
    .elig_fixed(u64::MAX / 3);
    let desc = CellDescriptor { id: 0, sweep: "s".into(), seeds: u64::MAX, scenario };
    let decoded = decode_descriptor(&encode_descriptor(&desc)).expect("decodes");
    assert_eq!(decoded, desc, "u64 payloads must not pass through the f64 number space");
}

/// Every cell of both gauntlet grids is executable by `check`'s rules,
/// survives the wire, and describes itself as it did before the table.
#[test]
fn gauntlet_cells_pass_check_and_describe_as_before() {
    for grid in [Grid::Smoke, Grid::Full] {
        for sweep in gauntlet_sweeps(grid, 2) {
            for scenario in sweep.scenarios {
                assert_eq!(scenario.check(), Ok(()), "{}/{}", sweep.title, scenario.label);
                assert_eq!(scenario.describe(), legacy_describe(&scenario));
                let desc = CellDescriptor { id: 3, sweep: sweep.title.clone(), seeds: 2, scenario };
                assert_eq!(decode_descriptor(&encode_descriptor(&desc)), Ok(desc));
            }
        }
    }
}
