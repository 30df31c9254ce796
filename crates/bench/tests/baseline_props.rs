//! Property tests for `baseline.rs`'s recursive-descent JSON parser and
//! report differ:
//!
//! * any serialized `SweepReport` parses back losslessly (the parsed DOM
//!   self-diffs clean, with every observable compared);
//! * arbitrary byte soup never panics the parser — it returns `Err` (or a
//!   valid value, for the rare accidental JSON);
//! * a depth-nesting bomb is rejected by the depth limit instead of
//!   overflowing the parser's stack;
//! * a long string of multi-byte characters parses in linear time;
//! * every committed smoke baseline parses whole, and its truncated
//!   prefixes are `Err`, never a panic.

use ba_bench::baseline::{parse_json, Json, MAX_JSON_DEPTH};
use ba_bench::{
    diff_reports, to_json, CellReport, InputPattern, ProtocolSpec, RunRecord, Scenario,
    SweepReport, Tolerance,
};
use proptest::prelude::*;

fn arb_text() -> impl Strategy<Value = String> {
    // ASCII including quotes, backslashes, and control characters.
    prop::collection::vec(0u8..127, 0..12)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as char).collect())
}

fn arb_value() -> BoxedStrategy<f64> {
    prop_oneof![
        (0u32..1_000_000).prop_map(f64::from),
        (0u32..1_000_000).prop_map(|v| -f64::from(v)),
        0.0f64..1.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
    ]
    .boxed()
}

/// An arbitrary report: unique sweep titles / cell labels / run seeds (the
/// differ treats duplicates as structural drift by design), arbitrary
/// observable names with repeats, arbitrary values including non-finite.
fn arb_report() -> impl Strategy<Value = Vec<SweepReport>> {
    const NAMES: [&str; 5] = ["rounds", "multicasts", "all_ok", "kbits", "x"];
    let run = prop::collection::vec((0usize..5, arb_value()), 0..8);
    let cell = (arb_text(), prop::collection::vec(run, 0..4));
    let sweep = (arb_text(), prop::collection::vec(cell, 0..4));
    prop::collection::vec(sweep, 1..3).prop_map(|sweeps| {
        sweeps
            .into_iter()
            .enumerate()
            .map(|(si, (title, cells))| SweepReport {
                title: format!("{title}#{si}"),
                seeds: cells.len() as u64,
                cells: cells
                    .into_iter()
                    .enumerate()
                    .map(|(ci, (label, runs))| CellReport {
                        scenario: Scenario::new(
                            format!("{label}#{ci}"),
                            8,
                            ProtocolSpec::QuadraticHalf,
                        )
                        .inputs(InputPattern::Unanimous(true)),
                        runs: runs
                            .into_iter()
                            .enumerate()
                            .map(|(ri, values)| {
                                let mut record = RunRecord::new(ri as u64);
                                for (pick, value) in values {
                                    record.push(NAMES[pick], value);
                                }
                                record
                            })
                            .collect(),
                        error: None,
                    })
                    .collect(),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn serialized_reports_roundtrip_losslessly(reports in arb_report()) {
        let text = to_json("prop", &reports);
        let dom = parse_json(&text);
        prop_assert!(dom.is_ok(), "writer output must parse: {:?}", dom.err());
        let dom = dom.unwrap();
        prop_assert_eq!(dom.get("experiment").and_then(Json::as_str), Some("prop"));
        let sweeps = dom.get("sweeps").and_then(Json::as_arr).expect("sweeps array");
        prop_assert_eq!(sweeps.len(), reports.len());
        // Self-diff is the lossless-roundtrip oracle: every sweep, cell,
        // run, and observable must be found and compared clean.
        let diff = diff_reports(&text, &text, &Tolerance::default())
            .map_err(TestCaseError::fail)?;
        prop_assert!(diff.passed(), "self-diff drifted: {}", diff.render());
        let observables: usize = reports
            .iter()
            .flat_map(|r| &r.cells)
            .flat_map(|c| &c.runs)
            .map(|r| r.values.len())
            .sum();
        prop_assert_eq!(diff.compared, observables, "some observables were not compared");
    }

    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_json(&text); // Err is fine; a panic fails the test.
    }

    #[test]
    fn structured_soup_never_panics(text in arb_json_ish()) {
        let _ = parse_json(&text);
    }
}

/// Strings biased toward JSON structure (brackets, quotes, colons) so the
/// fuzzing reaches deep into the parser instead of failing at byte 0.
fn arb_json_ish() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        Just("{".to_string()),
        Just("}".to_string()),
        Just("[".to_string()),
        Just("]".to_string()),
        Just(":".to_string()),
        Just(",".to_string()),
        Just("\"".to_string()),
        Just("\\".to_string()),
        Just("null".to_string()),
        Just("true".to_string()),
        Just("-1.5e3".to_string()),
        Just("\"k\"".to_string()),
        Just(" ".to_string()),
    ];
    prop::collection::vec(token, 0..64).prop_map(|tokens| tokens.concat())
}

#[test]
fn depth_bomb_returns_err_instead_of_overflowing() {
    // A million-deep array must be rejected by the depth limit long before
    // the call stack is at risk.
    let bomb = "[".repeat(1 << 20);
    let err = parse_json(&bomb).expect_err("depth bomb must be rejected");
    assert!(err.contains("nesting deeper"), "{err}");
    // Same through the object path, and with a syntactically valid bomb.
    let obj_bomb = format!("{}1{}", "{\"k\":[".repeat(200_000), "]}".repeat(200_000));
    assert!(parse_json(&obj_bomb).is_err());
}

#[test]
fn wide_string_parses_in_linear_time() {
    // 1 MiB of a two-byte character. A parser that re-validates the rest of
    // the input at every multi-byte character takes minutes here.
    let wide = "é".repeat(1 << 19);
    let start = std::time::Instant::now();
    let parsed = parse_json(&format!("\"{wide}\"")).expect("a plain string");
    let elapsed = start.elapsed();
    assert_eq!(parsed.as_str(), Some(wide.as_str()));
    assert!(elapsed < std::time::Duration::from_secs(2), "1 MiB of é took {elapsed:?}");
    // Every UTF-8 width decodes to itself, between escapes too.
    let mixed = "aé€🦀\\n\\u0007z";
    let want = "aé€🦀\n\u{7}z";
    assert_eq!(parse_json(&format!("\"{mixed}\"")).unwrap().as_str(), Some(want));
}

/// The committed smoke baselines, as `(file name, contents)`.
fn smoke_baselines() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/smoke");
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("baselines/smoke is readable")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| {
            let name = path.file_name().expect("a file").to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).expect("a readable baseline"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn truncated_baselines_are_errors_not_panics() {
    let baselines = smoke_baselines();
    assert_eq!(baselines.len(), 14, "one smoke baseline per experiment");
    for (name, text) in &baselines {
        assert!(parse_json(text).is_ok(), "{name} must parse whole");
        // About 200 evenly spaced prefixes, each cut at a char boundary and
        // short of the closing brace.
        let body = text.trim_end();
        for k in 0..200 {
            let mut cut = k * body.len() / 200;
            while !body.is_char_boundary(cut) {
                cut -= 1;
            }
            assert!(parse_json(&body[..cut]).is_err(), "{name} cut at byte {cut} parsed");
        }
    }
}

#[test]
fn depth_limit_is_tight() {
    // Nesting at the limit parses; one level beyond does not.
    let ok = format!("{}1{}", "[".repeat(MAX_JSON_DEPTH), "]".repeat(MAX_JSON_DEPTH));
    assert!(parse_json(&ok).is_ok(), "depth {MAX_JSON_DEPTH} must parse");
    let too_deep = format!("{}1{}", "[".repeat(MAX_JSON_DEPTH + 1), "]".repeat(MAX_JSON_DEPTH + 1));
    let err = parse_json(&too_deep).expect_err("one past the limit must fail");
    assert!(err.contains("nesting deeper"), "{err}");
}
