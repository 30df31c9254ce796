//! The cell-stream **wire protocol** (schema [`CELL_STREAM_SCHEMA`] =
//! `ba-bench/cell-stream/v1`) and the in-memory worker loop that serves it
//! (see docs/WIRE.md for the field reference).
//!
//! One JSON line per message:
//!
//! * **descriptor**: a self-contained serialization of one [`Scenario`]
//!   plus the sweep title and seed count, enough to execute the cell with
//!   no shared state. Every axis of the scenario round-trips losslessly
//!   (`u64` payloads travel as decimal strings so values above 2⁵³ survive
//!   the JSON `f64` number space; `f64` payloads use Rust's
//!   shortest-roundtrip rendering, which parses back to the identical bit
//!   pattern).
//! * **reply**: the finished cell as the same JSONL cell-stream line the
//!   `soak` binary writes to disk ([`crate::report::to_json_cell_line`]),
//!   or a structured `"error"` refusal when a descriptor decodes but cannot
//!   be executed.
//!
//! [`worker_loop`] reads descriptors from any [`BufRead`] and writes replies
//! to any [`Write`]; the `benchmark/` crate's `gauntlet_wire` workload and
//! the root baseline contract drive it over in-memory buffers. Decoding is
//! strict: a missing or mismatched schema tag, an unknown message type, a
//! malformed field, or trailing garbage is a structured [`WireError`],
//! never a panic. The offline JSON parser is shared with `crate::baseline`
//! (depth-limited, rejects trailing garbage).

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use crate::baseline::{parse_json, Json};
use crate::report::{json_escape, to_json_cell_line, JsonEscaped, CELL_STREAM_SCHEMA};
use crate::scenario::{Scenario, AXES};
use crate::sweep::{RunRecord, Sweep};

/// One unit of sweep work: a single cell, self-contained.
#[derive(Clone, Debug, PartialEq)]
pub struct CellDescriptor {
    /// Stream-scoped id echoed back by the worker's reply.
    pub id: u64,
    /// The sweep title the cell belongs to.
    pub sweep: String,
    /// The sweep-level default seed count (the scenario's own `seeds`
    /// override, when set, wins — same resolution as the in-process path).
    pub seeds: u64,
    /// The cell's scenario, verbatim.
    pub scenario: Scenario,
}

/// A worker's decoded reply line.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerReply {
    /// The cell finished; per-seed records in seed order.
    Result {
        /// Echo of the descriptor id.
        id: u64,
        /// The decoded per-seed records.
        runs: Vec<RunRecord>,
    },
    /// The worker decoded the line but refuses to execute it (e.g. an
    /// unknown scenario axis from a newer encoder).
    Refusal {
        /// Echo of the descriptor id.
        id: u64,
        /// The structured reason.
        error: String,
    },
}

/// A structured wire-protocol decoding failure.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The line is not parseable JSON.
    Parse(String),
    /// The schema tag is missing or names an unsupported version.
    Schema {
        /// What the line carried (empty when absent).
        got: String,
    },
    /// The message type is not one this endpoint accepts.
    MsgType {
        /// What the line carried (empty when absent).
        got: String,
    },
    /// A required field is absent.
    Missing(&'static str),
    /// A field is present but malformed.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Parse(e) => write!(f, "unparseable wire line: {e}"),
            WireError::Schema { got } if got.is_empty() => write!(f, "missing schema tag"),
            WireError::Schema { got } => {
                write!(f, "unsupported schema {got:?} (this build speaks {CELL_STREAM_SCHEMA:?})")
            }
            WireError::MsgType { got } if got.is_empty() => write!(f, "missing message type"),
            WireError::MsgType { got } => write!(f, "unknown message type {got:?}"),
            WireError::Missing(field) => write!(f, "missing field {field:?}"),
            WireError::Invalid { field, detail } => write!(f, "invalid field {field:?}: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// The lossless scenario-spec object (distinct from the human-oriented
/// `scenario` object of report JSON, which renders `describe()` pairs):
/// one string member per [`AXES`] row that has a value, in the row's
/// lossless `{:#}` grammar. `u64` payloads therefore travel as decimal
/// text, exact beyond 2⁵³, and `f64` payloads in Rust's shortest-roundtrip
/// rendering.
fn scenario_spec(out: &mut String, sc: &Scenario) {
    let mut sep = "{";
    for axis in AXES {
        if let Some(value) = (axis.get)(sc) {
            let _ = write!(out, "{sep}\"{}\": \"", axis.key);
            let _ = write!(JsonEscaped(out), "{value:#}");
            out.push('"');
            sep = ", ";
        }
    }
    out.push('}');
}

/// Renders a cell descriptor as one wire line (no trailing newline).
pub fn encode_descriptor(d: &CellDescriptor) -> String {
    let mut out = format!(
        "{{\"schema\": \"{CELL_STREAM_SCHEMA}\", \"type\": \"cell\", \"id\": {}, \
         \"sweep\": \"{}\", \"seeds\": \"{}\", \"scenario\": ",
        d.id,
        json_escape(&d.sweep),
        d.seeds,
    );
    scenario_spec(&mut out, &d.scenario);
    out.push('}');
    out
}

/// Renders a worker refusal as one wire line (no trailing newline).
pub fn encode_refusal(id: u64, error: &str) -> String {
    format!(
        "{{\"schema\": \"{CELL_STREAM_SCHEMA}\", \"type\": \"error\", \"id\": {id}, \
         \"error\": \"{}\"}}",
        json_escape(error),
    )
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn field<'a>(v: &'a Json, name: &'static str) -> Result<&'a Json, WireError> {
    v.get(name).ok_or(WireError::Missing(name))
}

fn dec_str<'a>(v: &'a Json, name: &'static str) -> Result<&'a str, WireError> {
    field(v, name)?
        .as_str()
        .ok_or(WireError::Invalid { field: name, detail: "expected a string".into() })
}

/// Decodes a plain-number integer (ids and run seeds; validated to be a
/// non-negative integral value inside the exact `f64` range).
fn dec_int(v: &Json, name: &'static str) -> Result<u64, WireError> {
    match field(v, name)?.as_num() {
        Some(x) if x >= 0.0 && x == x.trunc() && x <= 9_007_199_254_740_992.0 => Ok(x as u64),
        other => Err(WireError::Invalid {
            field: name,
            detail: format!("not an exact non-negative integer: {other:?}"),
        }),
    }
}

/// Decodes the scenario-spec object, one loop over [`AXES`] under one rule:
/// an absent optional key keeps [`Scenario::new`]'s default
/// (what an encoder from before the axis existed meant), an absent
/// required key is [`WireError::Missing`], and a present key that is not a
/// string in the row's grammar is [`WireError::Invalid`] naming it. The
/// decoded scenario must also pass [`Scenario::check`]: a descriptor its
/// family cannot execute is refused here, in band, instead of panicking
/// the worker that runs it.
fn dec_scenario(v: &Json) -> Result<Scenario, WireError> {
    let obj = field(v, "scenario")?;
    let mut sc = Scenario::blank();
    for axis in AXES {
        if !axis.optional || obj.get(axis.key).is_some() {
            (axis.set)(&mut sc, dec_str(obj, axis.key)?)
                .map_err(|detail| WireError::Invalid { field: axis.key, detail })?;
        }
    }
    sc.check().map_err(|detail| WireError::Invalid { field: "scenario", detail })?;
    Ok(sc)
}

/// Parses a wire line and validates its schema tag.
fn parse_line(line: &str) -> Result<Json, WireError> {
    let v = parse_json(line).map_err(WireError::Parse)?;
    let got = v.get("schema").and_then(Json::as_str).unwrap_or_default();
    if got != CELL_STREAM_SCHEMA {
        return Err(WireError::Schema { got: got.to_string() });
    }
    Ok(v)
}

/// Decodes a cell-descriptor line.
pub fn decode_descriptor(line: &str) -> Result<CellDescriptor, WireError> {
    let v = parse_line(line)?;
    let got = v.get("type").and_then(Json::as_str).unwrap_or_default();
    if got != "cell" {
        return Err(WireError::MsgType { got: got.to_string() });
    }
    Ok(CellDescriptor {
        id: dec_int(&v, "id")?,
        sweep: dec_str(&v, "sweep")?.to_string(),
        // A decimal string, like every `u64` on the wire: exact beyond 2⁵³.
        seeds: dec_str(&v, "seeds")?.parse().map_err(|e| WireError::Invalid {
            field: "seeds",
            detail: format!("not a u64: {e}"),
        })?,
        scenario: dec_scenario(&v)?,
    })
}

/// Decodes the `values` object of one run into flat `(name, value)` pairs
/// (arrays flatten back into repeated names, `null` back into `NaN` — the
/// inverse of the report writer's rendering). Repeated names come back
/// **grouped** in first-occurrence order — the canonical order every
/// renderer emits — so an *interleaved* recording order does not survive
/// the wire; rendered outputs (JSON, CSV) are unaffected because all
/// renderers group the same way.
fn dec_run(v: &Json) -> Result<RunRecord, WireError> {
    let seed = dec_int(v, "seed")?;
    let Some(Json::Obj(members)) = v.get("values") else {
        return Err(WireError::Invalid { field: "values", detail: "expected an object".into() });
    };
    let mut record = RunRecord::new(seed);
    for (name, value) in members {
        let mut push = |v: &Json| match v {
            Json::Num(x) => {
                record.values.push((name.clone().into(), *x));
                Ok(())
            }
            Json::Null => {
                record.values.push((name.clone().into(), f64::NAN));
                Ok(())
            }
            other => Err(WireError::Invalid {
                field: "values",
                detail: format!("observable {name:?} is not a number: {other:?}"),
            }),
        };
        match value {
            Json::Arr(items) => {
                for item in items {
                    push(item)?;
                }
            }
            single => push(single)?,
        }
    }
    Ok(record)
}

/// Decodes a worker reply line (a cell-stream `result` or a
/// structured `error` refusal).
pub fn decode_reply(line: &str) -> Result<WorkerReply, WireError> {
    let v = parse_line(line)?;
    match v.get("type").and_then(Json::as_str).unwrap_or_default() {
        "result" => {
            let id = dec_int(&v, "id")?;
            let Some(runs) = v.get("runs").and_then(Json::as_arr) else {
                return Err(WireError::Missing("runs"));
            };
            let runs = runs.iter().map(dec_run).collect::<Result<Vec<_>, _>>()?;
            Ok(WorkerReply::Result { id, runs })
        }
        "error" => Ok(WorkerReply::Refusal {
            id: dec_int(&v, "id")?,
            error: dec_str(&v, "error")?.to_string(),
        }),
        other => Err(WireError::MsgType { got: other.to_string() }),
    }
}

// ---------------------------------------------------------------------------
// The worker loop
// ---------------------------------------------------------------------------

/// Best-effort id extraction from a line that failed descriptor decoding,
/// so the worker can refuse the cell instead of dying on it.
fn salvage_id(line: &str) -> Option<u64> {
    dec_int(&parse_json(line).ok()?, "id").ok()
}

/// The worker side of the protocol: reads cell descriptors line by line,
/// executes each cell exactly as [`Sweep::run`] would (one thread; the run
/// seed is `seed_offset + index`, so results are identical to any other
/// execution of the same cell), and emits one flushed cell-stream line per
/// finished cell. Returns `0` on clean EOF, `4` on an unrecoverable stream
/// error.
///
/// The third parameter is always `None`: it only keeps the three-argument
/// calls of the `benchmark/` crate compiling, and goes when those callers
/// drop it (ROADMAP item 17).
pub fn worker_loop(
    input: impl BufRead,
    mut output: impl Write,
    _always_none: Option<std::convert::Infallible>,
) -> i32 {
    for line in input.lines() {
        let Ok(line) = line else { return 4 };
        if line.trim().is_empty() {
            continue;
        }
        let desc = match decode_descriptor(&line) {
            Ok(d) => d,
            Err(e) => match salvage_id(&line) {
                // The line carried an id: refuse the cell in-band and keep
                // serving.
                Some(id) => {
                    if writeln!(output, "{}", encode_refusal(id, &e.to_string())).is_err()
                        || output.flush().is_err()
                    {
                        return 4;
                    }
                    continue;
                }
                // Garbage with no id: the stream itself is unusable.
                None => {
                    eprintln!("[worker] unusable wire line: {e}");
                    return 4;
                }
            },
        };
        let sweep = Sweep::new(desc.sweep.clone(), desc.seeds, vec![desc.scenario]);
        let report = sweep.run(1);
        let reply = to_json_cell_line(&desc.sweep, desc.id, 0, &report.cells[0]);
        if writeln!(output, "{reply}").is_err() || output.flush().is_err() {
            return 4;
        }
    }
    0
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scenario::{AdversarySpec, Axis, InputPattern, ProtocolSpec};
    use ba_core::cert::CertEncoding;
    use ba_sim::{CorruptionModel, FaultPlan, PopulationMode, TransportSpec};

    /// A scenario with **every** axis off its [`Scenario::new`] default (the
    /// per-axis loops here and in `crate::cli` lean on that: they read each
    /// row's sample value from it, so a new row extends this one builder
    /// chain and is covered).
    pub(crate) fn sample_scenario() -> Scenario {
        Scenario::new("cell \"x\"", 48, ProtocolSpec::SubqHalf { lambda: 12.5, max_iters: Some(6) })
            .f(19)
            .model(CorruptionModel::Adaptive)
            .inputs(InputPattern::FirstFrac(0.375))
            .adversary(AdversarySpec::EclipseBurst { at_round: 3 })
            .real_elig()
            .elig_fixed(u64::MAX)
            .seed_offset(u64::MAX - 7)
            .seeds(5)
            .sim_threads(2)
            .population(PopulationMode::Sparse)
            .transport(TransportSpec::Latency {
                round_ms: 20,
                gst_ms: 35,
                dist: ba_sim::DelayDist::Uniform { lo_ms: 1, hi_ms: 9 },
            })
            .cert_encoding(CertEncoding::Aggregate)
            .faults(
                "drop:p=0.25:from=1:until=9,dup:p=0.1,reorder:p=0.05:budget=3,\
                 partition:2..5=24,sched=adversarial"
                    .parse()
                    .expect("a canonical fault plan"),
            )
            .with_claimed_bound()
    }

    /// An axis of `sc` in its lossless wire grammar (`None` when unset).
    pub(crate) fn rendered(axis: &Axis, sc: &Scenario) -> Option<String> {
        (axis.get)(sc).map(|value| format!("{value:#}"))
    }

    fn plain_cell(id: u64) -> CellDescriptor {
        let scenario = Scenario::new("c", 5, ProtocolSpec::QuadraticHalf);
        CellDescriptor { id, sweep: "s".into(), seeds: 1, scenario }
    }

    #[test]
    fn descriptor_roundtrip_is_lossless() {
        let desc = CellDescriptor {
            id: 42,
            sweep: "title, with\ncontrol".into(),
            seeds: u64::MAX,
            scenario: sample_scenario(),
        };
        let line = encode_descriptor(&desc);
        assert_eq!(decode_descriptor(&line).expect("decodes"), desc);
    }

    #[test]
    fn result_line_roundtrips_through_reply_decoding() {
        let sweep = Sweep::new(
            "w",
            2,
            vec![Scenario::new("q", 5, ProtocolSpec::QuadraticHalf)
                .inputs(InputPattern::Unanimous(true))],
        );
        let report = sweep.run(1);
        let line = to_json_cell_line("w", 9, 0, &report.cells[0]);
        let WorkerReply::Result { id, runs } = decode_reply(&line).expect("decodes") else {
            panic!("expected a result reply");
        };
        assert_eq!(id, 9);
        assert_eq!(runs, report.cells[0].runs, "wire decoding changed the records");
    }

    /// The one absent-key rule, row by row: deleting a key from a full
    /// descriptor is `Missing` for a required axis and `Scenario::new`'s
    /// default — every other axis untouched — for an optional one; a value
    /// that is not a string in the row's grammar is `Invalid` naming the key.
    #[test]
    fn every_axis_follows_its_wire_rule() {
        let desc = CellDescriptor { scenario: sample_scenario(), ..plain_cell(5) };
        let defaults = Scenario::blank();
        let line = encode_descriptor(&desc);
        for axis in AXES {
            let value = rendered(axis, &desc.scenario).expect("the sample sets every axis");
            assert_ne!(Some(&value), rendered(axis, &defaults).as_ref(), "{}: default", axis.key);
            let member = format!("\"{}\": \"{}\"", axis.key, json_escape(&value));
            assert!(line.contains(&member), "{} is not encoded as {member}", axis.key);

            let without = match line.contains(&format!(", {member}")) {
                true => line.replace(&format!(", {member}"), ""),
                false => line.replace(&format!("{member}, "), ""),
            };
            match (axis.optional, decode_descriptor(&without)) {
                (false, got) => assert_eq!(got, Err(WireError::Missing(axis.key))),
                (true, got) => {
                    let got = got.expect("a tolerated-absent key decodes").scenario;
                    for other in AXES {
                        let from = if other.key == axis.key { &defaults } else { &desc.scenario };
                        assert_eq!(rendered(other, &got), rendered(other, from), "{}", other.key);
                    }
                }
            }

            // A free-text label accepts any string; every other grammar
            // refuses this one.
            let bad_values: &[&str] =
                if axis.key == "label" { &["7"] } else { &["7", "\"\\u0007 carrier-pigeon\""] };
            for bad in bad_values {
                let mangled = line.replace(&member, &format!("\"{}\": {bad}", axis.key));
                assert!(
                    matches!(
                        decode_descriptor(&mangled),
                        Err(WireError::Invalid { field, .. }) if field == axis.key
                    ),
                    "{} = {bad} must be refused by name",
                    axis.key
                );
            }
        }
    }

    #[test]
    fn an_explicitly_empty_fault_plan_survives_the_wire() {
        // It is not the same scenario as one with no fault layer at all.
        let mut empty = plain_cell(8);
        empty.scenario = empty.scenario.faults(FaultPlan::default());
        let back = decode_descriptor(&encode_descriptor(&empty)).expect("decodes");
        assert_eq!(back.scenario.fault_plan, Some(FaultPlan::default()));
        let back = decode_descriptor(&encode_descriptor(&plain_cell(8))).expect("decodes");
        assert_eq!(back.scenario.fault_plan, None);
    }

    #[test]
    fn competitor_protocol_kinds_roundtrip() {
        for protocol in
            [ProtocolSpec::MomoseRenHalf { views: 9 }, ProtocolSpec::CksAdaptive { phases: 7 }]
        {
            let desc = CellDescriptor {
                id: 11,
                sweep: "s".into(),
                seeds: 2,
                scenario: Scenario::new("c", 16, protocol)
                    .f(5)
                    .cert_encoding(CertEncoding::Aggregate),
            };
            let line = encode_descriptor(&desc);
            assert_eq!(decode_descriptor(&line).expect("decodes"), desc);
        }
    }

    #[test]
    fn claimed_bound_off_is_not_encoded() {
        // Off (the default) is not encoded at all — descriptors for
        // unmarked scenarios carry no trace of the axis — and absent
        // decodes as off.
        let plain = plain_cell(12);
        let line = encode_descriptor(&plain);
        assert!(!line.contains("claimed_bound"));
        assert!(!decode_descriptor(&line).expect("decodes").scenario.claimed_bound);
        let marked = CellDescriptor {
            scenario: plain.scenario.clone().with_claimed_bound(),
            ..plain.clone()
        };
        let marked_line = encode_descriptor(&marked);
        assert_eq!(marked_line.replace(", \"claimed_bound\": \"on\"", ""), line);
        assert!(decode_descriptor(&marked_line).expect("decodes").scenario.claimed_bound);
    }

    #[test]
    fn schema_version_is_refused() {
        let line = encode_descriptor(&plain_cell(1)).replace("cell-stream/v1", "cell-stream/v9");
        assert!(matches!(
            decode_descriptor(&line),
            Err(WireError::Schema { got }) if got.ends_with("v9")
        ));
        assert!(
            matches!(decode_reply("{\"x\": 1}"), Err(WireError::Schema { got }) if got.is_empty())
        );
    }

    #[test]
    fn truncated_and_garbage_lines_are_structured_errors() {
        assert!(matches!(decode_descriptor("{\"schema\": \"ba-ben"), Err(WireError::Parse(_))));
        assert!(matches!(decode_reply("not json at all"), Err(WireError::Parse(_))));
        let full = encode_descriptor(&plain_cell(3));
        let truncated = &full[..full.len() - 10];
        assert!(decode_descriptor(truncated).is_err());
        // Unknown message types are refused with the offending tag.
        let retyped = full.replace("\"type\": \"cell\"", "\"type\": \"hello\"");
        assert!(
            matches!(decode_descriptor(&retyped), Err(WireError::MsgType { got }) if got == "hello")
        );
    }

    #[test]
    fn worker_loop_serves_refuses_and_exits() {
        use {AdversarySpec as A, InputPattern as I, ProtocolSpec as P};
        let desc = CellDescriptor {
            id: 0,
            sweep: "w".into(),
            seeds: 2,
            scenario: Scenario::new("q", 5, P::QuadraticHalf).inputs(I::Unanimous(true)),
        };
        let cell = |id: u64, scenario: Scenario| {
            encode_descriptor(&CellDescriptor { id, scenario, ..desc.clone() })
        };
        let quadratic = || Scenario::new("c", 9, P::QuadraticHalf);
        let dolev = || Scenario::new("c", 9, P::DolevStrong { ds_f: 2 });
        // A served cell, a blank line to skip, then refusable lines (id
        // present, bad scenario) — an unknown protocol, and well-formed
        // descriptors their family cannot execute, each of which would
        // otherwise panic the worker mid-cell — and last a good cell, which
        // must still be served. Every refusal names the offending axis.
        let refused = [
            (
                cell(7, quadratic()).replace("quadratic_half", "martian_protocol"),
                "martian_protocol",
            ),
            (cell(8, Scenario::new("c", 3, P::QuadraticHalf).f(5)), "f:"),
            (cell(9, quadratic().adversary(A::VoteFlipper)), "adversary: vote_flipper"),
            (cell(10, quadratic().inputs(I::SenderParity)), "inputs: sender_parity"),
            (cell(11, dolev().inputs(I::Alternating)), "inputs: alternating"),
            (cell(12, dolev().adversary(A::StarveQuorum)), "adversary: starve_quorum"),
            (cell(13, Scenario::new("c", 9, P::Theorem4 { fanout: 0 })), "f:"),
            (cell(14, Scenario::new("c", 9, P::Theorem3 { committee: 9 })), "protocol: theorem3"),
            (cell(15, Scenario::new("c", 9, P::Theorem3 { committee: 0 })), "protocol: theorem3"),
            (cell(16, Scenario::new("c", 9, P::SubqThird { lambda: 9.5, epochs: 4 })), "lambda"),
            (cell(17, Scenario::new("c", 9, P::IterBroadcast { lambda: 0.0 })), "lambda"),
            (cell(18, quadratic().f(2).adversary(A::CommitteeEraser)), "model: static forbids"),
        ];
        let mut input = format!("{}\n\n", encode_descriptor(&desc));
        for (line, _) in &refused {
            input += &format!("{line}\n");
        }
        input += &format!("{}\n", cell(99, desc.scenario.clone()));
        let mut out = Vec::new();
        let code = worker_loop(input.as_bytes(), &mut out, None);
        assert_eq!(code, 0, "clean EOF");
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), refused.len() + 2);
        assert!(matches!(decode_reply(lines[0]), Ok(WorkerReply::Result { id: 0, .. })));
        for (i, (line, (_, names))) in lines[1..].iter().zip(&refused).enumerate() {
            let Ok(WorkerReply::Refusal { id, error }) = decode_reply(line) else {
                panic!("expected a refusal, got {line:?}");
            };
            assert_eq!(id, 7 + i as u64);
            assert!(error.contains(names), "{error}");
        }
        // The served cells' records match an in-process run exactly.
        let local = Sweep::new("w", 2, vec![desc.scenario]).run(1);
        for (line, served) in [(lines[0], 0), (lines[lines.len() - 1], 99)] {
            let Ok(WorkerReply::Result { id, runs }) = decode_reply(line) else {
                panic!("expected a result, got {line:?}");
            };
            assert_eq!((id, &runs), (served, &local.cells[0].runs));
        }
    }

    #[test]
    fn worker_loop_dies_on_idless_garbage() {
        let mut out = Vec::new();
        assert_eq!(worker_loop("garbage\n".as_bytes(), &mut out, None), 4);
        assert!(out.is_empty());
    }
}
