//! The distributed sweep **wire protocol** (schema
//! [`CELL_STREAM_SCHEMA`] = `ba-bench/cell-stream/v1`).
//!
//! One JSON line per message, flushed per line, over a worker subprocess's
//! stdin/stdout pipes (see `crate::dist` for the coordinator and
//! docs/DISTRIBUTED.md for the field reference):
//!
//! * **coordinator → worker**: a *cell descriptor* — a fully self-contained
//!   serialization of one [`Scenario`] plus the sweep title and seed count,
//!   enough to execute the cell with no shared state. Every axis of the
//!   scenario round-trips losslessly (`u64` payloads travel as decimal
//!   strings so values above 2⁵³ survive the JSON `f64` number space;
//!   `f64` payloads use Rust's shortest-roundtrip rendering, which parses
//!   back to the identical bit pattern).
//! * **worker → coordinator**: the finished cell as the same JSONL
//!   cell-stream line the `soak` binary writes to disk
//!   ([`crate::report::to_json_cell_line`]), or a structured `"error"`
//!   refusal when a descriptor decodes but cannot be executed.
//!
//! Decoding is strict: a missing or mismatched schema tag, an unknown
//! message type, a malformed field, or trailing garbage is a structured
//! [`WireError`], never a panic — the coordinator treats a malformed reply
//! as a worker failure and requeues the in-flight cell. The offline JSON
//! parser is shared with `crate::baseline` (depth-limited, rejects
//! trailing garbage).
//!
//! The worker loop ([`worker_loop`]) also carries the fault-injection test
//! hooks ([`FailPlan`]): after completing `k` cells the worker consumes its
//! next descriptor and dies *without replying* — by clean exit, `abort`, or
//! (on Unix) `SIGKILL` — which is exactly the mid-cell crash the
//! crash-recovery tests and the CI kill-a-worker step exercise.

use std::io::{BufRead, Write};

use crate::baseline::{parse_json, Json};
use crate::report::{json_escape, json_number, to_json_cell_line, CELL_STREAM_SCHEMA};
use crate::scenario::{AdversarySpec, EligMode, EligSeed, InputPattern, ProtocolSpec, Scenario};
use crate::sweep::{RunRecord, Sweep};
use ba_core::cert::CertEncoding;
use ba_sim::{CorruptionModel, PopulationMode, TransportSpec};

/// One unit of distributed work: a single sweep cell, self-contained.
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
    /// unknown scenario axis from a newer coordinator).
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

/// A `u64` payload as a quoted decimal string (exact beyond 2⁵³).
fn ju64(v: u64) -> String {
    format!("\"{v}\"")
}

/// An optional `u64` payload (`null` when absent).
fn jopt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), ju64)
}

fn inputs_obj(inputs: &InputPattern) -> String {
    match inputs {
        InputPattern::Unanimous(b) => format!("{{\"kind\": \"unanimous\", \"bit\": {b}}}"),
        InputPattern::Alternating => "{\"kind\": \"alternating\"}".into(),
        InputPattern::EveryThird => "{\"kind\": \"every_third\"}".into(),
        InputPattern::FirstFrac(frac) => {
            format!("{{\"kind\": \"first_frac\", \"frac\": {}}}", json_number(*frac))
        }
        InputPattern::SenderParity => "{\"kind\": \"sender_parity\"}".into(),
    }
}

fn adversary_obj(adv: &AdversarySpec) -> String {
    match adv {
        AdversarySpec::Passive => "{\"kind\": \"passive\"}".into(),
        AdversarySpec::CommitteeEraser => "{\"kind\": \"committee_eraser\"}".into(),
        AdversarySpec::StarveQuorum => "{\"kind\": \"starve_quorum\"}".into(),
        AdversarySpec::CrashTail { at_round } => {
            format!("{{\"kind\": \"crash_tail\", \"at_round\": {}}}", ju64(*at_round))
        }
        AdversarySpec::CertForger { target } => {
            format!("{{\"kind\": \"cert_forger\", \"target\": {target}}}")
        }
        AdversarySpec::VoteFlipper => "{\"kind\": \"vote_flipper\"}".into(),
        AdversarySpec::EquivocationSpammer => "{\"kind\": \"equivocation_spammer\"}".into(),
        AdversarySpec::SilenceThenBurst { at_round } => {
            format!("{{\"kind\": \"silence_burst\", \"at_round\": {}}}", ju64(*at_round))
        }
        AdversarySpec::AdaptiveEclipse { per_round } => {
            format!("{{\"kind\": \"adaptive_eclipse\", \"per_round\": {per_round}}}")
        }
        AdversarySpec::EclipseBurst { at_round } => {
            format!("{{\"kind\": \"eclipse_burst\", \"at_round\": {}}}", ju64(*at_round))
        }
    }
}

fn protocol_obj(protocol: &ProtocolSpec) -> String {
    match protocol {
        ProtocolSpec::SubqHalf { lambda, max_iters } => format!(
            "{{\"kind\": \"subq_half\", \"lambda\": {}, \"max_iters\": {}}}",
            json_number(*lambda),
            jopt_u64(*max_iters)
        ),
        ProtocolSpec::QuadraticHalf => "{\"kind\": \"quadratic_half\"}".into(),
        ProtocolSpec::WarmupThird { epochs } => {
            format!("{{\"kind\": \"warmup_third\", \"epochs\": {}}}", ju64(*epochs))
        }
        ProtocolSpec::SubqThird { lambda, epochs } => format!(
            "{{\"kind\": \"subq_third\", \"lambda\": {}, \"epochs\": {}}}",
            json_number(*lambda),
            ju64(*epochs)
        ),
        ProtocolSpec::SubqShared { lambda, epochs } => format!(
            "{{\"kind\": \"subq_shared\", \"lambda\": {}, \"epochs\": {}}}",
            json_number(*lambda),
            ju64(*epochs)
        ),
        ProtocolSpec::ChenMicali { lambda, epochs, erasure } => format!(
            "{{\"kind\": \"chen_micali\", \"lambda\": {}, \"epochs\": {}, \"erasure\": {erasure}}}",
            json_number(*lambda),
            ju64(*epochs)
        ),
        ProtocolSpec::MomoseRenHalf { views } => {
            format!("{{\"kind\": \"momose_ren\", \"views\": {}}}", ju64(*views))
        }
        ProtocolSpec::CksAdaptive { phases } => {
            format!("{{\"kind\": \"cks\", \"phases\": {}}}", ju64(*phases))
        }
        ProtocolSpec::DolevStrong { ds_f } => {
            format!("{{\"kind\": \"dolev_strong\", \"ds_f\": {ds_f}}}")
        }
        ProtocolSpec::BaFromBb { ds_f } => {
            format!("{{\"kind\": \"ba_from_bb\", \"ds_f\": {ds_f}}}")
        }
        ProtocolSpec::IterBroadcast { lambda } => {
            format!("{{\"kind\": \"iter_broadcast\", \"lambda\": {}}}", json_number(*lambda))
        }
        ProtocolSpec::Theorem4 { fanout } => {
            format!("{{\"kind\": \"theorem4\", \"fanout\": {fanout}}}")
        }
        ProtocolSpec::Theorem3 { committee } => {
            format!("{{\"kind\": \"theorem3\", \"committee\": {committee}}}")
        }
        ProtocolSpec::GoodIteration { lambda, mine_seed } => format!(
            "{{\"kind\": \"good_iteration\", \"lambda\": {}, \"mine_seed\": {}}}",
            json_number(*lambda),
            ju64(*mine_seed)
        ),
        ProtocolSpec::CommitteeTails { lambda } => {
            format!("{{\"kind\": \"committee_tails\", \"lambda\": {}}}", json_number(*lambda))
        }
        ProtocolSpec::CommitteeSample { lambda } => {
            format!("{{\"kind\": \"committee_sample\", \"lambda\": {}}}", json_number(*lambda))
        }
    }
}

/// The lossless scenario-spec object (distinct from the human-oriented
/// `scenario` object of report JSON, which renders `describe()` strings).
fn scenario_spec(sc: &Scenario) -> String {
    let model = match sc.model {
        CorruptionModel::Static => "static",
        CorruptionModel::Adaptive => "adaptive",
        CorruptionModel::StronglyAdaptive => "strongly_adaptive",
    };
    let elig = match sc.elig {
        EligMode::Ideal => "ideal",
        EligMode::Real => "real",
    };
    let elig_seed = match sc.elig_seed {
        EligSeed::PerRun => "{\"kind\": \"per_run\"}".to_string(),
        EligSeed::Fixed(s) => format!("{{\"kind\": \"fixed\", \"seed\": {}}}", ju64(s)),
    };
    // Encoded whenever set — even an empty plan — so the descriptor is a
    // lossless scenario image (the human-oriented `describe()` rendering,
    // by contrast, omits empty plans).
    let faults = match &sc.fault_plan {
        Some(plan) => format!(", \"faults\": \"{plan}\""),
        None => String::new(),
    };
    // Encoded only when on — off is the only state pre-claimed-bound
    // coordinators could produce, so old and new descriptors for an
    // unmarked scenario stay byte-identical.
    let claimed = if sc.claimed_bound { ", \"claimed_bound\": true" } else { "" };
    format!(
        "{{\"label\": \"{}\", \"n\": {}, \"f\": {}, \"model\": \"{model}\", \
         \"inputs\": {}, \"adversary\": {}, \"protocol\": {}, \
         \"elig\": \"{elig}\", \"elig_seed\": {elig_seed}, \
         \"seed_offset\": {}, \"seeds\": {}, \"sim_threads\": {}, \
         \"population\": \"{}\", \"transport\": \"{}\", \
         \"cert_encoding\": \"{}\"{faults}{claimed}}}",
        json_escape(&sc.label),
        sc.n,
        sc.f,
        inputs_obj(&sc.inputs),
        adversary_obj(&sc.adversary),
        protocol_obj(&sc.protocol),
        ju64(sc.seed_offset),
        jopt_u64(sc.seeds),
        sc.sim_threads,
        sc.population,
        sc.transport,
        sc.cert_encoding,
    )
}

/// Renders a cell descriptor as one wire line (no trailing newline).
pub fn encode_descriptor(d: &CellDescriptor) -> String {
    format!(
        "{{\"schema\": \"{CELL_STREAM_SCHEMA}\", \"type\": \"cell\", \"id\": {}, \
         \"sweep\": \"{}\", \"seeds\": {}, \"scenario\": {}}}",
        d.id,
        json_escape(&d.sweep),
        ju64(d.seeds),
        scenario_spec(&d.scenario),
    )
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

fn dec_str(v: &Json, name: &'static str) -> Result<String, WireError> {
    field(v, name)?
        .as_str()
        .map(str::to_string)
        .ok_or(WireError::Invalid { field: name, detail: "expected a string".into() })
}

fn dec_bool(v: &Json, name: &'static str) -> Result<bool, WireError> {
    match field(v, name)? {
        Json::Bool(b) => Ok(*b),
        other => Err(WireError::Invalid {
            field: name,
            detail: format!("expected a bool, got {other:?}"),
        }),
    }
}

fn dec_f64(v: &Json, name: &'static str) -> Result<f64, WireError> {
    field(v, name)?
        .as_num()
        .ok_or(WireError::Invalid { field: name, detail: "expected a number".into() })
}

/// Decodes a string-encoded `u64` payload.
fn dec_u64(v: &Json, name: &'static str) -> Result<u64, WireError> {
    let s = field(v, name)?
        .as_str()
        .ok_or(WireError::Invalid { field: name, detail: "expected a decimal string".into() })?;
    s.parse::<u64>()
        .map_err(|e| WireError::Invalid { field: name, detail: format!("not a u64: {e}") })
}

fn dec_opt_u64(v: &Json, name: &'static str) -> Result<Option<u64>, WireError> {
    match field(v, name)? {
        Json::Null => Ok(None),
        Json::Str(s) => s
            .parse::<u64>()
            .map(Some)
            .map_err(|e| WireError::Invalid { field: name, detail: format!("not a u64: {e}") }),
        other => Err(WireError::Invalid {
            field: name,
            detail: format!("expected a decimal string or null, got {other:?}"),
        }),
    }
}

/// Decodes a plain-number integer (ids and `usize` axes; validated to be a
/// non-negative integral value inside the exact `f64` range).
fn num_to_int(v: f64, name: &'static str) -> Result<u64, WireError> {
    if !(v.is_finite() && v >= 0.0 && v == v.trunc() && v <= 9_007_199_254_740_992.0) {
        return Err(WireError::Invalid {
            field: name,
            detail: format!("not an exact non-negative integer: {v}"),
        });
    }
    Ok(v as u64)
}

fn dec_usize(v: &Json, name: &'static str) -> Result<usize, WireError> {
    Ok(num_to_int(dec_f64(v, name)?, name)? as usize)
}

fn dec_inputs(v: &Json) -> Result<InputPattern, WireError> {
    let obj = field(v, "inputs")?;
    match dec_str(obj, "kind")?.as_str() {
        "unanimous" => Ok(InputPattern::Unanimous(dec_bool(obj, "bit")?)),
        "alternating" => Ok(InputPattern::Alternating),
        "every_third" => Ok(InputPattern::EveryThird),
        "first_frac" => Ok(InputPattern::FirstFrac(dec_f64(obj, "frac")?)),
        "sender_parity" => Ok(InputPattern::SenderParity),
        other => {
            Err(WireError::Invalid { field: "inputs", detail: format!("unknown kind {other:?}") })
        }
    }
}

fn dec_adversary(v: &Json) -> Result<AdversarySpec, WireError> {
    let obj = field(v, "adversary")?;
    match dec_str(obj, "kind")?.as_str() {
        "passive" => Ok(AdversarySpec::Passive),
        "committee_eraser" => Ok(AdversarySpec::CommitteeEraser),
        "starve_quorum" => Ok(AdversarySpec::StarveQuorum),
        "crash_tail" => Ok(AdversarySpec::CrashTail { at_round: dec_u64(obj, "at_round")? }),
        "cert_forger" => Ok(AdversarySpec::CertForger { target: dec_bool(obj, "target")? }),
        "vote_flipper" => Ok(AdversarySpec::VoteFlipper),
        "equivocation_spammer" => Ok(AdversarySpec::EquivocationSpammer),
        "silence_burst" => {
            Ok(AdversarySpec::SilenceThenBurst { at_round: dec_u64(obj, "at_round")? })
        }
        "adaptive_eclipse" => {
            Ok(AdversarySpec::AdaptiveEclipse { per_round: dec_usize(obj, "per_round")? })
        }
        "eclipse_burst" => Ok(AdversarySpec::EclipseBurst { at_round: dec_u64(obj, "at_round")? }),
        other => Err(WireError::Invalid {
            field: "adversary",
            detail: format!("unknown kind {other:?}"),
        }),
    }
}

fn dec_protocol(v: &Json) -> Result<ProtocolSpec, WireError> {
    let obj = field(v, "protocol")?;
    match dec_str(obj, "kind")?.as_str() {
        "subq_half" => Ok(ProtocolSpec::SubqHalf {
            lambda: dec_f64(obj, "lambda")?,
            max_iters: dec_opt_u64(obj, "max_iters")?,
        }),
        "quadratic_half" => Ok(ProtocolSpec::QuadraticHalf),
        "warmup_third" => Ok(ProtocolSpec::WarmupThird { epochs: dec_u64(obj, "epochs")? }),
        "subq_third" => Ok(ProtocolSpec::SubqThird {
            lambda: dec_f64(obj, "lambda")?,
            epochs: dec_u64(obj, "epochs")?,
        }),
        "subq_shared" => Ok(ProtocolSpec::SubqShared {
            lambda: dec_f64(obj, "lambda")?,
            epochs: dec_u64(obj, "epochs")?,
        }),
        "chen_micali" => Ok(ProtocolSpec::ChenMicali {
            lambda: dec_f64(obj, "lambda")?,
            epochs: dec_u64(obj, "epochs")?,
            erasure: dec_bool(obj, "erasure")?,
        }),
        "momose_ren" => Ok(ProtocolSpec::MomoseRenHalf { views: dec_u64(obj, "views")? }),
        "cks" => Ok(ProtocolSpec::CksAdaptive { phases: dec_u64(obj, "phases")? }),
        "dolev_strong" => Ok(ProtocolSpec::DolevStrong { ds_f: dec_usize(obj, "ds_f")? }),
        "ba_from_bb" => Ok(ProtocolSpec::BaFromBb { ds_f: dec_usize(obj, "ds_f")? }),
        "iter_broadcast" => Ok(ProtocolSpec::IterBroadcast { lambda: dec_f64(obj, "lambda")? }),
        "theorem4" => Ok(ProtocolSpec::Theorem4 { fanout: dec_usize(obj, "fanout")? }),
        "theorem3" => Ok(ProtocolSpec::Theorem3 { committee: dec_usize(obj, "committee")? }),
        "good_iteration" => Ok(ProtocolSpec::GoodIteration {
            lambda: dec_f64(obj, "lambda")?,
            mine_seed: dec_u64(obj, "mine_seed")?,
        }),
        "committee_tails" => Ok(ProtocolSpec::CommitteeTails { lambda: dec_f64(obj, "lambda")? }),
        "committee_sample" => Ok(ProtocolSpec::CommitteeSample { lambda: dec_f64(obj, "lambda")? }),
        other => {
            Err(WireError::Invalid { field: "protocol", detail: format!("unknown kind {other:?}") })
        }
    }
}

fn dec_scenario(v: &Json) -> Result<Scenario, WireError> {
    let obj = field(v, "scenario")?;
    let model = match dec_str(obj, "model")?.as_str() {
        "static" => CorruptionModel::Static,
        "adaptive" => CorruptionModel::Adaptive,
        "strongly_adaptive" => CorruptionModel::StronglyAdaptive,
        other => {
            return Err(WireError::Invalid {
                field: "model",
                detail: format!("unknown model {other:?}"),
            })
        }
    };
    let elig = match dec_str(obj, "elig")?.as_str() {
        "ideal" => EligMode::Ideal,
        "real" => EligMode::Real,
        other => {
            return Err(WireError::Invalid {
                field: "elig",
                detail: format!("unknown mode {other:?}"),
            })
        }
    };
    let fault_plan = match obj.get("faults") {
        // Same legacy tolerance as the other optional axes: absent = no
        // fault layer, the only state pre-chaos coordinators could produce.
        None => None,
        Some(v) => {
            let s = v.as_str().ok_or(WireError::Invalid {
                field: "faults",
                detail: "expected a string".into(),
            })?;
            Some(s.parse().map_err(|e: String| WireError::Invalid { field: "faults", detail: e })?)
        }
    };
    let es_obj = field(obj, "elig_seed")?;
    let elig_seed = match dec_str(es_obj, "kind")?.as_str() {
        "per_run" => EligSeed::PerRun,
        "fixed" => EligSeed::Fixed(dec_u64(es_obj, "seed")?),
        other => {
            return Err(WireError::Invalid {
                field: "elig_seed",
                detail: format!("unknown kind {other:?}"),
            })
        }
    };
    // Every engine asserts `f < n`; a descriptor that breaks it must be
    // refused here, in band, not panic the worker that executes it.
    let (n, f) = (dec_usize(obj, "n")?, dec_usize(obj, "f")?);
    if f >= n {
        return Err(WireError::Invalid {
            field: "f",
            detail: format!("corruption budget {f} must leave one honest node of n = {n}"),
        });
    }
    Ok(Scenario {
        label: dec_str(obj, "label")?,
        n,
        f,
        model,
        inputs: dec_inputs(obj)?,
        adversary: dec_adversary(obj)?,
        protocol: dec_protocol(obj)?,
        elig,
        elig_seed,
        seed_offset: dec_u64(obj, "seed_offset")?,
        seeds: dec_opt_u64(obj, "seeds")?,
        sim_threads: dec_usize(obj, "sim_threads")?.max(1),
        // Encoded by every current coordinator; tolerated absent so workers
        // keep accepting descriptors from older builds (absent = dense, the
        // only mode those builds could produce).
        population: match obj.get("population") {
            None => PopulationMode::Dense,
            Some(v) => {
                let s = v.as_str().ok_or(WireError::Invalid {
                    field: "population",
                    detail: "expected a string".into(),
                })?;
                s.parse()
                    .map_err(|e: String| WireError::Invalid { field: "population", detail: e })?
            }
        },
        // Same legacy tolerance as `population`: absent = lockstep, the
        // only transport pre-transport coordinators could produce.
        transport: match obj.get("transport") {
            None => TransportSpec::Lockstep,
            Some(v) => {
                let s = v.as_str().ok_or(WireError::Invalid {
                    field: "transport",
                    detail: "expected a string".into(),
                })?;
                s.parse()
                    .map_err(|e: String| WireError::Invalid { field: "transport", detail: e })?
            }
        },
        // Same legacy tolerance again: absent = vector, the only encoding
        // pre-aggregation coordinators could produce.
        cert_encoding: match obj.get("cert_encoding") {
            None => CertEncoding::Vector,
            Some(v) => {
                let s = v.as_str().ok_or(WireError::Invalid {
                    field: "cert_encoding",
                    detail: "expected a string".into(),
                })?;
                s.parse()
                    .map_err(|e: String| WireError::Invalid { field: "cert_encoding", detail: e })?
            }
        },
        fault_plan,
        // Same legacy tolerance: absent = off, the only state
        // pre-claimed-bound coordinators could produce.
        claimed_bound: match obj.get("claimed_bound") {
            None => false,
            Some(_) => dec_bool(obj, "claimed_bound")?,
        },
    })
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

/// Decodes a coordinator → worker cell-descriptor line.
pub fn decode_descriptor(line: &str) -> Result<CellDescriptor, WireError> {
    let v = parse_line(line)?;
    let got = v.get("type").and_then(Json::as_str).unwrap_or_default();
    if got != "cell" {
        return Err(WireError::MsgType { got: got.to_string() });
    }
    Ok(CellDescriptor {
        id: num_to_int(dec_f64(&v, "id")?, "id")?,
        sweep: dec_str(&v, "sweep")?,
        seeds: dec_u64(&v, "seeds")?,
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
    let seed = num_to_int(dec_f64(v, "seed")?, "seed")?;
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

/// Decodes a worker → coordinator reply line (a cell-stream `result` or a
/// structured `error` refusal).
pub fn decode_reply(line: &str) -> Result<WorkerReply, WireError> {
    let v = parse_line(line)?;
    match v.get("type").and_then(Json::as_str).unwrap_or_default() {
        "result" => {
            let id = num_to_int(dec_f64(&v, "id")?, "id")?;
            let Some(runs) = v.get("runs").and_then(Json::as_arr) else {
                return Err(WireError::Missing("runs"));
            };
            let runs = runs.iter().map(dec_run).collect::<Result<Vec<_>, _>>()?;
            Ok(WorkerReply::Result { id, runs })
        }
        "error" => Ok(WorkerReply::Refusal {
            id: num_to_int(dec_f64(&v, "id")?, "id")?,
            error: dec_str(&v, "error")?,
        }),
        other => Err(WireError::MsgType { got: other.to_string() }),
    }
}

// ---------------------------------------------------------------------------
// The worker loop
// ---------------------------------------------------------------------------

/// How an injected worker failure manifests (test/CI hook).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailMode {
    /// Clean `exit(3)` without replying.
    Exit,
    /// `std::process::abort()` (SIGABRT on Unix).
    Abort,
    /// `SIGKILL` to self (Unix; falls back to abort elsewhere) — the
    /// harshest mid-cell death: no destructors, no flush.
    Kill,
}

impl FailMode {
    /// Parses a `--fail-mode` / `--worker-fail-mode` value.
    pub fn parse(s: &str) -> Option<FailMode> {
        match s {
            "exit" => Some(FailMode::Exit),
            "abort" => Some(FailMode::Abort),
            "kill" => Some(FailMode::Kill),
            _ => None,
        }
    }
}

/// The fault-injection plan of a worker: complete `after` cells, then die
/// mid-cell (descriptor consumed, no reply emitted) in the given mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailPlan {
    /// Cells to complete before dying.
    pub after: u64,
    /// How to die.
    pub mode: FailMode,
}

impl FailPlan {
    /// Folds a `--fail-after N` flag into an accumulating plan (the two
    /// fail flags may arrive in either order; defaults: die immediately,
    /// by clean exit).
    pub fn with_after(prev: Option<FailPlan>, after: u64) -> FailPlan {
        FailPlan { after, mode: prev.map_or(FailMode::Exit, |plan| plan.mode) }
    }

    /// Folds a `--fail-mode M` flag into an accumulating plan.
    pub fn with_mode(prev: Option<FailPlan>, mode: FailMode) -> FailPlan {
        FailPlan { after: prev.map_or(0, |plan| plan.after), mode }
    }
}

fn die_as_planned(mode: FailMode) -> ! {
    match mode {
        FailMode::Exit => std::process::exit(3),
        FailMode::Abort => std::process::abort(),
        FailMode::Kill => kill_self(),
    }
}

#[cfg(unix)]
fn kill_self() -> ! {
    // No libc in the workspace: raise SIGKILL through the coreutils `kill`.
    let _ =
        std::process::Command::new("kill").arg("-9").arg(std::process::id().to_string()).status();
    std::process::abort() // unreachable when the signal lands
}

#[cfg(not(unix))]
fn kill_self() -> ! {
    std::process::abort()
}

/// Best-effort id extraction from a line that failed descriptor decoding,
/// so the worker can refuse the cell instead of dying on it.
fn salvage_id(line: &str) -> Option<u64> {
    let v = parse_json(line).ok()?;
    num_to_int(v.get("id")?.as_num()?, "id").ok()
}

/// The worker side of the protocol: reads cell descriptors line by line,
/// executes each cell exactly as the in-process engine would (one worker
/// thread; the run seed is `seed_offset + index`, so results are identical
/// to any other execution of the same cell), and emits one flushed
/// cell-stream line per finished cell. Returns the process exit code:
/// `0` on clean EOF, `4` on an unrecoverable stream error.
pub fn worker_loop(input: impl BufRead, mut output: impl Write, fail: Option<FailPlan>) -> i32 {
    let mut completed = 0u64;
    for line in input.lines() {
        let Ok(line) = line else { return 4 };
        if line.trim().is_empty() {
            continue;
        }
        let desc = match decode_descriptor(&line) {
            Ok(d) => d,
            Err(e) => match salvage_id(&line) {
                // The line carried an id: refuse the cell in-band and keep
                // serving (the coordinator quarantines it).
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
        if let Some(plan) = fail {
            if completed >= plan.after {
                // Mid-cell: the descriptor is consumed but no reply will
                // ever be emitted — the crash the coordinator recovers from.
                die_as_planned(plan.mode);
            }
        }
        let sweep = Sweep::new(desc.sweep.clone(), desc.seeds, vec![desc.scenario]);
        let report = sweep.run(1);
        let reply = to_json_cell_line(&desc.sweep, desc.id, 0, &report.cells[0]);
        if writeln!(output, "{reply}").is_err() || output.flush().is_err() {
            return 4;
        }
        completed += 1;
    }
    0
}

/// [`worker_loop`] over the process's stdin/stdout (the `ba-bench worker`
/// subcommand and the experiment binaries' `--worker` mode).
pub fn worker_main(fail: Option<FailPlan>) -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    worker_loop(stdin.lock(), stdout.lock(), fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenario() -> Scenario {
        Scenario::new("cell \"x\"", 48, ProtocolSpec::SubqHalf { lambda: 12.5, max_iters: Some(6) })
            .f(19)
            .model(CorruptionModel::Adaptive)
            .inputs(InputPattern::FirstFrac(0.375))
            .adversary(AdversarySpec::EclipseBurst { at_round: 3 })
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
            .faults(
                "drop:p=0.25:from=1:until=9,dup:p=0.1,reorder:p=0.05:budget=3,\
                 partition:2..5=24,sched=adversarial"
                    .parse()
                    .expect("a canonical fault plan"),
            )
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

    #[test]
    fn population_field_is_optional_on_decode() {
        // Descriptors from pre-population coordinators lack the field
        // entirely; they decode as dense. A malformed value is refused.
        let desc = CellDescriptor {
            id: 5,
            sweep: "s".into(),
            seeds: 1,
            scenario: Scenario::new("c", 5, ProtocolSpec::QuadraticHalf),
        };
        let line = encode_descriptor(&desc);
        let legacy = line.replace(", \"population\": \"dense\"", "");
        assert_ne!(line, legacy, "expected the population field to be encoded");
        assert_eq!(decode_descriptor(&legacy).expect("legacy line decodes"), desc);
        let mangled = line.replace("\"population\": \"dense\"", "\"population\": \"ultra\"");
        assert!(matches!(
            decode_descriptor(&mangled),
            Err(WireError::Invalid { field: "population", .. })
        ));
    }

    #[test]
    fn cert_encoding_field_is_optional_on_decode() {
        // Descriptors from pre-aggregation coordinators lack the field
        // entirely; absent must decode as the vector encoding.
        let d = CellDescriptor {
            id: 3,
            sweep: "s".into(),
            seeds: 2,
            scenario: Scenario::new("q", 9, ProtocolSpec::QuadraticHalf)
                .cert_encoding(CertEncoding::Aggregate),
        };
        let line = encode_descriptor(&d);
        let back = decode_descriptor(&line).unwrap();
        assert_eq!(back.scenario.cert_encoding, CertEncoding::Aggregate);
        let legacy = line.replace(", \"cert_encoding\": \"aggregate\"", "");
        assert!(!legacy.contains("cert_encoding"));
        let back = decode_descriptor(&legacy).unwrap();
        assert_eq!(back.scenario.cert_encoding, CertEncoding::Vector);
    }

    #[test]
    fn transport_field_is_optional_on_decode() {
        // Descriptors from pre-transport coordinators lack the field
        // entirely; they decode as lockstep. A malformed value is refused.
        let desc = CellDescriptor {
            id: 6,
            sweep: "s".into(),
            seeds: 1,
            scenario: Scenario::new("c", 5, ProtocolSpec::QuadraticHalf),
        };
        let line = encode_descriptor(&desc);
        let legacy = line.replace(", \"transport\": \"lockstep\"", "");
        assert_ne!(line, legacy, "expected the transport field to be encoded");
        assert_eq!(decode_descriptor(&legacy).expect("legacy line decodes"), desc);
        let mangled =
            line.replace("\"transport\": \"lockstep\"", "\"transport\": \"carrier-pigeon\"");
        assert!(matches!(
            decode_descriptor(&mangled),
            Err(WireError::Invalid { field: "transport", .. })
        ));
    }

    #[test]
    fn faults_field_is_optional_on_decode() {
        use ba_sim::FaultPlan;
        // Descriptors from pre-chaos coordinators lack the field entirely;
        // they decode with no fault layer. A malformed plan is refused.
        let desc = CellDescriptor {
            id: 8,
            sweep: "s".into(),
            seeds: 1,
            scenario: Scenario::new("c", 5, ProtocolSpec::QuadraticHalf)
                .faults("drop:p=0.5".parse().expect("a drop plan")),
        };
        let line = encode_descriptor(&desc);
        let back = decode_descriptor(&line).expect("decodes");
        assert_eq!(back.scenario.fault_plan, desc.scenario.fault_plan);
        // An explicitly empty plan also survives the wire (it is not the
        // same scenario as one with no fault layer at all).
        let empty = CellDescriptor {
            scenario: Scenario::new("c", 5, ProtocolSpec::QuadraticHalf)
                .faults(FaultPlan::default()),
            ..desc.clone()
        };
        let back = decode_descriptor(&encode_descriptor(&empty)).expect("decodes");
        assert_eq!(back.scenario.fault_plan, Some(FaultPlan::default()));
        let legacy = line.replace(", \"faults\": \"drop:p=0.5\"", "");
        assert_ne!(line, legacy, "expected the faults field to be encoded");
        let back = decode_descriptor(&legacy).expect("legacy line decodes");
        assert_eq!(back.scenario.fault_plan, None);
        let mangled = line.replace("\"faults\": \"drop:p=0.5\"", "\"faults\": \"meteor:p=1\"");
        assert!(matches!(
            decode_descriptor(&mangled),
            Err(WireError::Invalid { field: "faults", .. })
        ));
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
    fn claimed_bound_field_is_optional_on_decode() {
        // Off (the default) is not encoded at all — descriptors for
        // unmarked scenarios stay byte-identical to pre-claimed-bound
        // coordinators' output — and absent decodes as off.
        let plain = CellDescriptor {
            id: 12,
            sweep: "s".into(),
            seeds: 1,
            scenario: Scenario::new("c", 5, ProtocolSpec::QuadraticHalf),
        };
        let line = encode_descriptor(&plain);
        assert!(!line.contains("claimed_bound"));
        assert!(!decode_descriptor(&line).expect("decodes").scenario.claimed_bound);
        let marked = CellDescriptor {
            scenario: plain.scenario.clone().with_claimed_bound(),
            ..plain.clone()
        };
        let marked_line = encode_descriptor(&marked);
        assert_eq!(marked_line.replace(", \"claimed_bound\": true", ""), line);
        assert!(decode_descriptor(&marked_line).expect("decodes").scenario.claimed_bound);
    }

    #[test]
    fn schema_version_is_refused() {
        let desc = CellDescriptor {
            id: 1,
            sweep: "s".into(),
            seeds: 1,
            scenario: Scenario::new("c", 5, ProtocolSpec::QuadraticHalf),
        };
        let line = encode_descriptor(&desc).replace("cell-stream/v1", "cell-stream/v9");
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
        let desc = CellDescriptor {
            id: 3,
            sweep: "s".into(),
            seeds: 1,
            scenario: Scenario::new("c", 5, ProtocolSpec::QuadraticHalf),
        };
        let full = encode_descriptor(&desc);
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
        let desc = CellDescriptor {
            id: 0,
            sweep: "w".into(),
            seeds: 2,
            scenario: Scenario::new("q", 5, ProtocolSpec::QuadraticHalf)
                .inputs(InputPattern::Unanimous(true)),
        };
        // A served cell, a blank line to skip, and two refusable lines (id
        // present, bad scenario): an unknown protocol, and a well-formed
        // descriptor whose corruption budget leaves no honest node.
        let bad = encode_descriptor(&CellDescriptor { id: 7, ..desc.clone() })
            .replace("quadratic_half", "martian_protocol");
        let all_corrupt = encode_descriptor(&CellDescriptor {
            id: 8,
            scenario: Scenario::new("c", 3, ProtocolSpec::QuadraticHalf).f(5),
            ..desc.clone()
        });
        let input = format!("{}\n\n{}\n{}\n", encode_descriptor(&desc), bad, all_corrupt);
        let mut out = Vec::new();
        let code = worker_loop(input.as_bytes(), &mut out, None);
        assert_eq!(code, 0, "clean EOF");
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(matches!(decode_reply(lines[0]), Ok(WorkerReply::Result { id: 0, .. })));
        for (line, refused, names) in [(lines[1], 7, "martian_protocol"), (lines[2], 8, "\"f\"")] {
            let Ok(WorkerReply::Refusal { id, error }) = decode_reply(line) else {
                panic!("expected a refusal, got {line:?}");
            };
            assert_eq!(id, refused);
            assert!(error.contains(names), "{error}");
        }
        // The served cell's records match an in-process run exactly.
        let Ok(WorkerReply::Result { runs, .. }) = decode_reply(lines[0]) else { unreachable!() };
        let local = Sweep::new("w", 2, vec![desc.scenario]).run(1);
        assert_eq!(runs, local.cells[0].runs);
    }

    #[test]
    fn worker_loop_dies_on_idless_garbage() {
        let mut out = Vec::new();
        assert_eq!(worker_loop("garbage\n".as_bytes(), &mut out, None), 4);
        assert!(out.is_empty());
    }
}
