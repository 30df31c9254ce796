//! Baseline regression diffing for `BENCH_*.json` reports.
//!
//! The CI smoke job regenerates every experiment's JSON report on each
//! push; this module compares such a report against a committed baseline
//! (`baselines/smoke/`) **cell by cell**: sweeps are matched by title,
//! cells by scenario label, runs by seed, and observables by name. Any
//! structural difference (missing/extra sweep, cell, run, or metric, or a
//! changed scenario configuration) is a failure; numeric values are
//! compared under a tolerance band `|a − b| ≤ abs_tol + rel_tol ·
//! max(|a|, |b|)`, which defaults to **exact equality** — the simulator is
//! deterministic, so the smoke grid's observables are reproducible to the
//! bit, and any drift means the *semantics* of an experiment changed, not
//! its plumbing. Legitimate changes regenerate the baseline (see
//! EXPERIMENTS.md, "Baselines").
//!
//! The build environment is offline (no serde), so this module carries its
//! own minimal JSON parser: a strict recursive-descent parser over the
//! subset JSON itself defines, returning an order-preserving DOM.

use std::fmt::Write as _;

/// A parsed JSON value. Object members preserve document order (the report
/// writer is deterministic, so order is meaningful and diffable).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (the report writer emits it for non-finite observables).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, the observables' native type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container-nesting depth the parser accepts. Reports nest a
/// handful of levels; the limit exists so a hostile "`[[[[…`" depth bomb is
/// an `Err`, not a recursion-driven stack overflow (pinned by the parser
/// property tests).
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected, nesting bounded by [`MAX_JSON_DEPTH`]).
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_JSON_DEPTH {
        return Err(format!("nesting deeper than {MAX_JSON_DEPTH} at byte {}", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        // The report writer never emits surrogate pairs
                        // (only control characters are escaped this way).
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // The plain run up to the next quote or backslash, validated
                // and copied once: both are ASCII, so the run ends on a
                // character boundary.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |k| *pos + k);
                let run = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| "invalid utf-8")?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos, depth + 1)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Tolerance bands for numeric comparison (both default to zero: exact).
#[derive(Clone, Debug, Default)]
pub struct Tolerance {
    /// Absolute slack.
    pub abs: f64,
    /// Relative slack (fraction of the larger magnitude).
    pub rel: f64,
    /// Observable names exempt from comparison entirely. Each entry is a
    /// glob pattern: `*` matches any (possibly empty) run of characters,
    /// so `latency_*` exempts every latency observable at once.
    pub ignore: Vec<String>,
}

impl Tolerance {
    /// Whether `a` and `b` agree within the band.
    fn close(&self, a: f64, b: f64) -> bool {
        if a == b {
            return true; // covers ±0 and exact matches cheaply
        }
        (a - b).abs() <= self.abs + self.rel * a.abs().max(b.abs())
    }

    /// Whether observable `name` matches any ignore pattern.
    fn ignores(&self, name: &str) -> bool {
        self.ignore.iter().any(|pattern| glob_match(pattern, name))
    }
}

/// Minimal glob matching: `*` matches any (possibly empty) substring; every
/// other character matches itself. Linear greedy backtracking — the
/// classic two-pointer algorithm, no recursion.
fn glob_match(pattern: &str, name: &str) -> bool {
    let (p, n) = (pattern.as_bytes(), name.as_bytes());
    let (mut pi, mut ni) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ni));
            pi += 1;
        } else if pi < p.len() && p[pi] == n[ni] {
            pi += 1;
            ni += 1;
        } else if let Some((spi, sni)) = star {
            // Retry the star with one more character consumed.
            pi = spi + 1;
            ni = sni + 1;
            star = Some((spi, sni + 1));
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&c| c == b'*')
}

/// The severity of one diff finding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DriftKind {
    /// A sweep, cell, run, or metric present on one side only, or a
    /// mismatched scenario configuration — never tolerated.
    Structural,
    /// A numeric observable outside the tolerance band.
    Value,
}

/// One detected difference.
#[derive(Clone, Debug)]
pub struct Drift {
    /// Severity class.
    pub kind: DriftKind,
    /// `sweep/cell/seed/metric`-style path into the report.
    pub path: String,
    /// Human-readable explanation (includes both values).
    pub detail: String,
}

/// The outcome of diffing two reports.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Everything that differed, in document order.
    pub drifts: Vec<Drift>,
    /// Observables compared (a progress/sanity figure for the summary).
    pub compared: usize,
}

impl DiffReport {
    /// True when the candidate matches the baseline within tolerance.
    pub fn passed(&self) -> bool {
        self.drifts.is_empty()
    }

    /// Multi-line human-readable rendering of the findings.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.drifts {
            let kind = match d.kind {
                DriftKind::Structural => "STRUCTURAL",
                DriftKind::Value => "VALUE",
            };
            let _ = writeln!(out, "{kind:>10}  {}: {}", d.path, d.detail);
        }
        out
    }

    fn push(&mut self, kind: DriftKind, path: impl Into<String>, detail: impl Into<String>) {
        self.drifts.push(Drift { kind, path: path.into(), detail: detail.into() });
    }
}

/// Diffs a candidate sweep report against a baseline, both given as raw
/// `BENCH_*.json` text. Errors are parse/schema failures (not drift).
pub fn diff_reports(
    baseline: &str,
    candidate: &str,
    tol: &Tolerance,
) -> Result<DiffReport, String> {
    let base = parse_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cand = parse_json(candidate).map_err(|e| format!("candidate: {e}"))?;
    let mut report = DiffReport::default();

    for key in ["schema", "experiment"] {
        let (b, c) = (field_str(&base, key)?, field_str(&cand, key)?);
        if b != c {
            report.push(DriftKind::Structural, key, format!("baseline {b:?} vs candidate {c:?}"));
        }
    }

    let base_sweeps = base.get("sweeps").and_then(Json::as_arr).ok_or("baseline: no sweeps")?;
    let cand_sweeps = cand.get("sweeps").and_then(Json::as_arr).ok_or("candidate: no sweeps")?;
    diff_keyed(
        &mut report,
        "",
        "sweep",
        base_sweeps,
        cand_sweeps,
        |s| field_str(s, "title").unwrap_or_default(),
        |report, path, b, c| diff_sweep(report, path, b, c, tol),
    );
    Ok(report)
}

fn field_str(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Matches two arrays of objects by a key function, reporting one-sided
/// entries as structural drift and recursing into the pairs. Keys must be
/// unique per side — a duplicate is itself structural drift (matching by
/// key would silently compare only the first occurrence).
fn diff_keyed(
    report: &mut DiffReport,
    prefix: &str,
    what: &str,
    base: &[Json],
    cand: &[Json],
    key: impl Fn(&Json) -> String,
    mut inner: impl FnMut(&mut DiffReport, &str, &Json, &Json),
) {
    let path_of = |k: &str| if prefix.is_empty() { k.to_string() } else { format!("{prefix}/{k}") };
    for (side, entries) in [("baseline", base), ("candidate", cand)] {
        for (i, e) in entries.iter().enumerate() {
            let k = key(e);
            if entries[..i].iter().any(|p| key(p) == k) {
                report.push(
                    DriftKind::Structural,
                    path_of(&k),
                    format!("duplicate {what} key in {side}"),
                );
            }
        }
    }
    for b in base {
        let k = key(b);
        match cand.iter().find(|c| key(c) == k) {
            Some(c) => inner(report, &path_of(&k), b, c),
            None => report.push(
                DriftKind::Structural,
                path_of(&k),
                format!("{what} missing from candidate"),
            ),
        }
    }
    for c in cand {
        let k = key(c);
        if !base.iter().any(|b| key(b) == k) {
            report.push(DriftKind::Structural, path_of(&k), format!("{what} not in baseline"));
        }
    }
}

fn diff_sweep(report: &mut DiffReport, path: &str, base: &Json, cand: &Json, tol: &Tolerance) {
    let (Some(base_cells), Some(cand_cells)) =
        (base.get("cells").and_then(Json::as_arr), cand.get("cells").and_then(Json::as_arr))
    else {
        report.push(DriftKind::Structural, path, "sweep without cells");
        return;
    };
    diff_keyed(
        report,
        path,
        "cell",
        base_cells,
        cand_cells,
        |c| {
            c.get("scenario")
                .and_then(|s| s.get("label"))
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        },
        |report, path, b, c| diff_cell(report, path, b, c, tol),
    );
}

fn diff_cell(report: &mut DiffReport, path: &str, base: &Json, cand: &Json, tol: &Tolerance) {
    // The scenario configuration must match exactly — a changed n/f/
    // protocol/adversary makes value comparison meaningless. Ignore globs
    // apply here too, so a deliberate cross-config diff can exempt the one
    // axis it varies (e.g. `--ignore-observable 'cert_*'` exempts both the
    // `cert_bits` observables and the `cert_encoding` scenario key when
    // diffing an aggregate-encoded run against the vector baseline).
    if let (Some(Json::Obj(b)), Some(Json::Obj(c))) = (base.get("scenario"), cand.get("scenario")) {
        for (key, bv) in b {
            if tol.ignores(key) {
                continue;
            }
            let cv = c.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            if cv != Some(bv) {
                report.push(
                    DriftKind::Structural,
                    format!("{path}[{key}]"),
                    format!("scenario config changed: baseline {bv:?} vs candidate {cv:?}"),
                );
            }
        }
        // A candidate-only config key is schema drift too (the baseline
        // predates a new `Scenario::describe` field — regenerate it).
        for (key, _) in c {
            if !tol.ignores(key) && !b.iter().any(|(k, _)| k == key) {
                report.push(
                    DriftKind::Structural,
                    format!("{path}[{key}]"),
                    "scenario config key not in baseline",
                );
            }
        }
    }
    // A quarantine record on either side is structural: a run that failed
    // to complete a cell must never silently pass a diff.
    match (base.get("error").is_some(), cand.get("error").is_some()) {
        (false, true) => report.push(DriftKind::Structural, path, "cell quarantined in candidate"),
        (true, false) => report.push(DriftKind::Structural, path, "cell quarantined in baseline"),
        _ => {}
    }
    let (Some(base_runs), Some(cand_runs)) =
        (base.get("runs").and_then(Json::as_arr), cand.get("runs").and_then(Json::as_arr))
    else {
        report.push(DriftKind::Structural, path, "cell without runs");
        return;
    };
    diff_keyed(
        report,
        path,
        "run",
        base_runs,
        cand_runs,
        |r| format!("seed={}", r.get("seed").and_then(Json::as_num).unwrap_or(-1.0)),
        |report, path, b, c| diff_run(report, path, b, c, tol),
    );
}

fn diff_run(report: &mut DiffReport, path: &str, base: &Json, cand: &Json, tol: &Tolerance) {
    let (Some(Json::Obj(b)), Some(Json::Obj(c))) = (base.get("values"), cand.get("values")) else {
        report.push(DriftKind::Structural, path, "run without values");
        return;
    };
    for (name, bv) in b {
        if tol.ignores(name) {
            continue;
        }
        let mpath = format!("{path}/{name}");
        let Some(cv) = c.iter().find(|(k, _)| k == name).map(|(_, v)| v) else {
            report.push(DriftKind::Structural, mpath, "metric missing from candidate");
            continue;
        };
        diff_value(report, &mpath, bv, cv, tol);
    }
    for (name, _) in c {
        if !tol.ignores(name) && !b.iter().any(|(k, _)| k == name) {
            report.push(DriftKind::Structural, format!("{path}/{name}"), "metric not in baseline");
        }
    }
}

fn diff_value(report: &mut DiffReport, path: &str, base: &Json, cand: &Json, tol: &Tolerance) {
    match (base, cand) {
        // The writer encodes non-finite observables as null; two nulls
        // agree (a null vs a number falls through to shape mismatch).
        (Json::Null, Json::Null) => report.compared += 1,
        (Json::Num(b), Json::Num(c)) => {
            report.compared += 1;
            if !tol.close(*b, *c) {
                report.push(
                    DriftKind::Value,
                    path,
                    format!("baseline {b} vs candidate {c} (|Δ| = {})", (b - c).abs()),
                );
            }
        }
        (Json::Arr(b), Json::Arr(c)) => {
            if b.len() != c.len() {
                report.push(
                    DriftKind::Structural,
                    path,
                    format!("sample count {} vs {}", b.len(), c.len()),
                );
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                diff_value(report, &format!("{path}[{i}]"), bv, cv, tol);
            }
        }
        _ => report.push(
            DriftKind::Structural,
            path,
            format!("shape mismatch: baseline {base:?} vs candidate {cand:?}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_report_shapes() {
        let doc = r#"{"schema": "s", "n": 3, "x": -1.5, "arr": [1, 2.5, null, true],
                      "nested": {"a": "b\nc", "empty": [], "eobj": {}}}"#;
        let v = parse_json(doc).expect("parses");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("s"));
        assert_eq!(v.get("n").and_then(Json::as_num), Some(3.0));
        assert_eq!(v.get("x").and_then(Json::as_num), Some(-1.5));
        let arr = v.get("arr").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[2], Json::Null);
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(v.get("nested").unwrap().get("a").and_then(Json::as_str), Some("b\nc"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn glob_patterns() {
        assert!(glob_match("latency_*", "latency_commit_p50_ms"));
        assert!(glob_match("peak_*", "peak_live_nodes"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("*", ""));
        assert!(glob_match("rounds", "rounds"));
        assert!(glob_match("*_p50_*", "latency_commit_p50_ms"));
        assert!(glob_match("a*c", "abc"));
        assert!(glob_match("a*c", "ac"));
        assert!(!glob_match("latency_*", "rounds"));
        assert!(!glob_match("peak", "peak_live_nodes"));
        assert!(!glob_match("a*c", "acb"));
        let tol = Tolerance { ignore: vec!["latency_*".into()], ..Tolerance::default() };
        assert!(tol.ignores("latency_delivered"));
        assert!(!tol.ignores("multicasts"));
    }

    #[test]
    fn tolerance_bands() {
        let exact = Tolerance::default();
        assert!(exact.close(1.0, 1.0));
        assert!(!exact.close(1.0, 1.0000001));
        let band = Tolerance { abs: 0.5, rel: 0.0, ignore: Vec::new() };
        assert!(band.close(10.0, 10.4));
        assert!(!band.close(10.0, 10.6));
        let rel = Tolerance { abs: 0.0, rel: 0.1, ignore: Vec::new() };
        assert!(rel.close(100.0, 109.0));
        assert!(!rel.close(100.0, 112.0));
    }
}
