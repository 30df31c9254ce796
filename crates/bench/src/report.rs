//! Structured report rendering: markdown table helpers, CSV, and the
//! `BENCH_*.json` schema.
//!
//! The JSON and CSV writers are hand-rolled (the build environment is
//! offline — no serde) and fully deterministic: cells in grid order, runs
//! in seed order, values in recording order. That determinism is what the
//! `--threads 1` vs `--threads N` byte-identity test pins down.

use std::fmt::Display;
use std::fmt::Write as _;

use crate::sweep::{CellReport, RunRecord, SweepReport};

/// Prints a markdown-style table row.
pub fn row<D: Display>(cells: &[D]) {
    let mut line = String::from("|");
    for c in cells {
        line.push_str(&format!(" {c} |"));
    }
    println!("{line}");
}

/// Prints a markdown-style header with separator.
pub fn header(cells: &[&str]) {
    row(cells);
    let mut line = String::from("|");
    for _ in cells {
        line.push_str("---|");
    }
    println!("{line}");
}

/// JSON string escaping (control characters, quotes, backslashes).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = JsonEscaped(&mut out).write_str(s);
    out
}

/// A writer that JSON-escapes whatever is formatted into it, appending to
/// the wrapped string (so a `Display` value lands in a JSON string without
/// an intermediate allocation).
pub(crate) struct JsonEscaped<'a>(pub &'a mut String);

impl std::fmt::Write for JsonEscaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let out = &mut *self.0;
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
                c => out.push(c),
            }
        }
        Ok(())
    }
}

/// Stable JSON rendering of an observable: integral values without a
/// fractional part, everything else via Rust's shortest-roundtrip `f64`
/// display (deterministic across platforms).
pub(crate) fn json_number(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no NaN/inf; encode as null (observables should never
        // produce these).
        return "null".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The `scenario` JSON object of a cell (single line, no trailing newline).
fn scenario_obj(cell: &CellReport) -> String {
    let sc = &cell.scenario;
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"label\": \"{}\", \"n\": {}, \"f\": {}, \"seed_offset\": {}, \"seeds\": {}",
        json_escape(&sc.label),
        sc.n,
        sc.f,
        sc.seed_offset,
        cell.runs.len(),
    );
    for (key, value) in sc.describe() {
        let _ = write!(out, ", \"{key}\": \"{}\"", json_escape(&value));
    }
    out.push('}');
    out
}

/// A run's observables with repeated names **grouped** in first-occurrence
/// order: each distinct name once, with all its rendered samples in
/// recording order — the canonical order every renderer (JSON, CSV) and the
/// distributed wire share.
fn grouped(run: &RunRecord) -> Vec<(&str, Vec<String>)> {
    let mut groups: Vec<(&str, Vec<String>)> = Vec::new();
    for (name, value) in &run.values {
        let name = name.as_ref();
        match groups.iter_mut().find(|(seen, _)| *seen == name) {
            Some((_, samples)) => samples.push(json_number(*value)),
            None => groups.push((name, vec![json_number(*value)])),
        }
    }
    groups
}

/// One run's JSON object `{"seed": N, "values": {...}}` (single line).
/// Repeated observable names flatten into arrays, preserving order.
fn run_obj(run: &RunRecord) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"seed\": {}, \"values\": {{", run.seed);
    for (i, (name, samples)) in grouped(run).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        if samples.len() == 1 {
            let _ = write!(out, "{sep}\"{name}\": {}", samples[0]);
        } else {
            let _ = write!(out, "{sep}\"{name}\": [{}]", samples.join(", "));
        }
    }
    out.push_str("}}");
    out
}

/// The cell-level quarantine record (single line, no leading separator).
fn error_obj(err: &crate::sweep::CellError) -> String {
    format!("{{\"attempts\": {}, \"detail\": \"{}\"}}", err.attempts, json_escape(&err.detail))
}

/// The schema tag of the JSONL **cell-stream** format: one self-describing
/// JSON line per finished cell. The same line is both the `soak` binary's
/// on-disk stream unit and the distributed engine's worker→coordinator
/// result message (see `crate::wire` and docs/DISTRIBUTED.md).
pub const CELL_STREAM_SCHEMA: &str = "ba-bench/cell-stream/v1";

/// Renders one executed cell as a single JSON line (no trailing newline) —
/// the cell-stream wire unit shared by the `soak` binary and the
/// distributed sweep engine. The line carries the schema version, a message
/// type, a stream-scoped cell id, the sweep title, and the soak pass
/// number, so the stream is self-describing even when truncated by a kill.
pub fn to_json_cell_line(sweep: &str, id: u64, pass: u64, cell: &CellReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\": \"{CELL_STREAM_SCHEMA}\", \"type\": \"result\", \"id\": {id}, \
         \"sweep\": \"{}\", \"pass\": {pass}, \"scenario\": {}, \"runs\": [{}]",
        json_escape(sweep),
        scenario_obj(cell),
        cell.runs.iter().map(run_obj).collect::<Vec<_>>().join(", "),
    );
    if let Some(err) = &cell.error {
        let _ = write!(out, ", \"error\": {}", error_obj(err));
    }
    out.push('}');
    out
}

/// Renders executed sweeps as one `BENCH_*.json` document (schema
/// `ba-bench/sweep-report/v1`; see the README for the field reference).
pub fn to_json(experiment: &str, reports: &[SweepReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"ba-bench/sweep-report/v1\",");
    let _ = writeln!(out, "  \"experiment\": \"{}\",", json_escape(experiment));
    out.push_str("  \"sweeps\": [\n");
    for (si, sweep) in reports.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"title\": \"{}\",", json_escape(&sweep.title));
        let _ = writeln!(out, "      \"default_seeds\": {},", sweep.seeds);
        out.push_str("      \"cells\": [\n");
        for (ci, cell) in sweep.cells.iter().enumerate() {
            out.push_str("        {\n");
            out.push_str("          \"scenario\": ");
            out.push_str(&scenario_obj(cell));
            out.push_str(",\n");
            out.push_str("          \"runs\": [\n");
            for (ri, run) in cell.runs.iter().enumerate() {
                out.push_str("            ");
                out.push_str(&run_obj(run));
                out.push_str(if ri + 1 < cell.runs.len() { ",\n" } else { "\n" });
            }
            // Quarantined cells carry their structured error record instead
            // of being silently rendered as an empty run list. Clean cells
            // render byte-identically to the pre-distributed format.
            match &cell.error {
                Some(err) => {
                    out.push_str("          ],\n");
                    let _ = writeln!(out, "          \"error\": {}", error_obj(err));
                }
                None => out.push_str("          ]\n"),
            }
            out.push_str(if ci + 1 < sweep.cells.len() { "        },\n" } else { "        }\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if si + 1 < reports.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders executed sweeps as tall CSV:
/// `sweep,scenario,seed,metric,value` (one line per recorded observable).
///
/// Repeated observable names render **grouped** in first-occurrence order
/// — the same canonical order the JSON writer and the distributed wire
/// use — so renderings are identical whether a record was produced
/// in-process or decoded off the wire (decoding cannot recover an
/// interleaved recording order, and no renderer depends on one).
pub fn to_csv(reports: &[SweepReport]) -> String {
    fn csv_field(s: &str) -> String {
        if s.contains([',', '"', '\n']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::from("sweep,scenario,seed,metric,value\n");
    for sweep in reports {
        for cell in &sweep.cells {
            for run in &cell.runs {
                for (name, samples) in grouped(run) {
                    for value in samples {
                        let _ = writeln!(
                            out,
                            "{},{},{},{name},{value}",
                            csv_field(&sweep.title),
                            csv_field(&cell.scenario.label),
                            run.seed,
                        );
                    }
                }
            }
        }
    }
    out
}

/// Markdown rendering of every quarantined cell across `reports`: a count
/// line plus one `sweep/label` line per cell, or `None` when the run is
/// clean. The shared CLI prints this right after execution (ahead of the
/// binaries' own tables) and mirrors it to stderr, so a distributed run
/// never silently omits work it failed to complete.
pub fn quarantine_summary(reports: &[SweepReport]) -> Option<String> {
    let quarantined: Vec<(&str, &CellReport)> = reports
        .iter()
        .flat_map(|r| r.cells.iter().map(move |c| (r.title.as_str(), c)))
        .filter(|(_, c)| c.error.is_some())
        .collect();
    if quarantined.is_empty() {
        return None;
    }
    let mut out = format!("{} quarantined cell(s) — results are incomplete:\n", quarantined.len());
    for (sweep, cell) in quarantined {
        let err = cell.error.as_ref().expect("filtered on error presence");
        let _ = writeln!(
            out,
            "  {sweep}/{}: {} failed attempt(s) — {}",
            cell.scenario.label, err.attempts, err.detail
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ProtocolSpec, Scenario};
    use crate::sweep::CellError;

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(0.5), "0.5");
        assert_eq!(json_number(-2.0), "-2");
        assert_eq!(json_number(f64::NAN), "null");
    }

    fn quarantined_report() -> SweepReport {
        let scenario = Scenario::new("cell", 5, ProtocolSpec::QuadraticHalf);
        let cell = CellReport {
            scenario,
            runs: Vec::new(),
            error: Some(CellError { attempts: 2, detail: "worker died (signal 9)".into() }),
        };
        SweepReport { title: "t".into(), seeds: 2, cells: vec![cell] }
    }

    #[test]
    fn quarantined_cells_surface_in_json_and_summary() {
        let report = quarantined_report();
        let json = to_json("exp", std::slice::from_ref(&report));
        assert!(
            json.contains("\"error\": {\"attempts\": 2, \"detail\": \"worker died (signal 9)\"}")
        );
        let line = to_json_cell_line("t", 0, 0, &report.cells[0]);
        assert!(line.contains("\"error\": {\"attempts\": 2"));
        let summary = quarantine_summary(std::slice::from_ref(&report)).expect("has errors");
        assert!(summary.starts_with("1 quarantined cell(s)"));
        assert!(summary.contains("t/cell: 2 failed attempt(s)"));
    }

    #[test]
    fn csv_groups_interleaved_repeats_canonically() {
        // Interleaved repeated names render grouped in first-occurrence
        // order — the same canonical order as JSON and the wire, so CSV is
        // identical for in-process and wire-decoded records.
        let mut record = RunRecord::new(0);
        record.push("a", 1.0);
        record.push("b", 2.0);
        record.push("a", 3.0);
        let report = SweepReport {
            title: "t".into(),
            seeds: 1,
            cells: vec![CellReport {
                scenario: Scenario::new("c", 5, ProtocolSpec::QuadraticHalf),
                runs: vec![record],
                error: None,
            }],
        };
        let csv = to_csv(&[report]);
        let body: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(body, ["t,c,0,a,1", "t,c,0,a,3", "t,c,0,b,2"]);
    }

    #[test]
    fn clean_reports_have_no_summary_and_no_error_field() {
        let scenario = Scenario::new("cell", 5, ProtocolSpec::QuadraticHalf);
        let report = SweepReport {
            title: "t".into(),
            seeds: 1,
            cells: vec![CellReport { scenario, runs: vec![RunRecord::new(0)], error: None }],
        };
        assert!(quarantine_summary(std::slice::from_ref(&report)).is_none());
        assert!(!to_json("exp", &[report]).contains("\"error\""));
    }
}
