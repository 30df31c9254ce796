//! Golden safety flags: `benchmark/golden/<workload>.json`, one entry per
//! catalogue op, written by `--bless`.
//!
//! Not every op is expected to hold: the gauntlet pins attacks that defeat
//! a family by design, and `net_chaos` pins stalls beyond the synchronous
//! envelope. The golden file records which of `consistent` / `valid` /
//! `terminated` held when blessed; only a flag that was `true` and is now
//! `false` is a failure.

use std::collections::BTreeMap;
use std::path::Path;

use ba_bench::baseline::{parse_json, Json};
use ba_bench::RunRecord;

use crate::output::json_str;

/// The verdict flags of one execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Flags {
    pub consistent: bool,
    pub valid: bool,
    pub terminated: bool,
}

impl Flags {
    pub const NAMES: [&'static str; 3] = ["consistent", "valid", "terminated"];

    pub fn of(record: &RunRecord) -> Flags {
        Flags {
            consistent: record.flag("consistent"),
            valid: record.flag("valid"),
            terminated: record.flag("terminated"),
        }
    }

    fn as_array(self) -> [bool; 3] {
        [self.consistent, self.valid, self.terminated]
    }

    /// The first flag that `self` (golden) holds and `now` does not.
    pub fn regression(self, now: Flags) -> Option<&'static str> {
        let (was, is) = (self.as_array(), now.as_array());
        (0..3).find(|&i| was[i] && !is[i]).map(|i| Flags::NAMES[i])
    }
}

/// The golden flags of one workload, keyed by op label.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Golden(pub BTreeMap<String, Flags>);

impl Golden {
    pub fn load(dir: &Path, workload: &str) -> Result<Golden, String> {
        let path = dir.join(format!("{workload}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e} (run with --bless to write it)", path.display()))?;
        Golden::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = parse_json(text)?;
        let ops = doc.get("ops").and_then(Json::as_arr).ok_or("no \"ops\" array")?;
        let mut golden = BTreeMap::new();
        for entry in ops {
            let label = entry.get("op").and_then(Json::as_str).ok_or("entry without \"op\"")?;
            let flag = |name: &str| match entry.get(name) {
                Some(Json::Bool(b)) => Ok(*b),
                _ => Err(format!("op {label:?}: flag {name:?} missing or not a boolean")),
            };
            let flags = Flags {
                consistent: flag("consistent")?,
                valid: flag("valid")?,
                terminated: flag("terminated")?,
            };
            if golden.insert(label.to_string(), flags).is_some() {
                return Err(format!("op {label:?} listed twice"));
            }
        }
        Ok(Golden(golden))
    }

    /// One op per line, in label order, so a re-bless diffs cleanly.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"ops\": [\n");
        for (i, (label, f)) in self.0.iter().enumerate() {
            let sep = if i + 1 < self.0.len() { "," } else { "" };
            out.push_str(&format!(
                "  {{\"op\": {}, \"consistent\": {}, \"valid\": {}, \"terminated\": {}}}{sep}\n",
                json_str(label),
                f.consistent,
                f.valid,
                f.terminated,
            ));
        }
        out.push_str("]}\n");
        out
    }

    pub fn write(&self, dir: &Path, workload: &str) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{workload}.json"));
        std::fs::write(&path, self.render(workload)).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// How many ops are pinned as not holding every flag.
    pub fn pinned(&self) -> usize {
        self.0.values().filter(|f| f.as_array() != [true; 3]).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_round_trips_and_only_true_to_false_regresses() {
        let ok = Flags { consistent: true, valid: true, terminated: true };
        let stall = Flags { terminated: false, ..ok };
        let mut golden = Golden::default();
        golden.0.insert("net/cell \"a\"#0".into(), ok);
        golden.0.insert("net/cell#1".into(), stall);
        let back = Golden::parse(&golden.render("net_chaos")).expect("renders valid JSON");
        assert_eq!(back, golden);
        assert_eq!(back.pinned(), 1);

        assert_eq!(ok.regression(stall), Some("terminated"));
        assert_eq!(stall.regression(ok), None, "false → true is not a failure");
        assert_eq!(stall.regression(stall), None, "a pinned stall stays allowed");
        assert!(Golden::parse("{\"ops\": [{\"op\": \"x\", \"valid\": true}]}").is_err());
    }
}
