//! Output checks against reference outputs pinned in
//! `reference/outputs.txt`.
//!
//! A simulated run must reproduce its wire-level message and byte counts
//! exactly and every rank's finish time within [`REL_TOL`]; a campaign
//! row must be clean with its virtual elapsed time within [`REL_TOL`].
//! Digests are deliberately not pinned: their definition may change while
//! the simulated physics stays put.

use std::collections::BTreeMap;

use desim::obs::ledger::RunRow;
use mpisim::RunReport;

/// Relative tolerance on virtual times (DESIGN §14's classic-vs-PDES
/// bound).
pub const REL_TOL: f64 = 1e-9;

/// The reference outputs compiled into the benchmark.
pub const PINNED: &str = include_str!("../reference/outputs.txt");

/// What one simulated run must produce.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRef {
    /// Wire-level messages.
    pub wire_messages: u64,
    /// Wire-level bytes.
    pub wire_bytes: u64,
    /// Whether the run drained every message.
    pub clean: bool,
    /// Per-rank virtual finish times, ns.
    pub finish_ns: Vec<u64>,
}

impl RunRef {
    /// The reference a run report would pin.
    pub fn of(report: &RunReport) -> RunRef {
        RunRef {
            wire_messages: report.stats.wire_messages,
            wire_bytes: report.stats.wire_bytes,
            clean: report.clean,
            finish_ns: report.per_rank.iter().map(|d| d.as_nanos()).collect(),
        }
    }
}

/// What one campaign cell must produce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellRef {
    /// Virtual elapsed, ns.
    pub elapsed_ns: u64,
    /// Whether the run drained every message.
    pub clean: bool,
}

/// Reference outputs: simulated runs by case key, campaign cells by
/// scenario key.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    /// Simulated runs.
    pub runs: BTreeMap<String, RunRef>,
    /// Campaign cells.
    pub cells: BTreeMap<String, CellRef>,
}

fn close(got: u64, want: u64) -> bool {
    (got as f64 - want as f64).abs() <= REL_TOL * (want as f64).max(1.0)
}

impl Reference {
    /// The pinned reference.
    pub fn pinned() -> Reference {
        Reference::parse(PINNED).expect("pinned reference parses")
    }

    /// Parse the text form written by [`Reference::to_text`].
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut r = Reference::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| format!("reference line {}: {what}", i + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad("bad number"));
            let flag = |s: &str| match s {
                "1" => Ok(true),
                "0" => Ok(false),
                _ => Err(bad("bad clean flag")),
            };
            match f.as_slice() {
                ["run", key, msgs, bytes, clean, finish] => {
                    let finish_ns = finish.split(',').map(num).collect::<Result<_, _>>()?;
                    r.runs.insert(
                        key.to_string(),
                        RunRef {
                            wire_messages: num(msgs)?,
                            wire_bytes: num(bytes)?,
                            clean: flag(clean)?,
                            finish_ns,
                        },
                    );
                }
                ["cell", key, elapsed, clean] => {
                    r.cells.insert(
                        key.to_string(),
                        CellRef {
                            elapsed_ns: num(elapsed)?,
                            clean: flag(clean)?,
                        },
                    );
                }
                _ => {
                    return Err(bad(
                        "expected `run KEY MSGS BYTES CLEAN NS,..` or `cell KEY NS CLEAN`",
                    ))
                }
            }
        }
        Ok(r)
    }

    /// The text form: one `run` or `cell` line per entry, sorted by key.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "# Reference outputs of the simbench workloads. Regenerate only after an\n\
             # intended change of simulated behaviour, with\n\
             #   cargo run --release --offline --manifest-path simbench/Cargo.toml -- \\\n\
             #     --record-reference simbench/reference/outputs.txt\n\
             # run  KEY WIRE_MESSAGES WIRE_BYTES CLEAN PER_RANK_FINISH_NS,...\n\
             # cell SCENARIO ELAPSED_NS CLEAN\n",
        );
        for (key, r) in &self.runs {
            let finish: Vec<String> = r.finish_ns.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "run {key} {} {} {} {}\n",
                r.wire_messages,
                r.wire_bytes,
                u8::from(r.clean),
                finish.join(",")
            ));
        }
        for (key, c) in &self.cells {
            out.push_str(&format!(
                "cell {key} {} {}\n",
                c.elapsed_ns,
                u8::from(c.clean)
            ));
        }
        out
    }

    /// Check one simulated run against its reference.
    pub fn check_run(&self, key: &str, report: &RunReport) -> Result<(), String> {
        let want = self
            .runs
            .get(key)
            .ok_or_else(|| format!("{key}: no reference output"))?;
        let got = RunRef::of(report);
        if !got.clean || !want.clean {
            return Err(format!("{key}: run left messages undrained"));
        }
        if (got.wire_messages, got.wire_bytes) != (want.wire_messages, want.wire_bytes) {
            return Err(format!(
                "{key}: wire {} msgs / {} B, reference {} msgs / {} B",
                got.wire_messages, got.wire_bytes, want.wire_messages, want.wire_bytes
            ));
        }
        if got.finish_ns.len() != want.finish_ns.len() {
            return Err(format!(
                "{key}: {} ranks, reference {}",
                got.finish_ns.len(),
                want.finish_ns.len()
            ));
        }
        for (rank, (&g, &w)) in got.finish_ns.iter().zip(&want.finish_ns).enumerate() {
            if !close(g, w) {
                return Err(format!(
                    "{key}: rank {rank} finished at {g} ns, reference {w} ns"
                ));
            }
        }
        Ok(())
    }

    /// Check one campaign row against its cell's reference.
    pub fn check_row(&self, row: &RunRow) -> Result<(), String> {
        let key = &row.scenario;
        let want = self
            .cells
            .get(key)
            .ok_or_else(|| format!("{key}: no reference output"))?;
        if !row.clean || !want.clean {
            return Err(format!("{key}: run left messages undrained"));
        }
        if !close(row.elapsed_ns, want.elapsed_ns) {
            return Err(format!(
                "{key}: elapsed {} ns, reference {} ns",
                row.elapsed_ns, want.elapsed_ns
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_reference_round_trips() {
        let r = Reference::pinned();
        assert!(!r.runs.is_empty() && !r.cells.is_empty());
        assert_eq!(Reference::parse(&r.to_text()).unwrap(), r);
    }

    #[test]
    fn parse_reports_the_bad_line() {
        let err = Reference::parse("# c\nrun a 1 2 1 x\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn tolerance_is_relative() {
        assert!(close(1_000_000_000_000, 1_000_000_000_001));
        assert!(!close(1_000_000, 1_000_001));
    }
}
