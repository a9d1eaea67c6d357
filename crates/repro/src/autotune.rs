//! The collective autotuner behind `repro autotune-coll`: its candidate
//! grid and the decision tables rendered from its campaign rows.
//!
//! Hunold-style selection tuning: run every candidate algorithm for each
//! (operation × message size × topology × MPI profile) cell. The grid is
//! the [`Spec::Autotune`](crate::campaign::Spec::Autotune) campaign spec,
//! so its cells simulate, cache and land in the ledger through
//! [`crate::campaign::run`] like any other sweep. This module turns the
//! rows' virtual elapsed times into per-profile *decision tables* (the
//! winning algorithm per cell, as gnuplot-ready `.dat` plus a JSON record
//! of every measured time).
//!
//! The interesting output is the LAN / WAN divergence list: cells where
//! the best algorithm on a single cluster differs from the best on the
//! four-site grid — the paper's core claim that grid collectives need
//! different algorithms than cluster collectives.

use std::collections::BTreeMap;

use desim::obs::json::{self, Value};
use desim::obs::ledger::RunRow;
use mpisim::{CollAlgo, CollConfig, CollOp, CollSel};

use crate::campaign::{Cell, Net};
use crate::util::{size_label, TuningLevel};

/// Rank count for every cell (the paper's 16-node testbeds).
pub const RANKS: usize = 16;
/// Back-to-back repetitions per measurement (steady state, not cold).
pub const ROUNDS: u32 = 4;

/// The MPI software profiles to tune for, by table name.
pub const PROFILES: [(&str, TuningLevel); 2] = [
    ("untuned", TuningLevel::Default),
    ("tuned", TuningLevel::FullyTuned),
];

/// The two placements, by table name: 16 ranks on 16 Rennes nodes, or 4
/// ranks on each of the four Fig. 8 sites.
pub const NETS: [(Net, &str); 2] = [(Net::Lan16, "lan"), (Net::Wan4x4, "wan4")];

/// The tuned operations.
pub const OPS: [CollOp; 2] = [CollOp::Bcast, CollOp::Allreduce];

/// Message sizes of the full grid, or of the `--quick` subset.
pub fn sizes(quick: bool) -> &'static [u64] {
    if quick {
        &[1 << 10, 64 << 10, 1 << 20]
    } else {
        &[1 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20]
    }
}

/// Candidate selections per operation: every flat algorithm that applies
/// plus the grid-aware two-level variants.
pub fn candidates(op: CollOp) -> Vec<CollSel> {
    match op {
        CollOp::Bcast => vec![
            CollSel::flat(CollAlgo::Linear),
            CollSel::flat(CollAlgo::Chain),
            CollSel::flat(CollAlgo::Pipeline),
            CollSel::flat(CollAlgo::Binary),
            CollSel::flat(CollAlgo::Binomial),
            CollSel::flat(CollAlgo::ScatterAllgather),
            CollSel::two_level(CollAlgo::Binomial),
            CollSel::two_level(CollAlgo::Pipeline),
        ],
        _ => vec![
            CollSel::flat(CollAlgo::Ring),
            CollSel::flat(CollAlgo::RecursiveDoubling),
            CollSel::flat(CollAlgo::Rabenseifner),
            CollSel::flat(CollAlgo::Binomial),
            CollSel::two_level(CollAlgo::Ring),
            CollSel::two_level(CollAlgo::RecursiveDoubling),
        ],
    }
}

/// Table name of a tuned operation.
pub fn op_name(op: CollOp) -> &'static str {
    match op {
        CollOp::Bcast => "bcast",
        _ => "allreduce",
    }
}

/// One profile's decision table.
pub struct Table {
    /// Profile name (`untuned`, `tuned`), the suffix of the file names.
    pub profile: &'static str,
    /// The profile's tuning level.
    pub level: TuningLevel,
    /// Human-readable table: winner and runner-up per (op, size, topology).
    pub text: String,
    /// Body of `coll_decision_<profile>.dat`.
    pub dat: String,
    /// Body of `coll_decision_<profile>.json`: every candidate's time.
    pub json: String,
}

/// Everything the autotuner reports.
pub struct Decisions {
    /// One table per profile, in [`PROFILES`] order.
    pub tables: Vec<Table>,
    /// `profile/class: op size -> lan X vs wan4 Y` for every cell whose
    /// winner differs between the LAN and the four-site WAN.
    pub divergences: Vec<String>,
}

fn quote(s: &str) -> String {
    json::write(&Value::Str(s.to_string()))
}

/// Render the decision tables from the rows of an autotune campaign
/// (`quick` picks the size subset). Errors name the first cell without
/// a row.
pub fn decide(quick: bool, rows: &[RunRow]) -> Result<Decisions, String> {
    let elapsed: BTreeMap<&str, u64> = rows
        .iter()
        .map(|r| (r.scenario.as_str(), r.elapsed_ns))
        .collect();
    let secs = |cell: Cell| {
        let key = cell.scenario_key();
        elapsed
            .get(key.as_str())
            .map(|&ns| ns as f64 / 1e9)
            .ok_or_else(|| format!("no autotune row for {key}"))
    };
    let coll_cfg = CollConfig::new();
    let mut tables = Vec::new();
    let mut divergences = Vec::new();
    for (profile, level) in PROFILES {
        let mut text = format!(
            "{:<10} {:>8} {:>6} {:>22} {:>12} {:>22}\n",
            "op", "size", "topo", "winner", "secs", "runner-up"
        );
        let mut dat = String::from("# op bytes class topo winner secs runner_up runner_secs\n");
        let mut json_cells: Vec<String> = Vec::new();
        for op in OPS {
            for &bytes in sizes(quick) {
                let class = coll_cfg.size_class(bytes).name();
                let mut winners: Vec<String> = Vec::new();
                for (net, topo) in NETS {
                    let mut ranked: Vec<(f64, CollSel)> = Vec::new();
                    for sel in candidates(op) {
                        ranked.push((secs(Cell::autotune(level, net, op, sel, bytes))?, sel));
                    }
                    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let (best_t, best) = ranked[0];
                    let (next_t, next) = ranked[1];
                    text.push_str(&format!(
                        "{:<10} {:>8} {:>6} {:>22} {:>12.6} {:>22}\n",
                        op_name(op),
                        size_label(bytes),
                        topo,
                        best.name(),
                        best_t,
                        format!("{} ({:.6})", next.name(), next_t)
                    ));
                    dat.push_str(&format!(
                        "{} {} {} {} {} {:.9e} {} {:.9e}\n",
                        op_name(op),
                        bytes,
                        class,
                        topo,
                        best.name(),
                        best_t,
                        next.name(),
                        next_t
                    ));
                    let times: Vec<String> = ranked
                        .iter()
                        .map(|(t, sel)| format!("      {}: {t:.9e}", quote(&sel.name())))
                        .collect();
                    json_cells.push(format!(
                        "  {{\n    \"op\": {},\n    \"bytes\": {},\n    \"class\": {},\n    \
                         \"topo\": {},\n    \"winner\": {},\n    \"times\": {{\n{}\n    }}\n  }}",
                        quote(op_name(op)),
                        bytes,
                        quote(class),
                        quote(topo),
                        quote(&best.name()),
                        times.join(",\n")
                    ));
                    winners.push(best.name());
                }
                if winners[0] != winners[1] {
                    divergences.push(format!(
                        "{profile}/{class}: {} {} -> {} {} vs {} {}",
                        op_name(op),
                        size_label(bytes),
                        NETS[0].1,
                        winners[0],
                        NETS[1].1,
                        winners[1]
                    ));
                }
            }
        }
        let json = format!(
            "{{\n  \"profile\": {},\n  \"ranks\": {RANKS},\n  \"rounds\": {ROUNDS},\n  \
             \"cells\": [\n{}\n  ]\n}}\n",
            quote(profile),
            json_cells.join(",\n")
        );
        tables.push(Table {
            profile,
            level,
            text,
            dat,
            json,
        });
    }
    Ok(Decisions {
        tables,
        divergences,
    })
}
