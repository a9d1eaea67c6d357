//! The NPB experiment matrix of §4.3: Figs. 10–13 and Table 2.

use std::collections::HashMap;

use desim::{SimDuration, SimError, SimTime};
use mpisim::MpiImpl;
use npb::{NasBenchmark, NasClass, NasRun};

use crate::par::par_map;
use crate::scenario::Scenario;
use crate::util::TuningLevel;

/// Node layouts used by the paper's NPB experiments.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layout {
    /// All ranks on the Rennes cluster.
    Cluster(usize),
    /// Ranks split evenly across Rennes and Nancy.
    Split(usize, usize),
}

impl Layout {
    /// Total rank count.
    pub fn ranks(self) -> usize {
        match self {
            Layout::Cluster(n) => n,
            Layout::Split(a, b) => a + b,
        }
    }

    /// Display label.
    pub fn label(self) -> String {
        match self {
            Layout::Cluster(n) => format!("{n} nodes, one cluster"),
            Layout::Split(a, b) => format!("{a}+{b} nodes, two clusters"),
        }
    }
}

/// Outcome of one NPB execution.
#[derive(Clone, Copy, Debug)]
pub enum NasOutcome {
    /// Estimated full-run time.
    Time(SimDuration),
    /// The implementation cannot finish this kernel in this configuration
    /// (MPICH-Madeleine on BT/SP over the WAN, §4.3).
    Timeout,
}

impl NasOutcome {
    /// Seconds, if the run finished.
    pub fn secs(self) -> Option<f64> {
        match self {
            NasOutcome::Time(d) => Some(d.as_secs_f64()),
            NasOutcome::Timeout => None,
        }
    }
}

/// Run one benchmark in one configuration (paper methodology: tuned TCP
/// and MPI; best of repeated runs — the simulator is deterministic, so a
/// single run suffices).
pub fn run_nas(bench: NasBenchmark, class: NasClass, id: MpiImpl, layout: Layout) -> NasOutcome {
    let level = TuningLevel::FullyTuned;
    // The paper observed the MPICH-Madeleine timeouts in the 8+8 runs
    // (§4.3); the 2+2 configuration of Fig. 11 completed.
    let crosses_wan = matches!(layout, Layout::Split(..));
    if crosses_wan && layout.ranks() >= 16 && id.profile().grid_timeouts.contains(&bench.name()) {
        return NasOutcome::Timeout;
    }
    let scenario = match layout {
        Layout::Cluster(n) => Scenario::npb(n, n, 0, level, id),
        Layout::Split(a, b) => Scenario::npb(a.max(b), a, b, level, id),
    };
    let run = NasRun::new(bench, class);
    // A generous virtual deadline (one hour of simulated time for the
    // reduced-iteration window) backstops the known-failure list: any
    // future pathology surfaces as a timeout, exactly as mpirun's would.
    let report = match scenario
        .deadline(SimTime::from_nanos(3_600_000_000_000))
        .run(run.program())
    {
        Ok(r) => r,
        Err(SimError::TimeLimitExceeded(_)) => return NasOutcome::Timeout,
        Err(e) => panic!("NAS run failed: {e}"),
    };
    NasOutcome::Time(run.estimate(&report))
}

/// NPB outcomes by (kernel, implementation, layout): the Figs. 10–13
/// matrix.
pub struct NasMatrix(HashMap<(NasBenchmark, MpiImpl, Layout), NasOutcome>);

impl NasMatrix {
    /// One cell's outcome. Panics if its layout was not run.
    pub fn get(&self, bench: NasBenchmark, id: MpiImpl, layout: Layout) -> NasOutcome {
        self.0[&(bench, id, layout)]
    }
}

/// Run all eight kernels under all four implementations on each of
/// `layouts`, simulating each distinct cell once, in one parallel sweep.
pub fn nas_matrix(class: NasClass, layouts: &[Layout]) -> NasMatrix {
    let mut cells: Vec<(NasBenchmark, MpiImpl, Layout)> = Vec::new();
    for &layout in layouts {
        for bench in NasBenchmark::ALL {
            for id in MpiImpl::ALL {
                if !cells.contains(&(bench, id, layout)) {
                    cells.push((bench, id, layout));
                }
            }
        }
    }
    let outcomes = par_map(&cells, |&(bench, id, layout)| {
        run_nas(bench, class, id, layout)
    });
    NasMatrix(cells.into_iter().zip(outcomes).collect())
}

/// Table 2: communication profile of each kernel (class B, 16 ranks, one
/// cluster, MPICH2 — the "modified MPI implementation" instrumentation).
pub struct Table2Row {
    /// Kernel.
    pub bench: NasBenchmark,
    /// "P. to P." or "Collective".
    pub comm_type: &'static str,
    /// Point-to-point (size → count), whole run (extrapolated).
    pub p2p: Vec<(u64, u64, u64)>,
    /// Collective calls ((op, size) → count), whole run (extrapolated).
    pub collectives: Vec<(String, u64, u64)>,
}

/// Generate Table 2 rows by instrumented runs.
pub fn table2(class: NasClass) -> Vec<Table2Row> {
    par_map(&NasBenchmark::ALL, |&bench| {
        let run = NasRun::new(bench, class);
        let report = Scenario::npb(16, 16, 0, TuningLevel::FullyTuned, MpiImpl::Mpich2)
            .run(run.program())
            .expect("table2 run completes");
        // Extrapolate observed counts (warmup + timed window) to the
        // full iteration count.
        let scale = run.full_iterations() as f64 / (run.warmup + run.timed).max(1) as f64;
        let p2p = report
            .stats
            .p2p_buckets()
            .into_iter()
            .map(|(lo, hi, n)| (lo, hi, (n as f64 * scale) as u64))
            .collect();
        let collectives = report
            .stats
            .collective_calls
            .iter()
            .map(|((op, sz), &n)| (op.clone(), *sz, (n as f64 * scale) as u64))
            .collect();
        Table2Row {
            bench,
            comm_type: if bench.is_collective() {
                "Collective"
            } else {
                "P. to P."
            },
            p2p,
            collectives,
        }
    })
}
