//! `simbench`: the simulator's benchmark.
//!
//! One command runs a named workload from a single process, checks the
//! simulated outputs against pinned reference outputs, and prints its
//! metrics by name and unit, the last line being one JSON object. With
//! `--trace 0` it measures the end-to-end metrics with tracing off; with
//! `--trace 1` it makes a separate traced run that splits host time by
//! layer. See `README.md` beside this crate for the workloads, the
//! metric → layer → workload map and how to run it.

pub mod check;
pub mod clock;
pub mod report;
pub mod trace;
pub mod workload;
