//! The library half of `repro`: the pieces of the reproduction harness
//! that other crates (the `bench` harness, integration tests) drive
//! programmatically rather than through the CLI.
//!
//! - [`par`] — the std-only parallel map every sweep fans out through,
//!   with its completion-hook/progress surface.
//! - [`util`] — tuning levels, topology builders, formatting shared by
//!   every experiment.
//! - [`scenario`] — the one builder that assembles topology → tuning →
//!   faults → observability → run.
//! - [`autotune`] — the collective autotuner's candidate grid and its
//!   decision-table rendering over campaign rows.
//! - [`campaign`] — the sweep engine: expands a declarative spec into
//!   scenario runs with digest-keyed caching and writes the run ledger.
//! - [`ledger`] — cross-run analysis over ledgers: `diff`, `top`,
//!   `report`.
//!
//! The table/figure subcommands stay in the binary; everything here is
//! deliberately free of CLI state (no `--dat` globals, no `exit`).

pub mod autotune;
pub mod campaign;
pub mod ledger;
pub mod par;
pub mod scenario;
pub mod util;
