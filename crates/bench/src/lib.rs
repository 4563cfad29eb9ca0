//! # lejit-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! LeJIT paper's evaluation (§4), plus the ablations called out in
//! DESIGN.md. Each `src/bin/*.rs` binary reproduces one figure and prints
//! the same rows/series the paper reports. Performance claims are not made
//! here: they are parent/change comparisons from the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`).
//!
//! Scale is controlled by the `LEJIT_SCALE` environment variable: `tiny`
//! (seconds; the smoke tests), `quick` (default; minutes) or `full` (used
//! for EXPERIMENTS.md).

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod setup;

pub use report::{print_table, Table};
pub use setup::{BenchEnv, Scale};
