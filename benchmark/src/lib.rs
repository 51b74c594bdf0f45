//! # sb-perfbench — the reproduction's end-to-end benchmark
//!
//! Workloads, each run in its own process by the `sbbench` binary (see
//! `benchmark/README.md`):
//!
//! - `table5_quick` ([`table5`]): the `--quick` Table 5 grid;
//! - `serve_science` ([`serve`]): open-loop traffic of the released
//!   datasets' statements over full-size snapshots.
//!
//! The benchmark only calls the reproduction's public functions and
//! changes none of its code.

pub mod openloop;
pub mod report;
pub mod serve;
pub mod table5;
pub mod trace;
pub mod util;

/// The seed the benchmark was tuned on.
pub const DEFAULT_SEED: u64 = 2024;

/// A seed kept out of tuning, to confirm later gains on.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// The workloads of `BENCHMARK.json`, in the order `--workload all`
/// runs them.
pub const WORKLOADS: [&str; 2] = ["table5_quick", "serve_science"];
