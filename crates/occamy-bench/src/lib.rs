//! Experiment harness for the Occamy reproduction: a declarative
//! **scenario registry** with a **parallel runner**.
//!
//! Every table and figure of the paper (plus extension studies) is one
//! [`scenario::Scenario`] implementation — a named parameter grid whose
//! independent cells the runner executes across worker threads with
//! deterministic per-cell seeds. The pieces:
//!
//! - [`scenario`] — the `Scenario` trait, grid builder ([`scenario::Grid`]),
//!   per-cell results and report assembly;
//! - [`registry`] — the central table mapping names (`fig12`, `table01`,
//!   …) to scenario implementations;
//! - [`runner`] — parallel cell execution, table/CSV printing and the
//!   machine-readable `BENCH_<name>.json` sink;
//! - [`scenarios`] — the reusable testbed builders behind the grids:
//!   [`scenarios::TestbedScenario`] (the 8-host / 10 Gbps / 410 KB DPDK
//!   software-switch setup of §6.2, Figs. 13–16, and the §3.1 motivation
//!   testbed of Fig. 6) and [`scenarios::CbrTestbed`] (the Tofino CBR
//!   micro-testbed of Figs. 3, 11, 12), plus the fabric workload
//!   injector [`scenarios::inject_fabric_workload`];
//! - [`report`] — ideal-FCT model and result aggregation;
//! - [`fabric`] — [`fabric::FabricScenario`], the one fabric builder
//!   (leaf-spine / fat-tree / 3-tier with an oversubscription knob);
//!   [`fabric::FabricScenario::paper_leaf_spine`] is the §6.4 fabric of
//!   Figs. 7, 17–23, dimension-scaled to keep each data point seconds of
//!   wall clock;
//! - [`spec_scenario`] — compiles declarative `occamy-spec` documents
//!   (`occamy-bench run --spec file.toml`) into registry-compatible
//!   scenarios over `FabricScenario`;
//! - [`shard`] — splits a grid into self-contained shard plan files,
//!   executes them independently (possibly on different machines),
//!   journaling each finished cell, and merges the journals into the
//!   byte-identical report a direct run produces (`occamy-bench shard
//!   plan|run|merge`); `shard run --resume` restarts a killed shard
//!   from where its journal stopped, which is also how a long grid
//!   survives a crash on one machine;
//! - [`retry`] — the capped-backoff retry behind the journal appends.
//!
//! # CLI
//!
//! The single `occamy-bench` binary drives everything:
//!
//! ```text
//! cargo run --release -p occamy-bench -- list
//! cargo run --release -p occamy-bench -- run fig12 fig13
//! cargo run --release -p occamy-bench -- all --quick
//! ```
//!
//! Adding a workload is one ~50–150-line module in `src/figs/` plus one
//! registry line — no new binary, no copied topology setup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod figs;
pub mod live;
pub mod registry;
pub mod report;
pub mod retry;
pub mod runner;
pub mod scenario;
pub mod scenarios;
pub mod shard;
pub mod spec_scenario;

/// Returns `true` when quick mode is requested via `OCCAMY_QUICK=1`
/// (shorter runs for CI / smoke testing).
pub fn quick_mode() -> bool {
    std::env::var("OCCAMY_QUICK").is_ok_and(|v| v == "1")
}

/// Returns `true` when `OCCAMY_FREEZE_PERF=1` (or `--freeze-perf`):
/// wall-clock perf measurements are forced to zero so every report
/// artifact is byte-reproducible. Simulation results are unaffected —
/// this only blanks the timing fields (`wall_ms`, `events_per_sec`,
/// `serial_cell_time_ms`, `batch_wall_ms`), which is what lets the CI
/// shard-equivalence gate `cmp` a merged distributed run against a
/// direct single-machine run.
pub fn freeze_perf() -> bool {
    std::env::var("OCCAMY_FREEZE_PERF").is_ok_and(|v| v == "1")
}

/// Returns `true` when `OCCAMY_TELEMETRY=1` (set by `--telemetry` /
/// `--live`): the runner installs the out-of-band telemetry sink and
/// tails the trace bus into `results/<name>_telemetry.jsonl`. Telemetry
/// is read-only over simulation state, so every BENCH/CSV byte is
/// identical with it on or off (CI-enforced).
pub fn telemetry_enabled() -> bool {
    std::env::var("OCCAMY_TELEMETRY").is_ok_and(|v| v == "1")
}

/// Default telemetry snapshot cadence in executed events
/// (`OCCAMY_TELEMETRY_EVERY`; a spec's `[telemetry] every_events`
/// overrides it per cell).
pub fn telemetry_every() -> u64 {
    std::env::var("OCCAMY_TELEMETRY_EVERY")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(50_000)
}

/// Returns `true` when `OCCAMY_LIVE=1` (set by `--live`): the sink also
/// renders the ANSI dashboard to stderr, and the runner suppresses its
/// per-cell start lines so they don't tear the display.
pub fn live_mode() -> bool {
    std::env::var("OCCAMY_LIVE").is_ok_and(|v| v == "1")
}
