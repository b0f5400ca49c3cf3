//! Occamy — a reproduction of *"Occamy: A Preemptive Buffer Management for
//! On-chip Shared-memory Switches"* (EuroSys 2025) in Rust.
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! - [`core`] — the BM algorithms (DT, Occamy, ABM, Pushout, …) and
//!   shared-buffer accounting.
//! - [`hw`] — the cell-level traffic-manager model, head-drop circuits and
//!   the hardware cost model (paper Table 1).
//! - [`sim`] — the discrete-event network simulator (links, shared-memory
//!   and crosspoint-queued switches, DCTCP/CUBIC/Reno hosts, CBR sources,
//!   a single-switch testbed and leaf-spine, fat-tree and 3-tier fabrics,
//!   fault injection).
//! - [`traffic`] — workload generators (web-search CDF, incast queries,
//!   all-to-all, permutation, all-reduce double binary trees).
//! - [`spec`] — declarative TOML/JSON scenario descriptions (parsed,
//!   validated and re-emittable; `occamy-bench run --spec` compiles them
//!   into experiment grids).
//! - [`stats`] — FCT/QCT records, percentiles, quantile sketches, table,
//!   CSV and JSON output.
//!
//! # Example
//!
//! ```
//! use occamy::core::{BufferManager, BufferState, Occamy, QueueConfig, Verdict};
//!
//! let mut bm = Occamy::new(QueueConfig::uniform(8, 10_000_000_000, 8.0));
//! let mut state = BufferState::new(410_000, 8);
//! assert_eq!(bm.admit(0, 1_500, &state), Verdict::Accept);
//! state.enqueue(0, 1_500).unwrap();
//! assert_eq!(bm.select_victim(&state), None);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/occamy-bench` for
//! the per-figure experiment harness.

pub use occamy_core as core;
pub use occamy_hw as hw;
pub use occamy_sim as sim;
pub use occamy_spec as spec;
pub use occamy_stats as stats;
pub use occamy_traffic as traffic;
