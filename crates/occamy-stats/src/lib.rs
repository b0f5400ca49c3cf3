//! Metrics and reporting for the Occamy experiments.
//!
//! The paper evaluates buffer management through flow-level metrics:
//! Flow Completion Time (FCT), Query Completion Time (QCT — the completion
//! of *all* flows belonging to one incast query), their slowdowns versus
//! an idealized no-contention baseline, tail percentiles, and CDFs of
//! buffer / memory-bandwidth utilization sampled on packet drops (Fig. 7).
//! This crate provides those building blocks plus plain-text table and CSV
//! output used by every experiment binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod records;
mod sketch;
mod summary;
mod table;

pub use json::Json;
pub use records::{FlowClass, FlowRecord, FlowSet, QctRecord, SMALL_FLOW_BYTES};
pub use sketch::{EwmaRate, QuantileSketch};
pub use summary::Summary;
pub use table::{write_csv, Table};
