//! Metrics and reporting for the Occamy experiments.
//!
//! The paper evaluates buffer management through flow-level metrics:
//! Flow Completion Time (FCT), Query Completion Time (QCT — the completion
//! of *all* flows belonging to one incast query), their slowdowns versus
//! an idealized no-contention baseline, and tail percentiles. This crate
//! provides those building blocks: flow and query records ([`FlowSet`]),
//! exact means and percentiles ([`Summary`]), streaming quantiles and
//! rates for live telemetry ([`QuantileSketch`], [`EwmaRate`]), plain-text
//! tables with CSV output ([`Table`]), and the one JSON reader and writer
//! ([`Json`]) behind reports, shard files and JSON specs.

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
