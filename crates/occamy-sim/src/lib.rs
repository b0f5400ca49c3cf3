//! Discrete-event network simulator for the Occamy experiments.
//!
//! This crate is the substitute for the paper's three evaluation
//! substrates — the Tofino testbed (Figs. 11–12), the DPDK software
//! switch (Figs. 13–16) and ns-3 (Figs. 7, 17–23). It provides:
//!
//! - an event engine with picosecond timestamps and deterministic
//!   tie-breaking ([`EventQueue`], [`World`]);
//! - output-queued shared-memory [`Switch`]es whose admission, ECN
//!   marking and (for Occamy) reactive expulsion are driven by the
//!   `occamy-core` buffer managers, with Tomahawk-style buffer
//!   partitions and a token-bucket model of redundant memory bandwidth;
//! - [`Host`]s running DCTCP / CUBIC / Reno ([`FlowState`]) plus raw
//!   CBR sources ([`CbrSource`]) standing in for Pktgen;
//! - [`topology`] builders: one for the paper's single-switch
//!   testbeds, and one ECMP-routed fabric builder for every
//!   [`topology::FabricTopo`] shape — the 128-host leaf-spine, k-ary
//!   fat-trees and 3-tier (access/aggregation/core) fabrics — with an
//!   oversubscription knob;
//! - [`Metrics`] capturing drops (with buffer / memory-bandwidth
//!   utilization context), queue-length time series, CBR loss and flow
//!   completion records.
//!
//! # Example: two hosts, one switch, one DCTCP flow
//!
//! ```
//! use occamy_sim::topology::{single_switch, BmSpec, SchedKind, SingleSwitchCfg};
//! use occamy_sim::{CcAlgo, FlowDesc, SimConfig, SEC};
//! use occamy_core::BmKind;
//!
//! let mut world = single_switch(SingleSwitchCfg {
//!     host_rates_bps: vec![10_000_000_000; 2],
//!     prop_ps: 1_000_000, // 1 µs
//!     buffer_bytes: 400_000,
//!     classes: 1,
//!     bm: BmSpec::uniform(BmKind::Occamy, 8.0),
//!     sched: SchedKind::Fifo,
//!     sim: SimConfig::default(),
//! });
//! world.add_flow(FlowDesc {
//!     src: 0,
//!     dst: 1,
//!     bytes: 1_000_000,
//!     start_ps: 0,
//!     prio: 0,
//!     cc: CcAlgo::Dctcp,
//!     query: None,
//!     is_query: false,
//! });
//! world.run_to_completion(SEC);
//! assert!(world.all_flows_done());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cbr;
mod config;
mod crosspoint;
mod engine;
mod event;
mod faults;
mod host;
mod metrics;
mod packet;
mod par;
mod routing;
mod scheduler;
mod switch;
pub mod telemetry;
pub mod time;
mod timer;
pub mod topology;
mod transport;
mod world;

pub use cbr::CbrSource;
pub use config::SimConfig;
pub use crosspoint::{Crosspoint, XpSched};
pub use event::{Event, EventQueue, NodeId, PacketDesc, PacketId};
pub use faults::{
    Drain, FaultKind, FaultSchedule, FaultSpec, HostChurn, LinkFlap, ResilienceCounters,
};
pub use host::{Host, HostLink};
pub use metrics::{CbrCounters, DropCounters, Metrics, QueueSample, SampleLog};
pub use packet::{FlowId, Packet, PacketKind, HDR_BYTES};
pub use par::ParStats;
pub use routing::{ecmp_hash, RoutingTable};
pub use scheduler::Scheduler;
pub use switch::{BufferPartition, Link, Switch, SwitchPort};
pub use time::{ps_to_ms, ps_to_ns, tx_time_ps, Ps, MS, NS, SEC, US};
pub use transport::{CcAlgo, FlowCold, FlowHot, FlowRx, FlowState, FlowTable, TransportConsts};
pub use world::{CbrDesc, FlowDesc, World};
