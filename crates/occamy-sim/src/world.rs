//! The simulation world: owns every component and drives the event loop.
//!
//! The handlers themselves live in [`crate::engine`]; `World` wires
//! them to the global [`EventQueue`] (the serial environment) and, when
//! [`SimConfig::threads`] asks for it and the topology exports event
//! domains, hands the whole run to the deterministic parallel executor
//! in [`crate::par`].

use crate::cbr::CbrSource;
use crate::engine;
use crate::event::{Event, EventQueue};
use crate::faults::{FaultKind, FaultSpec, ResilienceCounters};
use crate::host::Host;
use crate::metrics::{CbrCounters, Metrics};
use crate::packet::FlowId;
use crate::switch::Switch;
use crate::time::Ps;
use crate::transport::{CcAlgo, FlowState, FlowTable, TransportConsts};
use crate::SimConfig;
use occamy_stats::{FlowClass, FlowRecord, FlowSet};

/// Parameters for adding a transport flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowDesc {
    /// Sender host.
    pub src: usize,
    /// Receiver host.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Start time.
    pub start_ps: Ps,
    /// Switch scheduling class.
    pub prio: u8,
    /// Congestion control.
    pub cc: CcAlgo,
    /// Incast query id, if this is a query-response flow.
    pub query: Option<u64>,
    /// Query-class traffic for metric slicing.
    pub is_query: bool,
}

/// Parameters for adding a raw CBR source.
#[derive(Debug, Clone, Copy)]
pub struct CbrDesc {
    /// Emitting host.
    pub host: usize,
    /// Destination host.
    pub dst: usize,
    /// Emission rate in bits/s.
    pub rate_bps: u64,
    /// Payload bytes per packet.
    pub pkt_len: u32,
    /// Switch scheduling class.
    pub prio: u8,
    /// First emission.
    pub start_ps: Ps,
    /// Emission stops at this time.
    pub stop_ps: Ps,
    /// Total payload budget (burst size); `None` = unbounded.
    pub budget_bytes: Option<u64>,
}

/// A registered periodic queue-length sampler (see
/// [`World::add_queue_sampler`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SamplerSpec {
    pub(crate) switch: usize,
    pub(crate) partition: usize,
    pub(crate) interval: Ps,
    pub(crate) until: Ps,
}

/// The simulation world.
pub struct World {
    /// Current simulation time.
    pub now: Ps,
    pub(crate) events: EventQueue,
    /// Global configuration.
    pub cfg: SimConfig,
    /// Cached `SimConfig`-derived transport constants (valid because
    /// `cfg` is never mutated after construction).
    pub consts: TransportConsts,
    /// Hosts, indexed by host id.
    pub hosts: Vec<Host>,
    /// Switches, indexed by switch id.
    pub switches: Vec<Switch>,
    /// All transport flows ever added, split hot/cold/rx (see
    /// [`FlowTable`]).
    pub flows: FlowTable,
    /// All CBR sources ever added.
    pub cbrs: Vec<CbrSource>,
    /// Registered queue samplers.
    pub(crate) samplers: Vec<SamplerSpec>,
    /// Scheduled faults, in registration order (`Event::Fault` payloads
    /// index into this table; immutable once the loop starts).
    pub(crate) faults: Vec<FaultSpec>,
    /// Collected measurements.
    pub metrics: Metrics,
    /// Event-domain partition exported by the topology builder, if any
    /// (see [`crate::topology::DomainMap`]); enables parallel runs.
    pub domains: Option<crate::topology::DomainMap>,
    /// Statistics from the most recent parallel run (`None` until a
    /// run actually takes the parallel path). Purely observational —
    /// never feeds back into simulation state.
    pub par_stats: Option<crate::par::ParStats>,
}

// The parallel experiment runner builds and runs whole worlds on worker
// threads; every component must therefore stay `Send` (no `Rc`,
// `RefCell` or thread-bound state). Enforced at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<World>();
};

impl World {
    /// Creates a world from pre-built hosts and switches (see
    /// [`crate::topology`] for builders).
    pub fn new(cfg: SimConfig, hosts: Vec<Host>, switches: Vec<Switch>) -> Self {
        World {
            now: 0,
            events: EventQueue::new(),
            consts: TransportConsts::new(&cfg),
            cfg,
            hosts,
            switches,
            flows: FlowTable::default(),
            cbrs: Vec::new(),
            samplers: Vec::new(),
            faults: Vec::new(),
            metrics: Metrics::default(),
            domains: None,
            par_stats: None,
        }
    }

    /// Converts every switch to the crosspoint-queued architecture
    /// (see [`crate::Crosspoint`]): each switch's total buffer is
    /// divided into dedicated per-(input, output) crosspoint FIFOs, its
    /// shared-memory partitions stay empty, and `sched` picks which
    /// crosspoint each output serves. Call after the topology builder
    /// and before injecting workload.
    ///
    /// The ingress set of a switch — one input per distinct neighbor
    /// that can send to it — is derived from the built link graph
    /// (hosts by their access link, switches by their ports), so the
    /// map is exact for any topology the builders produce.
    pub fn enable_crosspoint(&mut self, sched: crate::crosspoint::XpSched) {
        use crate::crosspoint::{encode_hop, Crosspoint};
        use crate::NodeId;
        let mut ingress: Vec<Vec<u32>> = vec![Vec::new(); self.switches.len()];
        for h in &self.hosts {
            ingress[h.link.to_switch].push(encode_hop(NodeId::Host(h.id as u32)));
        }
        for sw in &self.switches {
            for p in &sw.ports {
                if let NodeId::Switch(peer) = p.link.to {
                    ingress[peer as usize].push(encode_hop(NodeId::Switch(sw.id as u32)));
                }
            }
        }
        for (si, sw) in self.switches.iter_mut().enumerate() {
            let total: u64 = sw.partitions.iter().map(|p| p.state.capacity()).sum();
            sw.xp = Some(Crosspoint::new(
                sw.ports.len(),
                std::mem::take(&mut ingress[si]),
                total,
                sched,
            ));
        }
    }

    // ---------------------------------------------------------------
    // Workload injection
    // ---------------------------------------------------------------

    /// Adds a transport flow; it starts automatically at its start time.
    pub fn add_flow(&mut self, d: FlowDesc) -> FlowId {
        let id = self.flows.len() as FlowId;
        let mut f = FlowState::new(
            id,
            d.src as u32,
            d.dst as u32,
            d.bytes,
            d.prio,
            d.start_ps,
            d.cc,
            &self.consts,
        );
        f.cold.query = d.query;
        f.cold.is_query = d.is_query;
        self.flows.push(f);
        // Workloads inject thousands of flow starts before the loop
        // spins up: keep them off the runtime heap.
        self.events
            .push_deferred(d.start_ps, Event::FlowStart { flow: id });
        id
    }

    /// Adds a raw CBR source; returns its index (used to read
    /// [`Metrics::cbr`] counters).
    pub fn add_cbr(&mut self, d: CbrDesc) -> usize {
        let id = self.cbrs.len();
        self.cbrs.push(CbrSource {
            id,
            host: d.host,
            dst: d.dst,
            rate_bps: d.rate_bps,
            pkt_len: d.pkt_len,
            prio: d.prio,
            start_ps: d.start_ps,
            stop_ps: d.stop_ps,
            budget_bytes: d.budget_bytes,
            emitted_bytes: 0,
            interval_ps: CbrSource::interval_for(d.pkt_len, d.rate_bps),
        });
        self.metrics.cbr.push(CbrCounters::default());
        self.events
            .push_deferred(d.start_ps, Event::CbrEmit { source: id as u32 });
        id
    }

    /// Registers a periodic queue-length sampler over one partition
    /// (paper Fig. 11 time series). Worlds with samplers always run on
    /// the serial path: the sample cadence is a global clock that would
    /// serialize the domains anyway.
    pub fn add_queue_sampler(&mut self, switch: usize, partition: usize, interval: Ps, until: Ps) {
        let sampler = self.samplers.len() as u32;
        self.samplers.push(SamplerSpec {
            switch,
            partition,
            interval,
            until,
        });
        self.events.push_deferred(0, Event::Sample { sampler });
    }

    /// Schedules one fault at absolute time `at` (usually via
    /// [`crate::FaultSchedule::apply`], which resolves duration-relative
    /// fractions). Registration order is the deterministic tie-break for
    /// equal-time faults.
    ///
    /// # Panics
    ///
    /// Panics if the fault references a switch, port or host outside
    /// this world.
    pub fn add_fault(&mut self, at: Ps, kind: FaultKind) {
        match kind {
            FaultKind::LinkDown { switch, port } | FaultKind::LinkUp { switch, port } => {
                let sw = self
                    .switches
                    .get(switch as usize)
                    .unwrap_or_else(|| panic!("fault references unknown switch {switch}"));
                assert!(
                    (port as usize) < sw.ports.len(),
                    "fault references port {port} outside switch {switch} ({} ports)",
                    sw.ports.len()
                );
            }
            FaultKind::SwitchDrainStart { switch } | FaultKind::SwitchDrainEnd { switch } => {
                assert!(
                    (switch as usize) < self.switches.len(),
                    "fault references unknown switch {switch}"
                );
            }
            FaultKind::HostLeave { host } | FaultKind::HostJoin { host } => {
                assert!(
                    (host as usize) < self.hosts.len(),
                    "fault references unknown host {host}"
                );
            }
        }
        let fault = self.faults.len() as u32;
        self.faults.push(FaultSpec { at, kind });
        self.events.push_deferred(at, Event::Fault { fault });
    }

    /// The scheduled fault table, in registration order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    // ---------------------------------------------------------------
    // Execution
    // ---------------------------------------------------------------

    /// Serial event loop: drains events with timestamp `<= limit`.
    /// The [`engine::Ctx`] is built once and reused across the whole
    /// loop so the per-event cost is identical to the pre-split
    /// monolithic dispatch.
    fn run_serial(&mut self, limit: Ps) {
        let World {
            now,
            events,
            cfg,
            consts,
            hosts,
            switches,
            flows,
            cbrs,
            samplers,
            faults,
            metrics,
            ..
        } = self;
        let mut ctx = engine::Ctx {
            now: *now,
            cfg,
            consts,
            hosts,
            switches,
            hot: flows.hot.as_mut_slice(),
            cold: flows.cold.as_mut_slice(),
            rx: flows.rx.as_mut_slice(),
            cbrs,
            samplers,
            faults,
            metrics,
        };
        match std::num::NonZeroU64::new(crate::telemetry::cadence()) {
            // Telemetry off: the pre-telemetry loop, byte for byte.
            None => {
                while let Some((at, ev)) = events.pop_at_most(limit) {
                    engine::execute_event(&mut ctx, events, at, ev);
                }
            }
            // Same loop plus a counter check per event; snapshots are
            // read-only over sim state, so outputs stay identical.
            Some(cadence) => {
                let step = cadence.get();
                let mut next = (ctx.metrics.events_processed / cadence + 1) * step;
                while let Some((at, ev)) = events.pop_at_most(limit) {
                    engine::execute_event(&mut ctx, events, at, ev);
                    if ctx.metrics.events_processed >= next {
                        crate::telemetry::emit_snapshot(
                            &*ctx.switches,
                            &*ctx.metrics,
                            ctx.now,
                            limit,
                        );
                        next = (ctx.metrics.events_processed / cadence + 1) * step;
                    }
                }
            }
        }
        *now = ctx.now;
    }

    /// Runs until simulated time `t` (events at exactly `t` included).
    pub fn run_until(&mut self, t: Ps) {
        if self.parallel_engaged() {
            let stats = crate::par::run_parallel(self, t);
            self.par_stats = Some(stats);
        } else {
            self.run_serial(t);
        }
        self.now = self.now.max(t);
    }

    /// Runs until the event queue drains or `limit` is reached.
    pub fn run_to_completion(&mut self, limit: Ps) {
        if self.parallel_engaged() {
            let stats = crate::par::run_parallel(self, limit);
            self.par_stats = Some(stats);
        } else {
            self.run_serial(limit);
        }
        // Quiescent: no link carries a packet and no port queues one, so
        // a pooled packet left over is a drop path that kept its slot.
        debug_assert!(
            !self.events.is_empty() || self.pooled_packets() == 0,
            "{} packets leaked in the pool of a quiescent world",
            self.pooled_packets()
        );
    }

    /// Number of packets in the event queue's pool: each is in flight on
    /// a link or queued at a switch port.
    pub fn pooled_packets(&self) -> usize {
        self.events.live_packets()
    }

    /// Whether this run takes the domain-decomposed parallel path.
    /// `threads <= 1` always takes the serial path (bit-for-bit the
    /// pre-parallelism loop); samplers force serial (global cadence);
    /// a single domain or zero lookahead has nothing to parallelize.
    fn parallel_engaged(&self) -> bool {
        self.cfg.threads > 1
            && self.samplers.is_empty()
            && self
                .domains
                .as_ref()
                .is_some_and(|d| d.n_domains() > 1 && d.lookahead_ps > 0)
    }

    /// Whether all transport flows completed.
    pub fn all_flows_done(&self) -> bool {
        self.flows.hot.iter().all(|f| f.done())
    }

    /// Aggregates the transport-recovery outcome of a finished run:
    /// per-flow retransmission/RTO counters, the fault counters, kill /
    /// recovery tallies and per-flow recovery times (in flow-id order,
    /// so the result is deterministic).
    pub fn resilience(&self) -> ResilienceCounters {
        let mut r = ResilienceCounters {
            faults_fired: self.metrics.faults_fired,
            fault_drops: self.metrics.fault_drops,
            ..ResilienceCounters::default()
        };
        for (hot, cold) in self.flows.hot.iter().zip(&self.flows.cold) {
            r.retransmissions += hot.retransmissions();
            r.rto_fires += hot.rto_fires();
            if hot.killed() {
                r.flows_killed += 1;
            }
            if let (Some(first), Some(end)) = (cold.first_interrupt_ps, cold.end_ps) {
                r.flows_recovered += 1;
                r.recovery_times_ps.push(end.saturating_sub(first));
            }
        }
        r
    }

    /// Exports flow completion records for analysis.
    pub fn flow_records(&self) -> FlowSet {
        let mut set = FlowSet::new();
        for (hot, cold) in self.flows.hot.iter().zip(&self.flows.cold) {
            set.push(FlowRecord {
                id: hot.id as u64,
                bytes: hot.bytes,
                start_ps: cold.start_ps,
                end_ps: cold.end_ps,
                class: if cold.is_query {
                    FlowClass::Query
                } else {
                    FlowClass::Background
                },
                query: cold.query,
            });
        }
        set
    }
}
