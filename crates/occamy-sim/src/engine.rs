//! The event-execution engine: every event handler of the simulation,
//! written as free functions generic over an event [`Env`]ironment.
//!
//! The serial world and the parallel domain executor (`crate::par`) run
//! the *same* handler code. What differs is where scheduled events go
//! and how a global component id maps to a storage index:
//!
//! - In a serial run the environment is the [`EventQueue`] itself:
//!   pushes assign the next global sequence number immediately and
//!   every id *is* its storage index (identity translation).
//! - In a parallel run the environment is a per-domain queue: pushes
//!   are staged in a log (their global sequence numbers are assigned
//!   later, by the inter-domain merge, in exactly the order a serial
//!   run would have assigned them), and ids translate through the
//!   domain's local index maps.
//!
//! Both environments are zero-cost at the call sites: `execute_event`
//! is monomorphized per `Env`, so the serial instantiation compiles to
//! direct calls on the [`EventQueue`] — the path the benchmark
//! (`perfbench/`) measures.
//!
//! [`Ctx`] bundles the mutable world state a handler touches (hosts,
//! switches, flow halves, metrics, …). The flow state is passed as
//! three separate slices because ownership differs per half in a
//! parallel run: `hot`/`cold` belong to the sender's domain, `rx` to
//! the receiver's (see `crate::transport`).

use crate::cbr::CbrSource;
use crate::crosspoint::encode_hop;
use crate::event::{Event, EventQueue, NodeId, PacketDesc, PacketId};
use crate::faults::{FaultKind, FaultSpec};
use crate::host::Host;
use crate::metrics::Metrics;
use crate::packet::{FlowId, Packet, PacketKind};
use crate::switch::Switch;
use crate::time::{ps_to_ns, tx_time_ps, Ps, NS};
use crate::transport::{FlowCold, FlowHot, FlowRx, TransportConsts};
use crate::world::SamplerSpec;
use crate::SimConfig;
use occamy_core::{BufferManager, DropReason, Verdict};

/// The event environment: where handlers schedule events, hold
/// interned packets and translate global component ids into storage
/// indices. See the module doc for the two implementations.
///
/// Each link carries a packet interned by its transmitter
/// ([`Env::push_arrival`]). A switch reads and marks the packet in
/// place and queues only its [`PacketDesc`]; it redeems the packet
/// ([`Env::take_packet`]) when the port transmits it, or frees the slot
/// unread ([`Env::free_packet`]) when it drops it.
pub(crate) trait Env {
    /// Schedules `ev` at absolute time `at`.
    fn push(&mut self, at: Ps, ev: Event);
    /// Interns `pkt` and schedules its arrival at `node`.
    fn push_arrival(&mut self, at: Ps, node: NodeId, pkt: Packet);
    /// The interned packet `id`.
    fn packet(&self, id: PacketId) -> &Packet;
    /// The interned packet `id`, for an in-place update.
    fn packet_mut(&mut self, id: PacketId) -> &mut Packet;
    /// Releases interned packet `id` without reading it (a drop).
    fn free_packet(&mut self, id: PacketId);
    /// Redeems interned packet `id`, releasing its slot.
    fn take_packet(&mut self, id: PacketId) -> Packet;
    /// Storage index of host `h`.
    fn host_idx(&self, h: u32) -> usize;
    /// Storage index of switch `s`.
    fn switch_idx(&self, s: u32) -> usize;
    /// Storage index of flow `f`'s hot/cold (sender) halves.
    fn flow_idx(&self, f: FlowId) -> usize;
    /// Storage index of flow `f`'s rx (receiver) half.
    fn rx_idx(&self, f: FlowId) -> usize;
    /// Storage index of CBR source `c`.
    fn cbr_idx(&self, c: u32) -> usize;
}

/// The serial environment: pushes go straight to the global queue and
/// every id is its own storage index.
impl Env for EventQueue {
    #[inline(always)]
    fn push(&mut self, at: Ps, ev: Event) {
        EventQueue::push(self, at, ev);
    }

    #[inline(always)]
    fn push_arrival(&mut self, at: Ps, node: NodeId, pkt: Packet) {
        EventQueue::push_arrival(self, at, node, pkt);
    }

    #[inline]
    fn packet(&self, id: PacketId) -> &Packet {
        EventQueue::packet(self, id)
    }

    #[inline]
    fn packet_mut(&mut self, id: PacketId) -> &mut Packet {
        EventQueue::packet_mut(self, id)
    }

    #[inline]
    fn free_packet(&mut self, id: PacketId) {
        EventQueue::free_packet(self, id);
    }

    #[inline]
    fn take_packet(&mut self, id: PacketId) -> Packet {
        EventQueue::take_packet(self, id)
    }

    #[inline]
    fn host_idx(&self, h: u32) -> usize {
        h as usize
    }

    #[inline]
    fn switch_idx(&self, s: u32) -> usize {
        s as usize
    }

    #[inline]
    fn flow_idx(&self, f: FlowId) -> usize {
        f as usize
    }

    #[inline]
    fn rx_idx(&self, f: FlowId) -> usize {
        f as usize
    }

    #[inline]
    fn cbr_idx(&self, c: u32) -> usize {
        c as usize
    }
}

/// The mutable world state handlers operate on. In a serial run every
/// slice is the world's full component array; in a parallel run each
/// domain passes its owned subset (plus its own [`Metrics`], merged
/// deterministically afterwards).
pub(crate) struct Ctx<'a> {
    /// Current simulation time (updated per executed event).
    pub now: Ps,
    /// Global configuration.
    pub cfg: &'a SimConfig,
    /// Cached transport constants.
    pub consts: &'a TransportConsts,
    /// Hosts owned by this environment.
    pub hosts: &'a mut [Host],
    /// Switches owned by this environment.
    pub switches: &'a mut [Switch],
    /// Sender hot halves owned by this environment.
    pub hot: &'a mut [FlowHot],
    /// Sender cold halves owned by this environment.
    pub cold: &'a mut [FlowCold],
    /// Receiver halves owned by this environment.
    pub rx: &'a mut [FlowRx],
    /// CBR sources owned by this environment.
    pub cbrs: &'a mut [CbrSource],
    /// Registered queue samplers (serial runs only; a world with
    /// samplers never takes the parallel path).
    pub samplers: &'a [SamplerSpec],
    /// The world's immutable fault table (`Event::Fault` payloads
    /// index into it).
    pub faults: &'a [FaultSpec],
    /// Metric sink (per-domain in parallel runs).
    pub metrics: &'a mut Metrics,
}

/// Executes one event at time `t`.
#[inline]
pub(crate) fn execute_event<E: Env>(ctx: &mut Ctx<'_>, env: &mut E, t: Ps, ev: Event) {
    debug_assert!(t >= ctx.now, "time went backwards");
    ctx.now = t;
    ctx.metrics.events_processed += 1;
    match ev {
        Event::Arrive { node, pkt } => match node {
            NodeId::Host(h) => {
                let pkt = env.take_packet(pkt);
                host_rx(ctx, env, h, pkt);
            }
            NodeId::Switch(s) => switch_rx(ctx, env, s, pkt),
        },
        Event::PortFree { switch, port } => {
            let ls = env.switch_idx(switch);
            let port = port as usize;
            ctx.switches[ls].ports[port].tx_busy = false;
            pump_port(
                &mut ctx.switches[ls],
                env,
                ctx.cfg.cell_bytes,
                t,
                switch,
                port,
            );
        }
        Event::HostTxFree { host } => {
            let lh = env.host_idx(host);
            ctx.hosts[lh].tx_busy = false;
            host_pump(ctx, env, host);
        }
        Event::ExpelRetry { switch, partition } => {
            let ls = env.switch_idx(switch);
            let pa = partition as usize;
            ctx.switches[ls].partitions[pa].expel_armed = false;
            try_expel_in(
                &mut ctx.switches[ls],
                env,
                ctx.metrics,
                ctx.cfg.cell_bytes,
                t,
                switch,
                pa,
            );
        }
        Event::Rto { flow } => rto_fire(ctx, env, flow),
        Event::FlowStart { flow } => {
            let i = env.flow_idx(flow);
            ctx.hot[i].set_started(true);
            let gh = ctx.hot[i].src;
            let lh = env.host_idx(gh);
            if !ctx.hosts[lh].alive {
                // A flow starting on a dead host is born killed; it
                // resumes (and recovers) if the host rejoins.
                ctx.hot[i].kill();
                ctx.cold[i].first_interrupt_ps.get_or_insert(t);
                return;
            }
            // Host ready queues hold *storage* indices into the hot
            // slice (identical to flow ids in a serial run), so the
            // host can index its flows without an id translation.
            ctx.hosts[lh].mark_ready(ctx.hot, i as FlowId);
            host_pump(ctx, env, gh);
        }
        Event::CbrEmit { source } => cbr_emit(ctx, env, source),
        Event::Sample { sampler } => sample(ctx, env, sampler),
        Event::Fault { fault } => fault_fire(ctx, env, fault),
    }
}

// -------------------------------------------------------------------
// Hosts
// -------------------------------------------------------------------

fn host_rx<E: Env>(ctx: &mut Ctx<'_>, env: &mut E, gh: u32, pkt: Packet) {
    if !ctx.hosts[env.host_idx(gh)].alive {
        // Fault injection: a dead host receives nothing — data
        // addressed to it and ACKs returning to its flows both vanish.
        ctx.metrics.fault_drops += 1;
        return;
    }
    match pkt.kind {
        PacketKind::Ack => {
            let f = pkt.flow;
            let i = env.flow_idx(f);
            let completed = ctx.hot[i].on_ack(
                &mut ctx.cold[i],
                pkt.ack_seq,
                pkt.ece,
                pkt.ts,
                ctx.now,
                ctx.consts,
            );
            if !completed {
                arm_rto(ctx, env, f);
                if ctx.hot[i].can_send() {
                    let lh = env.host_idx(gh);
                    ctx.hosts[lh].mark_ready(ctx.hot, i as FlowId);
                    host_pump(ctx, env, gh);
                }
            }
        }
        PacketKind::Data => {
            ctx.metrics.delivered_pkts += 1;
            ctx.metrics.delivered_bytes += pkt.len as u64;
            let r = env.rx_idx(pkt.flow);
            let ack_seq = ctx.rx[r].on_data(pkt.seq, pkt.len as u64);
            // `next_segment` stamps `pkt.src` with the flow's sender, so
            // the ACK can address it without reading the sender's flow
            // state (which another domain may own).
            let ack = Packet::ack(pkt.flow, gh, pkt.src, ack_seq, pkt.ce, pkt.prio, pkt.ts);
            let lh = env.host_idx(gh);
            ctx.hosts[lh].ack_queue.push_back(ack);
            host_pump(ctx, env, gh);
        }
        PacketKind::Raw => {
            let c = &mut ctx.metrics.cbr[pkt.flow as usize];
            c.rcvd_pkts += 1;
            c.rcvd_bytes += pkt.len as u64;
            ctx.metrics.delivered_pkts += 1;
            ctx.metrics.delivered_bytes += pkt.len as u64;
        }
    }
}

fn host_pump<E: Env>(ctx: &mut Ctx<'_>, env: &mut E, gh: u32) {
    let lh = env.host_idx(gh);
    if ctx.hosts[lh].tx_busy {
        return;
    }
    let now = ctx.now;
    let Some(pkt) = ctx.hosts[lh].next_packet(ctx.hot, now, ctx.consts) else {
        return;
    };
    if pkt.kind == PacketKind::Data {
        arm_rto(ctx, env, pkt.flow);
    }
    if pkt.kind == PacketKind::Raw {
        let c = &mut ctx.metrics.cbr[pkt.flow as usize];
        c.sent_pkts += 1;
        c.sent_bytes += pkt.len as u64;
    }
    let host = &mut ctx.hosts[lh];
    let link = host.link;
    let ser = tx_time_ps(pkt.wire_bytes(), link.rate_bps);
    host.tx_busy = true;
    env.push(now + ser, Event::HostTxFree { host: gh });
    let mut pkt = pkt;
    pkt.last_hop = encode_hop(NodeId::Host(gh));
    env.push_arrival(
        now + ser + link.prop_ps,
        NodeId::switch(link.to_switch),
        pkt,
    );
}

fn arm_rto<E: Env>(ctx: &mut Ctx<'_>, env: &mut E, flow: FlowId) {
    let f = &mut ctx.hot[env.flow_idx(flow)];
    if !f.outstanding() {
        return;
    }
    let deadline = ctx.now + f.timer_delay(ctx.consts);
    f.rto_deadline = deadline;
    if !f.timer_armed() {
        f.set_timer_armed(true);
        // Milliseconds out: the queue parks it on its far lane.
        env.push(deadline, Event::Rto { flow });
    }
}

fn rto_fire<E: Env>(ctx: &mut Ctx<'_>, env: &mut E, flow: FlowId) {
    let i = env.flow_idx(flow);
    let f = &mut ctx.hot[i];
    f.set_timer_armed(false);
    if f.done() || f.killed() || !f.outstanding() {
        return;
    }
    if ctx.now < f.rto_deadline {
        // Deadline was pushed forward by ACK activity: resleep.
        f.set_timer_armed(true);
        let at = f.rto_deadline;
        env.push(at, Event::Rto { flow });
        return;
    }
    // Tail-loss probe first (no congestion-state change), full RTO
    // once the probe budget is exhausted. A full RTO marks the flow
    // interrupted for recovery-time accounting (first interrupt only).
    if ctx.hot[i].on_timer(&mut ctx.cold[i], ctx.consts) {
        let now = ctx.now;
        ctx.cold[i].first_interrupt_ps.get_or_insert(now);
    }
    arm_rto(ctx, env, flow);
    let gh = ctx.hot[i].src;
    let lh = env.host_idx(gh);
    ctx.hosts[lh].mark_ready(ctx.hot, i as FlowId);
    host_pump(ctx, env, gh);
}

fn cbr_emit<E: Env>(ctx: &mut Ctx<'_>, env: &mut E, source: u32) {
    let now = ctx.now;
    let li = env.cbr_idx(source);
    let src = &mut ctx.cbrs[li];
    if !src.active(now) {
        return;
    }
    let gh = src.host as u32;
    let lh = env.host_idx(gh);
    if ctx.hosts[lh].alive {
        let pkt = ctx.cbrs[li].emit(now);
        ctx.hosts[lh].cbr_queue.push_back(pkt);
        host_pump(ctx, env, gh);
    }
    // A dead host skips the emission but keeps its emit clock running,
    // so the source resumes on schedule when the host rejoins.
    let src = &ctx.cbrs[li];
    let next = now + src.emit_interval();
    if src.active(next) {
        env.push(next, Event::CbrEmit { source });
    }
}

// -------------------------------------------------------------------
// Switches
// -------------------------------------------------------------------
//
// The switch-side handlers borrow their switch exactly once per event
// and thread it through free helper functions; the old
// `self.switches[s]` re-borrow per sub-step showed up in profiles.

fn switch_rx<E: Env>(ctx: &mut Ctx<'_>, env: &mut E, gs: u32, id: PacketId) {
    let now = ctx.now;
    let now_ns = ps_to_ns(now);
    let ecn_k = ctx.cfg.ecn_k_bytes;
    let cell = ctx.cfg.cell_bytes;
    let ls = env.switch_idx(gs);
    let sw = &mut ctx.switches[ls];
    // The hop reads the packet in place and queues only its descriptor.
    let pkt = env.packet(id);
    let (dst, flow, prio) = (pkt.dst as usize, pkt.flow, pkt.prio);
    let data = pkt.kind == PacketKind::Data;
    let desc = PacketDesc::new(id, pkt);
    // Fault-free fast path: only a switch with a downed link pays for
    // the enabled-port scan.
    let port = if sw.n_disabled == 0 {
        sw.routing.port_for(dst, flow)
    } else {
        match sw.routing.port_for_enabled(dst, flow, &sw.disabled_ports) {
            Some(p) => p,
            None => {
                // Every path to the destination is down (e.g. an edge
                // down-link): the packet vanishes on this hop.
                ctx.metrics.fault_drops += 1;
                env.free_packet(id);
                return;
            }
        }
    };
    if sw.xp.is_some() {
        // Crosspoint-queued switch: a parallel data path with no shared
        // buffer, no admission policy and no class queues.
        xp_rx(sw, env, ctx.metrics, ecn_k, now, gs, port, desc, data);
        return;
    }
    let class = (prio as usize).min(sw.classes - 1);
    let pa = sw.port_partition[port];
    let qidx = sw.queue_index(port, class);
    let wire = desc.wire_bytes();
    if sw.draining {
        // Drain window: admission refused while the ports empty the
        // buffer through the normal dequeue path.
        record_fault_drop_in(sw, ctx.metrics, pa, now_ns);
        env.free_packet(id);
        return;
    }
    let part = &mut sw.partitions[pa];

    match part.bm.admit(qidx, wire, &part.state) {
        Verdict::Accept => {
            enqueue_in(sw, env, pa, port, class, qidx, desc, data, ecn_k, now_ns);
            pump_port(sw, env, cell, now, gs, port);
            if sw.partitions[pa].reactive {
                try_expel_in(sw, env, ctx.metrics, cell, now, gs, pa);
            }
        }
        Verdict::Evict => {
            // Pushout: synchronously evict from the longest queue
            // until the newcomer fits (paper §2.2).
            while sw.partitions[pa].state.free() < wire {
                let part = &mut sw.partitions[pa];
                let Some(v) = part.bm.select_victim(&part.state) else {
                    break;
                };
                if !head_drop_in(sw, env, pa, v, now_ns) {
                    break;
                }
                ctx.metrics.drops.pushout_evictions += 1;
            }
            if sw.partitions[pa].state.free() >= wire {
                enqueue_in(sw, env, pa, port, class, qidx, desc, data, ecn_k, now_ns);
                pump_port(sw, env, cell, now, gs, port);
            } else {
                record_drop_in(sw, ctx.metrics, pa, now_ns, false);
                env.free_packet(id);
            }
        }
        Verdict::Drop(reason) => {
            let threshold = reason == DropReason::OverThreshold;
            record_drop_in(sw, ctx.metrics, pa, now_ns, threshold);
            env.free_packet(id);
            if sw.partitions[pa].reactive {
                try_expel_in(sw, env, ctx.metrics, cell, now, gs, pa);
            }
        }
    }
}

fn sample<E: Env>(ctx: &mut Ctx<'_>, env: &mut E, sampler: u32) {
    let SamplerSpec {
        switch,
        partition,
        interval,
        until,
    } = ctx.samplers[sampler as usize];
    let ls = env.switch_idx(switch as u32);
    let part = &ctx.switches[ls].partitions[partition];
    ctx.metrics.queue_samples.record(
        ctx.now,
        switch,
        partition,
        part.state.iter().map(|(_, l)| l),
        (0..part.state.num_queues()).map(|q| part.bm.threshold(q, &part.state)),
    );
    if ctx.now + interval <= until {
        env.push(ctx.now + interval, Event::Sample { sampler });
    }
}

/// Enqueues an admitted packet's descriptor into its partition and port
/// queue, applying DCTCP CE marking to the pooled packet.
#[allow(clippy::too_many_arguments)]
fn enqueue_in<E: Env>(
    sw: &mut Switch,
    env: &mut E,
    pa: usize,
    port: usize,
    class: usize,
    qidx: usize,
    desc: PacketDesc,
    data: bool,
    ecn_k: u64,
    now_ns: u64,
) {
    let wire = desc.wire_bytes();
    let part = &mut sw.partitions[pa];
    part.state
        .enqueue(qidx, wire)
        .expect("BM admitted beyond capacity");
    part.bm.on_enqueue(qidx, wire, now_ns, &part.state);
    let qlen = part.state.queue_len(qidx);
    sw.write_rate.record(wire, now_ns);
    // DCTCP marking: CE when the instantaneous queue exceeds K.
    if data && qlen > ecn_k {
        env.packet_mut(desc.id).ce = true;
    }
    sw.ports[port].queues[class].push_back(desc);
}

/// Records a refused arrival with its utilization context.
fn record_drop_in(sw: &Switch, metrics: &mut Metrics, pa: usize, now_ns: u64, threshold: bool) {
    let part = &sw.partitions[pa];
    let util = part.state.total() as f64 / part.state.capacity() as f64;
    let membw = sw.membw_util(now_ns);
    metrics.record_drop(threshold, util, membw);
}

/// Records a fault-caused drop at a switch buffer (drain refusal,
/// link-down flush) with the same utilization context.
fn record_fault_drop_in(sw: &Switch, metrics: &mut Metrics, pa: usize, now_ns: u64) {
    let part = &sw.partitions[pa];
    let util = part.state.total() as f64 / part.state.capacity() as f64;
    let membw = sw.membw_util(now_ns);
    metrics.record_fault_drop(util, membw);
}

/// Removes the head packet of partition-local queue `qidx` without
/// transmitting it, freeing its pool slot. Returns `false` if the
/// queue was empty.
fn head_drop_in<E: Env>(sw: &mut Switch, env: &mut E, pa: usize, qidx: usize, now_ns: u64) -> bool {
    let (port, class) = sw.queue_location(pa, qidx);
    let Some(desc) = sw.ports[port].queues[class].pop_front() else {
        return false;
    };
    let wire = desc.wire_bytes();
    let part = &mut sw.partitions[pa];
    part.state
        .dequeue(qidx, wire)
        .expect("queue accounting out of sync");
    part.bm.on_dequeue(qidx, wire, now_ns, &part.state);
    // A head drop costs PD/cell-pointer bandwidth, which the token
    // bucket charges, but never touches the cell data memory, so the
    // read-rate estimator (data path) is not updated, and the packet
    // itself is never read (paper §3.2).
    env.free_packet(desc.id);
    true
}

/// Crosspoint-switch arrival: the packet's previous-hop stamp selects
/// the input, the routed output selects the column, and the packet
/// tail-drops against its own crosspoint buffer only.
#[allow(clippy::too_many_arguments)]
fn xp_rx<E: Env>(
    sw: &mut Switch,
    env: &mut E,
    metrics: &mut Metrics,
    ecn_k: u64,
    now: Ps,
    gs: u32,
    port: usize,
    desc: PacketDesc,
    data: bool,
) {
    let now_ns = ps_to_ns(now);
    let membw = sw.membw_util(now_ns);
    if sw.draining {
        let xp = sw.xp.as_ref().expect("xp_rx on a shared-memory switch");
        metrics.record_fault_drop(xp.util(), membw);
        env.free_packet(desc.id);
        return;
    }
    let wire = desc.wire_bytes();
    let xp = sw.xp.as_mut().expect("xp_rx on a shared-memory switch");
    let inp = xp
        .input_for(env.packet(desc.id).last_hop)
        .expect("packet arrived at a crosspoint switch from an unknown ingress");
    let idx = xp.xp(port, inp);
    if xp.occ[idx] + wire > xp.cap {
        // The dedicated crosspoint is full — the CQ analog of a
        // buffer-full tail drop (no threshold exists to exceed).
        metrics.record_drop(false, xp.util(), membw);
        env.free_packet(desc.id);
        return;
    }
    xp.occ[idx] += wire;
    xp.out_occ[port] += wire;
    xp.total += wire;
    // DCTCP marking on the output column: the sum over the column's
    // crosspoints is the CQ analog of the output queue length.
    if data && xp.out_occ[port] > ecn_k {
        env.packet_mut(desc.id).ce = true;
    }
    xp.queues[idx].push_back(desc);
    sw.write_rate.record(wire, now_ns);
    xp_pump_port(sw, env, now, gs, port);
}

/// Crosspoint-switch transmit: the output's crosspoint scheduler picks
/// an input, the head packet leaves, and the next hop is stamped.
fn xp_pump_port<E: Env>(sw: &mut Switch, env: &mut E, now: Ps, gs: u32, port: usize) {
    if sw.ports[port].tx_busy {
        return;
    }
    let now_ns = ps_to_ns(now);
    let xp = sw
        .xp
        .as_mut()
        .expect("xp_pump_port on a shared-memory switch");
    let Some(inp) = xp.pick(port) else {
        return;
    };
    let idx = xp.xp(port, inp);
    let desc = xp.queues[idx]
        .pop_front()
        .expect("crosspoint scheduler picked an empty buffer");
    let wire = desc.wire_bytes();
    xp.occ[idx] -= wire;
    xp.out_occ[port] -= wire;
    xp.total -= wire;
    sw.read_rate.record(wire, now_ns);
    transmit(sw, env, now, gs, port, desc);
}

/// Starts serializing `desc` on `port`: schedules the port's
/// `PortFree`, redeems the packet, stamps its previous hop and sends it
/// to the link's far end.
///
/// The packet is interned afresh rather than forwarded under its
/// handle. The pool hands slots out in push order, so the next hop then
/// reads packets in nearly the order of their slots; a packet kept in
/// its sender's slot is read in the order of its hops instead, a miss
/// per hop once the pool outgrows the cache (README §Performance).
fn transmit<E: Env>(sw: &mut Switch, env: &mut E, now: Ps, gs: u32, port: usize, desc: PacketDesc) {
    let p = &mut sw.ports[port];
    let link = p.link;
    p.tx_busy = true;
    let ser = tx_time_ps(desc.wire_bytes(), link.rate_bps);
    env.push(
        now + ser,
        Event::PortFree {
            switch: gs,
            port: port as u32,
        },
    );
    let mut pkt = env.take_packet(desc.id);
    pkt.last_hop = encode_hop(NodeId::Switch(gs));
    env.push_arrival(now + ser + link.prop_ps, link.to, pkt);
}

/// Dequeues and transmits the scheduler's pick on an idle egress port.
/// `gs` is the switch's global id (event payloads always carry global
/// ids); `sw` is its already-resolved storage slot.
fn pump_port<E: Env>(sw: &mut Switch, env: &mut E, cell: u64, now: Ps, gs: u32, port: usize) {
    if sw.xp.is_some() {
        return xp_pump_port(sw, env, now, gs, port);
    }
    if sw.ports[port].tx_busy {
        return;
    }
    let now_ns = ps_to_ns(now);
    let p = &mut sw.ports[port];
    let Some(class) = p.sched.pick(&p.queues) else {
        return;
    };
    let desc = p.queues[class]
        .pop_front()
        .expect("scheduler picked an empty queue");
    let wire = desc.wire_bytes();
    let pa = sw.port_partition[port];
    let qidx = sw.queue_index(port, class);
    let part = &mut sw.partitions[pa];
    part.state
        .dequeue(qidx, wire)
        .expect("queue accounting out of sync");
    part.bm.on_dequeue(qidx, wire, now_ns, &part.state);
    // TX has absolute priority on memory bandwidth: it may drive the
    // expulsion token balance negative (fixed-priority arbiter, §4.3).
    part.tb.force_take(wire.div_ceil(cell) as f64, now_ns);
    sw.read_rate.record(wire, now_ns);
    transmit(sw, env, now, gs, port, desc);
}

/// Occamy's reactive expulsion loop over one partition.
fn try_expel_in<E: Env>(
    sw: &mut Switch,
    env: &mut E,
    metrics: &mut Metrics,
    cell: u64,
    now: Ps,
    gs: u32,
    pa: usize,
) {
    if !sw.partitions[pa].reactive {
        return;
    }
    let now_ns = ps_to_ns(now);
    loop {
        let part = &mut sw.partitions[pa];
        let Some(v) = part.bm.select_victim(&part.state) else {
            return;
        };
        // Cost of expelling the head packet, in cells.
        let (port, class) = sw.queue_location(pa, v);
        let Some(head_wire) = sw.ports[port].queues[class]
            .front()
            .map(PacketDesc::wire_bytes)
        else {
            return;
        };
        let cells = head_wire.div_ceil(cell) as f64;
        let part = &mut sw.partitions[pa];
        if part.tb.try_take(cells, now_ns) {
            head_drop_in(sw, env, pa, v, now_ns);
            metrics.drops.head_drops += 1;
        } else {
            // Not enough redundant bandwidth now: retry once the
            // bucket has refilled enough for this packet. A `None`
            // means the request can never be satisfied (zero-rate
            // ablation or a cap below one packet): leave disarmed and
            // let the next enqueue re-evaluate.
            if !part.expel_armed {
                if let Some(wait_ns) = part.tb.time_until(cells, now_ns) {
                    part.expel_armed = true;
                    env.push(
                        now.saturating_add(wait_ns.max(1).saturating_mul(NS)),
                        Event::ExpelRetry {
                            switch: gs,
                            partition: pa as u32,
                        },
                    );
                }
            }
            return;
        }
    }
}

// -------------------------------------------------------------------
// Faults
// -------------------------------------------------------------------

/// Executes one scheduled fault from the world's fault table.
///
/// The switch-kind faults touch exactly one switch and the host-kind
/// faults exactly one host plus the flows it sources (whose hot/cold
/// halves live in the same domain), so in a parallel run each fault
/// event stays inside its owning domain.
fn fault_fire<E: Env>(ctx: &mut Ctx<'_>, env: &mut E, fault: u32) {
    ctx.metrics.faults_fired += 1;
    let spec = ctx.faults[fault as usize];
    match spec.kind {
        FaultKind::LinkDown { switch, port } => {
            let ls = env.switch_idx(switch);
            let sw = &mut ctx.switches[ls];
            let port = port as usize;
            if !sw.disabled_ports[port] {
                sw.disabled_ports[port] = true;
                sw.n_disabled += 1;
            }
            // Packets already serializing or propagating still deliver;
            // the hop's queued packets are lost with the link.
            flush_port(sw, env, ctx.metrics, port, ps_to_ns(ctx.now));
        }
        FaultKind::LinkUp { switch, port } => {
            let ls = env.switch_idx(switch);
            let sw = &mut ctx.switches[ls];
            let port = port as usize;
            if sw.disabled_ports[port] {
                sw.disabled_ports[port] = false;
                sw.n_disabled -= 1;
            }
        }
        FaultKind::SwitchDrainStart { switch } => {
            ctx.switches[env.switch_idx(switch)].draining = true;
        }
        FaultKind::SwitchDrainEnd { switch } => {
            ctx.switches[env.switch_idx(switch)].draining = false;
        }
        FaultKind::HostLeave { host } => {
            let lh = env.host_idx(host);
            let h = &mut ctx.hosts[lh];
            h.alive = false;
            let dropped = h.ack_queue.len() + h.cbr_queue.len();
            h.ack_queue.clear();
            h.cbr_queue.clear();
            // `kill` clears each flow's host-queue flag, matching the
            // cleared ready queue.
            h.ready.clear();
            ctx.metrics.fault_drops += dropped as u64;
            let now = ctx.now;
            for (i, f) in ctx.hot.iter_mut().enumerate() {
                if f.src == host && f.started() && !f.done() && !f.killed() {
                    f.kill();
                    ctx.cold[i].first_interrupt_ps.get_or_insert(now);
                }
            }
        }
        FaultKind::HostJoin { host } => {
            let lh = env.host_idx(host);
            ctx.hosts[lh].alive = true;
            for i in 0..ctx.hot.len() {
                if ctx.hot[i].src == host && ctx.hot[i].killed() {
                    ctx.hot[i].resume(ctx.consts);
                    ctx.hosts[lh].mark_ready(ctx.hot, i as FlowId);
                }
            }
            host_pump(ctx, env, host);
        }
    }
}

/// Drops every packet queued on `port` (all classes) when its link goes
/// down, keeping the partition's occupancy accounting and BM state
/// consistent, freeing each packet's pool slot and recording each loss
/// with utilization context.
fn flush_port<E: Env>(
    sw: &mut Switch,
    env: &mut E,
    metrics: &mut Metrics,
    port: usize,
    now_ns: u64,
) {
    let membw = sw.membw_util(now_ns);
    if let Some(xp) = &mut sw.xp {
        for inp in 0..xp.n_in {
            let idx = xp.xp(port, inp);
            while let Some(desc) = xp.queues[idx].pop_front() {
                let wire = desc.wire_bytes();
                xp.occ[idx] -= wire;
                xp.out_occ[port] -= wire;
                xp.total -= wire;
                env.free_packet(desc.id);
                metrics.record_fault_drop(xp.util(), membw);
            }
        }
        return;
    }
    let pa = sw.port_partition[port];
    for class in 0..sw.classes {
        let qidx = sw.queue_index(port, class);
        while let Some(desc) = sw.ports[port].queues[class].pop_front() {
            let wire = desc.wire_bytes();
            env.free_packet(desc.id);
            let part = &mut sw.partitions[pa];
            part.state
                .dequeue(qidx, wire)
                .expect("queue accounting out of sync");
            part.bm.on_dequeue(qidx, wire, now_ns, &part.state);
            record_fault_drop_in(sw, metrics, pa, now_ns);
        }
    }
}
