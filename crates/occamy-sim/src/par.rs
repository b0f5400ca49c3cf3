//! Deterministic domain-decomposed parallel execution.
//!
//! # Approach
//!
//! Classic conservative synchronization (Chandy–Misra–Bryant style),
//! with one twist: the result is not merely *a* legal event ordering
//! but **the exact serial ordering** — every metric, flow record and
//! queue trajectory is bit-for-bit identical to a single-threaded run,
//! for any thread count. `--freeze-perf` artifacts therefore `cmp`
//! equal across `--threads 1/2/4/8`, which CI enforces.
//!
//! The fabric is partitioned into *event domains* (pods, leaf/spine
//! groups — see [`crate::topology::DomainMap`]). Domains interact only
//! by sending packets over links whose one-way propagation delay is at
//! least the map's `lookahead_ps` (δ). Time advances in windows
//! `[W, W + δ)`: an event executing at `t ∈ [W, W + δ)` can schedule a
//! cross-domain arrival no earlier than `t + δ ≥ W + δ`, i.e. strictly
//! after the window — so within a window every domain's event stream
//! is causally independent of the others and they execute in parallel.
//!
//! # Exact serial order
//!
//! The subtlety is the global `(time, seq)` tie-break: a serial
//! [`EventQueue`] assigns every push a global sequence number at push
//! time, and equal-time events pop in push order. Domains cannot hand
//! out global sequence numbers concurrently without serializing, so
//! the executor splits the assignment:
//!
//! - Events whose sequence number is already known (everything armed
//!   before the window) sit in the domain's **main wheel** under their
//!   concrete `(time, seq)` key.
//! - Pushes made *during* the window go to a **staged** lane keyed
//!   `(time, push_index)` and are recorded in a per-domain `push_log`;
//!   each executed event appends an `exec_log` record counting its
//!   pushes and drop samples.
//!
//! Within one domain and one window, push order equals eventual serial
//! sequence order (the serial counter is monotonic, and all of a
//! domain's window events execute in serial order locally), so
//! `(time, push_index)` sorts staged entries exactly as `(time, seq)`
//! will. Staged entries sort after main entries at equal times because
//! every pending sequence number exceeds every assigned one.
//!
//! After each window a serial **walk** replays the interleaving a
//! serial run would have produced: it D-way-merges the domains'
//! exec logs by `(time, seq)` — a record's sequence number is always
//! known when it reaches its log's head, because its parent event
//! appears earlier in the same log — and assigns the global counter to
//! each push in order. Cross-domain packets then arm in the receiving
//! domain's main wheel under their concrete key, leftover staged
//! entries migrate to their own main wheel, and exact-order metric
//! streams (per-drop utilization samples) splice into the global log.
//! The walk touches only log metadata — O(events) with a tiny
//! constant — while packet processing runs on the workers.
//!
//! # Threading
//!
//! `min(threads, n_domains)` workers run under [`std::thread::scope`];
//! shards are round-robin assigned, and two [`Barrier`]s delimit each
//! window (workers execute; the coordinator walks). No unsafe code,
//! no lock contention: each `Mutex` is only ever taken uncontended on
//! its side of a barrier.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Barrier, Mutex};

use crate::cbr::CbrSource;
use crate::engine::{execute_event, Ctx, Env};
use crate::event::{Event, Key, NodeId, PacketId, PacketPool};
use crate::faults::{FaultKind, FaultSpec};
use crate::host::Host;
use crate::metrics::{CbrCounters, Metrics};
use crate::packet::{FlowId, Packet};
use crate::switch::Switch;
use crate::time::Ps;
use crate::timer::TimerWheel;
use crate::transport::{FlowCold, FlowHot, FlowRx, TransportConsts};
use crate::world::World;
use crate::SimConfig;

/// Component → domain/storage-index tables shared by every shard.
struct Plan {
    host_dom: Vec<u32>,
    host_loc: Vec<u32>,
    sw_dom: Vec<u32>,
    sw_loc: Vec<u32>,
    /// Sender-side (hot/cold) flow halves live in the source host's
    /// domain; receiver halves ([`FlowRx`]) in the destination's.
    flow_dom: Vec<u32>,
    flow_loc: Vec<u32>,
    rx_dom: Vec<u32>,
    rx_loc: Vec<u32>,
    cbr_dom: Vec<u32>,
    cbr_loc: Vec<u32>,
    /// Owning domain per fault-table entry: the switch's domain for
    /// link/drain faults, the host's for churn (matching the state the
    /// handler mutates — churn also touches the host's flows, whose
    /// hot/cold halves live in the same domain).
    fault_dom: Vec<u32>,
    /// Global flow ids per domain, in storage order (inverse of
    /// `flow_loc`, for translating host ready queues at merge).
    flow_gid: Vec<Vec<FlowId>>,
}

impl Plan {
    fn node_dom(&self, n: NodeId) -> u32 {
        match n {
            NodeId::Host(h) => self.host_dom[h as usize],
            NodeId::Switch(s) => self.sw_dom[s as usize],
        }
    }

    /// The domain that executes `ev` — the one owning the state the
    /// handler mutates.
    fn event_dom(&self, ev: &Event) -> u32 {
        match *ev {
            Event::Arrive { node, .. } => self.node_dom(node),
            Event::PortFree { switch, .. } | Event::ExpelRetry { switch, .. } => {
                self.sw_dom[switch as usize]
            }
            Event::HostTxFree { host } => self.host_dom[host as usize],
            Event::Rto { flow } | Event::FlowStart { flow } => self.flow_dom[flow as usize],
            Event::CbrEmit { source } => self.cbr_dom[source as usize],
            Event::Fault { fault } => self.fault_dom[fault as usize],
            // Worlds with samplers never engage the parallel path.
            Event::Sample { .. } => unreachable!("samplers force serial execution"),
        }
    }
}

/// A push made during the current window, in push order. Sequence
/// numbers are assigned to these entries — in exactly this order — by
/// the post-window walk.
#[derive(Clone, Copy)]
enum PushKind {
    /// Payload sits in the domain's staged lane under
    /// `(at, push_index)`.
    Local,
    /// A cross-domain packet arrival; carried here by value and armed
    /// in the destination's main wheel by the walk.
    Cross { node: NodeId, pkt: Packet },
}

#[derive(Clone, Copy)]
struct PushRec {
    at: Ps,
    kind: PushKind,
}

/// Which queue an executed event was popped from, i.e. whether its
/// serial sequence number is already concrete or still pending.
#[derive(Clone, Copy)]
enum ExecKey {
    Concrete(u64),
    Pending(u64),
}

/// One executed event: enough metadata for the walk to reconstruct the
/// serial interleaving without re-touching any packet state.
#[derive(Clone, Copy)]
struct ExecRec {
    at: Ps,
    key: ExecKey,
    n_pushes: u32,
    n_drops: u32,
}

/// Staged lane entry: a min-heap on `(at, push_index)`.
struct Staged(Key, Event);

impl PartialEq for Staged {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for Staged {}
impl PartialOrd for Staged {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Staged {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0) // reversed: BinaryHeap::pop yields the min
    }
}

/// The event environment of one domain during a window (the parallel
/// counterpart of the serial [`EventQueue`] `Env`).
struct DomainQueue {
    dom: u32,
    plan: Arc<Plan>,
    staged: BinaryHeap<Staged>,
    push_log: Vec<PushRec>,
    pool: PacketPool,
}

impl Env for DomainQueue {
    fn push(&mut self, at: Ps, ev: Event) {
        let idx = self.push_log.len() as u64;
        self.push_log.push(PushRec {
            at,
            kind: PushKind::Local,
        });
        self.staged.push(Staged((at, idx), ev));
    }

    fn push_arrival(&mut self, at: Ps, node: NodeId, pkt: Packet) {
        if self.plan.node_dom(node) == self.dom {
            let id = self.pool.insert(pkt);
            self.push(at, Event::Arrive { node, pkt: id });
        } else {
            self.push_log.push(PushRec {
                at,
                kind: PushKind::Cross { node, pkt },
            });
        }
    }

    fn packet(&self, id: PacketId) -> &Packet {
        self.pool.get(id)
    }

    fn packet_mut(&mut self, id: PacketId) -> &mut Packet {
        self.pool.get_mut(id)
    }

    fn free_packet(&mut self, id: PacketId) {
        self.pool.free(id);
    }

    fn take_packet(&mut self, id: PacketId) -> Packet {
        self.pool.take(id)
    }

    #[inline]
    fn host_idx(&self, h: u32) -> usize {
        self.plan.host_loc[h as usize] as usize
    }

    #[inline]
    fn switch_idx(&self, s: u32) -> usize {
        self.plan.sw_loc[s as usize] as usize
    }

    #[inline]
    fn flow_idx(&self, f: FlowId) -> usize {
        self.plan.flow_loc[f as usize] as usize
    }

    #[inline]
    fn rx_idx(&self, f: FlowId) -> usize {
        self.plan.rx_loc[f as usize] as usize
    }

    #[inline]
    fn cbr_idx(&self, c: u32) -> usize {
        self.plan.cbr_loc[c as usize] as usize
    }
}

/// The mutable component state owned by one domain.
#[derive(Default)]
struct Store {
    now: Ps,
    hosts: Vec<Host>,
    switches: Vec<Switch>,
    hot: Vec<FlowHot>,
    cold: Vec<FlowCold>,
    rx: Vec<FlowRx>,
    cbrs: Vec<CbrSource>,
    metrics: Metrics,
}

/// One event domain: owned state, its event queues and window logs.
struct Shard {
    store: Store,
    /// Events with concrete `(time, seq)` keys.
    main: TimerWheel,
    q: DomainQueue,
    exec_log: Vec<ExecRec>,
}

/// Per-run parallel execution statistics, surfaced on the world after
/// a parallel run for perf reporting (zeroed by serial runs).
#[derive(Debug, Clone, Default)]
pub struct ParStats {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Events executed per domain.
    pub domain_events: Vec<u64>,
}

/// Runs `world` in parallel until every event at time `<= limit` has
/// executed. Pre/post state is exactly what the serial loop would
/// leave: same component state, same event keys, same sequence
/// counter, same metrics (including exact-order drop sample streams).
pub(crate) fn run_parallel(world: &mut World, limit: Ps) -> ParStats {
    let dm = world.domains.clone().expect("parallel run without domains");
    let nd = dm.n_domains();
    let delta = dm.lookahead_ps;
    debug_assert!(nd > 1 && delta > 0);

    // ----- Split: plan + move component state into shards -----
    let n_cbrs = world.cbrs.len();
    let plan = Arc::new(build_plan(world, &dm));
    let mut shards: Vec<Shard> = (0..nd)
        .map(|d| Shard {
            store: Store {
                now: world.now,
                metrics: Metrics {
                    cbr: vec![CbrCounters::default(); n_cbrs],
                    ..Metrics::default()
                },
                ..Store::default()
            },
            main: TimerWheel::default(),
            q: DomainQueue {
                dom: d as u32,
                plan: Arc::clone(&plan),
                staged: BinaryHeap::new(),
                push_log: Vec::new(),
                pool: PacketPool::default(),
            },
            exec_log: Vec::new(),
        })
        .collect();

    distribute(std::mem::take(&mut world.hosts), &plan.host_dom, |d, h| {
        shards[d].store.hosts.push(h)
    });
    // Queued descriptors point into the world's pool: move each packet
    // into its switch's domain pool and rewrite the handle.
    distribute(
        std::mem::take(&mut world.switches),
        &plan.sw_dom,
        |d, mut s| {
            rehome_queued(&mut s, |id| {
                shards[d].q.pool.insert(world.events.take_packet(id))
            });
            shards[d].store.switches.push(s)
        },
    );
    let flows = std::mem::take(&mut world.flows);
    distribute(flows.hot, &plan.flow_dom, |d, f| {
        shards[d].store.hot.push(f)
    });
    distribute(flows.cold, &plan.flow_dom, |d, f| {
        shards[d].store.cold.push(f)
    });
    distribute(flows.rx, &plan.rx_dom, |d, f| shards[d].store.rx.push(f));
    distribute(std::mem::take(&mut world.cbrs), &plan.cbr_dom, |d, c| {
        shards[d].store.cbrs.push(c)
    });
    // Host ready queues hold storage indices (global in the serial
    // world): translate to domain-local on the way in.
    for sh in &mut shards {
        for host in &mut sh.store.hosts {
            for f in &mut host.ready {
                *f = plan.flow_loc[*f as usize];
            }
        }
    }

    // Drain the global queue into the domains' main wheels, keys and
    // all; the counter continues from the serial assignment.
    let mut counter = world.events.next_seq();
    while let Some((key, ev)) = world.events.pop_keyed() {
        let d = plan.event_dom(&ev) as usize;
        match ev {
            Event::Arrive { node, pkt } => {
                let p = world.events.take_packet(pkt);
                let id = shards[d].q.pool.insert(p);
                shards[d].main.arm(key, Event::Arrive { node, pkt: id });
            }
            other => shards[d].main.arm(key, other),
        }
    }

    // ----- Windowed execution -----
    let workers = world.cfg.threads.min(nd).max(1);
    let cfg = world.cfg.clone();
    let consts = TransportConsts::new(&cfg);
    // The fault table is immutable during the run: share one copy with
    // every worker (events carry global indices into it).
    let faults = world.faults.clone();
    let shards: Vec<Mutex<Shard>> = shards.into_iter().map(Mutex::new).collect();
    let hi_shared = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = Barrier::new(workers + 1);
    let end = Barrier::new(workers + 1);
    let mut gdrop_buf: Vec<f64> = Vec::new();
    let mut gdrop_membw: Vec<f64> = Vec::new();
    let mut stats = ParStats {
        windows: 0,
        domain_events: vec![0; nd],
    };

    std::thread::scope(|s| {
        for w in 0..workers {
            let (shards, hi_shared, done) = (&shards, &hi_shared, &done);
            let (start, end) = (&start, &end);
            let (cfg, consts, faults) = (&cfg, &consts, &faults);
            s.spawn(move || loop {
                start.wait();
                if done.load(SeqCst) {
                    break;
                }
                let hi = hi_shared.load(SeqCst);
                for i in (w..nd).step_by(workers) {
                    let mut sh = shards[i].lock().unwrap();
                    run_shard_window(&mut sh, hi, cfg, consts, faults);
                }
                end.wait();
            });
        }
        loop {
            // Next window start: the earliest pending event anywhere.
            // Staged lanes are empty between windows (the walk drains
            // them), so the main wheels see everything.
            let mut w0: Option<Ps> = None;
            for sh in &shards {
                if let Some((t, _)) = sh.lock().unwrap().main.peek() {
                    w0 = Some(w0.map_or(t, |m| m.min(t)));
                }
            }
            let Some(w0) = w0 else { break };
            if w0 > limit {
                break;
            }
            let hi = w0.saturating_add(delta - 1).min(limit);
            hi_shared.store(hi, SeqCst);
            start.wait();
            end.wait();
            walk(
                &shards,
                &plan,
                &mut counter,
                &mut gdrop_buf,
                &mut gdrop_membw,
                &mut stats,
            );
            stats.windows += 1;
        }
        done.store(true, SeqCst);
        start.wait();
    });

    // ----- Merge back into the serial world -----
    let mut shards: Vec<Shard> = shards
        .into_iter()
        .map(|m| m.into_inner().unwrap())
        .collect();
    for sh in &mut shards {
        while let Some((key, ev)) = sh.main.pop() {
            match ev {
                Event::Arrive { node, pkt } => {
                    let p = sh.q.pool.take(pkt);
                    let id = world.events.intern(p);
                    world.events.arm_keyed(key, Event::Arrive { node, pkt: id });
                }
                other => world.events.arm_keyed(key, other),
            }
        }
        debug_assert!(sh.q.staged.is_empty() && sh.q.push_log.is_empty());
        for s in &mut sh.store.switches {
            rehome_queued(s, |id| world.events.intern(sh.q.pool.take(id)));
        }
        debug_assert_eq!(sh.q.pool.live(), 0, "a domain pool kept a packet");
        for host in &mut sh.store.hosts {
            for f in &mut host.ready {
                *f = sh.q.plan.flow_gid[sh.q.dom as usize][*f as usize];
            }
        }
    }
    world.events.set_next_seq(counter);
    world.hosts = reassemble(&mut shards, &plan.host_dom, |s| &mut s.store.hosts);
    world.switches = reassemble(&mut shards, &plan.sw_dom, |s| &mut s.store.switches);
    world.flows.hot = reassemble(&mut shards, &plan.flow_dom, |s| &mut s.store.hot);
    world.flows.cold = reassemble(&mut shards, &plan.flow_dom, |s| &mut s.store.cold);
    world.flows.rx = reassemble(&mut shards, &plan.rx_dom, |s| &mut s.store.rx);
    world.cbrs = reassemble(&mut shards, &plan.cbr_dom, |s| &mut s.store.cbrs);
    for sh in &shards {
        let m = &sh.store.metrics;
        world.metrics.drops.threshold_drops += m.drops.threshold_drops;
        world.metrics.drops.full_drops += m.drops.full_drops;
        world.metrics.drops.head_drops += m.drops.head_drops;
        world.metrics.drops.pushout_evictions += m.drops.pushout_evictions;
        world.metrics.delivered_pkts += m.delivered_pkts;
        world.metrics.delivered_bytes += m.delivered_bytes;
        world.metrics.events_processed += m.events_processed;
        world.metrics.faults_fired += m.faults_fired;
        world.metrics.fault_drops += m.fault_drops;
        for (acc, c) in world.metrics.cbr.iter_mut().zip(&m.cbr) {
            acc.sent_pkts += c.sent_pkts;
            acc.sent_bytes += c.sent_bytes;
            acc.rcvd_pkts += c.rcvd_pkts;
            acc.rcvd_bytes += c.rcvd_bytes;
        }
        debug_assert!(m.drop_buffer_util.is_empty(), "walk must drain drops");
    }
    world.metrics.drop_buffer_util.append(&mut gdrop_buf);
    world.metrics.drop_membw_util.append(&mut gdrop_membw);
    world.now = shards.iter().map(|s| s.store.now).fold(world.now, Ps::max);
    stats
}

/// Builds the split plan from the world's domain map.
fn build_plan(world: &World, dm: &crate::topology::DomainMap) -> Plan {
    let nd = dm.n_domains();
    let local = |doms: &[u32]| -> Vec<u32> {
        let mut next = vec![0u32; nd];
        doms.iter()
            .map(|&d| {
                let l = next[d as usize];
                next[d as usize] += 1;
                l
            })
            .collect()
    };
    let host_dom = dm.host_domain.clone();
    let sw_dom = dm.switch_domain.clone();
    let flow_dom: Vec<u32> = world
        .flows
        .hot
        .iter()
        .map(|f| host_dom[f.src as usize])
        .collect();
    let rx_dom: Vec<u32> = world
        .flows
        .hot
        .iter()
        .map(|f| host_dom[f.dst as usize])
        .collect();
    let cbr_dom: Vec<u32> = world.cbrs.iter().map(|c| host_dom[c.host]).collect();
    let fault_dom: Vec<u32> = world
        .faults
        .iter()
        .map(|f| match f.kind {
            FaultKind::LinkDown { switch, .. }
            | FaultKind::LinkUp { switch, .. }
            | FaultKind::SwitchDrainStart { switch }
            | FaultKind::SwitchDrainEnd { switch } => sw_dom[switch as usize],
            FaultKind::HostLeave { host } | FaultKind::HostJoin { host } => host_dom[host as usize],
        })
        .collect();
    let flow_loc = local(&flow_dom);
    let mut flow_gid = vec![Vec::new(); nd];
    for (f, &d) in flow_dom.iter().enumerate() {
        flow_gid[d as usize].push(f as FlowId);
    }
    Plan {
        host_loc: local(&host_dom),
        sw_loc: local(&sw_dom),
        flow_loc,
        rx_loc: local(&rx_dom),
        cbr_loc: local(&cbr_dom),
        host_dom,
        sw_dom,
        flow_dom,
        rx_dom,
        cbr_dom,
        fault_dom,
        flow_gid,
    }
}

/// Moves `items` into per-domain storage, preserving global-id order
/// within each domain (so storage index == the plan's `*_loc`).
fn distribute<T>(items: Vec<T>, dom: &[u32], mut sink: impl FnMut(usize, T)) {
    for (i, item) in items.into_iter().enumerate() {
        sink(dom[i] as usize, item);
    }
}

/// Rewrites the handle of every descriptor queued at `sw` (port queues
/// and crosspoint FIFOs) through `moved`, which moves the packet from
/// one pool into another and returns its new handle.
fn rehome_queued(sw: &mut Switch, mut moved: impl FnMut(PacketId) -> PacketId) {
    let xp_queues = sw.xp.iter_mut().flat_map(|xp| xp.queues.iter_mut());
    let port_queues = sw.ports.iter_mut().flat_map(|p| p.queues.iter_mut());
    for desc in port_queues.chain(xp_queues).flatten() {
        desc.id = moved(desc.id);
    }
}

/// Rebuilds a global-id-ordered component vector from the shards.
fn reassemble<T>(
    shards: &mut [Shard],
    dom: &[u32],
    f: impl Fn(&mut Shard) -> &mut Vec<T>,
) -> Vec<T> {
    let mut iters: Vec<std::vec::IntoIter<T>> = shards
        .iter_mut()
        .map(|s| std::mem::take(f(s)).into_iter())
        .collect();
    dom.iter()
        .map(|&d| iters[d as usize].next().expect("component count mismatch"))
        .collect()
}

/// Executes one domain's events in the window `[.., hi]`, merging the
/// main (concrete-key) and staged (pending-key) lanes in serial order:
/// by time, main before staged on ties (assigned sequence numbers are
/// always smaller than pending ones), staged by push index.
fn run_shard_window(
    shard: &mut Shard,
    hi: Ps,
    cfg: &SimConfig,
    consts: &TransportConsts,
    faults: &[FaultSpec],
) {
    let Shard {
        store,
        main,
        q,
        exec_log,
    } = shard;
    let mut ctx = Ctx {
        now: store.now,
        cfg,
        consts,
        hosts: &mut store.hosts,
        switches: &mut store.switches,
        hot: &mut store.hot,
        cold: &mut store.cold,
        rx: &mut store.rx,
        cbrs: &mut store.cbrs,
        samplers: &[],
        faults,
        metrics: &mut store.metrics,
    };
    loop {
        let mk = main.peek();
        let sk = q.staged.peek().map(|s| s.0);
        let (from_staged, key) = match (mk, sk) {
            (None, None) => break,
            (Some(m), None) => (false, m),
            (None, Some(s)) => (true, s),
            // Ties go to main: concrete < pending sequence numbers.
            (Some(m), Some(s)) => {
                if s.0 < m.0 {
                    (true, s)
                } else {
                    (false, m)
                }
            }
        };
        if key.0 > hi {
            break;
        }
        let ((at, k), ev) = if from_staged {
            let Staged(k, ev) = q.staged.pop().unwrap();
            (k, ev)
        } else {
            main.pop().unwrap()
        };
        let rec_key = if from_staged {
            ExecKey::Pending(k)
        } else {
            ExecKey::Concrete(k)
        };
        let p0 = q.push_log.len();
        let d0 = ctx.metrics.drop_buffer_util.len();
        execute_event(&mut ctx, q, at, ev);
        exec_log.push(ExecRec {
            at,
            key: rec_key,
            n_pushes: (q.push_log.len() - p0) as u32,
            n_drops: (ctx.metrics.drop_buffer_util.len() - d0) as u32,
        });
    }
    store.now = ctx.now;
}

/// The post-window serial walk: replays the serial interleaving over
/// the domains' exec logs, assigning the global sequence counter to
/// every push in serial order, routing cross-domain arrivals, and
/// splicing exact-order drop-sample streams.
fn walk(
    shards: &[Mutex<Shard>],
    plan: &Plan,
    counter: &mut u64,
    gdrop_buf: &mut Vec<f64>,
    gdrop_membw: &mut Vec<f64>,
    stats: &mut ParStats,
) {
    let mut g: Vec<_> = shards.iter().map(|m| m.lock().unwrap()).collect();
    let nd = g.len();
    let mut ec = vec![0usize; nd]; // exec_log cursor
    let mut pc = vec![0usize; nd]; // push_log cursor
    let mut dc = vec![0usize; nd]; // drop-sample cursor
                                   // Sequence number assigned to each push of this window.
    let mut sop: Vec<Vec<u64>> = g.iter().map(|s| vec![0u64; s.q.push_log.len()]).collect();
    loop {
        // Head with the global (time, seq) minimum. A Pending head's
        // sequence is always resolved: its parent event sits earlier
        // in the same log and has been consumed.
        let mut best: Option<(Ps, u64, usize)> = None;
        for d in 0..nd {
            let Some(r) = g[d].exec_log.get(ec[d]) else {
                continue;
            };
            let seq = match r.key {
                ExecKey::Concrete(s) => s,
                ExecKey::Pending(i) => sop[d][i as usize],
            };
            if best.map_or(true, |(bt, bs, _)| (r.at, seq) < (bt, bs)) {
                best = Some((r.at, seq, d));
            }
        }
        let Some((_, _, d)) = best else { break };
        let rec = g[d].exec_log[ec[d]];
        ec[d] += 1;
        stats.domain_events[d] += 1;
        for _ in 0..rec.n_pushes {
            let idx = pc[d];
            pc[d] += 1;
            let seq = *counter;
            *counter += 1;
            sop[d][idx] = seq;
            let push = g[d].q.push_log[idx];
            if let PushKind::Cross { node, pkt } = push.kind {
                let dst = plan.node_dom(node) as usize;
                debug_assert_ne!(dst, d);
                let id = g[dst].q.pool.insert(pkt);
                g[dst]
                    .main
                    .arm((push.at, seq), Event::Arrive { node, pkt: id });
            }
        }
        for _ in 0..rec.n_drops {
            let m = &g[d].store.metrics;
            gdrop_buf.push(m.drop_buffer_util[dc[d]]);
            gdrop_membw.push(m.drop_membw_util[dc[d]]);
            dc[d] += 1;
        }
    }
    // Migrate leftover staged entries to the main wheel under their
    // now-concrete keys, and reset the window logs.
    for (d, sh) in g.iter_mut().enumerate() {
        debug_assert_eq!(pc[d], sh.q.push_log.len(), "unconsumed pushes");
        while let Some(Staged((at, idx), ev)) = sh.q.staged.pop() {
            sh.main.arm((at, sop[d][idx as usize]), ev);
        }
        sh.q.push_log.clear();
        sh.exec_log.clear();
        let m = &mut sh.store.metrics;
        debug_assert_eq!(dc[d], m.drop_buffer_util.len(), "unconsumed drops");
        m.drop_buffer_util.clear();
        m.drop_membw_util.clear();
    }
}
