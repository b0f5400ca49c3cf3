//! The event queue: a time-ordered queue with deterministic
//! tie-breaking, backed by a calendar ring and a far lane.
//!
//! The queue is built for event-loop throughput (profiles of the
//! benchmark workloads put queue maintenance first among the layers):
//!
//! - **Interned packets**: `Arrive` carries a [`PacketId`] into a slab
//!   pool instead of the 48-byte [`Packet`], so a queue entry is 32
//!   bytes. Each transmitter interns the packet it sends
//!   ([`EventQueue::push_arrival`]). A switch reads and marks it in
//!   place and queues an 8-byte [`PacketDesc`], so a queued packet is
//!   held once, in the pool; the slot is recycled when the packet is
//!   transmitted or delivered ([`EventQueue::take_packet`]) or dropped,
//!   making the steady-state loop allocation-free. The pool hands out
//!   slots next-fit, in push order around the slab, and a packet is
//!   first read about one link delay after its push, so those reads walk
//!   the slab nearly in order, a pattern the hardware prefetchers follow
//!   even when the pool outgrows the cache.
//! - **Events written in place**: [`EventQueue::push`] and the wheel's
//!   arm are inlined into every push site, so an event's fields are
//!   stored from registers straight into its slab entry. Built on the
//!   stack and passed by pointer, the event was stored as 4-byte words
//!   and reloaded as 8-byte ones, a load the store buffer cannot
//!   forward, so every push waited for its own stores to commit.
//! - **Compact events**: indices are `u32`; periodic samplers live in the
//!   world and are referenced by id.
//! - **A one-hop calendar ring** ([`crate::timer::TimerWheel`]) instead
//!   of a heap. A simulator's pushes are near-future, which is a
//!   min-heap's worst case, and nearly all of them are one hop out or
//!   less. The ring's ≈ 2 ns buckets span ≈ 33.6 µs, three times the
//!   longest hop of the modelled fabrics, so every packet event is
//!   bucketed once and popped from its sorted bucket without
//!   cascading. Retransmission timers take the same
//!   [`EventQueue::push`]; their milliseconds-out deadlines wait on the
//!   far lane, a hierarchical wheel over ring spans, and migrate into
//!   the ring just before the cursor reaches them.
//! - **A deferred lane** for the bulk of setup-time events (flow
//!   starts): sorted once instead of passing through the ring.
//!
//! Events at equal timestamps pop in insertion order regardless of lane
//! (ring, far or deferred — all share one global sequence counter), so
//! pops follow the exact `(time, seq)` order of a heap and runs stay
//! bit-for-bit reproducible. Queue storage is O(peak pending events):
//! ring and far entries share one slab that grows to the peak number of
//! pending entries, the ring's fixed tables are allocated on first use,
//! and the packet pool holds at most ⌈8/7 · peak live packets⌉ + 1
//! slots, a live packet being one in flight on a link or queued at a
//! switch port.

use crate::packet::{FlowId, Packet};
use crate::time::Ps;
use crate::timer::TimerWheel;

/// A node in the simulated network.
///
/// Indices are `u32` so an [`Event::Arrive`] — the queue's most common
/// entry — packs into 16 bytes; a queue entry (key + event) is then two
/// 16-byte halves instead of 40 loose bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeId {
    /// Host `index`.
    Host(u32),
    /// Switch `index`.
    Switch(u32),
}

impl NodeId {
    /// A host node.
    #[inline]
    pub fn host(i: usize) -> NodeId {
        NodeId::Host(i as u32)
    }

    /// A switch node.
    #[inline]
    pub fn switch(i: usize) -> NodeId {
        NodeId::Switch(i as u32)
    }
}

/// Handle to a packet interned in the event queue's pool.
pub type PacketId = u32;

/// A queued packet's descriptor: its pool handle and the bytes it
/// occupies in the buffer and on the wire — the simulator's
/// counterpart of occamy-hw's `PacketDescriptor`. Port queues and
/// crosspoint FIFOs hold these, so schedulers, expulsion and head
/// drops never read the packet itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketDesc {
    /// The packet's slot in the event queue's pool.
    pub id: PacketId,
    /// [`Packet::wire_bytes`] of the packet.
    pub wire: u32,
}

impl PacketDesc {
    /// The descriptor of `pkt`, interned under `id`.
    #[inline]
    pub fn new(id: PacketId, pkt: &Packet) -> Self {
        PacketDesc {
            id,
            wire: u32::try_from(pkt.wire_bytes()).expect("packet exceeds u32 wire bytes"),
        }
    }

    /// Bytes the packet occupies in the buffer and on the wire.
    #[inline]
    pub fn wire_bytes(&self) -> u64 {
        u64::from(self.wire)
    }
}

/// Discrete simulation events.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A packet arrives at a node (after link serialization + propagation).
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// The interned packet: a switch reads it in place and queues its
        /// [`PacketDesc`], a host redeems it with
        /// [`EventQueue::take_packet`].
        pkt: PacketId,
    },
    /// A switch egress port finished serializing its current packet.
    PortFree {
        /// Switch index.
        switch: u32,
        /// Port index.
        port: u32,
    },
    /// A host NIC finished serializing its current packet.
    HostTxFree {
        /// Host index.
        host: u32,
    },
    /// Retry Occamy expulsion once the token bucket has refilled.
    ExpelRetry {
        /// Switch index.
        switch: u32,
        /// Buffer partition index.
        partition: u32,
    },
    /// Retransmission-timer check for a flow.
    ///
    /// Flows keep a single pending timer event plus a soft deadline; a
    /// firing that arrives before the (re-armed) deadline reschedules
    /// itself instead of acting.
    Rto {
        /// Flow index.
        flow: FlowId,
    },
    /// Start an application flow.
    FlowStart {
        /// Flow index.
        flow: FlowId,
    },
    /// Emit the next CBR packet of a raw source.
    CbrEmit {
        /// CBR source index.
        source: u32,
    },
    /// Record a queue-length sample and reschedule per the sampler spec
    /// registered in the world.
    Sample {
        /// Sampler index (into the world's sampler table).
        sampler: u32,
    },
    /// Execute a scheduled fault (link flap / switch drain / host
    /// churn). The index points into the world's immutable fault table
    /// ([`crate::World::faults`]), so the event itself stays compact.
    Fault {
        /// Fault index (into the world's fault table).
        fault: u32,
    },
}

/// Slab of in-flight packets with next-fit allocation.
///
/// A hand sweeps the slots' `live` flags from where the last insert
/// left off to the next free slot, so packets fill the slab in push
/// order, wrapping around it. A LIFO free list would instead hand the
/// most recently freed slot back at once and scatter consecutive pushes
/// across the slab. The slab grows by one slot only when 7/8 of its
/// slots are live, so it never holds more than ⌈8/7 · peak live⌉ + 1
/// slots, and at least one slot in eight is free whenever the hand
/// sweeps.
///
/// `pub(crate)` because the parallel executor gives every event domain
/// its own pool (see `crate::par`).
#[derive(Debug, Default)]
pub(crate) struct PacketPool {
    slots: Vec<Packet>,
    /// `live[i]` ⟺ slot `i` holds a packet not yet taken.
    live: Vec<bool>,
    /// Number of `true` flags in `live`.
    n_live: usize,
    /// The slot the next sweep starts at; below `slots.len()` once the
    /// pool is non-empty.
    hand: usize,
}

impl PacketPool {
    #[inline]
    pub(crate) fn insert(&mut self, pkt: Packet) -> PacketId {
        let len = self.slots.len();
        if self.n_live * 8 >= len * 7 {
            self.n_live += 1;
            self.slots.push(pkt);
            self.live.push(true);
            return PacketId::try_from(len).expect("packet pool exceeds u32 slots");
        }
        let mut i = self.hand;
        while self.live[i] {
            i = if i + 1 == len { 0 } else { i + 1 };
        }
        self.n_live += 1;
        self.slots[i] = pkt;
        self.live[i] = true;
        self.hand = if i + 1 == len { 0 } else { i + 1 };
        i as PacketId
    }

    #[inline]
    pub(crate) fn take(&mut self, id: PacketId) -> Packet {
        let pkt = self.slots[id as usize];
        self.free(id);
        pkt
    }

    /// Releases slot `id` without reading its packet (a drop).
    #[inline]
    pub(crate) fn free(&mut self, id: PacketId) {
        let i = id as usize;
        debug_assert!(self.live[i], "packet {id} redeemed twice");
        self.live[i] = false;
        self.n_live -= 1;
    }

    /// The packet in live slot `id`.
    #[inline]
    pub(crate) fn get(&self, id: PacketId) -> &Packet {
        debug_assert!(self.live[id as usize], "packet {id} read after release");
        &self.slots[id as usize]
    }

    /// The packet in live slot `id`, for an in-place update.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        debug_assert!(self.live[id as usize], "packet {id} written after release");
        &mut self.slots[id as usize]
    }

    /// Number of packets interned and not yet taken or freed.
    pub(crate) fn live(&self) -> usize {
        self.n_live
    }
}

/// Heap ordering key: `(time, global insertion sequence)`.
pub(crate) use crate::timer::Key;

/// The queue's two lanes, as chosen by [`EventQueue::next_lane`].
#[derive(Clone, Copy)]
enum Lane {
    Wheel,
    Deferred,
}

/// Time-ordered event queue.
///
/// Events at equal timestamps pop in insertion order, which makes runs
/// bit-for-bit reproducible regardless of queue internals.
#[derive(Default)]
pub struct EventQueue {
    /// All runtime events: the calendar ring and its far lane.
    wheel: TimerWheel,
    /// Setup-time events, kept sorted descending by `(at, seq)` so the
    /// next one is `last()`; sorted lazily before the first pop after a
    /// batch of [`EventQueue::push_deferred`] calls.
    deferred: Vec<(Key, Event)>,
    deferred_dirty: bool,
    next_seq: u64,
    pool: PacketPool,
}

impl EventQueue {
    /// Width of one calendar-ring bucket (2¹¹ ps ≈ 2.05 ns). Entries of
    /// one bucket are sorted by key when the bucket drains.
    pub const BUCKET_PS: Ps = crate::timer::BUCKET_PS;

    /// Span of the calendar ring after its cursor (2²⁵ ps ≈ 33.6 µs).
    /// Entries further out wait on the far lane until the cursor
    /// approaches.
    pub const HORIZON_PS: Ps = crate::timer::HORIZON_PS;

    /// Creates an empty queue. Allocates nothing until the first push.
    pub fn new() -> Self {
        EventQueue::default()
    }

    #[inline]
    fn seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at absolute time `at`.
    #[inline(always)]
    pub fn push(&mut self, at: Ps, event: Event) {
        let seq = self.seq();
        self.wheel.arm((at, seq), event);
    }

    /// Schedules a setup-time event (e.g. a flow start) on the deferred
    /// lane: bulk-sorted once instead of paying heap maintenance on the
    /// hot path. Ordering relative to [`EventQueue::push`] events is
    /// identical — ties still break on global insertion order.
    pub fn push_deferred(&mut self, at: Ps, event: Event) {
        let seq = self.seq();
        self.deferred.push(((at, seq), event));
        self.deferred_dirty = true;
    }

    /// Interns `pkt` and schedules its arrival at `node`.
    #[inline(always)]
    pub fn push_arrival(&mut self, at: Ps, node: NodeId, pkt: Packet) {
        let pkt = self.pool.insert(pkt);
        self.push(at, Event::Arrive { node, pkt });
    }

    /// Redeems an [`Event::Arrive`] handle, recycling its pool slot.
    #[inline]
    pub fn take_packet(&mut self, id: PacketId) -> Packet {
        self.pool.take(id)
    }

    /// The interned packet `id`.
    #[inline]
    pub(crate) fn packet(&self, id: PacketId) -> &Packet {
        self.pool.get(id)
    }

    /// The interned packet `id`, for an in-place update.
    #[inline]
    pub(crate) fn packet_mut(&mut self, id: PacketId) -> &mut Packet {
        self.pool.get_mut(id)
    }

    /// Releases interned packet `id` without reading it (a drop).
    #[inline]
    pub(crate) fn free_packet(&mut self, id: PacketId) {
        self.pool.free(id);
    }

    /// Number of interned packets: in flight on a link or queued at a
    /// switch port.
    pub(crate) fn live_packets(&self) -> usize {
        self.pool.live()
    }

    /// The lane holding the global `(time, seq)` minimum, with its key:
    /// the single probe behind every pop and peek. The wheel probe is
    /// O(1) once its ready buffer holds the next bucket.
    #[inline]
    fn next_lane(&mut self) -> Option<(Lane, Key)> {
        if self.deferred_dirty {
            // Descending, so the earliest (at, seq) sits at the end.
            self.deferred
                .sort_unstable_by_key(|d| std::cmp::Reverse(d.0));
            self.deferred_dirty = false;
        }
        let w = self.wheel.peek();
        match (self.deferred.last(), w) {
            (Some(&(d, _)), Some(wk)) if d < wk => Some((Lane::Deferred, d)),
            (_, Some(wk)) => Some((Lane::Wheel, wk)),
            (Some(&(d, _)), None) => Some((Lane::Deferred, d)),
            (None, None) => None,
        }
    }

    /// Pops the head of `lane`, which [`EventQueue::next_lane`] chose.
    #[inline]
    fn take(&mut self, lane: Lane) -> Option<(Key, Event)> {
        match lane {
            Lane::Wheel => self.wheel.pop(),
            Lane::Deferred => self.deferred.pop(),
        }
    }

    /// Pops the earliest event, returning `(time, event)`.
    pub fn pop(&mut self) -> Option<(Ps, Event)> {
        self.pop_at_most(Ps::MAX)
    }

    /// Pops the earliest event if it is scheduled at or before `limit` —
    /// the run loop's single probe-and-pop.
    #[inline]
    pub fn pop_at_most(&mut self, limit: Ps) -> Option<(Ps, Event)> {
        let (lane, (at, _)) = self.next_lane()?;
        if at > limit {
            return None;
        }
        self.take(lane).map(|((at, _), event)| (at, event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<Ps> {
        self.next_lane().map(|(_, (at, _))| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.deferred.len() + self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.deferred.is_empty() && self.wheel.is_empty()
    }

    // ---------------------------------------------------------------
    // Crate-internal seams for the parallel executor (`crate::par`).
    //
    // The domain split drains a serial queue *with its ordering keys*
    // into per-domain wheels, and the merge-back reconstructs a queue
    // whose keys and sequence counter are exactly what a serial run
    // would hold — these accessors exist so that round trip is exact.
    // ---------------------------------------------------------------

    /// Pops the earliest event together with its `(time, seq)` key.
    pub(crate) fn pop_keyed(&mut self) -> Option<(Key, Event)> {
        let (lane, _) = self.next_lane()?;
        self.take(lane)
    }

    /// Schedules `event` under an explicit, already-assigned key.
    pub(crate) fn arm_keyed(&mut self, key: Key, event: Event) {
        self.wheel.arm(key, event);
    }

    /// The next sequence number the queue would assign.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Overrides the sequence counter (merge-back after a parallel run).
    pub(crate) fn set_next_seq(&mut self, v: u64) {
        self.next_seq = v;
    }

    /// Interns a packet without scheduling anything, returning its id.
    pub(crate) fn intern(&mut self, pkt: Packet) -> PacketId {
        self.pool.insert(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::HostTxFree { host: 3 });
        q.push(10, Event::HostTxFree { host: 1 });
        q.push(20, Event::HostTxFree { host: 2 });
        let order: Vec<Ps> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for host in 0..5 {
            q.push(42, Event::HostTxFree { host });
        }
        let hosts: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::HostTxFree { host } => host,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(hosts, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(7, Event::HostTxFree { host: 0 });
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn deferred_lane_merges_in_global_order() {
        // Interleave both lanes at equal and distinct times: pops must
        // follow (time, global insertion sequence) exactly as if all
        // events had gone through one heap.
        let mut q = EventQueue::new();
        q.push_deferred(20, Event::HostTxFree { host: 0 }); // seq 0
        q.push(10, Event::HostTxFree { host: 1 }); // seq 1
        q.push_deferred(10, Event::HostTxFree { host: 2 }); // seq 2
        q.push(20, Event::HostTxFree { host: 3 }); // seq 3
        q.push_deferred(5, Event::HostTxFree { host: 4 }); // seq 4
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(5));
        let order: Vec<(Ps, u32)> = std::iter::from_fn(|| {
            q.pop().map(|(t, e)| match e {
                Event::HostTxFree { host } => (t, host),
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(order, vec![(5, 4), (10, 1), (10, 2), (20, 0), (20, 3)]);
    }

    #[test]
    fn direct_and_deferred_pushes_merge_in_global_order() {
        // Direct and deferred pushes at equal and distinct times: pops
        // must follow (time, global insertion sequence) exactly as if
        // all events had gone through one heap.
        let mut q = EventQueue::new();
        q.push(20, Event::HostTxFree { host: 0 }); // seq 0
        q.push(10, Event::HostTxFree { host: 1 }); // seq 1
        q.push(10, Event::HostTxFree { host: 2 }); // seq 2
        q.push_deferred(10, Event::HostTxFree { host: 3 }); // seq 3
        q.push(20, Event::HostTxFree { host: 4 }); // seq 4
        q.push(5, Event::HostTxFree { host: 5 }); // seq 5
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(5));
        let order: Vec<(Ps, u32)> = std::iter::from_fn(|| {
            q.pop().map(|(t, e)| match e {
                Event::HostTxFree { host } => (t, host),
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(
            order,
            vec![(5, 5), (10, 1), (10, 2), (10, 3), (20, 0), (20, 4)]
        );
    }

    #[test]
    fn pop_at_most_respects_limit() {
        let mut q = EventQueue::new();
        q.push(50, Event::HostTxFree { host: 0 });
        assert!(q.pop_at_most(49).is_none());
        assert_eq!(q.pop_at_most(50).map(|(t, _)| t), Some(50));
        assert!(q.is_empty());
    }

    #[test]
    fn deferred_push_after_pop_resorts() {
        let mut q = EventQueue::new();
        q.push_deferred(30, Event::HostTxFree { host: 0 });
        assert_eq!(q.pop().map(|(t, _)| t), Some(30));
        q.push_deferred(40, Event::HostTxFree { host: 1 });
        q.push_deferred(35, Event::HostTxFree { host: 2 });
        assert_eq!(q.pop().map(|(t, _)| t), Some(35));
        assert_eq!(q.pop().map(|(t, _)| t), Some(40));
        assert!(q.pop().is_none());
    }

    fn stamped(i: u64) -> Packet {
        let mut p = Packet::raw(0, 0, 1, 100, 0, 0);
        p.seq = i;
        p
    }

    #[test]
    fn packet_pool_recycles_slots() {
        // Two packets in flight at a time through 1 000 push/pop rounds:
        // each handle redeems the packet pushed with it, and the pool
        // recycles its slots instead of growing.
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            q.push_arrival(2 * i + 1, NodeId::Host(1), stamped(2 * i));
            q.push_arrival(2 * i + 2, NodeId::Host(1), stamped(2 * i + 1));
            for want in [2 * i, 2 * i + 1] {
                let Some((_, Event::Arrive { pkt, .. })) = q.pop() else {
                    unreachable!()
                };
                assert_eq!(q.take_packet(pkt).seq, want);
            }
        }
        assert!(q.is_empty());
        // ⌈8/7 · 2⌉ + 1 slots at most.
        assert!(q.pool.slots.len() <= 4, "{} slots", q.pool.slots.len());
    }

    #[test]
    fn packet_pool_hands_out_slots_next_fit() {
        let mut pool = PacketPool::default();
        // Increasing order while nothing is freed.
        let ids: Vec<PacketId> = (0..16).map(|i| pool.insert(stamped(i))).collect();
        assert_eq!(ids, (0..16).collect::<Vec<_>>());
        // Freed slots come back in the hand's order, not the reverse
        // order of their release (a LIFO free list's 15, 13, 11).
        for id in (1..16).step_by(2) {
            assert_eq!(pool.take(id).seq, u64::from(id));
        }
        let ids: Vec<PacketId> = (0..3).map(|i| pool.insert(stamped(100 + i))).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        // Slot 0, behind the hand, waits until the hand wraps to it.
        pool.take(0);
        let ids: Vec<PacketId> = (0..4).map(|i| pool.insert(stamped(200 + i))).collect();
        assert_eq!(ids, vec![7, 9, 11, 13]);
        for id in [2, 4, 6] {
            pool.take(id);
        }
        let ids: Vec<PacketId> = (0..3).map(|i| pool.insert(stamped(300 + i))).collect();
        assert_eq!(ids, vec![15, 0, 2]);
        assert_eq!(pool.slots.len(), 16, "the pool grew with slots free");
        assert_eq!(pool.take(0).seq, 301);
        assert_eq!(pool.take(13).seq, 203);
    }

    #[test]
    fn packet_pool_stays_within_eight_sevenths_of_peak() {
        // A deterministic xorshift walk of inserts and takes whose live
        // count swings between empty and a few hundred: the pool never
        // holds more than ⌈8/7 · peak live⌉ + 1 slots, and every take
        // returns the packet inserted under that id.
        let mut pool = PacketPool::default();
        let mut live: Vec<(PacketId, u64)> = Vec::new();
        let (mut x, mut peak) = (0x9E37_79B9_7F4A_7C15u64, 0usize);
        for i in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Phases of 4 096 steps lean to inserts or to takes.
            let bias = if (i >> 12) % 2 == 0 { 6 } else { 3 };
            if live.is_empty() || x % 10 < bias {
                live.push((pool.insert(stamped(i)), i));
                peak = peak.max(live.len());
            } else {
                // Mostly the oldest packet, sometimes a random one.
                let k = if x % 7 == 0 {
                    (x >> 8) as usize % live.len()
                } else {
                    0
                };
                let (id, stamp) = live.remove(k);
                assert_eq!(pool.take(id).seq, stamp);
            }
            assert_eq!(pool.n_live, live.len());
            let bound = (8 * peak).div_ceil(7) + 1;
            assert!(
                pool.slots.len() <= bound,
                "{} slots for peak {peak}",
                pool.slots.len()
            );
        }
        assert!(peak > 100, "the walk should build a backlog");
    }

    #[test]
    fn scheduled_nodes_are_compact() {
        // The point of interning and the u32 NodeId: a queue entry is
        // (16-byte key, 16-byte event) — bucket drains move two aligned
        // halves, not a cache-line-straddling payload.
        assert!(
            std::mem::size_of::<Event>() <= 16,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
        assert_eq!(std::mem::size_of::<Key>(), 16);
        // A slab entry fills half a cache line exactly, and the packet
        // it no longer carries is 48 bytes.
        assert_eq!(std::mem::size_of::<crate::timer::Entry>(), 32);
        assert_eq!(std::mem::align_of::<crate::timer::Entry>(), 32);
        assert_eq!(std::mem::size_of::<Packet>(), 48);
    }

    #[test]
    fn wheel_drains_sorted_under_stress() {
        let mut q = EventQueue::new();
        let mut x = 7u64;
        let mut n = 0u32;
        for round in 0..50 {
            for _ in 0..97 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.push(x % 1_000, Event::HostTxFree { host: n });
                n += 1;
            }
            // Partially drain between rounds to mix push/pop phases.
            let mut last = 0;
            for _ in 0..(if round % 2 == 0 { 60 } else { 97 }) {
                let Some((t, _)) = q.pop() else { break };
                assert!(t >= last, "heap disorder: {t} after {last}");
                last = t;
            }
        }
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }
}
