//! The event queue's scheduling core: a one-hop calendar ring in front
//! of a hierarchical far lane.
//!
//! A packet simulator's pushes come in a few fixed distances: an ACK or
//! data serialization (nanoseconds to hundreds of nanoseconds), a link
//! arrival one serialization plus one propagation delay out (~10 µs),
//! and, rarely, a retransmission timer milliseconds ahead. The queue is
//! shaped around that mix:
//!
//! - **The ring** is a calendar of 2¹⁴ buckets, each 2¹¹ ps ≈ 2.05 ns
//!   wide, covering the 2²⁵ ps ≈ 33.6 µs after the cursor. Every packet
//!   event (`Arrive`, `PortFree`, `HostTxFree`) lands there once and is
//!   popped from its bucket after one sort of that bucket: nothing
//!   cascades. A bucket is narrower than the shortest serialization time
//!   of the modelled fabrics (a 40-byte ACK at 100 G takes 3.2 ns), and
//!   the horizon is three times their longest hop (11.2 µs: a full
//!   packet at 10 G plus a 10 µs link). A two-level occupancy bitmap
//!   finds the next occupied bucket in a bounded number of word probes
//!   at any event density.
//! - **The far lane** holds everything past the horizon: RTO/PTO
//!   timers, far-future events. It is a hierarchical wheel over
//!   *blocks* (ring spans, 2²⁵ ps) with 64 slots per level and enough
//!   levels to cover every `Ps`, so arms and cascades are O(1)
//!   amortized and no key is out of range. Before the ring's cursor
//!   enters a block, that block's far entries migrate into the ring.
//!
//! **Ordering is exact, not approximate.** Every entry keeps its full
//! `(time, seq)` key; lanes and buckets only group entries, and the
//! bucket the cursor drains is sorted by key before it is served. Runs
//! are therefore bit-for-bit identical to a heap-backed queue, which the
//! fire-order proptests in `tests/timer_wheel.rs` and the golden/shard
//! byte-identity gates pin.
//!
//! **Storage is O(peak pending events).** Ring buckets and far slots
//! are singly linked lists threaded through one slab of nodes with a
//! free list, so the slab grows to the peak number of pending entries
//! and every bucket costs one `u32` head. The ring's 64 KiB of heads
//! and its bitmap are allocated on the first arm that lands in it, so
//! an empty queue allocates nothing.
//!
//! **Links live apart from entries.** A node is a 32-byte `(key, event)`
//! record, aligned so it never straddles a cache line, plus a 4-byte
//! link in a separate dense array. A drain follows a bucket's list
//! through the links alone, so once a large fabric's slab outgrows the
//! L2 cache the chase still runs in cache and the entry loads it feeds
//! are independent of one another, instead of each waiting on the
//! previous node's miss.

use crate::event::Event;
use crate::time::Ps;

/// Queue ordering key: `(time, global insertion sequence)` — the same
/// key the event heap uses, so cross-lane ties break identically.
pub(crate) type Key = (Ps, u64);

/// log2 of a ring bucket's width in picoseconds (≈ 2.05 ns).
const TICK_BITS: u32 = 11;
/// log2 of the ring's bucket count.
const RING_BITS: u32 = 14;
/// Buckets in the ring.
const RING: usize = 1 << RING_BITS;
/// Bucket-index mask.
const RING_MASK: u64 = RING as u64 - 1;
/// Occupancy words in the ring's bitmap (one bit per bucket).
const WORDS: usize = RING / 64;
/// Words in the bitmap's summary level (one bit per occupancy word).
const SUMMARY: usize = WORDS / 64;
/// log2 of a far-lane block (one ring span) in picoseconds.
const BLOCK_BITS: u32 = TICK_BITS + RING_BITS;
/// log2 of the slot count per far-lane level.
const FAR_SLOT_BITS: u32 = 6;
/// Slots per far-lane level.
const FAR_SLOTS: usize = 1 << FAR_SLOT_BITS;
/// Far-slot index mask.
const FAR_MASK: u64 = FAR_SLOTS as u64 - 1;
/// Far-lane levels: enough 6-bit groups to cover every block index of a
/// 64-bit `Ps`, so the far lane never overflows.
const FAR_LEVELS: usize = (64 - BLOCK_BITS).div_ceil(FAR_SLOT_BITS) as usize;
/// Width of one ring bucket.
pub(crate) const BUCKET_PS: Ps = 1 << TICK_BITS;
/// Span of the ring after its cursor.
pub(crate) const HORIZON_PS: Ps = (RING as Ps) << TICK_BITS;
/// End-of-list marker for slab links.
const NIL: u32 = u32::MAX;

/// A pending entry's record in the slab: key and event in 32 bytes,
/// aligned so that no record straddles a cache line. The node's list
/// link lives apart, in `TimerWheel::links`.
#[derive(Clone, Copy)]
#[repr(align(32))]
pub(crate) struct Entry {
    key: Key,
    event: Event,
}

/// Calendar ring + far lane holding `(key, event)` entries.
///
/// Lane invariants, with ticks `key.0 >> TICK_BITS`:
///
/// - `ready` holds every entry with tick `<= cursor`, sorted descending
///   by key (popped from the end);
/// - the ring holds ticks in `(cursor, cursor + RING]`, one bucket per
///   tick (`tick & RING_MASK`), so no two ticks share a bucket;
/// - the far lane holds the rest. Each far entry's block lies after the
///   cursor's block, and `far.floor` is a lower bound on those blocks.
pub(crate) struct TimerWheel {
    /// Slab records, one per node, shared by ring buckets and far slots.
    entries: Vec<Entry>,
    /// Each node's list link: the next node of its ring bucket, far slot
    /// or the free list (`NIL` at the end), kept apart from `entries`
    /// (see the module docs).
    links: Vec<u32>,
    /// Head of the free-node list through `links`.
    free: u32,
    /// Absolute tick of the last bucket drained into `ready`.
    cursor: u64,
    /// Entries due at or before the cursor tick, sorted descending.
    ready: Vec<(Key, Event)>,
    /// Ring bucket list heads, `RING` long once allocated. A head is
    /// meaningful only while the bucket's occupancy bit is set.
    heads: Vec<u32>,
    /// Ring occupancy bitmap: bit `b` set ⟺ bucket `b` is non-empty.
    occ: Vec<u64>,
    /// Summary bitmap: bit `w` set ⟺ `occ[w] != 0`.
    summary: [u64; SUMMARY],
    /// Entries linked into ring buckets.
    in_ring: usize,
    far: FarLane,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel {
            entries: Vec::new(),
            links: Vec::new(),
            free: NIL,
            cursor: 0,
            ready: Vec::new(),
            heads: Vec::new(),
            occ: Vec::new(),
            summary: [0; SUMMARY],
            in_ring: 0,
            far: FarLane::default(),
        }
    }
}

impl TimerWheel {
    /// Pending entry count.
    pub fn len(&self) -> usize {
        self.ready.len() + self.in_ring + self.far.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an entry. `key.0` may be at any time, including before
    /// the cursor (the entry then joins `ready` at its sorted position).
    ///
    /// Every key is first written to a slab node, so that, inlined into
    /// the caller, the event goes from registers straight into its entry
    /// (see the module docs); the rare key at or before the cursor moves
    /// on to `ready` out of line.
    #[inline(always)]
    pub fn arm(&mut self, key: Key, event: Event) {
        let n = self.alloc(Entry { key, event });
        let tick = key.0 >> TICK_BITS;
        if tick <= self.cursor {
            self.arm_ready(n);
        } else if tick - self.cursor <= RING as u64 {
            self.ring_link(n, tick);
        } else {
            self.far.link(&mut self.links, n, tick >> RING_BITS);
        }
    }

    /// Moves node `n`'s entry, due at or before the cursor, into `ready`
    /// at its sorted position, and frees the node.
    #[cold]
    fn arm_ready(&mut self, n: u32) {
        let Entry { key, event } = self.entries[n as usize];
        self.links[n as usize] = self.free;
        self.free = n;
        let pos = self.ready.partition_point(|e| e.0 > key);
        self.ready.insert(pos, (key, event));
    }

    /// The earliest pending key, refilling `ready` if it is empty.
    pub fn peek(&mut self) -> Option<Key> {
        if self.ready.is_empty() && !self.refill() {
            return None;
        }
        self.ready.last().map(|e| e.0)
    }

    /// Pops the earliest pending entry.
    pub fn pop(&mut self) -> Option<(Key, Event)> {
        if self.ready.is_empty() && !self.refill() {
            return None;
        }
        self.ready.pop()
    }

    /// Stores `entry` in a free slab node, growing the slab by one node
    /// when none is free. The caller links the node.
    #[inline(always)]
    fn alloc(&mut self, entry: Entry) -> u32 {
        if self.free == NIL {
            self.grow();
        }
        let n = self.free;
        self.free = self.links[n as usize];
        self.entries[n as usize] = entry;
        n
    }

    /// Appends one node to the slab and puts it on the empty free list.
    #[cold]
    fn grow(&mut self) {
        let n = u32::try_from(self.entries.len())
            .ok()
            .filter(|&n| n != NIL)
            .expect("event queue exceeds u32 entries");
        self.entries.push(Entry {
            key: (0, 0),
            event: Event::HostTxFree { host: 0 },
        });
        self.links.push(NIL);
        self.free = n;
    }

    /// Links node `n`, due at `tick` in `(cursor, cursor + RING]`, into
    /// its ring bucket.
    fn ring_link(&mut self, n: u32, tick: u64) {
        debug_assert!(tick > self.cursor && tick - self.cursor <= RING as u64);
        if self.heads.is_empty() {
            // Zeroed, not NIL-filled: heads of empty buckets are never
            // read, and zeroed memory comes cheaply from the allocator.
            self.heads = vec![0; RING];
            self.occ = vec![0; WORDS];
        }
        let b = (tick & RING_MASK) as usize;
        let (w, bit) = (b / 64, 1u64 << (b % 64));
        self.links[n as usize] = if self.occ[w] & bit != 0 {
            self.heads[b]
        } else {
            self.occ[w] |= bit;
            self.summary[w / 64] |= 1 << (w % 64);
            NIL
        };
        self.heads[b] = n;
        self.in_ring += 1;
    }

    /// Fills the empty `ready` buffer with the earliest pending bucket.
    /// Returns `false` when nothing is pending.
    ///
    /// Far entries migrate only when they could precede the ring's next
    /// bucket: that bucket's block must reach `far.floor`. Packet events
    /// never meet the far lane, so the common refill is one bitmap probe
    /// and one bucket drain.
    fn refill(&mut self) -> bool {
        debug_assert!(self.ready.is_empty());
        loop {
            let next = self.ring_next();
            let limit = next.map_or(u64::MAX, |tick| tick >> RING_BITS);
            if limit >= self.far.floor {
                if let Some((block, head)) =
                    self.far.take_min(&self.entries, &mut self.links, limit)
                {
                    self.migrate(block, head);
                    continue;
                }
            }
            let Some(tick) = next else { return false };
            self.drain(tick);
            return true;
        }
    }

    /// The earliest occupied ring tick, scanning buckets circularly from
    /// the one after the cursor's.
    fn ring_next(&self) -> Option<u64> {
        if self.in_ring == 0 {
            return None;
        }
        let start = ((self.cursor + 1) & RING_MASK) as usize;
        let b = self
            .next_occupied(start)
            .or_else(|| self.next_occupied(0))?;
        Some(self.cursor + 1 + ((b as u64).wrapping_sub(start as u64) & RING_MASK))
    }

    /// First occupied bucket at index `>= from` (no wrap): one word
    /// probe, then at most `SUMMARY` summary words.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let bits = self.occ[w] & (u64::MAX << (from % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        let w = w + 1;
        let mut s = w / 64;
        let mut sum = *self.summary.get(s)? & (u64::MAX << (w % 64));
        loop {
            if sum != 0 {
                let w = s * 64 + sum.trailing_zeros() as usize;
                return Some(w * 64 + self.occ[w].trailing_zeros() as usize);
            }
            s += 1;
            sum = *self.summary.get(s)?;
        }
    }

    /// Moves bucket `tick`'s entries into `ready`, sorted, and frees
    /// their nodes. The cursor moves to `tick`.
    fn drain(&mut self, tick: u64) {
        self.cursor = tick;
        let b = (tick & RING_MASK) as usize;
        let w = b / 64;
        self.occ[w] &= !(1 << (b % 64));
        if self.occ[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        let mut n = self.heads[b];
        while n != NIL {
            let e = &self.entries[n as usize];
            self.ready.push((e.key, e.event));
            let next = std::mem::replace(&mut self.links[n as usize], self.free);
            self.free = n;
            n = next;
        }
        self.in_ring -= self.ready.len();
        if self.ready.len() > 1 {
            // Lists run newest first, so equal-time entries already sit
            // in descending `seq` order and the sort is near-linear.
            self.ready.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        }
    }

    /// Relinks far block `block`'s entries (list `head`) into the ring.
    /// The cursor moves to the tick just before the block, so the whole
    /// block lies inside the ring span. Requires every ring entry to lie
    /// at or after the block's start.
    fn migrate(&mut self, block: u64, mut head: u32) {
        let cursor = (block << RING_BITS) - 1;
        debug_assert!(cursor >= self.cursor, "migration moved the cursor back");
        self.cursor = cursor;
        while head != NIL {
            let next = self.links[head as usize];
            self.far.len -= 1;
            self.ring_link(head, self.entries[head as usize].key.0 >> TICK_BITS);
            head = next;
        }
    }

    /// Bytes of storage the queue holds, including unused capacity.
    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.capacity() * size_of::<Entry>()
            + self.links.capacity() * size_of::<u32>()
            + self.ready.capacity() * size_of::<(Key, Event)>()
            + self.heads.capacity() * size_of::<u32>()
            + self.occ.capacity() * size_of::<u64>()
    }
}

/// Hierarchical wheel over blocks (ring spans): level `l` slot `j` lists
/// entries whose block agrees with `cursor` on every 6-bit group above
/// `l` and has group `l` equal to `j`; level 0 also holds the cursor's
/// own block.
struct FarLane {
    /// Block the lane has advanced to; every entry's block is `>=` it.
    cursor: u64,
    heads: [[u32; FAR_SLOTS]; FAR_LEVELS],
    /// Per-level slot-occupancy bitmaps.
    occ: [u64; FAR_LEVELS],
    len: usize,
    /// Lower bound on every entry's block; `u64::MAX` when empty.
    floor: u64,
}

impl Default for FarLane {
    fn default() -> Self {
        FarLane {
            cursor: 0,
            heads: [[NIL; FAR_SLOTS]; FAR_LEVELS],
            occ: [0; FAR_LEVELS],
            len: 0,
            floor: u64::MAX,
        }
    }
}

impl FarLane {
    /// Links node `n`, due in `block`, into its slot.
    fn link(&mut self, links: &mut [u32], n: u32, block: u64) {
        self.relink(links, n, block);
        self.len += 1;
        self.floor = self.floor.min(block);
    }

    fn relink(&mut self, links: &mut [u32], n: u32, block: u64) {
        debug_assert!(block >= self.cursor, "far entry behind the lane");
        let diff = block ^ self.cursor;
        // The highest 6-bit group in which the block differs (0 if none).
        let l = (63 - (diff | 1).leading_zeros()) as usize / FAR_SLOT_BITS as usize;
        let j = ((block >> (FAR_SLOT_BITS * l as u32)) & FAR_MASK) as usize;
        links[n as usize] = if self.occ[l] & (1 << j) != 0 {
            self.heads[l][j]
        } else {
            self.occ[l] |= 1 << j;
            NIL
        };
        self.heads[l][j] = n;
    }

    /// Unlinks the earliest block's entries if that block is `<= limit`,
    /// returning it with its list head; otherwise raises `floor` past
    /// `limit` and returns `None`.
    ///
    /// Every level-`l` entry precedes every level-`l+1` entry, so the
    /// earliest slot is the first occupied one (from the cursor's index)
    /// of the lowest occupied level. A level-0 slot is exactly one
    /// block; a higher slot cascades one level down per step.
    fn take_min(&mut self, entries: &[Entry], links: &mut [u32], limit: u64) -> Option<(u64, u32)> {
        loop {
            if self.len == 0 {
                self.floor = u64::MAX;
                return None;
            }
            let (l, j) = (0..FAR_LEVELS)
                .find_map(|l| {
                    let idx = (self.cursor >> (FAR_SLOT_BITS * l as u32)) & FAR_MASK;
                    let masked = self.occ[l] & (u64::MAX << idx);
                    (masked != 0).then(|| (l, masked.trailing_zeros() as usize))
                })
                .expect("far lane lost entries");
            let shift = FAR_SLOT_BITS * l as u32;
            // Start of the slot: groups above `l` keep the cursor's
            // values, groups below `l` reset to zero.
            let start = (self.cursor & !((FAR_SLOTS as u64) << shift).wrapping_sub(1))
                + ((j as u64) << shift);
            debug_assert!(start >= self.cursor);
            if start > limit {
                self.floor = start;
                return None;
            }
            self.cursor = start;
            self.occ[l] &= !(1 << j);
            let mut n = self.heads[l][j];
            if l == 0 {
                self.floor = start + 1;
                return Some((start, n));
            }
            while n != NIL {
                let next = links[n as usize];
                self.relink(links, n, entries[n as usize].key.0 >> BLOCK_BITS);
                n = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MS, NS, SEC, US};

    fn ev(host: u32) -> Event {
        Event::HostTxFree { host }
    }

    fn drain(w: &mut TimerWheel) -> Vec<Key> {
        std::iter::from_fn(|| w.pop().map(|(k, _)| k)).collect()
    }

    #[test]
    fn pops_in_key_order_across_lanes() {
        let mut w = TimerWheel::default();
        // Same-bucket, in-ring, just-past-horizon, every far level and
        // the largest representable time, all at once.
        let times = [
            3 * US,
            17 * US,
            34 * US,
            MS,
            5 * MS,
            80 * MS,
            2 * SEC,
            60 * SEC,
            300 * SEC,
            Ps::MAX,
        ];
        for (i, &t) in times.iter().enumerate() {
            w.arm((t, i as u64), ev(i as u32));
        }
        assert_eq!(w.len(), times.len());
        let keys = drain(&mut w);
        let mut want: Vec<Key> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(keys, want);
        assert!(w.is_empty());
    }

    #[test]
    fn equal_times_pop_in_seq_order() {
        let mut w = TimerWheel::default();
        for seq in [4u64, 1, 3, 0, 2] {
            w.arm((7 * MS, seq), ev(seq as u32));
        }
        let keys = drain(&mut w);
        assert_eq!(keys, (0..5).map(|s| (7 * MS, s)).collect::<Vec<_>>());
    }

    #[test]
    fn arm_behind_cursor_joins_ready_in_order() {
        let mut w = TimerWheel::default();
        w.arm((50 * MS, 0), ev(0));
        // Peeking migrates the 50 ms block and drains its bucket.
        assert_eq!(w.peek(), Some((50 * MS, 0)));
        // A later arm at an earlier time must still pop first.
        w.arm((10 * MS, 1), ev(1));
        w.arm((50 * MS - 1, 2), ev(2));
        let keys = drain(&mut w);
        assert_eq!(keys, vec![(10 * MS, 1), (50 * MS - 1, 2), (50 * MS, 0)]);
    }

    #[test]
    fn far_block_migrates_ahead_of_later_ring_entries() {
        // A timer armed far out must pop before packet events armed once
        // the cursor has moved close to it, even when both share a block.
        let mut w = TimerWheel::default();
        let timer = 5 * MS + 7;
        w.arm((timer, 0), ev(0));
        w.arm((5 * MS - 20 * US, 1), ev(1));
        assert_eq!(w.pop().map(|(k, _)| k), Some((5 * MS - 20 * US, 1)));
        w.arm((timer + 3 * NS, 2), ev(2));
        w.arm((timer - 1, 3), ev(3));
        let keys = drain(&mut w);
        assert_eq!(keys, vec![(timer - 1, 3), (timer, 0), (timer + 3 * NS, 2)]);
    }

    #[test]
    fn interleaved_arm_and_pop_keeps_order() {
        // A deterministic xorshift mix of arms and pops; every popped
        // key must be ≥ the previous pop and match a model list.
        let mut w = TimerWheel::default();
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut seq = 0u64;
        let mut popped: Vec<Key> = Vec::new();
        let mut pending: Vec<Key> = Vec::new();
        let mut now = 0u64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Arm 0–2 timers relative to the current virtual time, at
            // ring and far-lane scales alike.
            for _ in 0..(x % 3) {
                let scale = [40 * US, 3 * SEC][(x >> 3) as usize & 1];
                let delay = (x >> 8) % scale;
                let key = (now + delay, seq);
                w.arm(key, ev(0));
                pending.push(key);
                seq += 1;
            }
            if x % 5 < 2 {
                if let Some((k, _)) = w.pop() {
                    now = k.0; // simulated clock follows fires
                    popped.push(k);
                }
            }
        }
        popped.extend(drain(&mut w));
        pending.sort_unstable();
        assert_eq!(popped, pending);
    }

    #[test]
    fn len_tracks_all_lanes() {
        let mut w = TimerWheel::default();
        assert!(w.is_empty());
        w.arm((US, 0), ev(0));
        w.arm((SEC, 1), ev(1));
        w.arm((400 * SEC, 2), ev(2));
        assert_eq!(w.len(), 3);
        w.pop();
        assert_eq!(w.len(), 2);
        drain(&mut w);
        assert!(w.is_empty());
    }

    #[test]
    fn empty_queue_allocates_nothing() {
        let mut w = TimerWheel::default();
        assert_eq!(w.retained_bytes(), 0);
        // Far-lane arms use the slab only; the ring's tables wait for
        // the first entry that lands in it.
        w.arm((MS, 0), ev(0));
        assert!(w.heads.is_empty());
        assert_eq!(w.pop().map(|(k, _)| k), Some((MS, 0)));
        assert_eq!(w.heads.len(), RING);
    }

    /// The fat-tree's recorded push mix at 100 G, one draw per call: a
    /// quarter ACK serializations (3.2 ns), a quarter data
    /// serializations (120 ns), half link arrivals (a serialization
    /// plus 10 µs), and one in 2 000 a 5 ms retransmission timer.
    fn packet_delay(x: &mut u64) -> Ps {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        if *x % 2_000 == 0 {
            return 5 * MS;
        }
        let ser = [3_200, 120 * NS][(*x >> 1) as usize & 1];
        ser + [0, 10 * US][(*x >> 2) as usize & 1] + (*x >> 8) % NS
    }

    #[test]
    fn storage_stays_proportional_to_peak_pending() {
        // Hold ~40 k pending events (the fat-tree's mean) through 1 M
        // pop/push pairs of the packet mix. Per-slot buffers that keep
        // their high-water capacity retain ~16× the live entries here.
        const PENDING: usize = 40_000;
        let mut w = TimerWheel::default();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut seq = 0u64;
        let mut arm = |w: &mut TimerWheel, now: Ps, x: &mut u64| {
            w.arm((now + packet_delay(x), seq), ev(seq as u32));
            seq += 1;
        };
        for _ in 0..PENDING {
            let now = (x >> 20) % (10 * US);
            arm(&mut w, now, &mut x);
        }
        let mut peak = w.len();
        let mut last = (0, 0);
        for _ in 0..1_000_000 {
            let (k, _) = w.pop().expect("the hold model keeps the queue full");
            assert!(k > last, "popped {k:?} after {last:?}");
            last = k;
            arm(&mut w, k.0, &mut x);
            peak = peak.max(w.len());
        }
        let live = peak * std::mem::size_of::<(Key, Event)>();
        let retained = w.retained_bytes();
        assert!(
            retained <= 3 * live,
            "queue retains {retained} B for at most {live} B of live entries"
        );
    }
}
