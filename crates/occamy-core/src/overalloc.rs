//! Incremental over-allocation tracking (paper §4.3, Fig. 9 part 1).
//!
//! In hardware the over-allocation bitmap is a row of comparators that
//! refreshes every cycle; the original software port re-derived the whole
//! bitmap — one threshold computation per queue — on *every* victim
//! grant, which put an O(N) floating-point scan on the per-packet hot
//! path. This module maintains the same bitmap incrementally.
//!
//! The key observation: queue `q` is over-allocated iff
//! `len_q > T_q(free) = trunc(min(α_q · free, B))`, and `T_q` is monotone
//! in the free space. So each queue has a single integer *flip bound*
//! `bound_q` — the smallest `free` at which it is **not** over-allocated —
//! and the over-allocated set is exactly `{q : free < bound_q}`. Keeping
//! the queues sorted by `bound` makes that set a suffix of the order: a
//! change of free space moves one split index and touches only the queues
//! whose status actually flipped, and a length change repositions one
//! queue. Victim selection then never recomputes a threshold at all.
//!
//! Most of the time even that work is wasted: no queue holds more than
//! the partition's total occupancy, and the threshold expression is
//! monotone in `α` too, so while `total ≤ T(α_min, free)` no queue can be
//! over-allocated. The tracker then *sleeps*: a hook only re-checks that
//! guard, and the bitmap stays empty. The first hook (or
//! [`OverAllocTracker::sync`]) that finds the guard false wakes it with
//! one from-scratch rebuild. It sleeps again only once
//! `2 · total ≤ T(α_min, free)`, so a partition parked at DT's
//! one-queue steady state (`total ≈ T`) does not rebuild per packet.

use crate::dt::{dt_threshold, pow2_exponent};
use crate::maxtrack::MaxTracker;
use crate::{BufferState, QueueBitmap, QueueId};
use std::cmp::Reverse;

/// Tie-breaking key for the longest over-allocated queue: maximize
/// length, break ties toward the lowest queue index.
type LongestKey = (u64, Reverse<u32>);

/// Incrementally maintained over-allocation state for DT-thresholded
/// queues (Occamy's reactive path).
///
/// Driven by [`OverAllocTracker::on_len_change`] from the buffer-manager
/// bookkeeping hooks. A new tracker starts asleep, which is exact for
/// any state below the guard, so it needs no explicit initialization.
/// While awake, a hook or [`OverAllocTracker::sync`] rebuilds from
/// scratch when its cheap consistency probe (capacity + total occupancy)
/// shows a missed update, and counts that rebuild as a
/// [repair](Self::repairs).
#[derive(Debug, Clone)]
pub struct OverAllocTracker {
    alpha: Vec<f64>,
    /// `1/α` per queue, so the per-update flip-bound guess is a multiply
    /// instead of a divide.
    inv_alpha: Vec<f64>,
    /// The smallest `α`, whose threshold bounds every queue's from below.
    alpha_min: f64,
    capacity: u64,
    total: u64,
    free: u64,
    lens: Vec<u64>,
    /// Smallest free-space value at which the queue is *not*
    /// over-allocated (`0` for an empty queue: it is never a victim).
    bounds: Vec<u64>,
    /// Queue ids sorted ascending by `(bound, id)`.
    order: Vec<u32>,
    /// Position of each queue in `order`.
    pos: Vec<u32>,
    /// First position in `order` whose bound exceeds `free`; everything
    /// at or after it is over-allocated.
    split: usize,
    bitmap: QueueBitmap,
    /// Longest-over-allocated tournament, maintained only when a caller
    /// needs it (the `Occamy-Longest` ablation).
    longest: Option<MaxTracker<LongestKey>>,
    /// Asleep: `total ≤ T(α_min, free)` held at the last hook, the bitmap
    /// and tournament are empty, and the per-queue fields above are stale
    /// until the wake-up rebuild.
    asleep: bool,
    sleeps: u64,
    wakes: u64,
    repairs: u64,
}

impl OverAllocTracker {
    /// Creates a sleeping tracker for queues with the given `α` values.
    pub fn new(alpha: Vec<f64>) -> Self {
        let n = alpha.len();
        let inv_alpha = alpha.iter().map(|&a| 1.0 / a).collect();
        let alpha_min = alpha.iter().copied().fold(f64::INFINITY, f64::min);
        OverAllocTracker {
            alpha,
            inv_alpha,
            alpha_min,
            capacity: 0,
            total: 0,
            free: 0,
            lens: vec![0; n],
            bounds: vec![0; n],
            order: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
            split: n,
            bitmap: QueueBitmap::new(n),
            longest: None,
            asleep: true,
            sleeps: 0,
            wakes: 0,
            repairs: 0,
        }
    }

    /// Like [`OverAllocTracker::new`], additionally maintaining the
    /// longest over-allocated queue ([`OverAllocTracker::longest_over`]).
    pub fn with_longest(alpha: Vec<f64>) -> Self {
        let n = alpha.len();
        let mut t = Self::new(alpha);
        t.longest = Some(MaxTracker::new(n));
        t
    }

    /// Number of queues tracked.
    pub fn num_queues(&self) -> usize {
        self.lens.len()
    }

    /// The over-allocation bitmap (bit `q` set iff queue `q` exceeds its
    /// DT threshold at the last synchronized state; empty while asleep).
    #[inline]
    pub fn bitmap(&self) -> &QueueBitmap {
        &self.bitmap
    }

    /// Number of over-allocated queues (0 while asleep).
    #[inline]
    pub fn over_count(&self) -> usize {
        self.order.len() - self.split
    }

    /// The longest over-allocated queue (ties to the lowest index), or
    /// `None` when nothing is over-allocated.
    ///
    /// # Panics
    ///
    /// Panics if the tracker was not built with
    /// [`OverAllocTracker::with_longest`].
    #[inline]
    pub fn longest_over(&self) -> Option<QueueId> {
        let t = self
            .longest
            .as_ref()
            .expect("tracker built without longest-queue tracking");
        t.max().map(|(_, Reverse(q))| q as QueueId)
    }

    /// Whether the tracker is asleep (no queue can be over-allocated).
    pub fn is_asleep(&self) -> bool {
        self.asleep
    }

    /// How many times the tracker fell asleep.
    pub fn sleeps(&self) -> u64 {
        self.sleeps
    }

    /// How many times a hook or [`OverAllocTracker::sync`] woke the
    /// tracker, each with one rebuild.
    pub fn wakes(&self) -> u64 {
        self.wakes
    }

    /// How many rebuilds an awake tracker made because its consistency
    /// probe, in a hook or in [`OverAllocTracker::sync`], failed: each is
    /// a hook-contract violation of the substrate (an occupancy change it
    /// did not report). A sleeping tracker keeps no per-queue state, so
    /// a change it misses corrupts nothing and is not counted.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// `T(α_min, free)`: every queue's threshold is at least this, since
    /// the f64 expression admission evaluates is monotone in `α`.
    #[inline]
    fn floor_threshold(&self, state: &BufferState) -> u64 {
        dt_threshold(self.alpha_min, state.free(), state.capacity())
    }

    /// Ensures the tracker matches `state`: a sleeping tracker wakes if
    /// the guard no longer holds; an awake one rebuilds from scratch when
    /// the cheap consistency probe (capacity + total occupancy) fails.
    ///
    /// Substrates that invoke the [`crate::BufferManager`] bookkeeping
    /// hooks on every enqueue/dequeue never trigger a repair.
    #[inline]
    pub fn sync(&mut self, state: &BufferState) {
        if self.asleep {
            if state.total() > self.floor_threshold(state) {
                self.wake(state);
            }
        } else if self.capacity != state.capacity() || self.total != state.total() {
            self.repair(state);
        }
    }

    /// Recomputes everything from `state` in O(N log N), leaving the
    /// tracker awake. Counts as neither a wake nor a repair.
    pub fn rebuild(&mut self, state: &BufferState) {
        self.asleep = false;
        self.capacity = state.capacity();
        self.total = state.total();
        self.free = state.free();
        for (q, len) in state.iter() {
            self.lens[q] = len;
            self.bounds[q] = self.bound_of(q, len);
        }
        self.order
            .sort_unstable_by_key(|&q| (self.bounds[q as usize], q));
        for (p, &q) in self.order.iter().enumerate() {
            self.pos[q as usize] = p as u32;
        }
        self.split = self
            .order
            .partition_point(|&q| self.bounds[q as usize] <= self.free);
        self.bitmap.clear();
        if let Some(longest) = &mut self.longest {
            longest.clear();
        }
        for p in self.split..self.order.len() {
            let q = self.order[p] as usize;
            self.bitmap.set(q, true);
            if let Some(longest) = &mut self.longest {
                longest.set(q, Some((self.lens[q], Reverse(q as u32))));
            }
        }
    }

    #[cold]
    fn wake(&mut self, state: &BufferState) {
        self.wakes += 1;
        self.rebuild(state);
    }

    #[cold]
    fn repair(&mut self, state: &BufferState) {
        self.repairs += 1;
        self.rebuild(state);
    }

    /// Empties the over-allocated set; the per-queue state goes stale
    /// until the next wake-up rebuilds it.
    fn sleep(&mut self) {
        self.asleep = true;
        self.sleeps += 1;
        self.split = self.order.len();
        self.bitmap.clear();
        if let Some(longest) = &mut self.longest {
            longest.clear();
        }
    }

    /// Bookkeeping after queue `q`'s length changed (the hook path).
    ///
    /// Asleep, this only re-checks the guard. Awake, it first probes that
    /// every other queue still holds what the tracker last saw (capacity
    /// and the total less `q`), repairing on a mismatch, then repositions
    /// `q` by its new flip bound and sweeps the split index across the
    /// free-space change, touching only the queues whose over/under
    /// status flipped.
    #[inline]
    pub fn on_len_change(&mut self, q: QueueId, state: &BufferState) {
        let floor = self.floor_threshold(state);
        if self.asleep {
            if state.total() > floor {
                self.wake(state);
            }
            return;
        }
        let len = state.queue_len(q);
        // Awake, `lens` sums to `total`, so `lens[q] ≤ total`.
        if self.capacity != state.capacity() || state.total() - len != self.total - self.lens[q] {
            self.repair(state);
            return;
        }
        if state.total() <= floor / 2 {
            self.sleep();
            return;
        }
        self.total = state.total();
        self.lens[q] = len;
        let bound = self.bound_of(q, len);
        if bound != self.bounds[q] {
            self.reposition(q, bound);
        }
        self.set_free(state.free());
        // A length change of a still-over-allocated queue must reach the
        // longest-queue tournament even when no bit flipped.
        if let Some(longest) = &mut self.longest {
            if self.bitmap.get(q) {
                longest.set(q, Some((len, Reverse(q as u32))));
            }
        }
    }

    #[inline]
    fn bound_of(&self, q: QueueId, len: u64) -> u64 {
        match pow2_exponent(self.alpha[q]) {
            // α = 2^k: the f64 product `α·F` is exact (dyadic times
            // integer), so the boundary has a closed integer form —
            // `min F with α·F ≥ len` — and the capacity clamp never
            // binds because `len ≤ capacity`.
            Some(k) if len > 0 => {
                if k >= 0 {
                    ((len - 1) >> k) + 1
                } else if len.leading_zeros() >= (-k) as u32 {
                    len << -k
                } else {
                    u64::MAX
                }
            }
            _ => flip_bound(len, self.alpha[q], self.inv_alpha[q], self.capacity),
        }
    }

    /// Moves `q` to the slot matching its new bound, keeping `order`
    /// sorted and the split index pointing at the same boundary value.
    ///
    /// Single-packet length changes barely move the bound, so the slot
    /// is found by bubbling from the old position — usually zero or one
    /// swap — rather than a binary search plus block move.
    fn reposition(&mut self, q: QueueId, bound: u64) {
        let old = self.pos[q] as usize;
        self.bounds[q] = bound;
        let key = (bound, q as u32);
        let mut new = old;
        while new + 1 < self.order.len() {
            let right = self.order[new + 1];
            if (self.bounds[right as usize], right) > key {
                break;
            }
            self.order[new] = right;
            self.pos[right as usize] = new as u32;
            new += 1;
        }
        if new == old {
            while new > 0 {
                let left = self.order[new - 1];
                if (self.bounds[left as usize], left) < key {
                    break;
                }
                self.order[new] = left;
                self.pos[left as usize] = new as u32;
                new -= 1;
            }
        }
        self.order[new] = q as u32;
        self.pos[q] = new as u32;
        // Removing q shrinks the under-allocated prefix if it lived
        // there; re-inserting grows it again iff its new bound keeps it
        // under. Sortedness guarantees the prefix stays contiguous.
        let was_over = self.bitmap.get(q);
        if old < self.split {
            self.split -= 1;
        }
        let is_over = bound > self.free;
        if !is_over {
            self.split += 1;
        }
        if is_over != was_over {
            self.flip(q, is_over);
        }
    }

    /// Moves the split to the new free-space value, flipping exactly the
    /// queues whose status changed.
    fn set_free(&mut self, free: u64) {
        self.free = free;
        while self.split > 0 && self.bounds[self.order[self.split - 1] as usize] > free {
            self.split -= 1;
            let q = self.order[self.split] as usize;
            self.flip(q, true);
        }
        while self.split < self.order.len() && self.bounds[self.order[self.split] as usize] <= free
        {
            let q = self.order[self.split] as usize;
            self.flip(q, false);
            self.split += 1;
        }
    }

    fn flip(&mut self, q: QueueId, over: bool) {
        self.bitmap.set(q, over);
        if let Some(longest) = &mut self.longest {
            longest.set(q, over.then_some((self.lens[q], Reverse(q as u32))));
        }
    }

    /// Verifies the tracker against a from-scratch derivation; used by
    /// debug assertions and the equivalence property tests. A sleeping
    /// tracker is consistent only while its guard holds.
    pub fn is_consistent_with(&self, state: &BufferState) -> bool {
        if self.asleep && state.total() > self.floor_threshold(state) {
            return false;
        }
        let mut over_count = 0;
        for (q, len) in state.iter() {
            let over = len > dt_threshold(self.alpha[q], state.free(), state.capacity());
            over_count += over as usize;
            if self.bitmap.get(q) != over {
                return false;
            }
            if let Some(longest) = &self.longest {
                if longest.get(q) != over.then_some((len, Reverse(q as u32))) {
                    return false;
                }
            }
        }
        over_count == self.over_count()
    }
}

/// The smallest free-space value `F` at which a queue of `len` bytes and
/// control parameter `alpha` is *not* over-allocated, i.e. satisfies
/// `len <= trunc(min(alpha * F, capacity))`.
///
/// Computed with the *same* floating-point expression as the admission
/// threshold so the incremental bitmap is bit-for-bit identical to a
/// from-scratch comparator scan. The predicate is monotone in `F`, so an
/// f64 guess (`len · 1/α`, within a couple of units of the boundary)
/// plus a short exact probe in the right direction finds the integer
/// flip point — one or two threshold evaluations in the common case.
#[inline]
fn flip_bound(len: u64, alpha: f64, inv_alpha: f64, capacity: u64) -> u64 {
    if len == 0 {
        return 0; // empty queues are never over-allocated
    }
    if alpha <= 0.0 {
        return u64::MAX; // zero threshold: over-allocated at any free
    }
    let guess = len as f64 * inv_alpha;
    if guess >= u64::MAX as f64 {
        // len > α·u64::MAX ≥ α·free for any representable free space:
        // over-allocated everywhere (and the walk below must not start
        // from a saturated cast).
        return u64::MAX;
    }
    let mut f = guess as u64;
    if len <= dt_threshold(alpha, f, capacity) {
        while f > 0 && len <= dt_threshold(alpha, f - 1, capacity) {
            f -= 1;
        }
    } else {
        loop {
            f += 1;
            if len <= dt_threshold(alpha, f, capacity) {
                break;
            }
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_bitmap(alpha: &[f64], state: &BufferState) -> Vec<bool> {
        state
            .iter()
            .map(|(q, len)| len > dt_threshold(alpha[q], state.free(), state.capacity()))
            .collect()
    }

    #[test]
    fn flip_bound_is_exact_boundary() {
        for &alpha in &[0.25f64, 0.5, 1.0, 2.0, 7.77, 8.0] {
            for len in [1u64, 7, 100, 999, 4_001, 65_536] {
                let b = flip_bound(len, alpha, 1.0 / alpha, 1 << 40);
                assert!(
                    len <= dt_threshold(alpha, b, 1 << 40),
                    "α={alpha} len={len}: not ok at bound {b}"
                );
                if b > 0 {
                    assert!(
                        len > dt_threshold(alpha, b - 1, 1 << 40),
                        "α={alpha} len={len}: already ok below bound {b}"
                    );
                }
            }
        }
        assert_eq!(flip_bound(0, 1.0, 1.0, 1_000), 0);
        assert_eq!(flip_bound(5, 0.0, f64::INFINITY, 1_000), u64::MAX);
    }

    #[test]
    fn tracks_random_walk_exactly() {
        let alpha = vec![0.5, 1.0, 2.0, 8.0];
        let mut t = OverAllocTracker::with_longest(alpha.clone());
        let mut state = BufferState::new(50_000, 4);
        let mut x = 42u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let q = (x % 4) as usize;
            let amount = x % 3_000 + 1;
            if x & 8 == 0 {
                if state.enqueue(q, amount).is_err() {
                    continue;
                }
            } else {
                let take = amount.min(state.queue_len(q));
                if take == 0 {
                    continue;
                }
                state.dequeue(q, take).unwrap();
            }
            t.on_len_change(q, &state);
            assert!(t.is_consistent_with(&state));
            let scratch = scratch_bitmap(&alpha, &state);
            for (q, &over) in scratch.iter().enumerate() {
                assert_eq!(t.bitmap().get(q), over);
            }
            assert_eq!(t.over_count(), scratch.iter().filter(|&&o| o).count());
        }
    }

    #[test]
    fn lazy_sync_rebuilds_after_untracked_mutation() {
        let mut t = OverAllocTracker::new(vec![1.0; 3]);
        let mut state = BufferState::new(3_000, 3);
        state.enqueue(0, 2_500).unwrap(); // free = 500 < len ⇒ over
        t.sync(&state);
        assert!(t.bitmap().get(0));
        assert!(!t.bitmap().get(1));
        assert_eq!((t.wakes(), t.repairs()), (1, 0), "the first sync wakes");
        state.dequeue(0, 2_400).unwrap(); // no hook: total changed
        t.sync(&state);
        assert!(!t.bitmap().get(0), "sync must notice the stale total");
        assert_eq!(t.repairs(), 1, "a missed hook is counted");
        // A hook on another queue notices a missed one too.
        state.enqueue(0, 2_600).unwrap(); // no hook
        state.enqueue(1, 100).unwrap();
        t.on_len_change(1, &state);
        assert_eq!(t.repairs(), 2, "the next hook counts the missed one");
        assert!(t.bitmap().get(0) && t.is_consistent_with(&state));
    }

    #[test]
    fn sleeps_below_the_guard_and_wakes_above_it() {
        // α_min = 1 and B = 10_000: awake above total 5_000 (T = free),
        // asleep again at or below total 3_333 (2·total ≤ free).
        let mut t = OverAllocTracker::with_longest(vec![1.0, 4.0]);
        let mut state = BufferState::new(10_000, 2);
        for _ in 0..50 {
            state.enqueue(0, 100).unwrap();
            t.on_len_change(0, &state);
        }
        assert!(t.is_asleep(), "total 5_000 = T(α_min, free): still asleep");
        assert_eq!(t.wakes(), 0);
        state.enqueue(1, 100).unwrap();
        t.on_len_change(1, &state);
        assert!(!t.is_asleep());
        assert_eq!(t.wakes(), 1);
        // Queue 0 holds 5_000 > T_0 = 4_900: over-allocated; queue 1
        // (α = 4) is not.
        assert_eq!(t.over_count(), 1);
        assert_eq!(t.longest_over(), Some(0));
        while state.total() > 3_400 {
            state.dequeue(0, 100).unwrap();
            t.on_len_change(0, &state);
            assert!(!t.is_asleep(), "above the sleep guard at {}", state.total());
            assert!(t.is_consistent_with(&state));
        }
        state.dequeue(0, 100).unwrap();
        t.on_len_change(0, &state);
        assert!(t.is_asleep(), "total 3_300 ≤ free / 2");
        assert_eq!((t.sleeps(), t.over_count(), t.longest_over()), (1, 0, None));
        assert!(!t.bitmap().any());
        assert!(t.is_consistent_with(&state));
        // Wake with queue 0 over-allocated (5_000 > T_0 = 4_900), then
        // empty it in one hook: the tracker falls asleep straight from
        // the over-allocated state and must drop queue 0's bit with it.
        state.enqueue(0, 1_800).unwrap();
        t.on_len_change(0, &state);
        assert_eq!(
            (t.wakes(), t.over_count(), t.longest_over()),
            (2, 1, Some(0))
        );
        state.dequeue(0, 5_000).unwrap();
        t.on_len_change(0, &state);
        assert!(t.is_asleep(), "total 100 ≤ free / 2");
        assert_eq!((t.sleeps(), t.over_count(), t.longest_over()), (2, 0, None));
        assert!(!t.bitmap().any(), "queue 0's bit outlived the sleep");
        assert!(t.is_consistent_with(&state));
        assert_eq!(t.repairs(), 0);
    }

    #[test]
    fn one_packet_oscillation_at_the_guard_wakes_once() {
        // A queue parked at the guard's last total crosses it with every
        // packet, as DT's one-queue steady state does (for α = 8 and
        // B = 9_000: `total ≤ 8 · free` holds up to 8_000).
        for alpha in [8.0, 7.77] {
            let cap = 9_000;
            let park = (0..=cap)
                .rev()
                .find(|&total| total <= dt_threshold(alpha, cap - total, cap))
                .unwrap();
            let mut t = OverAllocTracker::new(vec![alpha; 4]);
            let mut state = BufferState::new(cap, 4);
            state.enqueue(0, park - 1).unwrap();
            t.on_len_change(0, &state);
            assert!(t.is_asleep(), "α={alpha}: asleep below the guard");
            for _ in 0..1_000 {
                state.enqueue(0, 2).unwrap();
                t.on_len_change(0, &state);
                assert!(t.is_consistent_with(&state));
                state.dequeue(0, 2).unwrap();
                t.on_len_change(0, &state);
                assert!(t.is_consistent_with(&state));
            }
            assert_eq!(t.wakes(), 1, "α={alpha}: woke {} times", t.wakes());
            assert_eq!(t.sleeps(), 0, "α={alpha}: slept inside the hysteresis band");
        }
    }

    #[test]
    fn longest_over_breaks_ties_low() {
        let mut t = OverAllocTracker::with_longest(vec![0.25; 3]);
        let mut state = BufferState::new(3_000, 3);
        for q in 0..3 {
            state.enqueue(q, 700).unwrap();
            t.on_len_change(q, &state);
        }
        // free = 900, T = 225: all over; equal lengths ⇒ queue 0.
        assert_eq!(t.longest_over(), Some(0));
        state.enqueue(2, 100).unwrap();
        t.on_len_change(2, &state);
        assert_eq!(t.longest_over(), Some(2));
        assert!(t.is_consistent_with(&state));
    }
}
