//! Pushout — the classically optimal (but hard to implement) preemptive BM.

use crate::{BufferManager, BufferState, DropReason, MaxTracker, QueueConfig, QueueId, Verdict};
use std::cmp::Reverse;

/// Victim-ordering key: lowest-importance class first (highest `priority`
/// value), then longest queue, then lowest queue index.
type VictimKey = (u8, u64, Reverse<u32>);

/// Pushout buffer management (Thareja & Agrawala 1984; Wei et al. 1991).
///
/// Accepts an arriving packet whenever there is free buffer space; when the
/// buffer is full it evicts packets from the *longest* queue to make room
/// (paper §2.2). Pushout is throughput/loss-optimal but couples enqueue
/// with dequeue and needs a real-time Maximum Finder, which is why the
/// paper treats it as an idealized upper bound rather than a deployable
/// scheme — `occamy-hw::maxfinder` quantifies that hardware cost.
///
/// With multiple scheduling priorities this implements *space-priority*
/// pushout (Kroner et al. 1991; Choudhury & Hahne 1993, the paper's §7
/// lineage): the victim is the longest queue of the **lowest-importance
/// backlogged class**, so high-priority traffic is never pushed out while
/// low-priority buffer exists. With a single class this reduces to plain
/// longest-queue pushout.
///
/// `admit` returns [`Verdict::Evict`] when room must be made first; the
/// substrate then calls [`Pushout::select_victim`] (repeatedly, for large
/// packets) and performs the head drops synchronously before enqueuing.
///
/// Victim lookup is O(1): a [`MaxTracker`] tournament — the software
/// Maximum Finder — is updated in O(log N) from the
/// [`BufferManager::on_enqueue`] / [`BufferManager::on_dequeue`] hooks,
/// instead of the former full scan per eviction. Substrates that mutate
/// the state without the hooks are caught by a cheap consistency probe
/// (or can call [`Pushout::resync`] explicitly).
#[derive(Debug, Clone)]
pub struct Pushout {
    cfg: QueueConfig,
    longest: MaxTracker<VictimKey>,
    total: u64,
    synced: bool,
    repairs: u64,
}

impl Pushout {
    /// Creates a Pushout instance.
    pub fn new(cfg: QueueConfig) -> Self {
        cfg.validate();
        let n = cfg.num_queues();
        Pushout {
            cfg,
            longest: MaxTracker::new(n),
            total: 0,
            synced: false,
            repairs: 0,
        }
    }

    /// The queue configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    fn key(&self, q: QueueId, len: u64) -> Option<VictimKey> {
        (len > 0).then_some((self.cfg.priority[q], len, Reverse(q as u32)))
    }

    /// Rebuilds the incremental victim state from `state` (only needed
    /// after mutating occupancy without the bookkeeping hooks).
    pub fn resync(&mut self, state: &BufferState) {
        for (q, len) in state.iter() {
            self.longest.set(q, self.key(q, len));
        }
        self.total = state.total();
        self.synced = true;
    }

    /// How many rebuilds the consistency probe forced after the first
    /// sync: each is a hook-contract violation of the substrate (an
    /// occupancy change it did not report).
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    fn sync(&mut self, state: &BufferState) {
        if !self.synced {
            self.resync(state);
        } else if self.total != state.total() {
            self.repairs += 1;
            self.resync(state);
        }
    }

    /// Reference full-scan victim selection; only evaluated by the
    /// debug-build divergence assertion.
    fn scratch_victim(&self, state: &BufferState) -> Option<QueueId> {
        state
            .iter()
            .filter(|&(_, len)| len > 0)
            .max_by(|&(qa, la), &(qb, lb)| {
                let pa = self.cfg.priority[qa];
                let pb = self.cfg.priority[qb];
                pa.cmp(&pb).then(la.cmp(&lb)).then(qb.cmp(&qa))
            })
            .map(|(q, _)| q)
    }
}

impl BufferManager for Pushout {
    fn threshold(&self, _q: QueueId, state: &BufferState) -> u64 {
        // Pushout imposes no per-queue limit; report the full capacity so
        // instrumentation can plot a meaningful line.
        state.capacity()
    }

    #[inline]
    fn admit(&self, q: QueueId, len: u64, state: &BufferState) -> Verdict {
        if len > state.capacity() {
            // A packet larger than the whole buffer can never be stored.
            return Verdict::Drop(DropReason::BufferFull);
        }
        if state.total() + len <= state.capacity() {
            return Verdict::Accept;
        }
        // If the arriving queue is itself the longest, evicting from it and
        // accepting at the tail is still correct (and is what head-drop
        // Pushout variants do), so Evict is always answerable unless the
        // buffer is empty (impossible here since total + len > capacity and
        // len <= capacity together imply total > 0).
        let _ = q;
        Verdict::Evict
    }

    #[inline]
    fn on_enqueue(&mut self, q: QueueId, _len: u64, _now_ns: u64, state: &BufferState) {
        self.longest.set(q, self.key(q, state.queue_len(q)));
        self.total = state.total();
        self.synced = true;
    }

    #[inline]
    fn on_dequeue(&mut self, q: QueueId, _len: u64, _now_ns: u64, state: &BufferState) {
        self.longest.set(q, self.key(q, state.queue_len(q)));
        self.total = state.total();
    }

    #[inline]
    fn select_victim(&mut self, state: &BufferState) -> Option<QueueId> {
        self.sync(state);
        let victim = self.longest.max().map(|(_, _, Reverse(q))| q as QueueId);
        debug_assert_eq!(
            victim,
            self.scratch_victim(state),
            "pushout max tracker diverged from buffer state \
             (bookkeeping hooks not invoked?)"
        );
        victim
    }

    fn is_preemptive(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "Pushout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Pushout, BufferState) {
        (
            Pushout::new(QueueConfig::uniform(3, 10_000_000_000, 1.0)),
            BufferState::new(3_000, 3),
        )
    }

    /// Enqueue plus the bookkeeping hook, as a substrate would do.
    fn enq(bm: &mut Pushout, state: &mut BufferState, q: QueueId, len: u64) {
        state.enqueue(q, len).unwrap();
        bm.on_enqueue(q, len, 0, state);
    }

    /// Dequeue plus the bookkeeping hook.
    fn deq(bm: &mut Pushout, state: &mut BufferState, q: QueueId, len: u64) {
        state.dequeue(q, len).unwrap();
        bm.on_dequeue(q, len, 0, state);
    }

    #[test]
    fn admits_whenever_space_exists() {
        let (mut bm, mut state) = setup();
        assert_eq!(bm.admit(0, 3_000, &state), Verdict::Accept);
        enq(&mut bm, &mut state, 0, 2_999);
        assert_eq!(bm.admit(1, 1, &state), Verdict::Accept);
    }

    #[test]
    fn requests_eviction_when_full() {
        let (mut bm, mut state) = setup();
        enq(&mut bm, &mut state, 0, 3_000);
        assert_eq!(bm.admit(1, 100, &state), Verdict::Evict);
    }

    #[test]
    fn oversized_packet_is_dropped_outright() {
        let (bm, state) = setup();
        assert_eq!(
            bm.admit(0, 3_001, &state),
            Verdict::Drop(DropReason::BufferFull)
        );
    }

    #[test]
    fn victim_is_longest_queue() {
        let (mut bm, mut state) = setup();
        enq(&mut bm, &mut state, 0, 1_000);
        enq(&mut bm, &mut state, 1, 1_500);
        enq(&mut bm, &mut state, 2, 500);
        assert_eq!(bm.select_victim(&state), Some(1));
    }

    #[test]
    fn victim_found_without_hooks_via_resync_probe() {
        // Direct state mutation (no hooks) changes the total, which the
        // consistency probe notices before answering.
        let (mut bm, mut state) = setup();
        state.enqueue(0, 1_000).unwrap();
        state.enqueue(1, 1_500).unwrap();
        assert_eq!(bm.select_victim(&state), Some(1));
        assert_eq!(bm.repairs(), 0, "the first sync is not a repair");
        state.dequeue(1, 1_200).unwrap();
        assert_eq!(bm.select_victim(&state), Some(0));
        assert_eq!(bm.repairs(), 1);
    }

    #[test]
    fn low_priority_class_is_evicted_first() {
        // Queue 0 is high priority (class 0) and longest; queues 1–2 are
        // low priority. Space-priority pushout must sacrifice the LP
        // queues before touching HP buffer.
        let cfg = QueueConfig::uniform(3, 10_000_000_000, 1.0)
            .with_priority(1, 1)
            .with_priority(2, 1);
        let mut bm = Pushout::new(cfg);
        let mut state = BufferState::new(3_000, 3);
        enq(&mut bm, &mut state, 0, 1_500);
        enq(&mut bm, &mut state, 1, 800);
        enq(&mut bm, &mut state, 2, 700);
        assert_eq!(bm.select_victim(&state), Some(1), "longest LP queue");
        deq(&mut bm, &mut state, 1, 800);
        assert_eq!(bm.select_victim(&state), Some(2), "remaining LP queue");
        deq(&mut bm, &mut state, 2, 700);
        // Only HP left: it becomes the victim of last resort.
        assert_eq!(bm.select_victim(&state), Some(0));
    }

    #[test]
    fn eviction_loop_makes_room() {
        // Emulate what the substrate does on Verdict::Evict: head-drop
        // 100-byte packets from the victim until the newcomer fits.
        let (mut bm, mut state) = setup();
        enq(&mut bm, &mut state, 0, 2_000);
        enq(&mut bm, &mut state, 1, 1_000);
        let incoming = 500u64;
        assert_eq!(bm.admit(2, incoming, &state), Verdict::Evict);
        while state.free() < incoming {
            let v = bm.select_victim(&state).unwrap();
            deq(&mut bm, &mut state, v, 100);
        }
        assert_eq!(bm.admit(2, incoming, &state), Verdict::Accept);
        enq(&mut bm, &mut state, 2, incoming);
        // The longest queue (0) paid the price.
        assert_eq!(state.queue_len(0), 1_500);
        assert_eq!(state.queue_len(1), 1_000);
    }

    #[test]
    fn threshold_reports_capacity() {
        let (bm, state) = setup();
        assert_eq!(bm.threshold(0, &state), 3_000);
        assert!(bm.is_preemptive());
    }
}
