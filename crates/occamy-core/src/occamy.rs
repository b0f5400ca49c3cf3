//! Occamy — the paper's preemptive buffer management scheme.

use crate::{
    BufferManager, BufferState, DynamicThreshold, OverAllocTracker, QueueBitmap, QueueConfig,
    QueueId, RoundRobinCursor, Verdict, VictimPolicy,
};

/// Occamy: DT admission plus reactive round-robin packet expulsion.
///
/// Occamy combines two components (paper §4.1):
///
/// - **Proactive**: admission is plain [`DynamicThreshold`] with a large
///   `α` (the paper recommends `α = 8`), reserving only a small fraction of
///   free buffer (`B / (1 + αN)`) because the reactive path can vacate
///   buffer quickly for newly active queues.
/// - **Reactive**: a queue is *over-allocated* iff its length exceeds its
///   current threshold `T(t)`. An [`OverAllocTracker`] maintains the
///   over-allocation bitmap *incrementally* from the
///   [`BufferManager::on_enqueue`] / [`BufferManager::on_dequeue`]
///   bookkeeping hooks — the software analogue of the paper's per-cycle
///   comparator row (§4.3, Fig. 9) — and [`Occamy::select_victim`] grants
///   victims in round-robin order without recomputing a single threshold.
///
/// Unlike Pushout, admission never waits for an expulsion: `admit` only
/// ever answers `Accept` or `Drop` (idea 1 of §4.1), so the enqueue
/// pipeline stays simple.
///
/// # Hook contract
///
/// The substrate must invoke `on_enqueue` / `on_dequeue` after every
/// occupancy change, as `occamy-sim` and `occamy-hw` do. While the
/// partition's total occupancy is at most `T(α_min, free)`, no queue can
/// be over-allocated and the tracker sleeps: a hook only re-checks that
/// guard. The first hook or `select_victim` that finds it false wakes
/// the tracker with one rebuild; it sleeps again once
/// `2 · total ≤ T(α_min, free)`. A substrate that mutated the
/// [`BufferState`] behind the scheme's back can call [`Occamy::resync`];
/// the awake tracker's hooks and `select_victim` also re-derive
/// everything from scratch when its cheap consistency probe (capacity +
/// total occupancy) detects a missed update, and count that
/// [repair](OverAllocTracker::repairs).
#[derive(Debug, Clone)]
pub struct Occamy {
    dt: DynamicThreshold,
    policy: VictimPolicy,
    cursor: RoundRobinCursor,
    tracker: OverAllocTracker,
}

impl Occamy {
    /// Recommended admission `α` from the paper's §4.4 / §6.3 analysis.
    pub const RECOMMENDED_ALPHA: f64 = 8.0;

    /// Creates Occamy with round-robin victim selection.
    pub fn new(cfg: QueueConfig) -> Self {
        Self::with_policy(cfg, VictimPolicy::RoundRobin)
    }

    /// Creates Occamy with an explicit victim policy (the `Longest`
    /// variant is the Fig. 21 ablation).
    pub fn with_policy(cfg: QueueConfig, policy: VictimPolicy) -> Self {
        let alpha = cfg.alpha.clone();
        let tracker = match policy {
            VictimPolicy::RoundRobin => OverAllocTracker::new(alpha),
            // The ablation needs the longest over-allocated queue, so the
            // tracker also maintains its max-length tournament.
            VictimPolicy::Longest => OverAllocTracker::with_longest(alpha),
        };
        Occamy {
            dt: DynamicThreshold::new(cfg),
            policy,
            cursor: RoundRobinCursor::new(),
            tracker,
        }
    }

    /// The victim-selection policy in use.
    pub fn policy(&self) -> VictimPolicy {
        self.policy
    }

    /// Read-only view of the incrementally maintained over-allocation
    /// bitmap (for instrumentation and tests). Fresh as of the last
    /// bookkeeping hook or [`Occamy::select_victim`] call.
    pub fn bitmap(&self) -> &QueueBitmap {
        self.tracker.bitmap()
    }

    /// The over-allocation tracker, for its sleep, wake and repair
    /// counts.
    pub fn tracker(&self) -> &OverAllocTracker {
        &self.tracker
    }

    /// Rebuilds the incremental victim-selection state from `state`,
    /// waking the tracker if it slept.
    ///
    /// Only needed after mutating the buffer state *without* the
    /// [`BufferManager`] bookkeeping hooks (the equivalence property
    /// tests use it to compare against a from-scratch derivation).
    pub fn resync(&mut self, state: &BufferState) {
        self.tracker.rebuild(state);
    }
}

impl BufferManager for Occamy {
    #[inline]
    fn threshold(&self, q: QueueId, state: &BufferState) -> u64 {
        self.dt.threshold(q, state)
    }

    #[inline]
    fn admit(&self, q: QueueId, len: u64, state: &BufferState) -> Verdict {
        // Admission is exactly DT (paper §4.2): no new mechanism, only an
        // adjusted α supplied through the queue configuration.
        self.dt.admit(q, len, state)
    }

    #[inline]
    fn on_enqueue(&mut self, q: QueueId, _len: u64, _now_ns: u64, state: &BufferState) {
        self.tracker.on_len_change(q, state);
    }

    #[inline]
    fn on_dequeue(&mut self, q: QueueId, _len: u64, _now_ns: u64, state: &BufferState) {
        self.tracker.on_len_change(q, state);
    }

    #[inline]
    fn select_victim(&mut self, state: &BufferState) -> Option<QueueId> {
        self.tracker.sync(state);
        debug_assert!(
            self.tracker.is_consistent_with(state),
            "over-allocation tracker diverged from buffer state \
             (asleep: {}; bookkeeping hooks not invoked?)",
            self.tracker.is_asleep()
        );
        if self.tracker.over_count() == 0 {
            // Common case on the per-packet path: nothing over-allocated
            // (always so while the tracker sleeps).
            return None;
        }
        match self.policy {
            VictimPolicy::RoundRobin => self.cursor.grant(self.tracker.bitmap()),
            VictimPolicy::Longest => self.tracker.longest_over(),
        }
    }

    fn is_preemptive(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        match self.policy {
            VictimPolicy::RoundRobin => "Occamy",
            VictimPolicy::Longest => "Occamy-Longest",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(alpha: f64) -> (Occamy, BufferState) {
        let cfg = QueueConfig::uniform(4, 10_000_000_000, alpha);
        (Occamy::new(cfg), BufferState::new(4_000, 4))
    }

    /// Enqueue plus the bookkeeping hook, as a substrate would do.
    fn enq(bm: &mut Occamy, state: &mut BufferState, q: QueueId, len: u64) {
        state.enqueue(q, len).unwrap();
        bm.on_enqueue(q, len, 0, state);
    }

    /// Dequeue plus the bookkeeping hook.
    fn deq(bm: &mut Occamy, state: &mut BufferState, q: QueueId, len: u64) {
        state.dequeue(q, len).unwrap();
        bm.on_dequeue(q, len, 0, state);
    }

    #[test]
    fn admission_matches_dt() {
        let (bm, state) = setup(1.0);
        let dt = DynamicThreshold::new(QueueConfig::uniform(4, 10_000_000_000, 1.0));
        for len in [1u64, 100, 1_000, 4_000, 5_000] {
            assert_eq!(bm.admit(0, len, &state), dt.admit(0, len, &state));
        }
    }

    #[test]
    fn no_victim_when_under_threshold() {
        let (mut bm, mut state) = setup(8.0);
        enq(&mut bm, &mut state, 0, 1_000);
        // T = 8 * 3000 = capped at capacity; queue 0 is far below it.
        assert_eq!(bm.select_victim(&state), None);
        assert!(!bm.bitmap().any());
    }

    #[test]
    fn over_allocated_queue_becomes_victim() {
        let (mut bm, mut state) = setup(1.0);
        // Fill queue 0 to 3000: free = 1000, T = 1000 < 3000 ⇒ over-allocated.
        enq(&mut bm, &mut state, 0, 3_000);
        assert_eq!(bm.select_victim(&state), Some(0));
        assert!(bm.bitmap().get(0));
    }

    #[test]
    fn round_robin_across_over_allocated_queues() {
        let (mut bm, mut state) = setup(0.25);
        // All four queues hold 600; free = 1600, T = 400 ⇒ all over-allocated.
        for q in 0..4 {
            enq(&mut bm, &mut state, q, 600);
        }
        let grants: Vec<_> = (0..8).map(|_| bm.select_victim(&state).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn longest_policy_picks_longest_over_allocated() {
        let cfg = QueueConfig::uniform(3, 1, 0.25);
        let mut bm = Occamy::with_policy(cfg, VictimPolicy::Longest);
        let mut state = BufferState::new(3_000, 3);
        enq(&mut bm, &mut state, 0, 700);
        enq(&mut bm, &mut state, 1, 900);
        enq(&mut bm, &mut state, 2, 800);
        // free = 600, T = 150: all over-allocated; longest is queue 1.
        assert_eq!(bm.select_victim(&state), Some(1));
        // Longest policy is stateless: repeated calls return the same queue.
        assert_eq!(bm.select_victim(&state), Some(1));
        assert_eq!(bm.name(), "Occamy-Longest");
    }

    #[test]
    fn victim_disappears_once_drained_below_threshold() {
        let (mut bm, mut state) = setup(1.0);
        enq(&mut bm, &mut state, 0, 3_000);
        assert_eq!(bm.select_victim(&state), Some(0));
        // Drain 2500: queue = 500, free = 3500, T = 3500 ⇒ no longer over.
        deq(&mut bm, &mut state, 0, 2_500);
        assert_eq!(bm.select_victim(&state), None);
    }

    #[test]
    fn select_victim_resyncs_after_untracked_mutation() {
        // Mutating the state behind the scheme's back (no hooks) must be
        // caught by the consistency probe, not silently mis-selected.
        let (mut bm, mut state) = setup(1.0);
        state.enqueue(0, 3_000).unwrap();
        assert_eq!(bm.select_victim(&state), Some(0));
        assert_eq!(bm.tracker().repairs(), 0, "waking is not a repair");
        state.dequeue(0, 2_500).unwrap();
        assert_eq!(bm.select_victim(&state), None);
        assert_eq!(bm.tracker().repairs(), 1);
    }

    #[test]
    fn expulsion_lets_newcomer_reach_fair_share() {
        // The headline behavior (paper Fig. 11): queue 0 is entrenched at a
        // high occupancy; when queue 1 activates, repeated head drops of
        // queue 0 must release buffer until both hold the fair share.
        let (mut bm, mut state) = setup(8.0);
        // Entrench queue 0 at its solo steady state: q = αB/(1+α) = 3555.
        while bm.admit(0, 1, &state) == Verdict::Accept {
            enq(&mut bm, &mut state, 0, 1);
        }
        let entrenched = state.queue_len(0);
        assert!(entrenched > 3_500);
        // Queue 1 activates; interleave arrivals with expulsions.
        let mut q1_accepted = 0u64;
        for _ in 0..40_000 {
            if bm.admit(1, 1, &state) == Verdict::Accept {
                enq(&mut bm, &mut state, 1, 1);
                q1_accepted += 1;
            }
            if let Some(victim) = bm.select_victim(&state) {
                deq(&mut bm, &mut state, victim, 1);
            }
        }
        // Fair share for 2 congested queues: αB/(1+2α) = 1882.
        let fair = (8.0 * 4_000.0 / 17.0) as u64;
        assert!(
            q1_accepted >= fair * 9 / 10,
            "queue 1 only reached {q1_accepted} of fair {fair}"
        );
        let q0 = state.queue_len(0);
        assert!(
            q0 < entrenched && q0 <= fair * 11 / 10,
            "queue 0 still entrenched at {q0} (fair share {fair})"
        );
    }

    #[test]
    fn recommended_alpha_is_eight() {
        assert_eq!(Occamy::RECOMMENDED_ALPHA, 8.0);
    }
}
