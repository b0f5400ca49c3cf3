//! ABM — Active Buffer Management (Addanki et al., SIGCOMM 2022).

use crate::{BufferManager, BufferState, DropReason, QueueConfig, QueueId, RateEstimator, Verdict};

/// Default time constant for the per-queue drain-rate estimator.
const DEFAULT_TAU_NS: u64 = 100_000; // 100 µs

/// Lower clamp on the normalized dequeue rate `μ` for a backlogged queue.
///
/// Prevents a fully starved queue from computing a zero threshold, which
/// would wedge it permanently (its backlog could then never turn over).
const MU_FLOOR: f64 = 1.0 / 128.0;

/// Minimum backlog for a queue to count as *congested* in `n_p(t)`.
///
/// Transient few-packet backlogs (ECMP collisions, ACK bunching) must not
/// inflate the congested-queue count, or thresholds collapse and ABM's
/// burst tolerance falls below DT's — the opposite of its published
/// behavior. Ten full-size packets is a conservative signal of standing
/// congestion.
const CONGESTED_FLOOR_BYTES: u64 = 15_000;

/// Active Buffer Management — the strongest non-preemptive baseline.
///
/// ABM's threshold extends DT (paper §7, reference \[1\]):
///
/// ```text
/// T_q(t) = α_p · (B − ΣQ(t)) · 1/n_p(t) · μ_q(t)
/// ```
///
/// where `n_p(t)` is the number of congested queues in `q`'s priority
/// class and `μ_q(t)` is `q`'s dequeue rate normalized by its port
/// capacity. Dividing by `n_p` bounds the buffer a whole class can take;
/// scaling by `μ` shrinks the claim of slow-draining queues, which
/// mitigates (but, being non-preemptive, cannot eliminate — Fig. 15) the
/// buffer-choking problem.
///
/// Implementation notes (documented substitutions for the testbed version):
///
/// - `μ` comes from a [`RateEstimator`] (EWMA, τ = 100 µs) fed by
///   [`BufferManager::on_dequeue`]; an idle-to-active queue is re-seeded at
///   full port rate so fresh bursts are not starved, and a backlogged
///   queue's `μ` is clamped to a small floor (1/128) so it can still
///   drain.
/// - A queue is *congested* when its backlog exceeds a 15 KB floor;
///   `n_p ≥ 1`.
/// - `n_p` is maintained *incrementally*: the enqueue/dequeue hooks
///   watch each queue's floor crossings and keep a per-class congested
///   count, so [`BufferManager::threshold`] — called on every admit —
///   is O(1) instead of a scan over all queues of the partition (which
///   made ABM admission quadratic in port count on the big fabrics).
///   The cache is exact, not approximate: debug builds cross-check it
///   against the full scan on every threshold call, and a proptest
///   drives random workloads through both.
#[derive(Debug, Clone)]
pub struct Abm {
    cfg: QueueConfig,
    drain: Vec<RateEstimator>,
    now_ns: u64,
    /// `congested[p]` = queues of priority class `p` with backlog above
    /// [`CONGESTED_FLOOR_BYTES`]. Updated on the floor crossings the
    /// hooks observe; every [`BufferState`] mutation is paired with its
    /// hook call (the simulator guarantees this), so the count never
    /// drifts from the scan.
    congested: Vec<u32>,
}

impl Abm {
    /// Creates an ABM instance with the default estimator time constant.
    pub fn new(cfg: QueueConfig) -> Self {
        Self::with_tau(cfg, DEFAULT_TAU_NS)
    }

    /// Creates an ABM instance with an explicit estimator time constant.
    pub fn with_tau(cfg: QueueConfig, tau_ns: u64) -> Self {
        cfg.validate();
        let drain = cfg
            .port_rate_bps
            .iter()
            .map(|&r| RateEstimator::new(tau_ns, r as f64))
            .collect();
        let classes = cfg.priority.iter().map(|&p| p as usize + 1).max();
        Abm {
            congested: vec![0; classes.unwrap_or(1)],
            cfg,
            drain,
            now_ns: 0,
        }
    }

    /// Number of congested queues in priority class `p` (backlog above
    /// [`CONGESTED_FLOOR_BYTES`]) by full scan — the reference the
    /// incremental cache is checked against (debug assert + proptest).
    fn congested_in_class_scan(&self, p: u8, state: &BufferState) -> usize {
        state
            .iter()
            .filter(|&(q, len)| len > CONGESTED_FLOOR_BYTES && self.cfg.priority[q] == p)
            .count()
    }

    /// Applies one queue's backlog change to the congested-count cache,
    /// given the backlog before and after the mutation.
    fn track_crossing(&mut self, q: QueueId, prev_len: u64, new_len: u64) {
        let was = prev_len > CONGESTED_FLOOR_BYTES;
        let is = new_len > CONGESTED_FLOOR_BYTES;
        if was != is {
            let p = self.cfg.priority[q] as usize;
            if is {
                self.congested[p] += 1;
            } else {
                self.congested[p] -= 1;
            }
        }
    }

    /// Normalized dequeue rate `μ_q ∈ [MU_FLOOR, 1]`.
    fn mu(&self, q: QueueId, state: &BufferState) -> f64 {
        if state.queue_len(q) == 0 {
            // An empty queue has no drain history that matters; be
            // optimistic so newly active queues get their fair claim.
            return 1.0;
        }
        let port = self.cfg.port_rate_bps[q] as f64;
        (self.drain[q].rate_bps(self.now_ns) / port).clamp(MU_FLOOR, 1.0)
    }
}

impl BufferManager for Abm {
    fn threshold(&self, q: QueueId, state: &BufferState) -> u64 {
        let p = self.cfg.priority[q];
        debug_assert_eq!(
            self.congested[p as usize] as usize,
            self.congested_in_class_scan(p, state),
            "congested-count cache drifted from the scan for class {p}"
        );
        let n_p = (self.congested[p as usize] as usize).max(1) as f64;
        let t = self.cfg.alpha[q] * state.free() as f64 / n_p * self.mu(q, state);
        t.min(state.capacity() as f64) as u64
    }

    fn admit(&self, q: QueueId, len: u64, state: &BufferState) -> Verdict {
        if state.total() + len > state.capacity() {
            return Verdict::Drop(DropReason::BufferFull);
        }
        if state.queue_len(q) + len > self.threshold(q, state) {
            return Verdict::Drop(DropReason::OverThreshold);
        }
        Verdict::Accept
    }

    fn on_enqueue(&mut self, q: QueueId, len: u64, now_ns: u64, state: &BufferState) {
        self.now_ns = now_ns;
        // `state` already reflects the enqueue.
        let new_len = state.queue_len(q);
        self.track_crossing(q, new_len - len, new_len);
        // Idle → active transition: seed the drain estimate at port rate.
        if new_len == len {
            let port = self.cfg.port_rate_bps[q] as f64;
            self.drain[q].reset(port, now_ns);
        }
    }

    fn on_dequeue(&mut self, q: QueueId, len: u64, now_ns: u64, state: &BufferState) {
        self.now_ns = now_ns;
        let new_len = state.queue_len(q);
        self.track_crossing(q, new_len + len, new_len);
        self.drain[q].record(len, now_ns);
    }

    fn select_victim(&mut self, _state: &BufferState) -> Option<QueueId> {
        None
    }

    fn name(&self) -> &'static str {
        "ABM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS_10: u64 = 10_000_000_000;

    #[test]
    fn empty_buffer_full_rate_matches_dt() {
        // With one congested queue draining at full rate, ABM reduces to DT.
        let bm = Abm::new(QueueConfig::uniform(2, GBPS_10, 2.0));
        let state = BufferState::new(1_000, 2);
        assert_eq!(bm.threshold(0, &state), 1_000); // capped at capacity
    }

    #[test]
    fn threshold_divides_among_congested_classmates() {
        let mut bm = Abm::new(QueueConfig::uniform(4, GBPS_10, 1.0));
        let mut state = BufferState::new(400_000, 4);
        let t1 = bm.threshold(0, &state);
        state.enqueue(0, 50_000).unwrap();
        bm.on_enqueue(0, 50_000, 0, &state);
        state.enqueue(1, 50_000).unwrap();
        bm.on_enqueue(1, 50_000, 0, &state);
        let t2 = bm.threshold(0, &state);
        // Two congested queues in the class: threshold roughly halves
        // (modulo the free-buffer change).
        assert!(
            t2 <= t1 / 2,
            "expected ~half of {t1}, got {t2} with two congested queues"
        );
    }

    #[test]
    fn tiny_backlogs_do_not_count_as_congested() {
        let bm = Abm::new(QueueConfig::uniform(4, GBPS_10, 1.0));
        let mut state = BufferState::new(400_000, 4);
        // Three queues with a couple of packets each: below the floor.
        for q in 0..3 {
            state.enqueue(q, 3_000).unwrap();
        }
        // n_p stays 1, so queue 3 sees the full α·free threshold.
        let t = bm.threshold(3, &state);
        assert_eq!(t, state.free());
    }

    #[test]
    fn priority_classes_are_counted_separately() {
        let cfg = QueueConfig::uniform(4, GBPS_10, 1.0)
            .with_priority(2, 1)
            .with_priority(3, 1);
        let mut bm = Abm::new(cfg);
        let mut state = BufferState::new(400_000, 4);
        state.enqueue(2, 50_000).unwrap();
        bm.on_enqueue(2, 50_000, 0, &state);
        state.enqueue(3, 50_000).unwrap();
        bm.on_enqueue(3, 50_000, 0, &state);
        // Class 0 has no congested queues, so queue 0 sees n_p = 1.
        let t0 = bm.threshold(0, &state);
        let t2 = bm.threshold(2, &state);
        assert!(t0 > t2, "uncongested class should see larger threshold");
    }

    #[test]
    fn slow_draining_queue_gets_smaller_threshold() {
        let mut bm = Abm::new(QueueConfig::uniform(2, GBPS_10, 1.0));
        let mut state = BufferState::new(100_000, 2);
        state.enqueue(0, 10_000).unwrap();
        state.enqueue(1, 10_000).unwrap();
        bm.on_enqueue(0, 10_000, 0, &state);
        bm.on_enqueue(1, 10_000, 0, &state);
        // Queue 0 drains at line rate (1250 B/µs), queue 1 at 1/10 of it.
        let mut now = 0;
        for i in 0..3_000u64 {
            now += 1_000;
            bm.on_dequeue(0, 1_250, now, &state);
            if i % 10 == 0 {
                bm.on_dequeue(1, 1_250, now, &state);
            }
        }
        let t_fast = bm.threshold(0, &state);
        let t_slow = bm.threshold(1, &state);
        assert!(
            t_slow * 4 < t_fast,
            "slow queue threshold {t_slow} not ≪ fast {t_fast}"
        );
    }

    #[test]
    fn empty_queue_is_optimistic() {
        let mut bm = Abm::new(QueueConfig::uniform(2, GBPS_10, 1.0));
        let mut state = BufferState::new(100_000, 2);
        // Starve queue 0's estimator while it is empty for a long time.
        bm.on_dequeue(0, 1, 1, &state);
        bm.now_ns = 10_000_000;
        // Despite the decayed estimator, an empty queue gets μ = 1.
        state.enqueue(1, 50_000).unwrap();
        bm.on_enqueue(1, 50_000, bm.now_ns, &state);
        let t = bm.threshold(0, &state);
        assert_eq!(t, 50_000, "empty queue must see the full DT threshold");
    }

    #[test]
    fn backlogged_queue_mu_is_floored() {
        let mut bm = Abm::new(QueueConfig::uniform(1, GBPS_10, 1.0));
        let mut state = BufferState::new(100_000, 1);
        state.enqueue(0, 10_000).unwrap();
        bm.on_enqueue(0, 10_000, 0, &state);
        // Never dequeues; move time far forward so the estimate decays.
        bm.now_ns = 1_000_000_000;
        let t = bm.threshold(0, &state);
        let expected_floor = (90_000.0 * MU_FLOOR) as u64;
        assert!(
            t >= expected_floor,
            "threshold {t} fell below the μ floor {expected_floor}"
        );
    }

    #[test]
    fn admit_rejects_over_threshold() {
        let mut bm = Abm::new(QueueConfig::uniform(2, GBPS_10, 0.5));
        let mut state = BufferState::new(100_000, 2);
        state.enqueue(0, 30_000).unwrap();
        bm.on_enqueue(0, 30_000, 0, &state);
        // free = 70 000, T = 35 000 for a congested queue at full μ.
        assert_eq!(
            bm.admit(0, 10_000, &state),
            Verdict::Drop(DropReason::OverThreshold)
        );
        assert_eq!(bm.admit(1, 10_000, &state), Verdict::Accept);
    }

    #[test]
    fn is_non_preemptive() {
        let mut bm = Abm::new(QueueConfig::uniform(1, GBPS_10, 1.0));
        let mut state = BufferState::new(1_000, 1);
        state.enqueue(0, 900).unwrap();
        assert_eq!(bm.select_victim(&state), None);
        assert!(!bm.is_preemptive());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The incremental congested-count cache equals the full
            /// scan after every hook-paired mutation of a random
            /// enqueue/dequeue workload across two priority classes —
            /// the invariant that makes the O(1) threshold exact.
            #[test]
            fn cached_congested_count_matches_scan(
                ops in prop::collection::vec(
                    (0usize..6, 1u64..40_000, prop::bool::ANY),
                    1..200,
                )
            ) {
                let cfg = QueueConfig::uniform(6, GBPS_10, 1.0)
                    .with_priority(3, 1)
                    .with_priority(4, 1)
                    .with_priority(5, 1);
                let mut bm = Abm::new(cfg);
                let mut state = BufferState::new(300_000, 6);
                let mut now = 0;
                for (q, bytes, is_enq) in ops {
                    now += 500;
                    if is_enq {
                        if state.enqueue(q, bytes).is_ok() {
                            bm.on_enqueue(q, bytes, now, &state);
                        }
                    } else {
                        let take = bytes.min(state.queue_len(q));
                        if take > 0 {
                            state.dequeue(q, take).unwrap();
                            bm.on_dequeue(q, take, now, &state);
                        }
                    }
                    for p in 0u8..2 {
                        prop_assert_eq!(
                            bm.congested[p as usize] as usize,
                            bm.congested_in_class_scan(p, &state),
                            "class {} count drifted", p
                        );
                    }
                    // The threshold built on the cache equals the one
                    // built on the scan (the pre-cache formula).
                    let scratch = bm.cfg.alpha[q] * state.free() as f64
                        / bm.congested_in_class_scan(bm.cfg.priority[q], &state).max(1) as f64
                        * bm.mu(q, &state);
                    prop_assert_eq!(
                        bm.threshold(q, &state),
                        scratch.min(state.capacity() as f64) as u64
                    );
                }
            }
        }
    }
}
