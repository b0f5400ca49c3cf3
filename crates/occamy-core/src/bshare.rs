//! BShare — packet-queueing-delay-driven buffer sharing
//! (Agarwal et al.; see PAPERS.md).

use crate::dt::dt_threshold;
use crate::{BufferManager, BufferState, DropReason, QueueConfig, QueueId, RateEstimator, Verdict};

/// Default time constant for the per-queue drain-rate estimator.
const DEFAULT_TAU_NS: u64 = 100_000; // 100 µs

/// Default target queueing delay a queue's backlog may represent.
const DEFAULT_DELAY_TARGET_NS: u64 = 100_000; // 100 µs

/// Lower clamp on the normalized drain rate for a backlogged queue, so a
/// starved queue keeps a non-zero threshold and can turn its backlog over
/// (same rationale as ABM's `μ` floor).
const RATE_FLOOR: f64 = 1.0 / 128.0;

/// BShare — delay-driven buffer sharing.
///
/// Where DT sizes a queue's claim from the *free buffer*, BShare sizes
/// it from the *queueing delay* the backlog represents: a queue draining
/// at rate `r_q(t)` holding `len_q` bytes imposes `len_q / r_q` of delay
/// on its head packet, so capping the backlog at
///
/// ```text
/// T_q(t) = min( d · r_q(t) ,  α · (B − ΣQ(t)) )
/// ```
///
/// (delay target `d`, default 100 µs) bounds per-hop queueing delay
/// directly — fast-draining queues may buffer deeply, slow or choked
/// queues are clamped to a shallow backlog. The `α·free` term is the DT
/// safety cap that keeps admission overload-safe when the buffer runs
/// out; `α` is the scheme's knob alongside `d`.
///
/// This is a documented interpretation of the delay-driven rule from
/// the retrieved BShare work (the original targets programmable
/// switches); the drain rate comes from the same [`RateEstimator`]
/// EWMA machinery ABM uses (τ = 100 µs), fed by the dequeue hooks, with
/// ABM's idle-to-active reseed at full port rate so fresh bursts are
/// not starved. Admission is O(1): both the estimator read and the DT
/// term are constant-time, no per-queue scan exists to cache.
#[derive(Debug, Clone)]
pub struct BShare {
    cfg: QueueConfig,
    delay_target_ns: u64,
    drain: Vec<RateEstimator>,
    now_ns: u64,
}

impl BShare {
    /// The default delay target `d` (100 µs) — exported so callers that
    /// make `d` tunable (e.g. the `bshare_delay_us` grid knob) can
    /// reproduce `BShare::new` exactly at the default point.
    pub const DEFAULT_DELAY_TARGET_NS: u64 = DEFAULT_DELAY_TARGET_NS;

    /// Creates a BShare instance with the default 100 µs delay target.
    pub fn new(cfg: QueueConfig) -> Self {
        Self::with_delay_target(cfg, DEFAULT_DELAY_TARGET_NS)
    }

    /// Creates a BShare instance with an explicit delay target.
    pub fn with_delay_target(cfg: QueueConfig, delay_target_ns: u64) -> Self {
        cfg.validate();
        let drain = cfg
            .port_rate_bps
            .iter()
            .map(|&r| RateEstimator::new(DEFAULT_TAU_NS, r as f64))
            .collect();
        BShare {
            cfg,
            delay_target_ns,
            drain,
            now_ns: 0,
        }
    }

    /// Effective drain rate for queue `q` in bits/s: the EWMA estimate,
    /// clamped to `[RATE_FLOOR, 1] ×` port rate; an empty queue is
    /// priced optimistically at full port rate (no drain history that
    /// matters — same optimism as ABM's empty-queue `μ = 1`).
    fn drain_bps(&self, q: QueueId, state: &BufferState) -> f64 {
        let port = self.cfg.port_rate_bps[q] as f64;
        if state.queue_len(q) == 0 {
            return port;
        }
        self.drain[q]
            .rate_bps(self.now_ns)
            .clamp(port * RATE_FLOOR, port)
    }

    /// The delay-target term `d · r_q(t)` in bytes.
    fn delay_budget_bytes(&self, q: QueueId, state: &BufferState) -> u64 {
        (self.drain_bps(q, state) / 8.0 * self.delay_target_ns as f64 / 1e9) as u64
    }
}

impl BufferManager for BShare {
    fn threshold(&self, q: QueueId, state: &BufferState) -> u64 {
        let dt_cap = dt_threshold(self.cfg.alpha[q], state.free(), state.capacity());
        self.delay_budget_bytes(q, state).min(dt_cap)
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
        // Idle → active transition: seed the drain estimate at port rate.
        if state.queue_len(q) == len {
            let port = self.cfg.port_rate_bps[q] as f64;
            self.drain[q].reset(port, now_ns);
        }
    }

    fn on_dequeue(&mut self, q: QueueId, len: u64, now_ns: u64, _state: &BufferState) {
        self.now_ns = now_ns;
        self.drain[q].record(len, now_ns);
    }

    fn select_victim(&mut self, _state: &BufferState) -> Option<QueueId> {
        None
    }

    fn name(&self) -> &'static str {
        "BShare"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS_10: u64 = 10_000_000_000;

    /// 10 Gbps × 100 µs = 125 000 bytes of delay budget at full rate.
    const FULL_RATE_BUDGET: u64 = 125_000;

    #[test]
    fn empty_queue_gets_full_rate_delay_budget() {
        let bm = BShare::new(QueueConfig::uniform(2, GBPS_10, 8.0));
        let state = BufferState::new(1_000_000, 2);
        assert_eq!(bm.threshold(0, &state), FULL_RATE_BUDGET);
    }

    #[test]
    fn alpha_free_cap_binds_when_buffer_fills() {
        let mut bm = BShare::new(QueueConfig::uniform(2, GBPS_10, 1.0));
        let mut state = BufferState::new(200_000, 2);
        state.enqueue(1, 150_000).unwrap();
        bm.on_enqueue(1, 150_000, 0, &state);
        // free = 50 000 < the 125 000 delay budget: the DT cap binds.
        assert_eq!(bm.threshold(0, &state), 50_000);
    }

    #[test]
    fn slow_draining_queue_is_clamped_to_shallow_backlog() {
        let mut bm = BShare::new(QueueConfig::uniform(2, GBPS_10, 8.0));
        let mut state = BufferState::new(10_000_000, 2);
        state.enqueue(0, 100_000).unwrap();
        bm.on_enqueue(0, 100_000, 0, &state);
        state.enqueue(1, 100_000).unwrap();
        bm.on_enqueue(1, 100_000, 0, &state);
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
    fn starved_queue_threshold_is_floored_not_zero() {
        let mut bm = BShare::new(QueueConfig::uniform(1, GBPS_10, 8.0));
        let mut state = BufferState::new(10_000_000, 1);
        state.enqueue(0, 10_000).unwrap();
        bm.on_enqueue(0, 10_000, 0, &state);
        // Never dequeues; move time far forward so the estimate decays.
        bm.now_ns = 1_000_000_000;
        let floor = (FULL_RATE_BUDGET as f64 * RATE_FLOOR) as u64;
        assert!(bm.threshold(0, &state) >= floor);
    }

    #[test]
    fn admit_rejects_over_threshold() {
        let bm = BShare::new(QueueConfig::uniform(2, GBPS_10, 8.0));
        let state = BufferState::new(1_000_000, 2);
        // A fresh queue's budget is 125 000 bytes: a larger burst is
        // refused, a smaller one admitted.
        assert_eq!(
            bm.admit(0, FULL_RATE_BUDGET + 1, &state),
            Verdict::Drop(DropReason::OverThreshold)
        );
        assert_eq!(bm.admit(0, FULL_RATE_BUDGET, &state), Verdict::Accept);
    }

    #[test]
    fn is_non_preemptive() {
        let mut bm = BShare::new(QueueConfig::uniform(1, GBPS_10, 8.0));
        let mut state = BufferState::new(10_000, 1);
        state.enqueue(0, 9_000).unwrap();
        bm.on_enqueue(0, 9_000, 0, &state);
        assert_eq!(bm.select_victim(&state), None);
        assert!(!bm.is_preemptive());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The hook-driven estimator state yields a threshold equal
            /// to the from-scratch formula recomputed from a shadow
            /// estimator after every mutation — the BShare analogue of
            /// the ABM/DAMQ cache-vs-scan proptests.
            #[test]
            fn threshold_matches_scratch_formula(
                ops in prop::collection::vec(
                    (0usize..4, 1u64..40_000, prop::bool::ANY),
                    1..200,
                )
            ) {
                let cfg = QueueConfig::uniform(4, GBPS_10, 2.0);
                let mut bm = BShare::new(cfg);
                let mut shadow: Vec<RateEstimator> = (0..4)
                    .map(|_| RateEstimator::new(DEFAULT_TAU_NS, GBPS_10 as f64))
                    .collect();
                let mut state = BufferState::new(300_000, 4);
                let mut now = 0;
                for (q, bytes, is_enq) in ops {
                    now += 500;
                    if is_enq {
                        if state.enqueue(q, bytes).is_ok() {
                            bm.on_enqueue(q, bytes, now, &state);
                            if state.queue_len(q) == bytes {
                                shadow[q].reset(GBPS_10 as f64, now);
                            }
                        }
                    } else {
                        let take = bytes.min(state.queue_len(q));
                        if take > 0 {
                            state.dequeue(q, take).unwrap();
                            bm.on_dequeue(q, take, now, &state);
                            shadow[q].record(take, now);
                        }
                    }
                    let port = GBPS_10 as f64;
                    let rate = if state.queue_len(q) == 0 {
                        port
                    } else {
                        shadow[q].rate_bps(now).clamp(port * RATE_FLOOR, port)
                    };
                    let budget =
                        (rate / 8.0 * DEFAULT_DELAY_TARGET_NS as f64 / 1e9) as u64;
                    let cap = (2.0 * state.free() as f64)
                        .min(state.capacity() as f64) as u64;
                    prop_assert_eq!(bm.threshold(q, &state), budget.min(cap));
                }
            }
        }
    }
}
