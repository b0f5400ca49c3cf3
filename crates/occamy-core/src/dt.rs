//! Dynamic Threshold (DT) — the de-facto non-preemptive BM.

use crate::{BufferManager, BufferState, DropReason, QueueConfig, QueueId, Verdict};

/// The DT admission threshold `trunc(min(α · free, B))` in bytes.
///
/// Kept as a free function so every scheme with a DT cap, and the
/// incremental over-allocation tracker ([`crate::OverAllocTracker`]),
/// evaluates the *same* expression as admission — the bitmap must be
/// bit-for-bit identical to a from-scratch comparator scan.
///
/// When `α = 2^k` ([`pow2_exponent`]) and both operands are below 2^53,
/// the threshold is a shift, as in hardware. It is exactly the f64
/// expression's value: below 2^53 `free` and `B` convert to f64
/// exactly, scaling by `2^k` is exact for `k ∈ [−63, 63]`, and so
/// `trunc(min(2^k · free, B))` is the integer `min(⌊2^k · free⌋, B)`.
/// Every other `α` evaluates the f64 expression.
#[inline]
pub(crate) fn dt_threshold(alpha: f64, free: u64, capacity: u64) -> u64 {
    if (free | capacity) < 1 << 53 {
        if let Some(k) = pow2_exponent(alpha) {
            return if k >= 0 {
                if free > capacity >> k {
                    capacity
                } else {
                    free << k
                }
            } else {
                (free >> -k).min(capacity)
            };
        }
    }
    let t = alpha * free as f64;
    t.min(capacity as f64) as u64
}

/// `k` such that `alpha == 2^k` exactly, for `k ∈ [−63, 63]`, read from
/// α's bits: sign 0, mantissa 0 and a normal exponent in range. Zero,
/// subnormal, negative, infinite and NaN `α` all give `None`.
#[inline]
pub(crate) fn pow2_exponent(alpha: f64) -> Option<i32> {
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = alpha.to_bits();
    if bits & MANTISSA != 0 || bits >> 63 != 0 {
        return None;
    }
    let k = (bits >> 52) as i32 - 1023;
    (-63..=63).contains(&k).then_some(k)
}

/// Dynamic Threshold buffer management (Choudhury & Hahne, ToN 1998).
///
/// Every queue is limited by a threshold proportional to the free buffer
/// (paper Eq. 1):
///
/// ```text
/// T_q(t) = α_q · (B − Σᵢ qᵢ(t))
/// ```
///
/// The scheme self-stabilizes: in steady state with `N` congested queues
/// of equal `α`, each holds `αB / (1 + αN)` bytes and `B / (1 + αN)` bytes
/// remain free (paper Eq. 2). DT is non-preemptive: the only way a queue
/// sheds buffer is by transmitting, which is the agility limitation Occamy
/// removes.
#[derive(Debug, Clone)]
pub struct DynamicThreshold {
    cfg: QueueConfig,
}

impl DynamicThreshold {
    /// Creates a DT instance for the given queue configuration.
    pub fn new(cfg: QueueConfig) -> Self {
        cfg.validate();
        DynamicThreshold { cfg }
    }

    /// The queue configuration (exposed for schemes that embed DT).
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    /// `α` of queue `q`.
    pub fn alpha(&self, q: QueueId) -> f64 {
        self.cfg.alpha[q]
    }

    /// Updates `α` of queue `q` at runtime.
    pub fn set_alpha(&mut self, q: QueueId, alpha: f64) {
        self.cfg.alpha[q] = alpha;
    }

    /// Steady-state free buffer `B / (1 + αN)` for `n` congested queues of
    /// equal `alpha` (paper Eq. 2) — used by tests and parameter analyses.
    pub fn steady_state_free(capacity: u64, alpha: f64, n: usize) -> f64 {
        capacity as f64 / (1.0 + alpha * n as f64)
    }
}

impl BufferManager for DynamicThreshold {
    #[inline]
    fn threshold(&self, q: QueueId, state: &BufferState) -> u64 {
        dt_threshold(self.cfg.alpha[q], state.free(), state.capacity())
    }

    #[inline]
    fn admit(&self, q: QueueId, len: u64, state: &BufferState) -> Verdict {
        if state.total() + len > state.capacity() {
            return Verdict::Drop(DropReason::BufferFull);
        }
        if state.queue_len(q) + len > self.threshold(q, state) {
            return Verdict::Drop(DropReason::OverThreshold);
        }
        Verdict::Accept
    }

    fn select_victim(&mut self, _state: &BufferState) -> Option<QueueId> {
        None
    }

    fn name(&self) -> &'static str {
        "DT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The f64 expression every shift must reproduce.
    fn f64_threshold(alpha: f64, free: u64, capacity: u64) -> u64 {
        (alpha * free as f64).min(capacity as f64) as u64
    }

    #[test]
    fn pow2_exponent_reads_the_bits() {
        for k in -63..=63 {
            assert_eq!(pow2_exponent(2f64.powi(k)), Some(k), "2^{k}");
        }
        for alpha in [
            0.0,
            -0.0,
            -2.0,
            3.0,
            7.77,
            2f64.powi(64),
            2f64.powi(-64),
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::from_bits(1),       // the least subnormal, 2^-1074
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_eq!(pow2_exponent(alpha), None, "α = {alpha:e}");
        }
    }

    #[test]
    fn shift_thresholds_match_the_f64_expression_at_the_edges() {
        let below = (1u64 << 53) - 1;
        let caps = [0, 1, 1_500, 400_000, below, 1 << 53, u64::MAX];
        let mut alphas: Vec<f64> = [-63, -62, -1, 0, 1, 3, 62, 63]
            .iter()
            .map(|&k| 2f64.powi(k))
            .collect();
        alphas.extend([f64::MIN_POSITIVE / 2.0, -2.0, -0.5, f64::NAN, 0.0, 7.77]);
        for &capacity in &caps {
            for free in [0, 1, capacity / 3, capacity.saturating_sub(1), capacity] {
                for &alpha in &alphas {
                    assert_eq!(
                        dt_threshold(alpha, free, capacity),
                        f64_threshold(alpha, free, capacity),
                        "α = {alpha:e}, free = {free}, B = {capacity}"
                    );
                }
            }
        }
        // Exactly the shift below 2^53, on both sides of the cap.
        assert_eq!(dt_threshold(8.0, 1_000, 400_000), 8_000);
        assert_eq!(dt_threshold(8.0, 60_000, 400_000), 400_000);
        assert_eq!(dt_threshold(0.25, 1_003, 400_000), 250);
        assert_eq!(dt_threshold(2f64.powi(63), 1, below), below);
        assert_eq!(dt_threshold(2f64.powi(-63), below, below), 0);
    }

    fn dt(n: usize, alpha: f64) -> DynamicThreshold {
        DynamicThreshold::new(QueueConfig::uniform(n, 10_000_000_000, alpha))
    }

    #[test]
    fn threshold_is_alpha_times_free() {
        let bm = dt(2, 2.0);
        let mut state = BufferState::new(1_000, 2);
        assert_eq!(bm.threshold(0, &state), 1_000); // capped at capacity
        state.enqueue(0, 600).unwrap();
        assert_eq!(bm.threshold(0, &state), 800); // 2 * 400
    }

    #[test]
    fn threshold_shrinks_as_buffer_fills() {
        let bm = dt(2, 1.0);
        let mut state = BufferState::new(1_000, 2);
        let mut prev = bm.threshold(0, &state);
        for _ in 0..5 {
            state.enqueue(1, 100).unwrap();
            let t = bm.threshold(0, &state);
            assert!(t < prev, "threshold must fall as occupancy rises");
            prev = t;
        }
    }

    #[test]
    fn admits_below_threshold_only() {
        let bm = dt(2, 1.0);
        let mut state = BufferState::new(1_000, 2);
        // Free = 1000, T = 1000: a 400 B packet fits.
        assert_eq!(bm.admit(0, 400, &state), Verdict::Accept);
        state.enqueue(0, 400).unwrap();
        // Free = 600, T = 600: queue holds 400, 300 more would exceed 600.
        assert_eq!(
            bm.admit(0, 300, &state),
            Verdict::Drop(DropReason::OverThreshold)
        );
        // But 200 fits exactly.
        assert_eq!(bm.admit(0, 200, &state), Verdict::Accept);
    }

    #[test]
    fn full_buffer_reports_buffer_full() {
        let bm = dt(1, 100.0);
        let mut state = BufferState::new(1_000, 1);
        state.enqueue(0, 1_000).unwrap();
        assert_eq!(
            bm.admit(0, 1, &state),
            Verdict::Drop(DropReason::BufferFull)
        );
    }

    #[test]
    fn steady_state_two_queues_converge_to_fair_share() {
        // Fluid-style fixed point: q = T = α(B − 2q) ⇒ q = αB/(1+2α).
        let alpha = 1.0;
        let capacity = 1_200u64;
        let bm = dt(2, alpha);
        let mut state = BufferState::new(capacity, 2);
        // Fill both queues greedily one byte at a time until DT refuses.
        let mut progress = true;
        while progress {
            progress = false;
            for q in 0..2 {
                if bm.admit(q, 1, &state) == Verdict::Accept {
                    state.enqueue(q, 1).unwrap();
                    progress = true;
                }
            }
        }
        let expect = (alpha * capacity as f64 / (1.0 + 2.0 * alpha)) as u64;
        assert!((state.queue_len(0) as i64 - expect as i64).abs() <= 2);
        assert!((state.queue_len(1) as i64 - expect as i64).abs() <= 2);
        let free_expect = DynamicThreshold::steady_state_free(capacity, alpha, 2);
        assert!((state.free() as f64 - free_expect).abs() <= 4.0);
    }

    #[test]
    fn per_queue_alpha_biases_share() {
        let cfg = QueueConfig::uniform(2, 1, 1.0).with_alpha(0, 8.0);
        let bm = DynamicThreshold::new(cfg);
        let state = BufferState::new(1_000, 2);
        assert!(bm.threshold(0, &state) >= bm.threshold(1, &state));
    }

    #[test]
    fn set_alpha_updates_threshold() {
        let mut bm = dt(1, 1.0);
        let state = BufferState::new(1_000, 1);
        bm.set_alpha(0, 0.5);
        assert_eq!(bm.threshold(0, &state), 500);
        assert_eq!(bm.alpha(0), 0.5);
    }

    #[test]
    fn never_selects_victims() {
        let mut bm = dt(2, 0.1);
        let mut state = BufferState::new(1_000, 2);
        state.enqueue(0, 900).unwrap(); // far above threshold
        assert_eq!(bm.select_victim(&state), None);
        assert!(!bm.is_preemptive());
    }
}
