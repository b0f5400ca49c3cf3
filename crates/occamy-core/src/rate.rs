//! Time-decayed rate estimation (used by ABM's normalized dequeue rate).

/// Exponentially weighted moving-average rate estimator.
///
/// On every sample the previous estimate is decayed by `e^(−Δt/τ)` and the
/// new instantaneous rate is blended in; reads between samples apply the
/// same decay, so a queue that stops draining sees its estimated rate fall
/// toward zero with time constant `τ` rather than freezing at a stale
/// value. This matters for ABM: a low-priority queue starved by strict
/// priority must be *measured* as slow-draining for its threshold to
/// shrink (the mechanism ABM uses against buffer choking).
#[derive(Debug, Clone)]
pub struct RateEstimator {
    tau_ns: f64,
    rate_bps: f64,
    last_ns: u64,
    /// Memo of the last `(dt, bytes)` sample and its derived
    /// `(decay, instantaneous rate)`. Paced traffic (CBR sources, a
    /// saturated port draining fixed-size packets) repeats the same
    /// sample shape on every packet, and `exp` was one of the few
    /// remaining per-packet transcendental calls on the hot path. The
    /// memo replays the *same* f64 values, so estimates are bit-for-bit
    /// unchanged.
    memo: (u64, u64, f64, f64),
}

impl RateEstimator {
    /// Creates an estimator with time constant `tau_ns`, seeded with
    /// `initial_bps` (optimistic seeding avoids starving fresh queues).
    pub fn new(tau_ns: u64, initial_bps: f64) -> Self {
        RateEstimator {
            tau_ns: tau_ns as f64,
            rate_bps: initial_bps,
            last_ns: 0,
            memo: (0, 0, 0.0, 0.0),
        }
    }

    /// Records `bytes` transferred at time `now_ns`.
    #[inline]
    pub fn record(&mut self, bytes: u64, now_ns: u64) {
        let dt_ns = now_ns.saturating_sub(self.last_ns).max(1);
        let (w, inst_bps) = if (dt_ns, bytes) == (self.memo.0, self.memo.1) {
            (self.memo.2, self.memo.3)
        } else {
            let dt = dt_ns as f64;
            let w = (-dt / self.tau_ns).exp();
            let inst_bps = bytes as f64 * 8.0 * 1e9 / dt;
            self.memo = (dt_ns, bytes, w, inst_bps);
            (w, inst_bps)
        };
        self.rate_bps = w * self.rate_bps + (1.0 - w) * inst_bps;
        self.last_ns = now_ns;
    }

    /// Current estimate in bits/s, decayed to time `now_ns`.
    pub fn rate_bps(&self, now_ns: u64) -> f64 {
        let dt = now_ns.saturating_sub(self.last_ns) as f64;
        self.rate_bps * (-dt / self.tau_ns).exp()
    }

    /// Resets the estimate to `bps` as of `now_ns` (used when a queue
    /// transitions from idle to active).
    pub fn reset(&mut self, bps: f64, now_ns: u64) {
        self.rate_bps = bps;
        self.last_ns = now_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;

    #[test]
    fn steady_stream_converges_to_true_rate() {
        // 1250 bytes every 1 µs = 10 Gbps.
        let mut est = RateEstimator::new(100 * US, 0.0);
        let mut now = 0;
        for _ in 0..2_000 {
            now += US;
            est.record(1_250, now);
        }
        let r = est.rate_bps(now);
        assert!(
            (r - 1e10).abs() / 1e10 < 0.02,
            "expected ~10 Gbps, got {r:.3e}"
        );
    }

    #[test]
    fn silence_decays_estimate() {
        let mut est = RateEstimator::new(100 * US, 0.0);
        let mut now = 0;
        for _ in 0..1_000 {
            now += US;
            est.record(1_250, now);
        }
        let before = est.rate_bps(now);
        // Five time constants of silence: rate should fall below 1%.
        let later = now + 500 * US;
        let after = est.rate_bps(later);
        assert!(after < before * 0.01, "rate {after:.3e} did not decay");
    }

    #[test]
    fn optimistic_seed_persists_until_evidence() {
        let est = RateEstimator::new(100 * US, 1e10);
        // Immediately after seeding the estimate is the seed.
        assert!((est.rate_bps(0) - 1e10).abs() < 1.0);
    }

    #[test]
    fn reset_overrides_history() {
        let mut est = RateEstimator::new(100 * US, 0.0);
        est.record(10_000, 50 * US);
        est.reset(5e9, 100 * US);
        assert!((est.rate_bps(100 * US) - 5e9).abs() < 1.0);
    }

    #[test]
    fn slower_stream_yields_lower_rate() {
        let mut fast = RateEstimator::new(100 * US, 0.0);
        let mut slow = RateEstimator::new(100 * US, 0.0);
        let mut now = 0;
        for i in 0..4_000u64 {
            now += US;
            fast.record(1_250, now);
            if i % 8 == 0 {
                slow.record(1_250, now);
            }
        }
        let (rf, rs) = (fast.rate_bps(now), slow.rate_bps(now));
        assert!(rs < rf / 4.0, "slow {rs:.3e} vs fast {rf:.3e}");
    }
}
