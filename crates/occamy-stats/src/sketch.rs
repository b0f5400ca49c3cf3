//! Streaming sketches: O(1)-memory quantile estimation and windowed rates.
//!
//! Long-horizon runs (hours of simulated time, millions of flows) cannot
//! afford the per-record vector [`crate::Summary`] keeps: it grows
//! linearly with run length. This module provides fixed-size
//! replacements used by the live-telemetry path:
//!
//! * [`QuantileSketch`] — a Greenwald–Khanna ε-approximate quantile
//!   summary. After `n` observations, `quantile(q)` returns a value whose
//!   rank in the exact sorted stream is within `ε·n` of `q·n` (plus a
//!   couple of positions of insertion slack), while storing
//!   `O((1/ε)·log(ε·n))` tuples regardless of `n`.
//! * [`EwmaRate`] — an exponentially-weighted moving rate over an explicit
//!   time axis, for "events per second right now" style gauges.

/// One tuple of the Greenwald–Khanna summary: a stored value `v` covering
/// `g` observations, with `delta` bounding the uncertainty of its rank.
#[derive(Debug, Clone, Copy)]
struct Entry {
    v: f64,
    g: u64,
    delta: u64,
}

/// ε-approximate streaming quantile estimator (Greenwald–Khanna 2001).
///
/// Memory is bounded by the compression invariant, not by the number of
/// observations: adjacent tuples are merged whenever their combined rank
/// uncertainty stays below `2·ε·n`. Queries answer any quantile with rank
/// error at most `ε·n + 2` (the `+2` is insertion slack, asserted by the
/// proptest in `tests/sketch_bounds.rs`).
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    eps: f64,
    n: u64,
    entries: Vec<Entry>,
    since_compress: u64,
}

impl QuantileSketch {
    /// Create a sketch with rank-error bound `eps` (clamped to
    /// `[1e-4, 0.25]`). `eps = 0.01` keeps ~hundreds of tuples.
    pub fn new(eps: f64) -> Self {
        QuantileSketch {
            eps: eps.clamp(1e-4, 0.25),
            n: 0,
            entries: Vec::new(),
            since_compress: 0,
        }
    }

    /// The configured rank-error bound ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of observations absorbed so far.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when no observations have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of stored tuples (the memory footprint).
    pub fn size(&self) -> usize {
        self.entries.len()
    }

    /// Absorb one observation. Non-finite values are ignored.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let band = (2.0 * self.eps * self.n as f64).floor() as u64;
        let idx = self.entries.partition_point(|e| e.v < v);
        let delta = if idx == 0 || idx == self.entries.len() {
            0
        } else {
            band.saturating_sub(1)
        };
        self.entries.insert(idx, Entry { v, g: 1, delta });
        self.n += 1;
        self.since_compress += 1;
        if self.since_compress as f64 >= 1.0 / (2.0 * self.eps) {
            self.compress();
            self.since_compress = 0;
        }
    }

    /// Merge adjacent tuples whose combined uncertainty fits the band.
    fn compress(&mut self) {
        if self.entries.len() < 3 {
            return;
        }
        let band = (2.0 * self.eps * self.n as f64).floor() as u64;
        let mut i = self.entries.len() - 2;
        // Never merge away the extreme tuples: min and max stay exact.
        while i >= 1 {
            let merged = self.entries[i].g + self.entries[i + 1].g + self.entries[i + 1].delta;
            if merged <= band {
                self.entries[i + 1].g += self.entries[i].g;
                self.entries.remove(i);
            }
            i -= 1;
        }
    }

    /// The ε-approximate `q`-quantile (`q` clamped to `[0, 1]`), or `None`
    /// while empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.entries.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The extreme tuples are never merged away, so min/max are exact.
        if q == 0.0 {
            return self.entries.first().map(|e| e.v);
        }
        if q == 1.0 {
            return self.entries.last().map(|e| e.v);
        }
        let target = (q * self.n as f64).ceil().max(1.0);
        let slack = (self.eps * self.n as f64).max(1.0);
        let mut rmin = 0u64;
        let mut prev = self.entries[0].v;
        for e in &self.entries {
            rmin += e.g;
            let rmax = (rmin + e.delta) as f64;
            if rmax > target + slack {
                return Some(prev);
            }
            prev = e.v;
        }
        Some(prev)
    }
}

/// Exponentially-weighted moving rate over an explicit time axis.
///
/// Feed it `(now, count-since-last-update)` pairs; it maintains a rate in
/// `count / time-unit` smoothed over roughly `window` time units. The time
/// axis is caller-defined (seconds of wall clock, seconds of sim time, …),
/// so the struct itself never reads a clock — callers stay in charge of
/// determinism.
#[derive(Debug, Clone)]
pub struct EwmaRate {
    window: f64,
    last_t: Option<f64>,
    rate: f64,
}

impl EwmaRate {
    /// Create a rate estimator smoothing over `window` time units
    /// (clamped to be positive).
    pub fn new(window: f64) -> Self {
        EwmaRate {
            window: if window > 0.0 { window } else { 1.0 },
            last_t: None,
            rate: 0.0,
        }
    }

    /// Record that `count` events occurred between the previous update and
    /// time `t`; returns the new smoothed rate. Out-of-order or zero-dt
    /// updates fold into the next interval instead of dividing by zero.
    pub fn update(&mut self, t: f64, count: f64) -> f64 {
        match self.last_t {
            None => {
                self.last_t = Some(t);
                // No interval yet — nothing to rate against.
                self.rate
            }
            Some(prev) if t > prev => {
                let dt = t - prev;
                let inst = count / dt;
                let alpha = 1.0 - (-dt / self.window).exp();
                self.rate += alpha * (inst - self.rate);
                self.last_t = Some(t);
                self.rate
            }
            Some(_) => self.rate,
        }
    }

    /// The current smoothed rate (0 until two updates have arrived).
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_tracks_exact_quantiles_on_a_shuffled_ramp() {
        // Deterministic pseudo-shuffle of 0..5000 via a coprime stride.
        let n = 5000u64;
        let mut sk = QuantileSketch::new(0.01);
        for i in 0..n {
            sk.observe(((i * 2654435761) % n) as f64);
        }
        assert_eq!(sk.len(), n);
        for &(q, want) in &[(0.5, 2500.0), (0.9, 4500.0), (0.99, 4950.0)] {
            let got = sk.quantile(q).unwrap();
            let err = (got - want).abs();
            assert!(
                err <= 0.01 * n as f64 + 2.0,
                "q={q}: got {got}, want ~{want} (err {err})"
            );
        }
        assert_eq!(sk.quantile(0.0), Some(0.0));
        assert_eq!(sk.quantile(1.0), Some((n - 1) as f64));
    }

    #[test]
    fn sketch_memory_stays_sublinear() {
        let mut sk = QuantileSketch::new(0.01);
        for i in 0..200_000u64 {
            sk.observe((i % 977) as f64);
        }
        // Exact storage would hold 200k points; GK holds O((1/eps)·log(eps·n)).
        assert!(
            sk.size() < 2_000,
            "sketch grew to {} tuples for 200k observations",
            sk.size()
        );
    }

    #[test]
    fn sketch_handles_empty_and_singleton() {
        let mut sk = QuantileSketch::new(0.05);
        assert!(sk.is_empty());
        assert_eq!(sk.quantile(0.5), None);
        sk.observe(42.0);
        assert_eq!(sk.quantile(0.0), Some(42.0));
        assert_eq!(sk.quantile(1.0), Some(42.0));
        sk.observe(f64::NAN); // ignored
        assert_eq!(sk.len(), 1);
    }

    #[test]
    fn ewma_converges_to_a_constant_rate() {
        let mut r = EwmaRate::new(2.0);
        // 100 events per 0.1s step = 1000 events/s.
        for step in 0..200 {
            r.update(step as f64 * 0.1, 100.0);
        }
        assert!(
            (r.rate() - 1000.0).abs() < 5.0,
            "rate {} != ~1000",
            r.rate()
        );
    }

    #[test]
    fn ewma_ignores_non_advancing_time() {
        let mut r = EwmaRate::new(1.0);
        r.update(1.0, 10.0);
        r.update(2.0, 10.0);
        let before = r.rate();
        r.update(2.0, 50.0); // dt = 0: folded, not a division by zero
        r.update(1.5, 50.0); // out of order: ignored
        assert_eq!(r.rate(), before);
    }
}
