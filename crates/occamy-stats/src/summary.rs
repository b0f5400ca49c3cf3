//! Scalar sample summaries: mean, percentiles, extrema.

/// A collection of scalar samples supporting means and percentiles.
///
/// Percentiles use the nearest-rank method on a sorted copy; the sort is
/// deferred and cached so repeated queries are cheap.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Creates a summary from existing samples.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Summary {
            samples,
            sorted: false,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the summary holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// Nearest-rank percentile `p ∈ [0, 100]`; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or not finite.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.samples[rank.clamp(1, n) - 1])
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// 99th percentile — the paper's tail metric.
    pub fn p99(&mut self) -> Option<f64> {
        self.percentile(99.0)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.min(v))))
    }

    /// Borrow the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Serializes the summary's headline statistics (count, mean, median,
    /// p99, min, max) as a JSON object. Takes `&mut self` so the
    /// percentile sort is done in place and cached, like
    /// [`Summary::percentile`] — no copy of the samples is made.
    pub fn to_json(&mut self) -> crate::Json {
        crate::Json::obj([
            ("count", crate::Json::from(self.len())),
            ("mean", crate::Json::from(self.mean())),
            ("p50", crate::Json::from(self.median())),
            ("p99", crate::Json::from(self.p99())),
            ("min", crate::Json::from(self.min())),
            ("max", crate::Json::from(self.max())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_yields_none() {
        let mut s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn mean_and_extrema() {
        let s = Summary::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Summary::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.p99(), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(1.0), Some(1.0));
        assert_eq!(s.percentile(0.0), Some(1.0)); // clamped to first
    }

    #[test]
    fn percentile_rank_rounds_up() {
        // Rank ⌈p/100 · n⌉: 99% of 10 samples is the 10th, 10% the 1st.
        let mut s = Summary::from_samples((1..=10).rev().map(f64::from).collect());
        assert_eq!(s.percentile(50.0), Some(5.0));
        assert_eq!(s.percentile(99.0), Some(10.0));
        assert_eq!(s.percentile(10.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(10.0));
        // Percent levels divide to exactly the quantile literals, so
        // `percentile(100·q)` picks the same sample as a rank-⌈q·n⌉
        // quantile at these levels.
        for (p, q) in [
            (25.0, 0.25),
            (50.0, 0.5),
            (75.0, 0.75),
            (90.0, 0.9),
            (99.0, 0.99),
        ] {
            assert_eq!(p / 100.0, q);
        }
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s = Summary::from_samples(vec![7.0]);
        assert_eq!(s.percentile(1.0), Some(7.0));
        assert_eq!(s.median(), Some(7.0));
        assert_eq!(s.p99(), Some(7.0));
    }

    #[test]
    fn add_invalidates_sorted_cache() {
        let mut s = Summary::from_samples(vec![5.0, 1.0]);
        assert_eq!(s.median(), Some(1.0));
        s.add(0.5);
        assert_eq!(s.percentile(33.0), Some(0.5));
    }

    #[test]
    fn json_has_headline_stats() {
        let mut s = Summary::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        let j = s.to_json().render();
        assert!(j.contains("\"count\":4"), "{j}");
        assert!(j.contains("\"mean\":2.5"), "{j}");
        assert!(j.contains("\"max\":4"), "{j}");
        let empty = Summary::new().to_json().render();
        assert!(empty.contains("\"mean\":null"), "{empty}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_range_checked() {
        let mut s = Summary::from_samples(vec![1.0]);
        let _ = s.percentile(101.0);
    }
}
