//! Head-drop selector circuit (paper Fig. 9).

use crate::RoundRobinArbiter;
use occamy_core::QueueBitmap;

/// The head-drop selector: comparators → bitmap → round-robin arbiter.
///
/// Part ① maintains a bitmap with one bit per queue, set when the queue's
/// length exceeds the shared threshold `T(t)` — a row of cheap
/// comparators. Part ② iterates over the set bits with a round-robin
/// arbiter, yielding the index of the next queue to head-drop from.
///
/// The paper implements this in 215 lines of Verilog for 64 queues; it
/// dominates Occamy's hardware cost (Table 1: ~1262 LUTs). Only this
/// module's unit tests drive this behavioral model:
/// [`crate::TrafficManager`] picks victims with `occamy-core`'s
/// `BufferManager::select_victim`, and `occamy-sim`, which does not
/// depend on this crate, models expulsion as a token bucket in cells
/// (`try_expel_in`).
#[derive(Debug, Clone)]
pub struct HeadDropSelector {
    bitmap: QueueBitmap,
    arbiter: RoundRobinArbiter,
}

impl HeadDropSelector {
    /// Creates a selector for `n` queues.
    pub fn new(n: usize) -> Self {
        HeadDropSelector {
            bitmap: QueueBitmap::new(n),
            arbiter: RoundRobinArbiter::new(n),
        }
    }

    /// Number of queues monitored.
    pub fn num_queues(&self) -> usize {
        self.bitmap.len()
    }

    /// Refreshes the over-allocation bitmap from queue lengths and
    /// per-queue thresholds (the comparator row, part ① of Fig. 9).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from the selector width.
    pub fn refresh(&mut self, qlens: &[u64], thresholds: &[u64]) {
        assert_eq!(qlens.len(), self.bitmap.len(), "qlen width mismatch");
        assert_eq!(
            thresholds.len(),
            self.bitmap.len(),
            "threshold width mismatch"
        );
        for (q, (&len, &t)) in qlens.iter().zip(thresholds).enumerate() {
            self.bitmap.set(q, len > t);
        }
    }

    /// Refreshes against a single shared threshold (the common case in
    /// Fig. 9, where all queues compare against one `T(t)`).
    pub fn refresh_shared(&mut self, qlens: &[u64], threshold: u64) {
        assert_eq!(qlens.len(), self.bitmap.len(), "qlen width mismatch");
        for (q, &len) in qlens.iter().enumerate() {
            self.bitmap.set(q, len > threshold);
        }
    }

    /// Grants the next over-allocated queue in round-robin order
    /// (part ② of Fig. 9).
    pub fn select(&mut self) -> Option<usize> {
        self.arbiter.grant(&self.bitmap)
    }

    /// Number of queues currently marked over-allocated.
    pub fn over_allocated(&self) -> usize {
        self.bitmap.count_ones()
    }

    /// Whether any queue is over-allocated.
    pub fn any(&self) -> bool {
        self.bitmap.any()
    }

    /// Read-only view of the bitmap (diagnostics / tests).
    pub fn bitmap(&self) -> &QueueBitmap {
        &self.bitmap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_row_sets_expected_bits() {
        let mut sel = HeadDropSelector::new(8);
        let qlens = [10u64, 50, 30, 0, 70, 20, 90, 40];
        sel.refresh_shared(&qlens, 40);
        // Strictly greater than 40: queues 1 (50), 4 (70), 6 (90).
        assert_eq!(sel.over_allocated(), 3);
        assert!(sel.bitmap().get(1) && sel.bitmap().get(4) && sel.bitmap().get(6));
        assert!(!sel.bitmap().get(7), "equal to threshold is not over");
    }

    #[test]
    fn per_queue_thresholds() {
        let mut sel = HeadDropSelector::new(3);
        sel.refresh(&[100, 100, 100], &[50, 100, 150]);
        assert!(sel.bitmap().get(0));
        assert!(!sel.bitmap().get(1));
        assert!(!sel.bitmap().get(2));
    }

    #[test]
    fn select_round_robins_over_set_bits() {
        let mut sel = HeadDropSelector::new(4);
        sel.refresh_shared(&[9, 9, 0, 9], 5);
        let picks: Vec<_> = (0..6).map(|_| sel.select().unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 3, 0, 1, 3]);
    }

    #[test]
    fn nothing_over_allocated_selects_none() {
        let mut sel = HeadDropSelector::new(4);
        sel.refresh_shared(&[1, 2, 3, 4], 100);
        assert!(!sel.any());
        assert_eq!(sel.select(), None);
    }

    #[test]
    fn refresh_between_selects_tracks_drain() {
        let mut sel = HeadDropSelector::new(2);
        sel.refresh_shared(&[100, 100], 50);
        assert_eq!(sel.select(), Some(0));
        // Queue 0 drained below the threshold; only queue 1 remains.
        sel.refresh_shared(&[40, 100], 50);
        assert_eq!(sel.select(), Some(1));
        assert_eq!(sel.select(), Some(1));
    }

    #[test]
    #[should_panic(expected = "qlen width mismatch")]
    fn width_checked() {
        let mut sel = HeadDropSelector::new(4);
        sel.refresh_shared(&[1, 2], 0);
    }
}
