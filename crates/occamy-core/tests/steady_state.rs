//! DT's analytic steady state at the buffer-management layer (paper
//! Eq. 2): with `N` equally congested queues of equal `α`, each queue
//! settles at `αB / (1 + αN)`.
//!
//! The oracle fills the queues round-robin with equal packets through
//! admission alone, until a whole round admits nothing. Admission is
//! granular, so a queue stops within about one packet of its threshold
//! and the threshold moves by `α` bytes per byte of free space: every
//! queue must end within `(1 + α)·L` of the fixed point, for packets of
//! `L` bytes. Occamy admits exactly as DT does, so its fill must end at
//! the same lengths.

use occamy_core::{BufferManager, BufferState, DynamicThreshold, Occamy, QueueConfig, Verdict};

/// Packet size `L` in bytes.
const PKT: u64 = 1_500;

/// Fills `n` queues of a `capacity`-byte buffer round-robin with
/// `PKT`-byte packets through `bm`'s admission (and hooks) until a
/// round admits nothing; returns the queue lengths.
fn fill(mut bm: impl BufferManager, n: usize, capacity: u64) -> Vec<u64> {
    let mut state = BufferState::new(capacity, n);
    let mut admitted = true;
    while admitted {
        admitted = false;
        for q in 0..n {
            if bm.admit(q, PKT, &state) == Verdict::Accept {
                state.enqueue(q, PKT).unwrap();
                bm.on_enqueue(q, PKT, 0, &state);
                admitted = true;
            }
        }
    }
    (0..n).map(|q| state.queue_len(q)).collect()
}

#[test]
fn dt_fill_settles_at_the_analytic_steady_state() {
    let mut worst = 0f64;
    for alpha in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        for n in 1..=16 {
            for capacity in [400_000, 1_000_000, 4_000_000] {
                let cfg = QueueConfig::uniform(n, 10_000_000_000, alpha);
                let lens = fill(DynamicThreshold::new(cfg.clone()), n, capacity);
                let target = alpha * capacity as f64 / (1.0 + alpha * n as f64);
                let slack = (1.0 + alpha) * PKT as f64;
                for (q, &len) in lens.iter().enumerate() {
                    let off = (len as f64 - target).abs();
                    worst = worst.max(off / slack);
                    assert!(
                        off <= slack,
                        "α = {alpha}, N = {n}, B = {capacity}: queue {q} holds {len} B, \
                         {off:.0} B from αB/(1+αN) = {target:.0} (slack {slack:.0})"
                    );
                }
                assert_eq!(
                    fill(Occamy::new(cfg), n, capacity),
                    lens,
                    "α = {alpha}, N = {n}, B = {capacity}: Occamy's admission filled differently"
                );
            }
        }
    }
    // The bound is not vacuous: some cell ends more than half of it away.
    assert!(worst > 0.5, "worst offset {worst:.2} of the slack");
}
