//! Egress-port packet schedulers: FIFO, strict priority, DRR.

use crate::event::PacketDesc;
use std::collections::VecDeque;

/// A per-port scheduler choosing which class queue transmits next.
///
/// The paper's testbeds use strict priority (buffer-choking experiments,
/// Fig. 6/15), Deficit Round Robin (isolation experiments, Fig. 14/16)
/// and plain FIFO (single-class scenarios).
#[derive(Debug, Clone)]
pub enum Scheduler {
    /// Single class, first-in first-out.
    Fifo,
    /// Lowest class index first (class 0 = highest priority).
    StrictPriority,
    /// Deficit Round Robin with a per-class quantum in bytes.
    Drr {
        /// Quantum added to a class's deficit on each visit.
        quantum: u64,
        /// Per-class deficit counters.
        deficits: Vec<u64>,
        /// Class the round-robin pointer is at.
        current: usize,
        /// Whether the current class already received its quantum for
        /// this visit.
        replenished: bool,
    },
}

impl Scheduler {
    /// Creates a DRR scheduler for `classes` classes.
    pub fn drr(classes: usize, quantum: u64) -> Self {
        assert!(quantum > 0, "DRR quantum must be positive");
        Scheduler::Drr {
            quantum,
            deficits: vec![0; classes],
            current: 0,
            replenished: false,
        }
    }

    /// Picks the class to dequeue from, given the class queues of
    /// packet descriptors (DRR reads only their wire bytes).
    ///
    /// Returns `None` if every queue is empty. Must be called exactly once
    /// per dequeued packet (DRR mutates its deficit state).
    pub fn pick(&mut self, queues: &[VecDeque<PacketDesc>]) -> Option<usize> {
        match self {
            Scheduler::Fifo | Scheduler::StrictPriority => {
                queues.iter().position(|q| !q.is_empty())
            }
            Scheduler::Drr {
                quantum,
                deficits,
                current,
                replenished,
            } => {
                if queues.iter().all(|q| q.is_empty()) {
                    return None;
                }
                // Classic DRR visit: on arriving at a backlogged class add
                // one quantum, serve packets while the head fits, then end
                // the visit and move on. The visit "stays open" across
                // `pick` calls so a class drains its whole deficit before
                // the pointer advances. With a quantum smaller than a
                // packet, several full rounds accumulate deficit, hence
                // the generous iteration bound.
                for _ in 0..queues.len().max(1) * 4_096 {
                    let c = *current;
                    match queues[c].front() {
                        None => {
                            // Idle classes forfeit their deficit.
                            deficits[c] = 0;
                            *replenished = false;
                            *current = (c + 1) % queues.len();
                        }
                        Some(head) => {
                            if !*replenished {
                                deficits[c] += *quantum;
                                *replenished = true;
                            }
                            if deficits[c] >= head.wire_bytes() {
                                deficits[c] -= head.wire_bytes();
                                return Some(c);
                            }
                            // Deficit exhausted: end of this class's visit.
                            *replenished = false;
                            *current = (c + 1) % queues.len();
                        }
                    }
                }
                unreachable!("DRR quantum too small relative to packet size");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A class queue of descriptors for packets of the given payload
    /// lengths (40 header bytes each, as [`crate::Packet::wire_bytes`]).
    fn q(pkts: &[u32]) -> VecDeque<PacketDesc> {
        pkts.iter()
            .zip(0..)
            .map(|(&len, id)| PacketDesc {
                id,
                wire: len + crate::HDR_BYTES as u32,
            })
            .collect()
    }

    #[test]
    fn fifo_picks_first_nonempty() {
        let mut s = Scheduler::Fifo;
        let queues = vec![q(&[]), q(&[100])];
        assert_eq!(s.pick(&queues), Some(1));
        assert_eq!(s.pick(&[q(&[]), q(&[])]), None);
    }

    #[test]
    fn strict_priority_prefers_class_zero() {
        let mut s = Scheduler::StrictPriority;
        let queues = vec![q(&[100]), q(&[100])];
        assert_eq!(s.pick(&queues), Some(0));
        let queues = vec![q(&[]), q(&[100])];
        assert_eq!(s.pick(&queues), Some(1));
    }

    #[test]
    fn drr_shares_bandwidth_equally() {
        let mut s = Scheduler::drr(2, 1_500);
        // Both classes backlogged with equal 1460 B packets.
        let mut queues = vec![q(&[1460; 40]), q(&[1460; 40])];
        let mut served = [0u32; 2];
        for _ in 0..40 {
            let c = s.pick(&queues).unwrap();
            queues[c].pop_front();
            served[c] += 1;
        }
        assert_eq!(served[0] + served[1], 40);
        let diff = served[0].abs_diff(served[1]);
        assert!(diff <= 2, "unequal DRR service: {served:?}");
    }

    #[test]
    fn drr_compensates_packet_size_differences() {
        // Class 0 sends 1460 B packets, class 1 sends 292 B packets; byte
        // service should even out (class 1 gets ~5 packets per class-0
        // packet).
        let mut s = Scheduler::drr(2, 1_500);
        let mut queues = vec![q(&[1460; 100]), q(&[292; 500])];
        let mut bytes = [0u64; 2];
        for _ in 0..240 {
            let c = s.pick(&queues).unwrap();
            bytes[c] += queues[c].pop_front().unwrap().wire_bytes();
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "byte shares diverged: {bytes:?}"
        );
    }

    #[test]
    fn drr_is_work_conserving() {
        let mut s = Scheduler::drr(3, 500);
        // Only class 2 is backlogged; it must be served immediately even
        // though its packets exceed one quantum.
        let mut queues = vec![q(&[]), q(&[]), q(&[1460; 10])];
        for _ in 0..10 {
            let c = s.pick(&queues).unwrap();
            assert_eq!(c, 2);
            queues[c].pop_front();
        }
        assert_eq!(s.pick(&queues), None);
    }

    #[test]
    fn drr_idle_class_forfeits_deficit() {
        let mut s = Scheduler::drr(2, 1_500);
        // Serve class 0 alone for a while (class 1 idle).
        let mut queues = vec![q(&[1460; 10]), q(&[])];
        for _ in 0..10 {
            let c = s.pick(&queues).unwrap();
            queues[c].pop_front();
        }
        // Class 1 wakes with a backlog; it must not have banked deficit,
        // so service alternates rather than bursting class 1.
        queues[0] = q(&[1460; 10]);
        queues[1] = q(&[1460; 10]);
        let mut served = [0u32; 2];
        for _ in 0..10 {
            let c = s.pick(&queues).unwrap();
            queues[c].pop_front();
            served[c] += 1;
        }
        assert!(served[0] >= 4, "class 0 starved: {served:?}");
    }
}
