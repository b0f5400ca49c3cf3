//! The crosspoint-queued (CQ) switch architecture — the single-chip
//! buffered-crossbar rival of the shared-memory output-queued switch
//! (Cao & Panwar; see PAPERS.md).
//!
//! A CQ switch has no shared buffer at all: the crossbar carries a
//! small dedicated buffer at every (input, output) crosspoint, arriving
//! packets tail-drop against *their own* crosspoint only, and each
//! output port runs a crosspoint scheduler over the N buffers in its
//! column. There is no admission policy to tune and no preemption —
//! isolation is total (one input can never take another's buffer) but
//! so is the fragmentation (an idle crosspoint's buffer helps nobody),
//! which is exactly the trade the scheme shootout measures against the
//! shared-memory schemes.
//!
//! The model lives as an optional component on [`crate::Switch`]
//! (`Switch::xp`): when present, the engine's arrival/transmit/flush
//! paths route through the crosspoint state and the shared-memory
//! partitions stay empty. Everything is driven through the same `Env`
//! trait as the shared-memory paths, so CQ runs inherit every
//! determinism guarantee (repeat-run, serial vs `--threads N`, fault
//! injection) unchanged.

use crate::event::{NodeId, PacketDesc};
use std::collections::VecDeque;

/// How an output port picks among the crosspoint buffers in its column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XpSched {
    /// Rotate over non-empty crosspoints, one packet per grant — the
    /// cheap, starvation-free default.
    RoundRobin,
    /// Serve the crosspoint with the most queued bytes (LQF); ties
    /// break toward the lowest input index.
    Longest,
}

/// Encodes a previous-hop node id into the `Packet::last_hop` stamp:
/// hosts map to even values, switches to odd, so the two index spaces
/// cannot collide.
#[inline]
pub fn encode_hop(node: NodeId) -> u32 {
    match node {
        NodeId::Host(h) => h << 1,
        NodeId::Switch(s) => (s << 1) | 1,
    }
}

/// Per-switch crosspoint-buffer state: `n_in × n_out` dedicated FIFO
/// buffers of [`Crosspoint::cap`] bytes each, plus the per-output
/// scheduler cursors.
#[derive(Debug)]
pub struct Crosspoint {
    /// Number of inputs (one per distinct neighbor that can send here).
    pub n_in: usize,
    /// Dedicated capacity of each crosspoint buffer in bytes: the
    /// switch's total buffer divided evenly over all `n_out · n_in`
    /// crosspoints — the CQ design point that buffers shrink as the
    /// square of the radix.
    pub cap: u64,
    /// Crosspoint FIFOs of packet descriptors, indexed `out * n_in + in`.
    pub queues: Vec<VecDeque<PacketDesc>>,
    /// Bytes queued per crosspoint (mirrors `queues`).
    pub occ: Vec<u64>,
    /// Bytes queued per output column (Σ over its inputs) — the ECN
    /// marking analog of the output-queued switch's queue length.
    pub out_occ: Vec<u64>,
    /// Total bytes queued across all crosspoints.
    pub total: u64,
    /// Total capacity across all crosspoints.
    pub total_cap: u64,
    /// The crosspoint scheduler.
    pub sched: XpSched,
    /// Per-output round-robin cursor (last granted input).
    pub cursor: Vec<usize>,
    /// Sorted encoded neighbor ids; the position of a packet's
    /// `last_hop` stamp in this list is its input index.
    ingress: Vec<u32>,
}

impl Crosspoint {
    /// Builds the crosspoint state for a switch with `n_out` output
    /// ports, the given (encoded, deduplicated) ingress neighbor set
    /// and `total_buffer` bytes to divide among the crosspoints.
    pub fn new(n_out: usize, mut ingress: Vec<u32>, total_buffer: u64, sched: XpSched) -> Self {
        ingress.sort_unstable();
        ingress.dedup();
        let n_in = ingress.len().max(1);
        let n_xp = n_out * n_in;
        let cap = total_buffer / n_xp as u64;
        Crosspoint {
            n_in,
            cap,
            queues: (0..n_xp).map(|_| VecDeque::new()).collect(),
            occ: vec![0; n_xp],
            out_occ: vec![0; n_out],
            total: 0,
            total_cap: cap * n_xp as u64,
            sched,
            cursor: vec![0; n_out],
            ingress,
        }
    }

    /// Input index of an encoded previous-hop stamp, or `None` if the
    /// sender is not a neighbor of this switch.
    #[inline]
    pub fn input_for(&self, hop: u32) -> Option<usize> {
        self.ingress.binary_search(&hop).ok()
    }

    /// Flat index of crosspoint `(out, inp)`.
    #[inline]
    pub fn xp(&self, out: usize, inp: usize) -> usize {
        out * self.n_in + inp
    }

    /// Buffer utilization over all crosspoints (drop-context metric).
    #[inline]
    pub fn util(&self) -> f64 {
        if self.total_cap == 0 {
            0.0
        } else {
            self.total as f64 / self.total_cap as f64
        }
    }

    /// Picks the next input to serve on output `out`, or `None` when the
    /// whole column is empty. Round-robin advances the cursor; LQF takes
    /// the fullest crosspoint.
    pub fn pick(&mut self, out: usize) -> Option<usize> {
        let base = out * self.n_in;
        match self.sched {
            XpSched::RoundRobin => {
                let start = self.cursor[out];
                for k in 1..=self.n_in {
                    let inp = (start + k) % self.n_in;
                    if !self.queues[base + inp].is_empty() {
                        self.cursor[out] = inp;
                        return Some(inp);
                    }
                }
                None
            }
            XpSched::Longest => {
                let mut best = None;
                let mut best_occ = 0u64;
                for inp in 0..self.n_in {
                    let occ = self.occ[base + inp];
                    if occ > best_occ {
                        best = Some(inp);
                        best_occ = occ;
                    }
                }
                best
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(xp: &mut Crosspoint, out: usize, inp: usize, len: u32) {
        let idx = xp.xp(out, inp);
        let d = PacketDesc {
            id: 0,
            wire: len + crate::HDR_BYTES as u32,
        };
        xp.occ[idx] += d.wire_bytes();
        xp.out_occ[out] += d.wire_bytes();
        xp.total += d.wire_bytes();
        xp.queues[idx].push_back(d);
    }

    #[test]
    fn capacity_divides_by_the_square() {
        let xp = Crosspoint::new(4, vec![0, 2, 4, 6], 160_000, XpSched::RoundRobin);
        assert_eq!(xp.n_in, 4);
        assert_eq!(xp.cap, 10_000); // 160 000 / (4 × 4)
        assert_eq!(xp.total_cap, 160_000);
    }

    #[test]
    fn ingress_map_is_sorted_and_deduplicated() {
        let xp = Crosspoint::new(1, vec![9, 3, 9, 1], 1_000, XpSched::RoundRobin);
        assert_eq!(xp.n_in, 3);
        assert_eq!(xp.input_for(1), Some(0));
        assert_eq!(xp.input_for(3), Some(1));
        assert_eq!(xp.input_for(9), Some(2));
        assert_eq!(xp.input_for(5), None);
    }

    #[test]
    fn hop_encoding_separates_hosts_and_switches() {
        assert_ne!(
            encode_hop(NodeId::Host(7)),
            encode_hop(NodeId::Switch(7)),
            "host 7 and switch 7 must encode differently"
        );
        assert_eq!(encode_hop(NodeId::Host(3)), 6);
        assert_eq!(encode_hop(NodeId::Switch(3)), 7);
    }

    #[test]
    fn round_robin_rotates_over_nonempty_inputs() {
        let mut xp = Crosspoint::new(1, vec![0, 1, 2], 30_000, XpSched::RoundRobin);
        push(&mut xp, 0, 0, 100);
        push(&mut xp, 0, 0, 100);
        push(&mut xp, 0, 2, 100);
        // Cursor starts at 0: first grant goes to the next nonempty
        // input after 0 (input 2), then wraps back to 0.
        assert_eq!(xp.pick(0), Some(2));
        assert_eq!(xp.pick(0), Some(0));
        // Nothing is dequeued by pick itself; the cursor still rotates.
        assert_eq!(xp.pick(0), Some(2));
    }

    #[test]
    fn longest_takes_the_fullest_crosspoint() {
        let mut xp = Crosspoint::new(1, vec![0, 1, 2], 30_000, XpSched::Longest);
        push(&mut xp, 0, 1, 100);
        push(&mut xp, 0, 2, 500);
        assert_eq!(xp.pick(0), Some(2));
        // Ties break toward the lowest input index.
        let mut xp = Crosspoint::new(1, vec![0, 1], 30_000, XpSched::Longest);
        push(&mut xp, 0, 0, 100);
        push(&mut xp, 0, 1, 100);
        assert_eq!(xp.pick(0), Some(0));
    }

    #[test]
    fn empty_column_yields_none() {
        let mut xp = Crosspoint::new(2, vec![0, 1], 10_000, XpSched::RoundRobin);
        assert_eq!(xp.pick(0), None);
        assert_eq!(xp.pick(1), None);
    }
}
