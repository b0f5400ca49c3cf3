//! The traffic manager: admission, queues, dequeue and head drop over the
//! three-memory buffer structure (paper Fig. 1, Fig. 2, Fig. 8).

use crate::{CellPointerMemory, DequeuePipeline, PdMemory, PdQueue, PipelineCost, CELL_SIZE};
use occamy_core::{BufferManager, BufferState, DropReason, QueueId, Verdict};

/// Aggregate per-memory access counters.
///
/// These quantify the paper's §3.2 argument: head drops consume PD and
/// cell-pointer bandwidth but **zero** cell-data bandwidth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryAccessStats {
    /// PD memory accesses.
    pub pd: u64,
    /// Cell-pointer memory accesses.
    pub cell_ptr: u64,
    /// Cell data memory reads/writes.
    pub cell_data: u64,
}

impl MemoryAccessStats {
    fn add_pipeline(&mut self, c: &PipelineCost) {
        self.pd += c.pd_accesses;
        self.cell_ptr += c.cell_ptr_accesses;
        self.cell_data += c.cell_data_reads;
    }
}

/// Counters kept by the traffic manager.
#[derive(Debug, Clone, Copy, Default)]
pub struct TmStats {
    /// Packets admitted and enqueued.
    pub enqueued_pkts: u64,
    /// Packets transmitted (normal dequeue).
    pub dequeued_pkts: u64,
    /// Packets expelled by head drop (Occamy reactive path / Pushout).
    pub head_dropped_pkts: u64,
    /// Bytes expelled by head drop.
    pub head_dropped_bytes: u64,
    /// Arrivals refused because the queue exceeded its threshold.
    pub tail_drops_threshold: u64,
    /// Arrivals refused because the buffer was physically full.
    pub tail_drops_full: u64,
    /// Arrivals refused because PD or cell memory was exhausted.
    pub resource_drops: u64,
    /// Memory accesses, split per physical memory.
    pub accesses: MemoryAccessStats,
}

/// Outcome of offering a packet to the traffic manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Packet admitted and enqueued.
    Accepted,
    /// Packet admitted after synchronously evicting `evicted_pkts`
    /// packets (Pushout only).
    AcceptedAfterEviction {
        /// Packets head-dropped to make room.
        evicted_pkts: u64,
    },
    /// Packet refused.
    Dropped(DropReason),
}

/// A shared-memory traffic manager driven at cell granularity.
///
/// Composes the cell-pointer memory, PD memory and per-queue PD lists of
/// Fig. 2 with a [`BufferManager`] for admission (and victim selection,
/// for preemptive schemes). Occupancy is accounted in *cell-rounded*
/// bytes, as real chips do: a 201-byte packet occupies two 200-byte
/// cells.
///
/// The caller owns time (`now_ns`), which only feeds the BM bookkeeping
/// hooks; all memory operations are charged in cycles via
/// [`DequeuePipeline`] and accumulated into [`TmStats`].
#[derive(Debug, Clone)]
pub struct TrafficManager<B: BufferManager> {
    cells: CellPointerMemory,
    pds: PdMemory,
    queues: Vec<PdQueue>,
    state: BufferState,
    bm: B,
    pipeline: DequeuePipeline,
    stats: TmStats,
}

impl<B: BufferManager> TrafficManager<B> {
    /// Creates a traffic manager with `total_cells` buffer cells shared by
    /// `num_queues` queues, managed by `bm`.
    pub fn new(total_cells: usize, num_queues: usize, bm: B) -> Self {
        TrafficManager {
            cells: CellPointerMemory::new(total_cells),
            // One PD per cell is the worst case (all minimum-size packets).
            pds: PdMemory::new(total_cells),
            queues: (0..num_queues).map(|_| PdQueue::new()).collect(),
            state: BufferState::new(total_cells as u64 * CELL_SIZE, num_queues),
            bm,
            pipeline: DequeuePipeline::default(),
            stats: TmStats::default(),
        }
    }

    /// Shared-buffer occupancy view.
    pub fn state(&self) -> &BufferState {
        &self.state
    }

    /// The buffer-management scheme.
    pub fn bm(&self) -> &B {
        &self.bm
    }

    /// Counters.
    pub fn stats(&self) -> &TmStats {
        &self.stats
    }

    /// Packets currently queued in queue `q`.
    pub fn queue_pkts(&self, q: QueueId) -> usize {
        self.queues[q].len_pkts()
    }

    /// Wire bytes currently queued in queue `q` (not cell-rounded).
    pub fn queue_wire_bytes(&self, q: QueueId) -> u64 {
        self.queues[q].len_bytes()
    }

    /// Offers a packet to the switch.
    ///
    /// Runs BM admission on the *cell-rounded* size; on `Evict` (Pushout)
    /// it synchronously head-drops victims until the packet fits.
    pub fn enqueue(&mut self, q: QueueId, pkt_id: u64, len: u64, now_ns: u64) -> EnqueueOutcome {
        let cells = CellPointerMemory::cells_for(len);
        let charge = cells as u64 * CELL_SIZE;
        match self.bm.admit(q, charge, &self.state) {
            Verdict::Accept => {
                if self.do_enqueue(q, pkt_id, len, cells, charge, now_ns) {
                    EnqueueOutcome::Accepted
                } else {
                    self.stats.resource_drops += 1;
                    EnqueueOutcome::Dropped(DropReason::BufferFull)
                }
            }
            Verdict::Evict => {
                let mut evicted = 0u64;
                while self.state.free() < charge {
                    match self.bm.select_victim(&self.state) {
                        Some(victim) if !self.queues[victim].is_empty() => {
                            if self.head_drop(victim, now_ns).is_none() {
                                break;
                            }
                            evicted += 1;
                        }
                        _ => break,
                    }
                }
                if self.state.free() >= charge
                    && self.do_enqueue(q, pkt_id, len, cells, charge, now_ns)
                {
                    EnqueueOutcome::AcceptedAfterEviction {
                        evicted_pkts: evicted,
                    }
                } else {
                    self.stats.tail_drops_full += 1;
                    EnqueueOutcome::Dropped(DropReason::BufferFull)
                }
            }
            Verdict::Drop(reason) => {
                match reason {
                    DropReason::BufferFull => self.stats.tail_drops_full += 1,
                    DropReason::OverThreshold => self.stats.tail_drops_threshold += 1,
                }
                EnqueueOutcome::Dropped(reason)
            }
        }
    }

    fn do_enqueue(
        &mut self,
        q: QueueId,
        pkt_id: u64,
        len: u64,
        cells: u32,
        charge: u64,
        now_ns: u64,
    ) -> bool {
        let Some(cell_head) = self.cells.alloc_chain(cells, pkt_id) else {
            return false;
        };
        let Some(pd) = self.pds.alloc(pkt_id, len as u32, cell_head, cells) else {
            self.cells.free_chain(cell_head, pkt_id);
            return false;
        };
        self.queues[q].push_back(pd, &mut self.pds);
        self.state
            .enqueue(q, charge)
            .expect("BM admitted beyond capacity");
        self.bm.on_enqueue(q, charge, now_ns, &self.state);
        self.stats.enqueued_pkts += 1;
        // Writing the packet costs one PD write, `cells` pointer writes
        // and `cells` data writes.
        self.stats.accesses.pd += 1;
        self.stats.accesses.cell_ptr += cells as u64;
        self.stats.accesses.cell_data += cells as u64;
        true
    }

    /// Dequeues the head packet of queue `q` for transmission.
    ///
    /// Returns `(pkt_id, wire_len)`; `None` if the queue is empty.
    pub fn dequeue(&mut self, q: QueueId, now_ns: u64) -> Option<(u64, u64)> {
        let (pkt_id, len, cells) = self.remove_head(q)?;
        let cost = self.pipeline.dequeue_cost(cells);
        self.stats.accesses.add_pipeline(&cost);
        self.finish_removal(q, cells, now_ns);
        self.stats.dequeued_pkts += 1;
        Some((pkt_id, len))
    }

    /// Head-drops the head packet of queue `q` (Occamy's expulsion /
    /// Pushout's eviction).
    ///
    /// Identical to [`TrafficManager::dequeue`] except the cell data
    /// memory is never read.
    pub fn head_drop(&mut self, q: QueueId, now_ns: u64) -> Option<(u64, u64)> {
        let (pkt_id, len, cells) = self.remove_head(q)?;
        let cost = self.pipeline.head_drop_cost(cells);
        debug_assert_eq!(cost.cell_data_reads, 0);
        self.stats.accesses.add_pipeline(&cost);
        self.finish_removal(q, cells, now_ns);
        self.stats.head_dropped_pkts += 1;
        self.stats.head_dropped_bytes += len;
        Some((pkt_id, len))
    }

    fn remove_head(&mut self, q: QueueId) -> Option<(u64, u64, u32)> {
        let pd = self.queues[q].pop_front(&mut self.pds)?;
        let d = *self.pds.read(pd);
        self.cells.free_chain(d.cell_head, d.pkt_id);
        self.pds.free(pd);
        Some((d.pkt_id, d.len_bytes as u64, d.cell_count))
    }

    fn finish_removal(&mut self, q: QueueId, cells: u32, now_ns: u64) {
        let charge = cells as u64 * CELL_SIZE;
        self.state
            .dequeue(q, charge)
            .expect("queue accounting out of sync");
        self.bm.on_dequeue(q, charge, now_ns, &self.state);
    }

    /// Selects the next expulsion victim via the BM (Occamy's reactive
    /// path); `None` when no queue is over-allocated.
    pub fn select_victim(&mut self) -> Option<QueueId> {
        self.bm.select_victim(&self.state)
    }

    /// Verifies all cross-structure invariants; returns `false` on any
    /// inconsistency (used heavily by property tests).
    pub fn check_invariants(&self) -> bool {
        // Cell conservation inside the pointer memory.
        if !self.cells.check_conservation() {
            return false;
        }
        // Per-queue cell counts must match the shared accounting.
        let mut total = 0u64;
        for (q, queue) in self.queues.iter().enumerate() {
            let charge = queue.len_cells() * CELL_SIZE;
            if self.state.queue_len(q) != charge {
                return false;
            }
            total += charge;
        }
        if total != self.state.total() {
            return false;
        }
        // Every queued packet holds exactly one PD.
        let queued: usize = self.queues.iter().map(|q| q.len_pkts()).sum();
        queued == self.pds.in_use()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occamy_core::{Occamy, Pushout, QueueConfig};

    fn occamy_tm(cells: usize, queues: usize, alpha: f64) -> TrafficManager<Occamy> {
        let cfg = QueueConfig::uniform(queues, 10_000_000_000, alpha);
        TrafficManager::new(cells, queues, Occamy::new(cfg))
    }

    #[test]
    fn enqueue_dequeue_roundtrip() {
        let mut tm = occamy_tm(100, 2, 8.0);
        assert_eq!(tm.enqueue(0, 1, 450, 0), EnqueueOutcome::Accepted);
        // 450 B → 3 cells → 600 B charged.
        assert_eq!(tm.state().queue_len(0), 600);
        assert_eq!(tm.queue_wire_bytes(0), 450);
        assert!(tm.check_invariants());
        assert_eq!(tm.dequeue(0, 10), Some((1, 450)));
        assert_eq!(tm.state().total(), 0);
        assert!(tm.check_invariants());
    }

    #[test]
    fn threshold_drop_is_counted() {
        let mut tm = occamy_tm(10, 2, 1.0); // B = 2000
                                            // Fill queue 0 to its DT limit.
        let mut accepted = 0;
        for id in 0..20 {
            if tm.enqueue(0, id, 200, 0) == EnqueueOutcome::Accepted {
                accepted += 1;
            }
        }
        assert!(accepted < 20);
        assert!(tm.stats().tail_drops_threshold > 0);
        assert!(tm.check_invariants());
    }

    #[test]
    fn occamy_head_drop_frees_room() {
        let mut tm = occamy_tm(20, 2, 1.0); // B = 4000
        for id in 0..10 {
            tm.enqueue(0, id, 200, 0);
        }
        let before = tm.state().queue_len(0);
        // Make queue 0 over-allocated by filling queue 1.
        for id in 100..108 {
            tm.enqueue(1, id, 200, 0);
        }
        let victim = tm.select_victim();
        assert_eq!(victim, Some(0), "queue 0 should be over-allocated");
        let dropped = tm.head_drop(0, 50).unwrap();
        assert_eq!(dropped.1, 200);
        assert!(tm.state().queue_len(0) < before);
        assert_eq!(tm.stats().head_dropped_pkts, 1);
        assert!(tm.check_invariants());
    }

    #[test]
    fn head_drop_touches_no_cell_data() {
        let mut tm = occamy_tm(100, 1, 8.0);
        tm.enqueue(0, 1, 1_000, 0);
        let writes = tm.stats().accesses.cell_data;
        tm.head_drop(0, 1).unwrap();
        assert_eq!(
            tm.stats().accesses.cell_data,
            writes,
            "head drop must not access cell data memory"
        );
        // A normal dequeue of the same size *does* read the data.
        tm.enqueue(0, 2, 1_000, 2);
        tm.dequeue(0, 3).unwrap();
        assert!(tm.stats().accesses.cell_data > writes);
    }

    #[test]
    fn pushout_evicts_longest_to_admit() {
        let cfg = QueueConfig::uniform(2, 10_000_000_000, 1.0);
        let mut tm = TrafficManager::new(10, 2, Pushout::new(cfg)); // B = 2000
                                                                    // Fill the whole buffer from queue 0.
        for id in 0..10 {
            assert_eq!(tm.enqueue(0, id, 200, 0), EnqueueOutcome::Accepted);
        }
        assert_eq!(tm.state().free(), 0);
        // Queue 1's arrival pushes a queue-0 packet out.
        let out = tm.enqueue(1, 100, 200, 1);
        assert_eq!(
            out,
            EnqueueOutcome::AcceptedAfterEviction { evicted_pkts: 1 }
        );
        assert_eq!(tm.state().queue_len(1), 200);
        assert_eq!(tm.queue_pkts(0), 9);
        assert_eq!(tm.stats().head_dropped_pkts, 1);
        assert!(tm.check_invariants());
    }

    #[test]
    fn fifo_order_survives_head_drops() {
        let mut tm = occamy_tm(100, 1, 8.0);
        for id in 0..5 {
            tm.enqueue(0, id, 200, 0);
        }
        tm.head_drop(0, 1).unwrap(); // drops packet 0
        assert_eq!(tm.dequeue(0, 2), Some((1, 200)));
        assert_eq!(tm.dequeue(0, 3), Some((2, 200)));
    }

    #[test]
    fn empty_queue_ops_return_none() {
        let mut tm = occamy_tm(10, 2, 1.0);
        assert_eq!(tm.dequeue(0, 0), None);
        assert_eq!(tm.head_drop(1, 0), None);
    }

    #[test]
    fn oversized_packet_is_dropped() {
        let mut tm = occamy_tm(4, 1, 100.0); // B = 800
        assert!(matches!(
            tm.enqueue(0, 1, 900, 0),
            EnqueueOutcome::Dropped(DropReason::BufferFull)
        ));
        assert_eq!(tm.stats().tail_drops_full, 1);
        assert!(tm.check_invariants());
    }

    #[test]
    fn cell_rounding_charges_full_cells() {
        let mut tm = occamy_tm(100, 1, 8.0);
        tm.enqueue(0, 1, 1, 0); // 1 byte → 1 cell → 200 B
        tm.enqueue(0, 2, 201, 0); // 201 bytes → 2 cells → 400 B
        assert_eq!(tm.state().queue_len(0), 600);
        assert_eq!(tm.queue_wire_bytes(0), 202);
    }
}
