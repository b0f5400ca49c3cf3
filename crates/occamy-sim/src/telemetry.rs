//! Out-of-band live telemetry: a deterministic trace bus.
//!
//! The simulator periodically publishes [`Snapshot`]s of its observable
//! state — events executed, sim-time watermark, per-switch buffer
//! occupancy, the hottest queues, fault state — onto a process-global
//! mpsc bus that a consumer (the bench runner's sink thread) drains
//! into JSONL files or a live dashboard.
//!
//! # Determinism contract
//!
//! Telemetry is **strictly read-only** over simulation state and is
//! driven by *event-count cadence*, never by wall clock: with a sink
//! installed, a snapshot is taken each time the number of executed
//! events crosses a multiple of [`cadence`]. Every field of a
//! [`Snapshot`] is therefore itself a deterministic function of the run
//! (wall-clock rates are stamped by the consumer, outside this crate),
//! and every simulation output byte is identical with telemetry on or
//! off — CI enforces this with frozen-artifact comparisons.
//!
//! With no sink installed, [`cadence`] returns 0 and the event loops
//! skip all of this at the cost of one branch per batch.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use crate::metrics::Metrics;
use crate::switch::Switch;
use crate::time::Ps;

/// Identity of the grid cell currently executing on this thread, echoed
/// into every snapshot so one stream can carry interleaved cells.
#[derive(Debug, Clone, Default)]
pub struct CellInfo {
    /// Scenario name (e.g. `fig12`).
    pub scenario: String,
    /// Cell index within the scenario grid.
    pub index: usize,
    /// Total cells in the grid.
    pub total: usize,
    /// Human-readable grid label (`load=0.8 scheme=occamy`).
    pub label: String,
    /// The cell's derived RNG seed.
    pub seed: u64,
}

/// Occupancy of one switch's shared buffer (all partitions summed).
#[derive(Debug, Clone, Copy)]
pub struct SwitchGauge {
    /// Switch id.
    pub switch: usize,
    /// Fabric tier ([`Switch::tier`]).
    pub tier: u8,
    /// Bytes currently buffered.
    pub occ_bytes: u64,
    /// Total buffer capacity in bytes.
    pub cap_bytes: u64,
}

/// One of the hottest (longest) queues in the fabric.
#[derive(Debug, Clone, Copy)]
pub struct QueueGauge {
    /// Switch id.
    pub switch: usize,
    /// Partition index within the switch.
    pub partition: usize,
    /// Queue index within the partition.
    pub queue: usize,
    /// Queued bytes.
    pub bytes: u64,
}

/// What a snapshot marks: a periodic sample or a cell boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// Periodic in-run sample (event-count cadence).
    Snap,
    /// A grid cell started executing.
    CellStart,
    /// A grid cell finished.
    CellEnd,
}

impl SnapshotKind {
    /// Stable lower-case tag used in the JSONL stream.
    pub fn as_str(self) -> &'static str {
        match self {
            SnapshotKind::Snap => "snap",
            SnapshotKind::CellStart => "cell_start",
            SnapshotKind::CellEnd => "cell_end",
        }
    }
}

/// One telemetry record. All fields are deterministic functions of the
/// simulation; wall-clock context is added by the consumer.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Record kind.
    pub kind: SnapshotKind,
    /// The cell this snapshot belongs to (from [`set_cell`]).
    pub cell: CellInfo,
    /// Events executed so far in this cell's world.
    pub events: u64,
    /// Simulation-time watermark (ps).
    pub sim_ps: Ps,
    /// The run's time limit (ps); `sim_ps / limit_ps` is cell progress.
    pub limit_ps: Ps,
    /// Per-switch buffer occupancy, in switch-id order.
    pub switches: Vec<SwitchGauge>,
    /// The top-k longest queues in the fabric, hottest first.
    pub hot_queues: Vec<QueueGauge>,
    /// Buffer-management losses so far ([`Metrics::drops`] total).
    pub losses: u64,
    /// Fault-caused drops so far.
    pub fault_drops: u64,
    /// Fault events fired so far.
    pub faults_fired: u64,
    /// Ports currently marked link-down across the fabric.
    pub disabled_ports: u64,
    /// Switches currently draining.
    pub draining: u64,
}

/// Number of hottest queues reported per snapshot.
pub const TOP_K_QUEUES: usize = 4;

static SINK: Mutex<Option<Sender<Snapshot>>> = Mutex::new(None);
static DEFAULT_CADENCE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CELL: RefCell<CellInfo> = RefCell::new(CellInfo::default());
    static CELL_CADENCE: RefCell<Option<u64>> = const { RefCell::new(None) };
}

/// Installs the process-global telemetry sink and returns the receiving
/// end of the bus. `every` is the default snapshot cadence in executed
/// events (clamped to ≥ 1). Replaces any previous sink.
pub fn install(every: u64) -> Receiver<Snapshot> {
    let (tx, rx) = channel();
    *SINK.lock().unwrap() = Some(tx);
    DEFAULT_CADENCE.store(every.max(1), Relaxed);
    rx
}

/// Removes the sink; [`cadence`] returns 0 again and the event loops
/// revert to the telemetry-free fast path.
pub fn uninstall() {
    *SINK.lock().unwrap() = None;
    DEFAULT_CADENCE.store(0, Relaxed);
}

/// Tags snapshots emitted from this thread with the given cell identity
/// (the bench runner calls this as each grid cell starts).
pub fn set_cell(info: CellInfo) {
    CELL.with(|c| *c.borrow_mut() = info);
}

/// Per-cell cadence override (from a spec's `[telemetry] every_events`);
/// `None` falls back to the sink default.
pub fn set_cell_cadence(every: Option<u64>) {
    CELL_CADENCE.with(|c| *c.borrow_mut() = every.map(|e| e.max(1)));
}

/// The snapshot cadence in executed events for the current thread, or 0
/// when telemetry is disabled. Event loops read this once per run.
pub fn cadence() -> u64 {
    if DEFAULT_CADENCE.load(Relaxed) == 0 {
        return 0;
    }
    // A sink exists; honor the per-cell override if one is set.
    CELL_CADENCE
        .with(|c| *c.borrow())
        .unwrap_or_else(|| DEFAULT_CADENCE.load(Relaxed))
}

/// Sends a snapshot to the sink, if one is installed. A disconnected
/// receiver is ignored — telemetry must never fail a run.
pub fn emit(snap: Snapshot) {
    let tx = SINK.lock().unwrap().clone();
    if let Some(tx) = tx {
        let _ = tx.send(snap);
    }
}

/// Emits a cell-boundary marker (`CellStart`/`CellEnd`) carrying the
/// current thread's cell identity and the final counters, if known.
pub fn emit_marker(kind: SnapshotKind, events: u64, sim_ps: Ps, limit_ps: Ps) {
    if DEFAULT_CADENCE.load(Relaxed) == 0 {
        return;
    }
    emit(Snapshot {
        kind,
        cell: CELL.with(|c| c.borrow().clone()),
        events,
        sim_ps,
        limit_ps,
        switches: Vec::new(),
        hot_queues: Vec::new(),
        losses: 0,
        fault_drops: 0,
        faults_fired: 0,
        disabled_ports: 0,
        draining: 0,
    });
}

/// Builds and emits a periodic snapshot from read-only views of the
/// simulation state. Called by the event loop, on the thread that owns
/// the cell context.
pub fn emit_snapshot(switches: &[Switch], metrics: &Metrics, sim_ps: Ps, limit_ps: Ps) {
    let mut gauges: Vec<SwitchGauge> = Vec::with_capacity(switches.len());
    let mut hot: Vec<QueueGauge> = Vec::new();
    let mut disabled_ports = 0u64;
    let mut draining = 0u64;
    for sw in switches {
        let mut occ = 0u64;
        let mut cap = 0u64;
        for (pi, part) in sw.partitions.iter().enumerate() {
            occ += part.state.total();
            cap += part.state.capacity();
            for (q, bytes) in part.state.iter() {
                if bytes == 0 {
                    continue;
                }
                let g = QueueGauge {
                    switch: sw.id,
                    partition: pi,
                    queue: q,
                    bytes,
                };
                // Keep the top-k by bytes; ties break toward the lower
                // (switch, partition, queue) triple via stable ordering.
                let pos = hot.partition_point(|h| h.bytes >= bytes);
                if pos < TOP_K_QUEUES {
                    hot.insert(pos, g);
                    hot.truncate(TOP_K_QUEUES);
                }
            }
        }
        if let Some(xp) = &sw.xp {
            // Crosspoint-queued switches hold their buffer in the
            // crosspoint FIFOs, not the (empty) partitions.
            occ += xp.total;
            cap += xp.total_cap;
        }
        gauges.push(SwitchGauge {
            switch: sw.id,
            tier: sw.tier,
            occ_bytes: occ,
            cap_bytes: cap,
        });
        disabled_ports += sw.n_disabled as u64;
        draining += sw.draining as u64;
    }
    emit(Snapshot {
        kind: SnapshotKind::Snap,
        cell: CELL.with(|c| c.borrow().clone()),
        events: metrics.events_processed,
        sim_ps,
        limit_ps,
        switches: gauges,
        hot_queues: hot,
        losses: metrics.drops.total_losses(),
        fault_drops: metrics.fault_drops,
        faults_fired: metrics.faults_fired,
        disabled_ports,
        draining,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_is_zero_without_a_sink() {
        // Note: telemetry state is process-global; this test runs in the
        // same binary as the rest of the unit tests, so it restores the
        // uninstalled state before returning.
        uninstall();
        assert_eq!(cadence(), 0);
        let rx = install(10_000);
        assert_eq!(cadence(), 10_000);
        set_cell_cadence(Some(500));
        assert_eq!(cadence(), 500);
        set_cell_cadence(None);
        assert_eq!(cadence(), 10_000);
        emit_marker(SnapshotKind::CellStart, 0, 0, 100);
        let m = rx.recv().unwrap();
        assert_eq!(m.kind, SnapshotKind::CellStart);
        uninstall();
        assert_eq!(cadence(), 0);
        // Emitting without a sink is a no-op, not a panic.
        emit_marker(SnapshotKind::CellEnd, 1, 1, 100);
    }
}
