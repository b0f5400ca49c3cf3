//! The shared-memory switch: ports, class queues, buffer partitions.

use crate::crosspoint::Crosspoint;
use crate::event::{NodeId, PacketDesc};
use crate::routing::RoutingTable;
use crate::scheduler::Scheduler;
use crate::time::Ps;
use occamy_core::{AnyBm, BufferState, RateEstimator, TokenBucket};
use std::collections::VecDeque;

/// A unidirectional link out of a switch port.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Peer node.
    pub to: NodeId,
    /// Rate in bits/s.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_ps: Ps,
}

/// One egress port: a link, per-class queues and a scheduler.
#[derive(Debug)]
pub struct SwitchPort {
    /// Outgoing link.
    pub link: Link,
    /// Per-class queues of packet descriptors (the PD linked lists of
    /// the hardware); the packets stay in the event queue's pool.
    pub queues: Vec<VecDeque<PacketDesc>>,
    /// Class scheduler.
    pub sched: Scheduler,
    /// Whether the port is mid-serialization.
    pub tx_busy: bool,
}

/// A shared-buffer partition: the unit over which one BM instance runs.
///
/// Tomahawk-style chips partition the buffer among port groups (the
/// paper's §6.4 models 4 MB per 8 ports); each partition owns its
/// occupancy state, BM instance and expulsion token bucket.
#[derive(Debug)]
pub struct BufferPartition {
    /// Occupancy accounting (bytes).
    pub state: BufferState,
    /// The buffer-management scheme.
    pub bm: AnyBm,
    /// Redundant-memory-bandwidth budget for expulsion (paper §5.3).
    pub tb: TokenBucket,
    /// Whether the BM runs a reactive expulsion process (Occamy variants).
    pub reactive: bool,
    /// An `ExpelRetry` event is pending for this partition.
    pub expel_armed: bool,
    /// Global port indices belonging to this partition, in queue order.
    pub ports: Vec<usize>,
}

/// An output-queued shared-memory switch.
#[derive(Debug)]
pub struct Switch {
    /// Switch index.
    pub id: usize,
    /// Fabric tier (0 = edge/leaf/access, 1 = aggregation/spine,
    /// 2 = core). Purely descriptive — set by the topology builders and
    /// used by telemetry to group queue-occupancy gauges per tier.
    pub tier: u8,
    /// Egress ports.
    pub ports: Vec<SwitchPort>,
    /// Buffer partitions.
    pub partitions: Vec<BufferPartition>,
    /// Partition index of each port.
    pub port_partition: Vec<usize>,
    /// Index of each port *within* its partition.
    pub port_local: Vec<usize>,
    /// Service classes per port.
    pub classes: usize,
    /// Static routing table.
    pub routing: RoutingTable,
    /// Per-port link-down marks (fault injection); indexed by global
    /// port number, consulted by ECMP only when `n_disabled > 0`.
    pub disabled_ports: Vec<bool>,
    /// Number of `true` entries in `disabled_ports` — the fault-free
    /// fast-path guard.
    pub n_disabled: u32,
    /// Whether the switch is mid-drain: arrivals refused, buffer
    /// emptying through the normal dequeue path.
    pub draining: bool,
    /// Crosspoint-queued mode: when present, arrivals and transmits
    /// route through per-(input, output) crosspoint buffers and the
    /// shared-memory partitions above stay empty (see [`Crosspoint`]).
    pub xp: Option<Crosspoint>,
    /// EWMA of bytes written into the buffer (memory write bandwidth).
    pub write_rate: RateEstimator,
    /// EWMA of bytes read out of the cell data memory.
    pub read_rate: RateEstimator,
    /// Total memory bandwidth in bits/s (write path + read path).
    pub total_membw_bps: f64,
}

impl Switch {
    /// Partition-local queue index for `(port, class)`.
    #[inline]
    pub fn queue_index(&self, port: usize, class: usize) -> usize {
        self.port_local[port] * self.classes + class
    }

    /// Inverse of [`Switch::queue_index`]: `(global port, class)` of a
    /// partition-local queue index.
    #[inline]
    pub fn queue_location(&self, partition: usize, qidx: usize) -> (usize, usize) {
        let port = self.partitions[partition].ports[qidx / self.classes];
        (port, qidx % self.classes)
    }

    /// Instantaneous memory-bandwidth utilization estimate at `now_ns`
    /// (paper Fig. 7b: consumed / overall).
    pub fn membw_util(&self, now_ns: u64) -> f64 {
        ((self.write_rate.rate_bps(now_ns) + self.read_rate.rate_bps(now_ns))
            / self.total_membw_bps)
            .min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occamy_core::{BmKind, QueueConfig};

    fn tiny_switch(classes: usize, ports_per_partition: usize, n_ports: usize) -> Switch {
        let mut partitions = Vec::new();
        let mut port_partition = vec![0; n_ports];
        let mut port_local = vec![0; n_ports];
        for (pi, chunk) in (0..n_ports)
            .collect::<Vec<_>>()
            .chunks(ports_per_partition)
            .enumerate()
        {
            for (li, &p) in chunk.iter().enumerate() {
                port_partition[p] = pi;
                port_local[p] = li;
            }
            let nq = chunk.len() * classes;
            partitions.push(BufferPartition {
                state: BufferState::new(1_000_000, nq),
                bm: BmKind::Dt.build(QueueConfig::uniform(nq, 10_000_000_000, 1.0)),
                tb: TokenBucket::new(1e9, 100.0),
                reactive: false,
                expel_armed: false,
                ports: chunk.to_vec(),
            });
        }
        let ports = (0..n_ports)
            .map(|_| SwitchPort {
                link: Link {
                    to: NodeId::host(0),
                    rate_bps: 10_000_000_000,
                    prop_ps: 1_000,
                },
                queues: (0..classes).map(|_| VecDeque::new()).collect(),
                sched: Scheduler::Fifo,
                tx_busy: false,
            })
            .collect();
        Switch {
            id: 0,
            tier: 0,
            ports,
            partitions,
            port_partition,
            port_local,
            classes,
            routing: RoutingTable::new(vec![vec![0]]),
            disabled_ports: vec![false; n_ports],
            n_disabled: 0,
            draining: false,
            xp: None,
            write_rate: RateEstimator::new(10_000, 0.0),
            read_rate: RateEstimator::new(10_000, 0.0),
            total_membw_bps: 2.0 * 10e9 * n_ports as f64,
        }
    }

    #[test]
    fn queue_index_roundtrips() {
        let sw = tiny_switch(2, 4, 8);
        for port in 0..8 {
            for class in 0..2 {
                let pa = sw.port_partition[port];
                let q = sw.queue_index(port, class);
                assert_eq!(sw.queue_location(pa, q), (port, class));
            }
        }
    }

    #[test]
    fn partitions_chunk_ports() {
        let sw = tiny_switch(2, 4, 8);
        assert_eq!(sw.partitions.len(), 2);
        assert_eq!(sw.partitions[0].ports, vec![0, 1, 2, 3]);
        assert_eq!(sw.partitions[1].ports, vec![4, 5, 6, 7]);
        assert_eq!(sw.port_partition[5], 1);
        assert_eq!(sw.port_local[5], 1);
    }

    #[test]
    fn membw_util_tracks_activity() {
        let mut sw = tiny_switch(1, 8, 8);
        assert_eq!(sw.membw_util(0), 0.0);
        // Feed the write estimator at ~80 Gbps for a while.
        let mut now = 0u64;
        for _ in 0..10_000 {
            now += 100; // 100 ns
            sw.write_rate.record(1_000, now); // 1000 B / 100 ns = 80 Gbps
        }
        let util = sw.membw_util(now);
        // 80 Gbps of 160 Gbps total = 0.5.
        assert!((util - 0.5).abs() < 0.05, "util {util}");
    }
}
