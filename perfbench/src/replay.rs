//! Replays of single layers through their public APIs, sized from the
//! workload's own parameters. Each reports the lowest nanoseconds per
//! operation over a few timed batches: the host's slow phases only ever
//! add time, so the best batch is the repeatable one.

use occamy_core::{BmKind, BufferManager, BufferState, QueueConfig, Verdict};
use occamy_sim::{CcAlgo, Event, EventQueue, FlowState, Ps, TransportConsts, World};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

/// Deterministic 64-bit generator (SplitMix64) for replay inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Lowest ns per op over [`BATCHES`] calls of `batch`, which returns
/// how many ops it ran.
fn best_ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let ops = batch();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One buffer partition of the workload: its scheme, queue count,
/// capacity, port rate and packet size.
#[derive(Debug, Clone, Copy)]
pub struct BmShape {
    /// Scheme.
    pub kind: BmKind,
    /// Scheme `α`.
    pub alpha: f64,
    /// Queues in the partition.
    pub queues: usize,
    /// Partition buffer, bytes.
    pub capacity: u64,
    /// Egress port rate.
    pub port_rate_bps: u64,
    /// Bytes per packet (MSS plus headers).
    pub pkt: u64,
}

impl BmShape {
    /// The first partition of the first switch of a built world.
    pub fn of(world: &World, kind: BmKind, alpha: f64) -> Self {
        let sw = &world.switches[0];
        let part = &sw.partitions[0];
        BmShape {
            kind,
            alpha,
            queues: part.state.num_queues(),
            capacity: part.state.capacity(),
            port_rate_bps: sw.ports[part.ports[0]].link.rate_bps,
            pkt: world.cfg.mss as u64 + occamy_sim::HDR_BYTES,
        }
    }
}

/// Per-call costs of the buffer manager, ns.
#[derive(Debug, Clone, Copy)]
pub struct BmCosts {
    /// `admit` on the congested partition.
    pub admit_ns: f64,
    /// One `on_enqueue` or `on_dequeue` hook, with the occupancy update
    /// it follows.
    pub hooks_ns: f64,
    /// `select_victim` on the congested partition.
    pub select_victim_ns: f64,
}

/// Drives the partition into the incast steady state — a quarter of the
/// queues take half the arrivals, arrivals outpace departures, and a
/// preemptive scheme head-drops whatever `select_victim` names — then
/// times each call kind on that state.
pub fn bm(shape: BmShape) -> BmCosts {
    let n = shape.queues;
    let cfg = QueueConfig::uniform(n, shape.port_rate_bps, shape.alpha);
    let mut bm = shape.kind.build(cfg);
    let mut state = BufferState::new(shape.capacity, n);
    let mut mix = Mix(shape.capacity ^ n as u64);
    let hot = (n / 4).max(1) as u64;
    let pick = |mix: &mut Mix| {
        if mix.below(2) == 0 {
            mix.below(hot) as usize
        } else {
            mix.below(n as u64) as usize
        }
    };
    let steps = 20 * shape.capacity / shape.pkt;
    for step in 0..steps {
        let q = pick(&mut mix);
        if bm.admit(q, shape.pkt, &state) == Verdict::Accept && state.free() >= shape.pkt {
            state.enqueue(q, shape.pkt).expect("admitted packet fits");
            bm.on_enqueue(q, shape.pkt, step, &state);
        }
        let d = (step % n as u64) as usize;
        if mix.below(5) != 0 && state.queue_len(d) >= shape.pkt {
            state.dequeue(d, shape.pkt).expect("queue holds a packet");
            bm.on_dequeue(d, shape.pkt, step, &state);
        }
        if let Some(v) = bm.select_victim(&state) {
            if state.queue_len(v) >= shape.pkt {
                state.dequeue(v, shape.pkt).expect("victim holds a packet");
                bm.on_dequeue(v, shape.pkt, step, &state);
            }
        }
    }

    const OPS: u64 = 1 << 18;
    let admit_ns = best_ns_per_op(|| {
        for i in 0..OPS {
            black_box(bm.admit((i % n as u64) as usize, shape.pkt, &state));
        }
        OPS
    });
    let select_victim_ns = {
        let mut bm = bm.clone();
        best_ns_per_op(|| {
            for _ in 0..OPS {
                black_box(bm.select_victim(&state));
            }
            OPS
        })
    };
    let hooks_ns = {
        let mut bm = bm.clone();
        let mut state = state.clone();
        let queues: Vec<usize> = (0..OPS)
            .map(|_| pick(&mut mix))
            .filter(|&q| state.queue_len(q) >= shape.pkt)
            .collect();
        best_ns_per_op(|| {
            for (i, &q) in queues.iter().enumerate() {
                state.dequeue(q, shape.pkt).expect("queue holds a packet");
                bm.on_dequeue(q, shape.pkt, i as u64, &state);
                state.enqueue(q, shape.pkt).expect("slot just freed");
                bm.on_enqueue(q, shape.pkt, i as u64, &state);
            }
            2 * queues.len() as u64
        })
    };
    BmCosts {
        admit_ns,
        hooks_ns,
        select_victim_ns,
    }
}

/// One `pop` plus one `push` of the hold model on an [`EventQueue`]
/// holding `pending` events: seven in eight re-arms land one hop later
/// (`hop_ps` plus jitter), the rest one `timer_ps` out, like ACK-clocked
/// packets beside retransmission timers.
pub fn eventq_push_pop_ns(pending: usize, hop_ps: Ps, timer_ps: Ps) -> f64 {
    let mut q = EventQueue::new();
    let mut mix = Mix(pending as u64 ^ hop_ps);
    for flow in 0..pending {
        q.push(mix.below(timer_ps), Event::Rto { flow: flow as u32 });
    }
    let mut rearm = move |q: &mut EventQueue| {
        let (at, ev) = q.pop().expect("the hold model keeps the queue full");
        let delay = if mix.below(8) == 0 {
            timer_ps
        } else {
            hop_ps + mix.below(hop_ps.max(1))
        };
        q.push(at + delay, ev);
    };
    const OPS: u64 = 1 << 18;
    best_ns_per_op(|| {
        for _ in 0..OPS {
            rearm(&mut q);
        }
        OPS
    })
}

/// One ACK of a lossless ACK-clocked transfer of `flow_bytes`:
/// `next_segment`, the receiver's `on_data` and the sender's `on_ack`,
/// with a round trip of `rtt_ps` between windows.
pub fn transport_ack_ns(flow_bytes: u64, rtt_ps: Ps, consts: &TransportConsts) -> f64 {
    const ACKS: u64 = 1 << 17;
    let mut segs = Vec::new();
    best_ns_per_op(|| {
        let mut acks = 0;
        while acks < ACKS {
            let mut f = FlowState::new(0, 0, 1, flow_bytes, 0, 0, CcAlgo::Dctcp, consts);
            f.hot.set_started(true);
            let mut now = 0;
            'flow: loop {
                segs.clear();
                while f.can_send() {
                    segs.push(f.next_segment(now, consts));
                }
                now += rtt_ps;
                for p in &segs {
                    let ack = f.on_data(p.seq, p.len as u64);
                    acks += 1;
                    if f.on_ack(ack, false, p.ts, now, consts) {
                        break 'flow;
                    }
                }
            }
        }
        acks
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use occamy_sim::{SimConfig, MS, US};

    fn shape(kind: BmKind, alpha: f64) -> BmShape {
        BmShape {
            kind,
            alpha,
            queues: 8,
            capacity: 1_000_000,
            port_rate_bps: 25_000_000_000,
            pkt: 1_500,
        }
    }

    #[test]
    fn replays_report_positive_finite_costs() {
        for (kind, alpha) in [(BmKind::Occamy, 8.0), (BmKind::Dt, 1.0)] {
            let c = bm(shape(kind, alpha));
            for v in [c.admit_ns, c.hooks_ns, c.select_victim_ns] {
                assert!(v.is_finite() && v > 0.0, "{kind:?}: {c:?}");
            }
        }
        assert!(eventq_push_pop_ns(1_000, 10 * US, 5 * MS) > 0.0);
        let tc = TransportConsts::new(&SimConfig::default());
        assert!(transport_ack_ns(200_000, 80 * US, &tc) > 0.0);
    }
}
