//! Criterion microbenches for the transport hot path: the per-ACK
//! sender machine, the receiver's out-of-order interval merge, and the
//! event queue — retransmission-timer arm/fire/re-arm on its far lane
//! and the packet-event mix on its calendar ring.

use criterion::{criterion_group, criterion_main, Criterion};
use occamy_sim::{
    CcAlgo, Event, EventQueue, FlowRx, FlowState, Ps, SimConfig, TransportConsts, MS, NS, US,
};
use std::hint::black_box;

/// A lossless 2 MB ACK-clocked exchange: every byte travels through
/// `next_segment` → `on_data` → `on_ack`, so the measured time is the
/// per-packet sender/receiver state-machine cost.
fn ack_clock_2mb(tc: &TransportConsts) -> u64 {
    let mut f = FlowState::new(0, 0, 1, 2_000_000, 0, 0, CcAlgo::Dctcp, tc);
    f.hot.set_started(true);
    let mut now = 0u64;
    let mut pkts = Vec::with_capacity(1_024);
    loop {
        pkts.clear();
        while f.can_send() {
            pkts.push(f.next_segment(now, tc));
        }
        now += 100 * US;
        for p in &pkts {
            let ack = f.on_data(p.seq, p.len as u64);
            if f.on_ack(ack, false, p.ts, now, tc) {
                return now;
            }
        }
    }
}

fn bench_on_ack(c: &mut Criterion) {
    let tc = TransportConsts::new(&SimConfig::default());
    let mut group = c.benchmark_group("transport_hot");
    group.bench_function("on_ack_lossless_2mb", |b| {
        b.iter(|| black_box(ack_clock_2mb(&tc)));
    });
    group.finish();
}

/// Pathological reordering at the receiver: segments arrive strictly
/// backwards (every arrival extends the interval list at the front),
/// then the hole fills and the whole list is absorbed — the pattern
/// that was quadratic with a `Vec` interval list.
fn reorder_merge(n: u64) -> u64 {
    let mut rx = FlowRx::default();
    for seq in (1..n).rev() {
        black_box(rx.on_data(seq * 1_000, 1_000));
    }
    rx.on_data(0, 1_000)
}

/// Interleaved arrival: odd segments stitch the even-segment intervals
/// pairwise (maximal interval count, then n/2 merges).
fn interleave_merge(n: u64) -> u64 {
    let mut rx = FlowRx::default();
    for seq in (2..n).step_by(2) {
        black_box(rx.on_data(seq * 1_000, 1_000));
    }
    for seq in (3..n).step_by(2) {
        black_box(rx.on_data(seq * 1_000, 1_000));
    }
    rx.on_data(1_000, 1_000)
}

fn bench_on_data(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_on_data");
    group.bench_function("reverse_2k_segments", |b| {
        b.iter(|| black_box(reorder_merge(2_000)));
    });
    group.bench_function("interleave_2k_segments", |b| {
        b.iter(|| black_box(interleave_merge(2_000)));
    });
    group.finish();
}

/// Timer arm/fire through the event queue: one pending timer per flow,
/// RTO-scale deadlines, popped in deadline order — the far-lane path,
/// with each timer migrating into the calendar ring before it pops.
fn arm_fire(flows: u64) -> u64 {
    let mut q = EventQueue::new();
    for f in 0..flows {
        // Deadlines spread over 5–45 ms like a PTO/RTO population.
        let at = 5 * MS + (f * 7 % 40) * MS;
        q.push(at, Event::Rto { flow: f as u32 });
    }
    let mut fired = 0;
    while q.pop().is_some() {
        fired += 1;
    }
    fired
}

/// The soft-deadline protocol: a timer fires early, re-arms at its
/// pushed-forward deadline, fires again — the arm/fire/cancel
/// (reschedule) cycle every ACKed flow drives.
fn rearm_cycle(rounds: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut fired = 0;
    q.push(5 * MS, Event::Rto { flow: 0 });
    for _ in 0..rounds {
        let Some((t, _)) = q.pop() else { break };
        let now = t;
        fired += 1;
        // Deadline moved forward by ACK activity: resleep (the
        // cancel-equivalent of the soft-timer protocol).
        q.push(now + 5 * MS, Event::Rto { flow: 0 });
    }
    fired
}

/// The packet-event hold model: a queue of 40 k pending events (the
/// 128-host fat-tree's mean) where every pop re-arms one event at a
/// delay drawn from the fat-tree's recorded push mix at 100 G — a
/// quarter ACK serializations (3.2 ns), a quarter data serializations
/// (120 ns), half link arrivals (a serialization plus 10 µs), and one
/// push in 2 000 a 5 ms retransmission timer.
struct PacketMix {
    q: EventQueue,
    x: u64,
}

impl PacketMix {
    const PENDING: u32 = 40_000;

    fn new() -> Self {
        let mut m = PacketMix {
            q: EventQueue::new(),
            x: 0x2545_F491_4F6C_DD1D,
        };
        for host in 0..Self::PENDING {
            let at = m.delay() + (m.x >> 20) % (10 * US);
            m.q.push(at, Event::HostTxFree { host });
        }
        m
    }

    fn delay(&mut self) -> Ps {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        let x = self.x;
        if x % 2_000 == 0 {
            return 5 * MS;
        }
        let ser = [3_200, 120 * NS][(x >> 1) as usize & 1];
        ser + [0, 10 * US][(x >> 2) as usize & 1] + (x >> 8) % NS
    }

    /// `ops` pop + re-arm pairs.
    fn run(&mut self, ops: u64) -> Ps {
        let mut now = 0;
        for _ in 0..ops {
            let (t, ev) = self.q.pop().expect("the hold model keeps the queue full");
            now = t;
            let at = t + self.delay();
            self.q.push(at, ev);
        }
        now
    }
}

fn bench_timers(c: &mut Criterion) {
    let mut group = c.benchmark_group("timer_wheel");
    let mut mix = PacketMix::new();
    group.bench_function("packet_mix_40k_pending_10k_ops", |b| {
        b.iter(|| black_box(mix.run(10_000)));
    });
    group.bench_function("arm_fire_10k_flows", |b| {
        b.iter(|| black_box(arm_fire(10_000)));
    });
    group.bench_function("rearm_cycle_10k", |b| {
        b.iter(|| black_box(rearm_cycle(10_000)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_on_ack, bench_on_data, bench_timers
}
criterion_main!(benches);
