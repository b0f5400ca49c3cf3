//! Property-based tests for the simulator's deterministic components.

use occamy_sim::{
    CcAlgo, Event, EventQueue, FlowState, Packet, PacketDesc, Scheduler, SimConfig, TransportConsts,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A class queue of `n` descriptors of `len`-byte data packets.
fn descs(n: usize, len: u32) -> VecDeque<PacketDesc> {
    let pkt = Packet::data(0, 0, 1, 0, len, 0, 0);
    (0..n as u32).map(|id| PacketDesc::new(id, &pkt)).collect()
}

proptest! {
    /// The event queue is a stable priority queue: pops are globally
    /// time-ordered and FIFO within a timestamp.
    #[test]
    fn event_queue_is_stable(times in prop::collection::vec(0u64..1_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            // Exercise both lanes: even insertions go through the heap,
            // odd ones through the deferred (setup-time) lane. Global
            // (time, insertion) order must hold regardless.
            if i % 2 == 0 {
                q.push(t, Event::HostTxFree { host: i as u32 });
            } else {
                q.push_deferred(t, Event::HostTxFree { host: i as u32 });
            }
        }
        let mut last: Option<(u64, u32)> = None;
        while let Some((t, ev)) = q.pop() {
            let Event::HostTxFree { host } = ev else { unreachable!() };
            if let Some((lt, lh)) = last {
                prop_assert!(t > lt || (t == lt && host > lh), "instability at t = {}", t);
            }
            prop_assert_eq!(times[host as usize], t, "event time corrupted");
            last = Some((t, host));
        }
    }

    /// The receiver reassembly state machine agrees with a reference
    /// bitmap model for arbitrary (possibly overlapping, out-of-order)
    /// segment arrivals.
    #[test]
    fn reassembly_matches_reference(
        segs in prop::collection::vec((0u64..50u64, 1u64..10), 1..60)
    ) {
        let c = TransportConsts::new(&SimConfig::default());
        let mut f = FlowState::new(0, 0, 1, 100, 0, 0, CcAlgo::Dctcp, &c);
        let mut have = [false; 600];
        for (seq, len) in segs {
            let ack = f.on_data(seq, len);
            for b in seq..seq + len {
                have[b as usize] = true;
            }
            let expect = have.iter().position(|&x| !x).unwrap() as u64;
            prop_assert_eq!(ack, expect, "cumulative ack diverged");
        }
    }

    /// DRR serves byte shares proportional to… equal quanta: over a long
    /// backlogged run, per-class byte service stays within 20% of equal,
    /// regardless of (per-class constant) packet sizes.
    #[test]
    fn drr_byte_fairness(
        sizes in prop::collection::vec(100u32..1_460, 2..5),
        quantum in 1_500u64..4_000,
    ) {
        let classes = sizes.len();
        let mut sched = Scheduler::drr(classes, quantum);
        let mut queues: Vec<VecDeque<PacketDesc>> =
            sizes.iter().map(|&len| descs(4_000, len)).collect();
        let mut bytes = vec![0u64; classes];
        for _ in 0..3_000 {
            let c = sched.pick(&queues).unwrap();
            let p = queues[c].pop_front().unwrap();
            bytes[c] += p.wire_bytes();
        }
        let total: u64 = bytes.iter().sum();
        let fair = total as f64 / classes as f64;
        for (c, &b) in bytes.iter().enumerate() {
            prop_assert!(
                (b as f64 - fair).abs() / fair < 0.2,
                "class {} got {} of fair {}", c, b, fair
            );
        }
    }

    /// Strict priority never serves a lower class while a higher one is
    /// backlogged.
    #[test]
    fn strict_priority_ordering(backlogs in prop::collection::vec(0usize..5, 2..6)) {
        let mut sched = Scheduler::StrictPriority;
        let mut queues: Vec<VecDeque<PacketDesc>> =
            backlogs.iter().map(|&n| descs(n, 100)).collect();
        while let Some(c) = sched.pick(&queues) {
            for (higher, q) in queues.iter().enumerate().take(c) {
                prop_assert!(q.is_empty(), "skipped class {}", higher);
            }
            queues[c].pop_front();
        }
        prop_assert!(queues.iter().all(|q| q.is_empty()));
    }

    /// Window arithmetic: a sender never has more unacked bytes in
    /// flight than cwnd allows (checked across a lossless exchange).
    #[test]
    fn inflight_bounded_by_cwnd(bytes in 10_000u64..500_000) {
        let cfg = SimConfig::default();
        let c = TransportConsts::new(&cfg);
        let mut f = FlowState::new(0, 0, 1, bytes, 0, 0, CcAlgo::Dctcp, &c);
        f.hot.set_started(true);
        let mut now = 0u64;
        for _ in 0..10_000 {
            let mut sent = Vec::new();
            while f.can_send() {
                let p = f.next_segment(now, &c);
                sent.push(p);
                prop_assert!(
                    f.hot.inflight() as f64 <= f.hot.cwnd() + cfg.mss as f64,
                    "inflight {} exceeds cwnd {}", f.hot.inflight(), f.hot.cwnd()
                );
            }
            now += 100_000_000; // 100 µs RTT
            let mut done = false;
            for p in sent {
                let ack = f.on_data(p.seq, p.len as u64);
                done = f.on_ack(ack, false, p.ts, now, &c);
            }
            if done {
                return Ok(());
            }
        }
        prop_assert!(false, "transfer never finished");
    }
}
