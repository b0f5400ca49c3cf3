//! Event-queue ordering properties: the calendar-ring-backed queue must
//! fire in exactly the order a reference priority queue would — the
//! property that makes it a drop-in replacement for the old binary heap
//! with bit-identical simulation results.
//!
//! Besides random scripts, the properties below aim at the regimes the
//! ring and its far lane add: crowded buckets, arms into the bucket
//! being drained, keys at the ring's horizon edge and past its wrap, a
//! sparse ring, far-lane migration into an empty or busy ring, and
//! `pop_at_most` limits inside a bucket. Every case is checked against
//! a total `(time, seq)` sort. One property also routes packets through
//! the queue's pool while its slots recycle.

use occamy_sim::{Event, EventQueue, NodeId, Packet, PacketId, Ps, MS, SEC};
use proptest::prelude::*;

const BUCKET: Ps = EventQueue::BUCKET_PS;
const HORIZON: Ps = EventQueue::HORIZON_PS;

/// Drives an [`EventQueue`] beside a reference model. Every arm is at or
/// after the time of the last pop, as in a simulation, so the correct
/// fire order is the total `(time, seq)` sort of everything armed.
#[derive(Default)]
struct Harness {
    q: EventQueue,
    /// Armed `(time, seq)` keys, unsorted.
    model: Vec<(Ps, u64)>,
    fired: Vec<(Ps, u64)>,
    seq: u64,
    now: Ps,
}

impl Harness {
    /// Arms at absolute time `at`: through `push_deferred` when
    /// `lane % 3 == 2`, through `push` otherwise.
    fn arm(&mut self, lane: u8, at: Ps) {
        assert!(at >= self.now, "scripts arm at or after the clock");
        let ev = Event::HostTxFree {
            host: self.seq as u32,
        };
        match lane % 3 {
            2 => self.q.push_deferred(at, ev),
            _ => self.q.push(at, ev),
        }
        self.model.push((at, self.seq));
        self.seq += 1;
    }

    /// Pops one event no later than `limit`; `false` if none was due.
    fn pop_at_most(&mut self, limit: Ps) -> Result<bool, TestCaseError> {
        let Some((t, ev)) = self.q.pop_at_most(limit) else {
            return Ok(false);
        };
        let Event::HostTxFree { host } = ev else {
            return Err(TestCaseError::fail("foreign event popped"));
        };
        prop_assert!(t >= self.now, "time went backwards: {t} after {}", self.now);
        prop_assert!(t <= limit, "popped {t} past the limit {limit}");
        self.now = t;
        self.fired.push((t, host as u64));
        Ok(true)
    }

    fn pop(&mut self) -> Result<bool, TestCaseError> {
        self.pop_at_most(Ps::MAX)
    }

    /// Drains the queue and compares the whole fire order with the model.
    fn finish(mut self) -> TestCaseResult {
        while self.pop()? {}
        prop_assert!(self.q.is_empty());
        self.model.sort_unstable();
        prop_assert_eq!(self.fired, self.model);
        Ok(())
    }
}

/// Start of the ring bucket holding `t`.
fn bucket_of(t: Ps) -> Ps {
    t - t % BUCKET
}

proptest! {
    /// Mixed direct and deferred pushes at delays spanning nanoseconds
    /// to hundreds of seconds (ring buckets through the far lane's upper
    /// levels), interleaved with pops that advance the ring's cursor:
    /// every event must pop in exact `(time, insertion sequence)` order,
    /// the order a heap produces.
    ///
    /// Script encoding: `op < 3` arms at `now + delay` (the divisor
    /// `1 + op · 1000` varies the delay scale), through `push` for
    /// `op` 0 and 1 and `push_deferred` for 2; `op ≥ 3` pops one event.
    #[test]
    fn fire_order_matches_reference_heap(
        script in prop::collection::vec((0u8..6, 0u64..400_000_000_000u64), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(Ps, u64)> = Vec::new(); // (time, seq), unsorted
        let mut seq = 0u64;
        let mut now: Ps = 0;
        let mut fired: Vec<(Ps, u64)> = Vec::new();
        for (op, raw_delay) in script {
            if op < 3 {
                let delay = raw_delay / (1 + (op as u64) * 1_000);
                let at = now + delay;
                let ev = Event::HostTxFree { host: seq as u32 };
                match op {
                    2 => q.push_deferred(at, ev),
                    _ => q.push(at, ev),
                }
                model.push((at, seq));
                seq += 1;
            } else if let Some((t, Event::HostTxFree { host })) = q.pop() {
                prop_assert!(t >= now, "time went backwards");
                now = t;
                fired.push((t, host as u64));
            }
        }
        while let Some((t, Event::HostTxFree { host })) = q.pop() {
            fired.push((t, host as u64));
        }
        prop_assert!(q.is_empty());
        // The reference: a total (time, seq) sort — what any correct
        // priority queue with insertion-order tie-breaking produces.
        model.sort_unstable();
        prop_assert_eq!(fired, model);
    }

    /// `pop_at_most` never returns an event past the limit and never
    /// loses one before it.
    #[test]
    fn pop_at_most_respects_limit(
        delays in prop::collection::vec(0u64..10_000_000_000u64, 1..40),
        limit in 0u64..10_000_000_000u64,
    ) {
        let mut q = EventQueue::new();
        for (i, d) in delays.iter().enumerate() {
            q.push(*d, Event::HostTxFree { host: i as u32 });
        }
        let mut popped = 0;
        while let Some((t, _)) = q.pop_at_most(limit) {
            prop_assert!(t <= limit);
            popped += 1;
        }
        let due = delays.iter().filter(|&&d| d <= limit).count();
        prop_assert_eq!(popped, due);
        prop_assert_eq!(q.len(), delays.len() - due);
    }

    /// At least 256 arms into one bucket (the fat-tree drained buckets
    /// of up to 270), many at equal times, across all lanes.
    #[test]
    fn crowded_bucket_pops_in_order(
        start in 0u64..SEC,
        arms in prop::collection::vec((0u8..6, 0u64..BUCKET), 256..700),
    ) {
        let mut h = Harness::default();
        // Park the cursor somewhere first, then crowd a later bucket.
        h.arm(0, start);
        prop_assert!(h.pop()?);
        let base = bucket_of(start) + 5 * BUCKET;
        for (op, off) in arms {
            // Coarse offsets for half the arms make equal times common.
            let off = if op >= 3 { off / 256 * 256 } else { off };
            h.arm(op, base + off);
        }
        h.finish()?;
    }

    /// Arms into the bucket whose entries are being popped: after the
    /// first pop drains the bucket, later arms at `now..bucket end`
    /// must merge into the drained entries at their key order.
    #[test]
    fn arms_into_the_draining_bucket(
        start in 0u64..SEC,
        first in prop::collection::vec(0u64..BUCKET, 2..64),
        script in prop::collection::vec((0u8..4, 0u64..BUCKET), 1..200),
    ) {
        let mut h = Harness::default();
        let base = bucket_of(start);
        let end = base + BUCKET;
        for off in first {
            h.arm(0, base + off);
        }
        prop_assert!(h.pop()?);
        for (op, off) in script {
            if op == 3 {
                h.pop()?;
            } else {
                // Stay inside the draining bucket, at or after `now`.
                let at = h.now + off % (end - h.now);
                h.arm(op, at);
            }
        }
        h.finish()?;
    }

    /// Keys exactly at the ring's horizon edge — the last in-ring tick,
    /// the first far tick, their bucket bounds — and, as pops advance
    /// the cursor, keys after the ring has wrapped several times.
    #[test]
    fn horizon_edge_and_wrapped_ring(
        script in prop::collection::vec((0u8..8, 1u64..4, 0i64..7), 1..300),
    ) {
        let mut h = Harness::default();
        for (op, spans, buckets) in script {
            if op < 5 {
                // `bucket_of(now)` is the cursor's bucket after a pop.
                let edge = bucket_of(h.now) + spans * HORIZON;
                let at = (edge as i64 + (buckets - 3) * BUCKET as i64) as Ps;
                let at = if op % 2 == 0 { at } else { at + BUCKET - 1 };
                h.arm(op % 2, at);
            } else {
                h.pop()?;
            }
        }
        h.finish()?;
    }

    /// A sparse ring: one event per thousands of buckets, so every
    /// refill searches far through the occupancy bitmap.
    #[test]
    fn sparse_ring_pops_in_order(
        script in prop::collection::vec((0u8..4, 1_000u64..17_000, 0u64..BUCKET), 1..200),
    ) {
        let mut h = Harness::default();
        for (op, gap, off) in script {
            if op < 2 {
                h.arm(op, h.now + gap * BUCKET + off);
            } else {
                h.pop()?;
            }
        }
        h.finish()?;
    }

    /// Far-lane timers migrate into the ring as the cursor approaches,
    /// with the ring idle (timers only) or busy with packet-scale
    /// events armed around them.
    #[test]
    fn far_lane_migrates_into_empty_or_busy_ring(
        timers in prop::collection::vec((0u8..3, 0u64..200 * HORIZON), 1..60),
        busy in 0u8..2,
        packets in prop::collection::vec((0u8..4, 0u64..HORIZON), 1..400),
    ) {
        let mut h = Harness::default();
        for (op, t) in timers {
            // Some timers sit exactly on block (ring-span) boundaries.
            let t = if op == 0 { t - t % HORIZON } else { t };
            h.arm(1, HORIZON + t);
        }
        if busy == 1 {
            for (op, delay) in packets {
                if op < 2 {
                    h.arm(0, h.now + delay);
                } else {
                    h.pop()?;
                }
            }
        }
        h.finish()?;
    }

    /// `pop_at_most` limits that fall inside a bucket: exactly the
    /// bucket's entries at or before the limit pop, in order, and the
    /// rest follow once the limit lifts.
    #[test]
    fn pop_at_most_limit_inside_a_bucket(
        start in 0u64..SEC,
        far in 0u64..2,
        offs in prop::collection::vec(0u64..BUCKET, 2..100),
        cut in 0u64..BUCKET,
    ) {
        let mut h = Harness::default();
        let base = bucket_of(start + far * 10 * MS);
        for (i, off) in offs.iter().enumerate() {
            h.arm(i as u8 % 2, base + off);
        }
        let limit = base + cut;
        let mut popped = 0;
        while h.pop_at_most(limit)? {
            popped += 1;
        }
        let due = offs.iter().filter(|&&off| base + off <= limit).count();
        prop_assert_eq!(popped, due);
        prop_assert_eq!(h.q.len(), offs.len() - due);
        h.finish()?;
    }

    /// Packets through the queue while its pool recycles slots:
    /// `push_arrival` at packet-scale delays (ring) and, for `op` 0,
    /// milliseconds out (far lane), interleaved with pops. A popped
    /// `Arrive` is redeemed at once (`op` 4) or held for later (`op` 5
    /// and up), so live slots sit among free ones. Each event names its
    /// push index in its node and each packet carries it in `seq`:
    /// every `take_packet` must return the packet pushed with that
    /// event, and events fire in `(time, seq)` order.
    #[test]
    fn arrivals_redeem_their_own_packets(
        script in prop::collection::vec((0u8..8, 0u64..40_000_000u64), 1..600),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(Ps, u64)> = Vec::new();
        let mut fired: Vec<(Ps, u64)> = Vec::new();
        let mut held: Vec<(PacketId, u32)> = Vec::new();
        let mut now: Ps = 0;
        let redeem = |q: &mut EventQueue, pkt: PacketId, index: u32| {
            let got = q.take_packet(pkt).seq;
            prop_assert_eq!(got, u64::from(index), "handle {} redeemed another packet", pkt);
            Ok(())
        };
        for (op, delay) in script {
            if op < 4 {
                let index = model.len() as u32;
                let at = now + if op == 0 { delay * 1_000 } else { delay };
                let mut pkt = Packet::raw(0, 0, 1, 1_000, 0, now);
                pkt.seq = u64::from(index);
                q.push_arrival(at, NodeId::Host(index), pkt);
                model.push((at, u64::from(index)));
            } else if let Some((t, ev)) = q.pop() {
                let Event::Arrive { node: NodeId::Host(index), pkt } = ev else {
                    return Err(TestCaseError::fail("foreign event popped"));
                };
                prop_assert!(t >= now, "time went backwards: {t} after {now}");
                now = t;
                fired.push((t, u64::from(index)));
                if op == 4 {
                    redeem(&mut q, pkt, index)?;
                } else {
                    held.push((pkt, index));
                }
                // Redeem a held packet now and then, oldest or newest.
                if op == 7 && !held.is_empty() {
                    let (pkt, index) = if t % 2 == 0 { held.remove(0) } else { held.pop().unwrap() };
                    redeem(&mut q, pkt, index)?;
                }
            }
        }
        while let Some((t, ev)) = q.pop() {
            let Event::Arrive { node: NodeId::Host(index), pkt } = ev else {
                return Err(TestCaseError::fail("foreign event popped"));
            };
            fired.push((t, u64::from(index)));
            held.push((pkt, index));
        }
        for (pkt, index) in held {
            redeem(&mut q, pkt, index)?;
        }
        model.sort_unstable();
        prop_assert_eq!(fired, model);
    }
}
