//! Property-based tests for the buffer-management core.

use occamy_core::{
    AnyBm, BmKind, BufferManager, BufferState, DynamicThreshold, Occamy, QueueBitmap, QueueConfig,
    QueueId, RoundRobinCursor, TokenBucket, Verdict, VictimPolicy,
};
use proptest::prelude::*;

/// Forces a from-scratch rebuild of any incremental victim-selection
/// state (no-op for schemes that keep none).
fn resync(bm: &mut AnyBm, state: &BufferState) {
    match bm {
        AnyBm::Occamy(o) => o.resync(state),
        AnyBm::Pushout(p) => p.resync(state),
        _ => {}
    }
}

/// The over-allocation bitmap, for schemes that maintain one.
fn bitmap_bits(bm: &AnyBm, n: usize) -> Option<Vec<bool>> {
    match bm {
        AnyBm::Occamy(o) => Some((0..n).map(|q| o.bitmap().get(q)).collect()),
        _ => None,
    }
}

/// Per-queue `α` for the sleeping-tracker property: the powers of two
/// take the tracker's integer flip-bound path, 7.77 its f64 probe.
const SLEEP_ALPHAS: [f64; 7] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 7.77];

/// Checks Occamy's tracker, then its next victim, against a from-scratch
/// scan of DT thresholds. `floor` is the scan's `T(α_min, free)`: after
/// any hook the tracker is awake past the wake guard (`total > floor`)
/// and asleep at the sleep guard (`2 · total ≤ floor`). `rr` mirrors the
/// round-robin cursor.
fn check_against_scan(
    bm: &mut Occamy,
    state: &BufferState,
    floor: u64,
    rr: &mut RoundRobinCursor,
) -> TestCaseResult {
    let n = state.num_queues();
    let mut scratch = QueueBitmap::new(n);
    for q in 0..n {
        scratch.set(q, state.queue_len(q) > bm.threshold(q, state));
    }
    // Longest over-allocated queue, ties to the lowest index.
    let longest = scratch
        .iter_ones()
        .max_by_key(|&q| (state.queue_len(q), std::cmp::Reverse(q)));
    let t = bm.tracker();
    let total = state.total();
    prop_assert!(
        !t.is_asleep() || total <= floor,
        "asleep past the wake guard"
    );
    prop_assert!(
        t.is_asleep() || 2 * total > floor,
        "awake at the sleep guard"
    );
    prop_assert_eq!(t.over_count(), scratch.count_ones(), "over_count");
    for q in 0..n {
        prop_assert_eq!(t.bitmap().get(q), scratch.get(q), "bit {}", q);
    }
    let expect: Option<QueueId> = match bm.policy() {
        VictimPolicy::Longest => {
            prop_assert_eq!(t.longest_over(), longest, "longest_over");
            longest
        }
        VictimPolicy::RoundRobin if scratch.any() => rr.grant(&scratch),
        VictimPolicy::RoundRobin => None,
    };
    prop_assert_eq!(bm.select_victim(state), expect, "select_victim");
    prop_assert_eq!(bm.tracker().repairs(), 0, "a hooked walk needs no repair");
    Ok(())
}

proptest! {
    /// Occamy's tracker sleeps while no queue can be over-allocated and
    /// answers exactly like a from-scratch scan throughout. Each cycle
    /// fills the buffer past the wake guard (`total > T(α_min, free)`)
    /// until some queue is over-allocated, makes a few random moves, then
    /// drains it to the sleep guard (`2 · total ≤ T(α_min, free)`),
    /// sometimes a whole queue in one hook, checking after every op.
    #[test]
    fn sleeping_tracker_matches_scratch_scan(
        alpha_idx in prop::collection::vec(0usize..7, 6),
        longest in prop::bool::ANY,
        cycles in 2usize..5,
        pkts in prop::collection::vec(
            (0usize..6, 64u64..1_600, prop::bool::ANY, 0u8..8), 8..64),
    ) {
        let n = alpha_idx.len();
        let mut cfg = QueueConfig::uniform(n, 10_000_000_000, 1.0);
        for (q, &i) in alpha_idx.iter().enumerate() {
            cfg = cfg.with_alpha(q, SLEEP_ALPHAS[i]);
        }
        let q_min = (0..n)
            .min_by(|&a, &b| cfg.alpha[a].total_cmp(&cfg.alpha[b]))
            .unwrap();
        let policy = if longest { VictimPolicy::Longest } else { VictimPolicy::RoundRobin };
        let mut bm = Occamy::with_policy(cfg, policy);
        let mut state = BufferState::new(60_000, n);
        let mut rr = RoundRobinCursor::new();
        let mut next = pkts.iter().copied().cycle();
        // One op: enqueue up to `len` bytes into `q` (as much as fits),
        // or dequeue up to `len` bytes from it; then the hook and checks.
        let mut op = |bm: &mut Occamy, state: &mut BufferState, q: QueueId, len: u64, enq: bool| {
            if enq {
                let len = len.min(state.free());
                if len > 0 {
                    state.enqueue(q, len).unwrap();
                    bm.on_enqueue(q, len, 0, state);
                }
            } else {
                let len = len.min(state.queue_len(q));
                if len > 0 {
                    state.dequeue(q, len).unwrap();
                    bm.on_dequeue(q, len, 0, state);
                }
            }
            let floor = bm.threshold(q_min, state);
            check_against_scan(bm, state, floor, &mut rr)
        };
        let any_over = |bm: &Occamy, state: &BufferState| {
            (0..n).any(|q| state.queue_len(q) > bm.threshold(q, state))
        };
        for _ in 0..cycles {
            // Past the wake guard, and on until some queue is
            // over-allocated (at the latest when the buffer is full).
            while state.total() <= bm.threshold(q_min, &state) || !any_over(&bm, &state) {
                let (q, len, _, _) = next.next().unwrap();
                op(&mut bm, &mut state, q, len, true)?;
            }
            for _ in 0..8 {
                let (q, len, enq, _) = next.next().unwrap();
                op(&mut bm, &mut state, q, len, enq)?;
            }
            while 2 * state.total() > bm.threshold(q_min, &state) {
                let (q, len, _, flush) = next.next().unwrap();
                // Drain the named queue, or the longest if it is empty.
                let q = if state.queue_len(q) > 0 { q } else { state.longest_queue().unwrap() };
                let len = if flush == 0 { state.queue_len(q) } else { len };
                op(&mut bm, &mut state, q, len, false)?;
            }
        }
        let t = bm.tracker();
        prop_assert!(
            t.wakes() >= cycles as u64 && t.sleeps() >= cycles as u64,
            "{} cycles, {} wakes, {} sleeps", cycles, t.wakes(), t.sleeps()
        );
    }

    /// Buffer accounting never loses or invents bytes under arbitrary
    /// interleavings of enqueues and dequeues.
    #[test]
    fn buffer_state_conserves_bytes(
        ops in prop::collection::vec((0usize..4, 1u64..5_000, prop::bool::ANY), 1..200)
    ) {
        let mut state = BufferState::new(100_000, 4);
        let mut shadow = [0u64; 4];
        for (q, len, is_enq) in ops {
            if is_enq {
                if state.enqueue(q, len).is_ok() {
                    shadow[q] += len;
                }
            } else if state.dequeue(q, len).is_ok() {
                shadow[q] -= len;
            }
            prop_assert_eq!(state.total(), shadow.iter().sum::<u64>());
            for (i, &s) in shadow.iter().enumerate() {
                prop_assert_eq!(state.queue_len(i), s);
            }
            prop_assert!(state.total() <= state.capacity());
        }
    }

    /// DT's threshold is exactly α·free (capped), hence monotone
    /// decreasing in total occupancy.
    #[test]
    fn dt_threshold_monotone_in_occupancy(
        alpha in 0.1f64..16.0,
        fills in prop::collection::vec(1u64..2_000, 1..50)
    ) {
        let dt = DynamicThreshold::new(QueueConfig::uniform(2, 1_000, alpha));
        let mut state = BufferState::new(200_000, 2);
        let mut prev = dt.threshold(0, &state);
        for f in fills {
            if state.enqueue(1, f).is_err() {
                break;
            }
            let t = dt.threshold(0, &state);
            prop_assert!(t <= prev, "threshold rose as buffer filled");
            prev = t;
        }
    }

    /// A packet admitted by DT always physically fits (no overflow), for
    /// any α: admission implies free space.
    #[test]
    fn dt_admission_implies_space(
        alpha in 0.1f64..64.0,
        ops in prop::collection::vec((0usize..3, 40u64..3_000), 1..300)
    ) {
        let dt = DynamicThreshold::new(QueueConfig::uniform(3, 1_000, alpha));
        let mut state = BufferState::new(50_000, 3);
        for (q, len) in ops {
            if dt.admit(q, len, &state) == Verdict::Accept {
                prop_assert!(state.enqueue(q, len).is_ok(), "admitted but no room");
            }
        }
    }

    /// Occamy never selects a victim that is under its own threshold,
    /// and always selects one when some queue exceeds it.
    #[test]
    fn occamy_victims_are_exactly_over_allocated(
        alpha in 0.25f64..8.0,
        lens in prop::collection::vec(0u64..40_000, 4)
    ) {
        let mut occamy = Occamy::new(QueueConfig::uniform(4, 1_000, alpha));
        let mut state = BufferState::new(100_000, 4);
        for (q, &len) in lens.iter().enumerate() {
            if len > 0 && state.enqueue(q, len).is_err() {
                // Skip configurations that would overflow the buffer.
                return Ok(());
            }
        }
        let any_over = (0..4).any(|q| state.queue_len(q) > occamy.threshold(q, &state));
        match occamy.select_victim(&state) {
            Some(v) => {
                prop_assert!(state.queue_len(v) > occamy.threshold(v, &state));
            }
            None => prop_assert!(!any_over, "missed an over-allocated queue"),
        }
    }

    /// Round-robin grants rotate: with a fixed bitmap, consecutive grants
    /// cycle through every set bit before repeating any.
    #[test]
    fn round_robin_cycles_all_set_bits(bits in prop::collection::vec(prop::bool::ANY, 1..128)) {
        let mut bm = QueueBitmap::new(bits.len());
        let set: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        for &i in &set {
            bm.set(i, true);
        }
        let mut cursor = RoundRobinCursor::new();
        if set.is_empty() {
            prop_assert_eq!(cursor.grant(&bm), None);
        } else {
            let mut seen = Vec::new();
            for _ in 0..set.len() {
                seen.push(cursor.grant(&bm).unwrap());
            }
            seen.sort_unstable();
            prop_assert_eq!(&seen, &set, "one full rotation must visit each set bit once");
        }
    }

    /// Bitmap `next_set_wrapping` agrees with a straightforward scan.
    #[test]
    fn bitmap_wrapping_scan_matches_reference(
        bits in prop::collection::vec(prop::bool::ANY, 1..200),
        start in 0usize..200,
    ) {
        let mut bm = QueueBitmap::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            bm.set(i, b);
        }
        let n = bits.len();
        let start = start % n;
        let reference = (0..n)
            .map(|k| (start + k) % n)
            .find(|&i| bits[i]);
        prop_assert_eq!(bm.next_set_wrapping(start), reference);
    }

    /// The token bucket never exceeds its cap, and `try_take` never
    /// succeeds beyond the refilled budget.
    #[test]
    fn token_bucket_respects_budget(
        rate in 1.0f64..1e3, // tokens per second
        cap in 1.0f64..100.0,
        ops in prop::collection::vec((1u64..1_000_000u64, 0.1f64..50.0, prop::bool::ANY), 1..100)
    ) {
        let mut tb = TokenBucket::new(rate, cap);
        let mut now = 0u64;
        let mut taken = 0.0f64;
        let mut forced = 0.0f64;
        for (dt, amount, force) in ops {
            now += dt;
            if force {
                tb.force_take(amount, now);
                forced += amount;
            } else if tb.try_take(amount, now) {
                taken += amount;
            }
            prop_assert!(tb.balance() <= cap + 1e-9);
            // Everything taken must be covered by generation + overdraft.
            let generated = rate * now as f64 / 1e9 + 1e-6;
            prop_assert!(
                taken <= generated + 1e-6,
                "try_take overdrew: {} > {}", taken, generated
            );
            let _ = forced;
        }
    }

    /// The incrementally maintained victim state (over-allocation bitmap,
    /// round-robin grants, longest-queue tournaments) is identical to a
    /// from-scratch rebuild across random enqueue/dequeue/select
    /// sequences, for every scheme kind.
    #[test]
    fn incremental_victim_state_matches_scratch_rebuild(
        kind_idx in 0usize..9,
        alpha in 0.25f64..8.0,
        ops in prop::collection::vec((0usize..6, 0u64..3, 1u64..4_000), 1..250)
    ) {
        let kinds = [
            BmKind::Dt,
            BmKind::Occamy,
            BmKind::OccamyLongest,
            BmKind::Abm,
            BmKind::Pushout,
            BmKind::Static,
            BmKind::CompleteSharing,
            BmKind::BShare,
            BmKind::Damq,
        ];
        let kind = kinds[kind_idx];
        let n = 6;
        let cfg = QueueConfig::uniform(n, 10_000_000_000, alpha).with_priority(5, 1);
        // `live` is driven only through the bookkeeping hooks; `scratch`
        // is force-rebuilt from the state before every answer.
        let mut live = kind.build(cfg.clone());
        let mut scratch = kind.build(cfg);
        let mut state = BufferState::new(20_000, n);
        for (q, op, len) in ops {
            match op {
                0 => {
                    if state.enqueue(q, len).is_ok() {
                        live.on_enqueue(q, len, 0, &state);
                        scratch.on_enqueue(q, len, 0, &state);
                    }
                }
                1 => {
                    let take = len.min(state.queue_len(q));
                    if take > 0 {
                        state.dequeue(q, take).unwrap();
                        live.on_dequeue(q, take, 0, &state);
                        scratch.on_dequeue(q, take, 0, &state);
                    }
                }
                _ => {
                    resync(&mut scratch, &state);
                    let expect = scratch.select_victim(&state);
                    let got = live.select_victim(&state);
                    prop_assert_eq!(got, expect, "victim diverged for {}", live.name());
                    prop_assert_eq!(
                        bitmap_bits(&live, n),
                        bitmap_bits(&scratch, n),
                        "bitmap diverged for {}",
                        live.name()
                    );
                }
            }
        }
    }

    /// Every scheme's threshold is bounded by the capacity, and admission
    /// of a zero-length packet into an empty buffer succeeds.
    #[test]
    fn schemes_behave_on_edges(kind_idx in 0usize..9, cap in 1_000u64..1_000_000) {
        let kinds = [
            BmKind::Dt,
            BmKind::Occamy,
            BmKind::OccamyLongest,
            BmKind::Abm,
            BmKind::Pushout,
            BmKind::Static,
            BmKind::CompleteSharing,
            BmKind::BShare,
            BmKind::Damq,
        ];
        let bm = kinds[kind_idx].build(QueueConfig::uniform(4, 1_000, 1.0));
        let state = BufferState::new(cap, 4);
        for q in 0..4 {
            prop_assert!(bm.threshold(q, &state) <= cap);
            prop_assert_eq!(bm.admit(q, 0, &state), Verdict::Accept);
        }
    }

    /// DT's threshold is the f64 expression `trunc(min(α · free, B))` to
    /// the bit, whether `α = 2^k` takes the shift or another `α` takes
    /// the f64 path: for k ∈ [−63, 63], free ∈ [0, B] (both ends drawn
    /// often) and B of every bit length, on both sides of 2^53.
    #[test]
    fn dt_shift_threshold_equals_the_f64_expression(
        k in -63i32..64,
        bits in 1u32..65,
        raw in (0u64..u64::MAX, 0u64..u64::MAX),
        mantissa in 1u64..1 << 52,
        free_end in 0u8..4,
    ) {
        let capacity = (raw.0 >> (64 - bits)) | 1 << (bits - 1);
        let free = match free_end {
            0 => 0,
            1 => capacity,
            _ => raw.1 % capacity.saturating_add(1).max(1),
        };
        let pow2 = 2f64.powi(k);
        // Same exponent, non-zero mantissa: never a power of two.
        let other = f64::from_bits(pow2.to_bits() | mantissa);
        let mut state = BufferState::new(capacity, 1);
        state.enqueue(0, capacity - free).unwrap();
        for alpha in [pow2, other] {
            let dt = DynamicThreshold::new(QueueConfig::uniform(1, 1_000, alpha));
            let want = (alpha * free as f64).min(capacity as f64) as u64;
            prop_assert_eq!(
                dt.threshold(0, &state), want,
                "α = {:e}, free = {}, B = {}", alpha, free, capacity
            );
        }
    }
}
