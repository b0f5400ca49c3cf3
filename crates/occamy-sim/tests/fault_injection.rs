//! Fault injection end-to-end: scheduled link flaps, switch drains and
//! host churn must be deterministic (byte-identical across repeat runs
//! and across thread counts) and recoverable (every flow the faults
//! interrupt still delivers exactly its bytes once the fabric heals).

use occamy_core::{AnyBm, BmKind};
use occamy_sim::topology::{fabric, BmSpec, FabricCfg, FabricTopo, SchedKind};
use occamy_sim::{
    CbrDesc, CcAlgo, Drain, FaultSchedule, FlowDesc, HostChurn, LinkFlap, SimConfig, World, MS, US,
};
use proptest::prelude::*;

/// A k=4 fat-tree (16 hosts, 20 switches, 4 pods) under a permutation
/// plus an incast and one CBR source — the same mixed load the parallel
/// equivalence suite uses, so faults are exercised against every event
/// kind.
fn build(threads: usize) -> World {
    let sim = SimConfig {
        threads,
        ..SimConfig::default()
    };
    let mut w = fabric(FabricCfg {
        topo: FabricTopo::FatTree { k: 4 },
        host_rate_bps: 10_000_000_000,
        fabric_rate_bps: 10_000_000_000,
        oversubscription: 1.0,
        link_prop_ps: 1_000_000, // 1 µs
        buffer_per_8ports_bytes: 150_000,
        classes: 2,
        bm: BmSpec::per_class(BmKind::Occamy, vec![8.0, 8.0]),
        sched: SchedKind::Fifo,
        sim,
    });
    let n = 16;
    for src in 0..n {
        w.add_flow(FlowDesc {
            src,
            dst: (src + 5) % n,
            bytes: 200_000,
            start_ps: (src as u64) * 3 * US,
            prio: 0,
            cc: CcAlgo::Dctcp,
            query: None,
            is_query: false,
        });
    }
    for src in 8..12 {
        w.add_flow(FlowDesc {
            src,
            dst: 0,
            bytes: 40_000,
            start_ps: 50 * US,
            prio: 1,
            cc: CcAlgo::Dctcp,
            query: Some(1),
            is_query: true,
        });
    }
    w.add_cbr(CbrDesc {
        host: 3,
        dst: 12,
        rate_bps: 1_000_000_000,
        pkt_len: 1_000,
        prio: 1,
        start_ps: 10 * US,
        stop_ps: MS,
        budget_bytes: None,
    });
    w
}

/// The schedule the determinism tests share: an edge up-link flap, an
/// aggregation drain and a host churn cycle, all inside the first 2 ms.
fn schedule() -> FaultSchedule {
    FaultSchedule {
        link_flaps: vec![LinkFlap {
            switch: 0,
            port: 2, // k=4 edge: ports 0-1 hosts, 2-3 aggs
            down: 0.1,
            up: 0.45,
        }],
        drains: vec![Drain {
            switch: 8, // an aggregation switch (edges are 0-7)
            start: 0.2,
            end: 0.5,
        }],
        host_churns: vec![HostChurn {
            host: 6,
            leave: 0.15,
            join: 0.4,
        }],
    }
}

/// Every piece of observable end state, formatted for exact equality —
/// the parallel-equivalence snapshot plus the resilience counters.
fn snapshot(w: &World) -> String {
    let m = &w.metrics;
    let mut s = format!(
        "now={} events={} delivered={}p/{}b drops={:?} faults={}/{}\nbuf={:?}\nmembw={:?}\ncbr={:?}\nresilience={:?}\n",
        w.now,
        m.events_processed,
        m.delivered_pkts,
        m.delivered_bytes,
        m.drops,
        m.faults_fired,
        m.fault_drops,
        m.drop_buffer_util,
        m.drop_membw_util,
        m.cbr,
        w.resilience(),
    );
    for r in w.flow_records().records() {
        s.push_str(&format!(
            "flow {} start={} end={:?} bytes={}\n",
            r.id, r.start_ps, r.end_ps, r.bytes
        ));
    }
    s
}

fn faulted(threads: usize) -> World {
    let mut w = build(threads);
    schedule().apply(&mut w, 2 * MS);
    w
}

#[test]
fn faulted_runs_repeat_byte_identically() {
    let mut a = faulted(1);
    let mut b = faulted(1);
    a.run_to_completion(500 * MS);
    b.run_to_completion(500 * MS);
    assert!(
        a.metrics.faults_fired > 0 && a.metrics.fault_drops > 0,
        "the schedule must actually bite (fired {}, dropped {})",
        a.metrics.faults_fired,
        a.metrics.fault_drops
    );
    assert_eq!(snapshot(&a), snapshot(&b), "repeat run diverged");
}

#[test]
fn faulted_parallel_matches_serial_exactly() {
    let mut serial = faulted(1);
    serial.run_to_completion(500 * MS);
    let want = snapshot(&serial);
    assert!(serial.par_stats.is_none(), "threads=1 must stay serial");

    for threads in [2, 4, 8] {
        let mut par = faulted(threads);
        par.run_to_completion(500 * MS);
        assert!(
            par.par_stats.is_some(),
            "parallel path must engage on a multi-domain fat-tree"
        );
        assert_eq!(
            snapshot(&par),
            want,
            "threads={threads} diverged from serial under faults"
        );
    }
}

#[test]
fn interrupted_flows_recover_with_exact_bytes() {
    let mut w = faulted(1);
    w.run_to_completion(500 * MS);
    assert_eq!(
        w.metrics.faults_fired,
        schedule().n_events() as u64,
        "every scheduled fault fires inside the workload window"
    );
    let r = w.resilience();
    assert_eq!(r.flows_killed, 0, "every churned host rejoined");
    assert!(
        r.flows_recovered > 0,
        "host churn must interrupt at least one started flow"
    );
    assert_eq!(
        r.flows_recovered as usize,
        r.recovery_times_ps.len(),
        "one recovery time per recovered flow"
    );
    assert!(w.all_flows_done(), "a fault stranded a flow forever");
    for (i, rx) in w.flows.rx.iter().enumerate() {
        assert_eq!(
            rx.rcv_next, w.flows.hot[i].bytes,
            "flow {i} did not deliver exactly its bytes"
        );
    }
}

/// Every scheme keeps the hook contract through faults. An incast into
/// host 0 is queued on edge 0's host port when that link goes down
/// (`flush_port` drops the queue), edge 0 drains later, and the
/// preemptive schemes head-drop (`head_drop_in`) on the way. No
/// partition's consistency probe may ever have to repair its victim
/// state: every occupancy change reached the scheme through a hook. The
/// link goes down 100 µs in, while the incast keeps edge 0's Occamy
/// tracker awake (from about 44 µs to 210 µs), so a flush that skipped
/// its hooks would be counted.
#[test]
fn every_scheme_keeps_the_hook_contract_under_faults() {
    let horizon = 2 * MS;
    let down = 0.05;
    for kind in BmKind::ALL {
        let mut w = fabric(FabricCfg {
            topo: FabricTopo::FatTree { k: 4 },
            host_rate_bps: 10_000_000_000,
            fabric_rate_bps: 10_000_000_000,
            oversubscription: 1.0,
            link_prop_ps: 1_000_000,
            buffer_per_8ports_bytes: 150_000,
            classes: 2,
            bm: BmSpec::per_class(kind, vec![kind.paper_alpha(); 2]),
            sched: SchedKind::Fifo,
            sim: SimConfig::default(),
        });
        for src in 1..16 {
            w.add_flow(FlowDesc {
                src,
                dst: 0,
                bytes: 100_000,
                start_ps: (src as u64) * US,
                prio: (src % 2) as u8,
                cc: CcAlgo::Dctcp,
                query: None,
                is_query: false,
            });
        }
        FaultSchedule {
            link_flaps: vec![LinkFlap {
                switch: 0,
                port: 0, // edge 0's link to host 0
                down,
                up: 0.1,
            }],
            drains: vec![Drain {
                switch: 0,
                start: 0.15,
                end: 0.25,
            }],
            ..FaultSchedule::default()
        }
        .apply(&mut w, horizon);
        w.run_until((down * horizon as f64) as u64 - 1);
        let edge = &w.switches[0];
        assert!(
            edge.ports[0].queues.iter().any(|q| !q.is_empty()),
            "{kind:?}: nothing queued on the link that goes down"
        );
        // A sleeping tracker keeps no per-queue state, so only an awake
        // one could notice a flush that skipped its hooks.
        if let AnyBm::Occamy(o) = &edge.partitions[edge.port_partition[0]].bm {
            assert!(
                !o.tracker().is_asleep(),
                "{kind:?}: the flushed port's tracker sleeps through the flap"
            );
        }
        w.run_to_completion(2_000 * MS);
        assert_eq!(w.metrics.faults_fired, 4, "{kind:?}: every fault fires");
        assert!(w.all_flows_done(), "{kind:?}: a fault stranded a flow");
        let d = &w.metrics.drops;
        match kind {
            BmKind::Occamy | BmKind::OccamyLongest => {
                assert!(d.head_drops > 0, "{kind:?}: no head drop")
            }
            BmKind::Pushout => assert!(d.pushout_evictions > 0, "{kind:?}: no eviction"),
            _ => {}
        }
        let mut wakes = 0;
        for sw in &w.switches {
            for (pa, part) in sw.partitions.iter().enumerate() {
                assert_eq!(
                    part.bm.repairs(),
                    0,
                    "{kind:?}: switch {} partition {pa} repaired its victim state",
                    sw.id
                );
                if let AnyBm::Occamy(o) = &part.bm {
                    wakes += o.tracker().wakes();
                }
            }
        }
        if d.head_drops > 0 {
            assert!(
                wakes > 0,
                "{kind:?}: head drops from a tracker that never woke"
            );
        }
    }
}

#[test]
#[should_panic(expected = "fault references unknown switch")]
fn fault_on_unknown_switch_is_rejected() {
    let mut w = build(1);
    FaultSchedule {
        drains: vec![Drain {
            switch: 99,
            start: 0.1,
            end: 0.2,
        }],
        ..FaultSchedule::default()
    }
    .apply(&mut w, MS);
}

#[test]
#[should_panic(expected = "outside switch")]
fn fault_on_unknown_port_is_rejected() {
    let mut w = build(1);
    FaultSchedule {
        link_flaps: vec![LinkFlap {
            switch: 0,
            port: 7,
            down: 0.1,
            up: 0.2,
        }],
        ..FaultSchedule::default()
    }
    .apply(&mut w, MS);
}

proptest! {
    /// Random fault schedules — loss bursts from flaps and drains plus
    /// kill/resume cycles from churn — never break transport recovery:
    /// with enough healing time every flow completes and every receiver
    /// holds exactly the flow's bytes, and the run is repeatable.
    #[test]
    fn random_fault_schedules_always_recover(
        flaps in prop::collection::vec(
            (0u32..20, 2u16..4, 0.05f64..0.4, 0.45f64..0.9), 0..3),
        drains in prop::collection::vec(
            (8u32..20, 0.1f64..0.4, 0.45f64..0.8), 0..2),
        churns in prop::collection::vec(
            (0u32..16, 0.05f64..0.35, 0.4f64..0.85), 0..2),
    ) {
        let sched = FaultSchedule {
            link_flaps: flaps
                .iter()
                .map(|&(switch, port, down, up)| LinkFlap { switch, port, down, up })
                .collect(),
            drains: drains
                .iter()
                .map(|&(switch, start, end)| Drain { switch, start, end })
                .collect(),
            host_churns: churns
                .iter()
                .map(|&(host, leave, join)| HostChurn { host, leave, join })
                .collect(),
        };
        let run = || {
            let mut w = build(1);
            sched.apply(&mut w, 2 * MS);
            // Bulk loss without SACK heals at roughly one MSS per probe
            // timeout, so give stranded tails generous room.
            w.run_to_completion(2_000 * MS);
            w
        };
        let w = run();
        let r = w.resilience();
        prop_assert_eq!(r.faults_fired, sched.n_events() as u64);
        prop_assert_eq!(r.flows_killed, 0, "all churned hosts rejoin");
        prop_assert!(w.all_flows_done(), "a fault stranded a flow forever");
        for (i, rx) in w.flows.rx.iter().enumerate() {
            prop_assert_eq!(
                rx.rcv_next, w.flows.hot[i].bytes,
                "flow {} delivered {} of {} bytes",
                i, rx.rcv_next, w.flows.hot[i].bytes
            );
        }
        prop_assert_eq!(snapshot(&run()), snapshot(&w), "repeat run diverged");
    }
}
