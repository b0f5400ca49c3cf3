//! Cross-crate integration tests: workloads from `occamy-traffic` driving
//! `occamy-sim` worlds managed by `occamy-core` schemes, measured with
//! `occamy-stats` — the full pipeline every experiment binary uses.

use occamy::core::{BmKind, BufferManager, Occamy, QueueConfig, Verdict};
use occamy::hw::TrafficManager;
use occamy::sim::topology::{
    fabric, single_switch, BmSpec, FabricCfg, FabricTopo, SchedKind, SingleSwitchCfg,
};
use occamy::sim::{CcAlgo, FlowDesc, SimConfig, MS, SEC, US};
use occamy::stats::FlowClass;
use occamy::traffic::{web_search, BackgroundWorkload, QueryWorkload, TrafficClass};
use rand::rngs::StdRng;
use rand::SeedableRng;

const G25: u64 = 25_000_000_000;

fn scaled_leaf_spine(kind: BmKind, alpha: f64) -> occamy::sim::World {
    fabric(FabricCfg {
        topo: FabricTopo::LeafSpine {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 4,
        },
        host_rate_bps: G25,
        fabric_rate_bps: G25,
        oversubscription: 1.0,
        link_prop_ps: 10 * US,
        buffer_per_8ports_bytes: 1_000_000,
        classes: 1,
        bm: BmSpec::per_class(kind, vec![alpha]),
        sched: SchedKind::Fifo,
        sim: SimConfig {
            ecn_k_bytes: 180_000,
            min_rto: 5 * MS,
            ..SimConfig::default()
        },
    })
}

#[test]
fn web_search_workload_completes_on_leaf_spine() {
    let mut w = scaled_leaf_spine(BmKind::Dt, 1.0);
    let mut rng = StdRng::seed_from_u64(3);
    let wl = BackgroundWorkload::new(8, G25, 0.4, web_search());
    let flows = wl.generate(5 * MS, &mut rng);
    assert!(!flows.is_empty());
    for f in &flows {
        w.add_flow(FlowDesc {
            src: f.src,
            dst: f.dst,
            bytes: f.bytes,
            start_ps: f.start_ps,
            prio: 0,
            cc: CcAlgo::Dctcp,
            query: None,
            is_query: false,
        });
    }
    w.run_to_completion(3 * SEC);
    assert!(
        w.all_flows_done(),
        "{} of {} web-search flows unfinished",
        w.flow_records().unfinished(),
        flows.len()
    );
}

#[test]
fn query_workload_produces_qcts() {
    let mut w = scaled_leaf_spine(BmKind::Occamy, 8.0);
    let mut rng = StdRng::seed_from_u64(5);
    let qw = QueryWorkload::new(8, 4, 200_000, 500.0);
    let queries = qw.generate(10 * MS, &mut rng);
    assert!(queries.len() >= 10, "only {} queries", queries.len());
    for q in &queries {
        for r in &q.responses {
            w.add_flow(FlowDesc {
                src: r.src,
                dst: r.dst,
                bytes: r.bytes,
                start_ps: r.start_ps,
                prio: 0,
                cc: CcAlgo::Dctcp,
                query: r.query,
                is_query: r.class == TrafficClass::Query,
            });
        }
    }
    w.run_to_completion(3 * SEC);
    let records = w.flow_records();
    let qcts = records.qcts();
    assert_eq!(qcts.len(), queries.len());
    assert!(qcts.iter().all(|q| q.qct_ps().is_some()));
    // QCT must be at least the ideal transfer time of its bytes.
    for q in &qcts {
        let ideal = 80 * US + q.bytes * 8 * 1_000 / 25; // ps at 25 Gbps
        assert!(
            q.qct_ps().unwrap() >= ideal / 2,
            "query {} finished impossibly fast",
            q.query
        );
    }
}

#[test]
fn occamy_beats_dt_on_incast_over_background() {
    // The paper's core end-to-end claim, in miniature: with entrenched
    // background, Occamy completes incast queries faster than DT.
    let run = |kind: BmKind, alpha: f64| {
        let mut w = single_switch(SingleSwitchCfg {
            host_rates_bps: vec![10_000_000_000; 8],
            prop_ps: US,
            buffer_bytes: 410_000,
            classes: 1,
            bm: BmSpec::uniform(kind, alpha),
            sched: SchedKind::Fifo,
            sim: SimConfig::default(),
        });
        // Entrenched long flows into hosts 6 and 7.
        for src in 0..3 {
            for dst in [6, 7] {
                w.add_flow(FlowDesc {
                    src,
                    dst,
                    bytes: 30_000_000,
                    start_ps: 0,
                    prio: 0,
                    cc: CcAlgo::Dctcp,
                    query: None,
                    is_query: false,
                });
            }
        }
        // Degree-35 incast into host 0 at t = 10 ms.
        for s in 0..5 {
            for _ in 0..7 {
                w.add_flow(FlowDesc {
                    src: 1 + s,
                    dst: 0,
                    bytes: 14_600,
                    start_ps: 10 * MS,
                    prio: 0,
                    cc: CcAlgo::Dctcp,
                    query: Some(0),
                    is_query: true,
                });
            }
        }
        w.run_to_completion(5 * SEC);
        assert!(w.all_flows_done());
        w.flow_records().qct_ms().mean().unwrap()
    };
    let dt = run(BmKind::Dt, 1.0);
    let occamy = run(BmKind::Occamy, 8.0);
    assert!(
        occamy < dt,
        "Occamy QCT {occamy:.2} ms should beat DT {dt:.2} ms"
    );
}

#[test]
fn all_schemes_survive_identical_stress() {
    // Every built-in scheme must keep invariants and finish a hard
    // incast-over-background mix.
    for kind in [
        BmKind::Dt,
        BmKind::Occamy,
        BmKind::OccamyLongest,
        BmKind::Abm,
        BmKind::Pushout,
        BmKind::Static,
        BmKind::CompleteSharing,
    ] {
        let mut w = single_switch(SingleSwitchCfg {
            host_rates_bps: vec![10_000_000_000; 6],
            prop_ps: US,
            buffer_bytes: 200_000,
            classes: 1,
            bm: BmSpec::uniform(kind, 2.0),
            sched: SchedKind::Fifo,
            sim: SimConfig {
                min_rto: 5 * MS,
                ..SimConfig::default()
            },
        });
        for s in 0..5 {
            w.add_flow(FlowDesc {
                src: s,
                dst: 5,
                bytes: 1_000_000,
                start_ps: 0,
                prio: 0,
                cc: CcAlgo::Dctcp,
                query: None,
                is_query: false,
            });
        }
        w.run_to_completion(10 * SEC);
        assert!(w.all_flows_done(), "{kind:?} wedged the incast");
        for part in &w.switches[0].partitions {
            assert_eq!(part.state.total(), 0, "{kind:?} leaked buffer");
        }
    }
}

#[test]
fn core_scheme_drives_hw_traffic_manager() {
    // The same Occamy instance type drives both substrates; here the
    // cell-level TM processes an adversarial pattern and keeps every
    // cross-structure invariant.
    let cfg = QueueConfig::uniform(4, 10_000_000_000, 2.0);
    let mut tm = TrafficManager::new(500, 4, Occamy::new(cfg));
    let mut id = 0u64;
    for round in 0..50u64 {
        for q in 0..4 {
            for _ in 0..3 {
                tm.enqueue(q, id, 100 + (id % 1_400), round * 100);
                id += 1;
            }
        }
        // Expel while over-allocated, dequeue a little.
        while let Some(v) = tm.select_victim() {
            if tm.head_drop(v, round * 100 + 50).is_none() {
                break;
            }
        }
        tm.dequeue((round % 4) as usize, round * 100 + 80);
        assert!(tm.check_invariants(), "invariant broke at round {round}");
    }
    let st = tm.stats();
    assert!(st.enqueued_pkts > 0);
    assert!(st.head_dropped_pkts > 0, "expulsion never fired");
    assert_eq!(st.accesses.cell_data, {
        // Writes happen per enqueued cell; reads only for real dequeues.
        let written: u64 = st.enqueued_pkts; // at least one cell each
        assert!(st.accesses.cell_data >= written);
        st.accesses.cell_data
    });
}

#[test]
fn verdicts_are_consistent_across_schemes() {
    // For any state, Pushout admits whenever CompleteSharing does; DT with
    // huge α converges to CompleteSharing; Occamy admission equals DT.
    let mut state = occamy::core::BufferState::new(100_000, 4);
    state.enqueue(0, 30_000).unwrap();
    state.enqueue(1, 50_000).unwrap();
    let mk = |kind: BmKind, alpha: f64| kind.build(QueueConfig::uniform(4, 1_000, alpha));
    let cs = mk(BmKind::CompleteSharing, 1.0);
    let po = mk(BmKind::Pushout, 1.0);
    let dt_huge = mk(BmKind::Dt, 1e9);
    let dt = mk(BmKind::Dt, 1.0);
    let occ = mk(BmKind::Occamy, 1.0);
    for len in [1u64, 1_000, 10_000, 20_000, 30_000] {
        for q in 0..4 {
            let c = cs.admit(q, len, &state);
            if c == Verdict::Accept {
                assert_eq!(po.admit(q, len, &state), Verdict::Accept);
                assert_eq!(dt_huge.admit(q, len, &state), Verdict::Accept);
            }
            assert_eq!(dt.admit(q, len, &state), occ.admit(q, len, &state));
        }
    }
}

#[test]
fn flow_records_classify_by_workload() {
    let mut w = scaled_leaf_spine(BmKind::Dt, 1.0);
    w.add_flow(FlowDesc {
        src: 0,
        dst: 4,
        bytes: 10_000,
        start_ps: 0,
        prio: 0,
        cc: CcAlgo::Dctcp,
        query: None,
        is_query: false,
    });
    w.add_flow(FlowDesc {
        src: 1,
        dst: 4,
        bytes: 10_000,
        start_ps: 0,
        prio: 0,
        cc: CcAlgo::Dctcp,
        query: Some(9),
        is_query: true,
    });
    w.run_to_completion(SEC);
    let records = w.flow_records();
    let bg = records
        .records()
        .iter()
        .filter(|r| r.class == FlowClass::Background)
        .count();
    let qq = records
        .records()
        .iter()
        .filter(|r| r.class == FlowClass::Query)
        .count();
    assert_eq!((bg, qq), (1, 1));
    assert_eq!(records.qcts().len(), 1);
}
