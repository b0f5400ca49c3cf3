//! The parallel executor's contract: bit-identical observable state
//! for every thread count, including mid-run stops and resumes.

use occamy_core::BmKind;
use occamy_sim::topology::{fabric, BmSpec, FabricCfg, FabricTopo, SchedKind};
use occamy_sim::{CbrDesc, CcAlgo, FlowDesc, SimConfig, World, MS, US};

/// A k=4 fat-tree (16 hosts, 4 pods) under mixed load: a permutation,
/// a 8:1 incast into host 0 (small buffer → drops, exercising the
/// exact-order drop-sample splicing), and two cross-pod CBR sources.
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
            bytes: 400_000,
            start_ps: (src as u64) * 3 * US,
            prio: 0,
            cc: CcAlgo::Dctcp,
            query: None,
            is_query: false,
        });
    }
    for src in 8..16 {
        w.add_flow(FlowDesc {
            src,
            dst: 0,
            bytes: 60_000,
            start_ps: 50 * US,
            prio: 1,
            cc: CcAlgo::Dctcp,
            query: Some(1),
            is_query: true,
        });
    }
    for (host, dst) in [(3, 12), (14, 2)] {
        w.add_cbr(CbrDesc {
            host,
            dst,
            rate_bps: 2_000_000_000,
            pkt_len: 1_000,
            prio: 1,
            start_ps: 10 * US,
            stop_ps: 2 * MS,
            budget_bytes: None,
        });
    }
    w
}

/// Every piece of observable end state, formatted for exact equality.
fn snapshot(w: &World) -> String {
    let m = &w.metrics;
    let mut s = format!(
        "now={} events={} delivered={}p/{}b drops={:?}\nbuf={:?}\nmembw={:?}\ncbr={:?}\n",
        w.now,
        m.events_processed,
        m.delivered_pkts,
        m.delivered_bytes,
        m.drops,
        m.drop_buffer_util,
        m.drop_membw_util,
        m.cbr,
    );
    for r in w.flow_records().records() {
        s.push_str(&format!(
            "flow {} start={} end={:?} bytes={}\n",
            r.id, r.start_ps, r.end_ps, r.bytes
        ));
    }
    s
}

#[test]
fn parallel_matches_serial_exactly() {
    let mut serial = build(1);
    serial.run_to_completion(20 * MS);
    let want = snapshot(&serial);
    assert!(serial.par_stats.is_none(), "threads=1 must stay serial");

    for threads in [2, 4, 8] {
        let mut par = build(threads);
        par.run_to_completion(20 * MS);
        let stats = par
            .par_stats
            .as_ref()
            .expect("parallel path must engage on a multi-domain fat-tree");
        assert!(stats.windows > 0);
        assert_eq!(
            stats.domain_events.iter().sum::<u64>(),
            par.metrics.events_processed,
            "every executed event is attributed to exactly one domain"
        );
        assert_eq!(
            snapshot(&par),
            want,
            "threads={threads} diverged from serial"
        );
    }
}

#[test]
fn parallel_survives_stop_and_resume() {
    // Stopping mid-run exercises the merge-back (events re-armed under
    // their original keys, sequence counter restored) and the re-split
    // on the next call.
    let mut serial = build(1);
    let mut par = build(4);
    for t in [40 * US, 120 * US, 500 * US, 20 * MS] {
        serial.run_until(t);
        par.run_until(t);
        assert_eq!(
            snapshot(&par),
            snapshot(&serial),
            "diverged after run_until({t})"
        );
    }
    assert!(serial.all_flows_done() && par.all_flows_done());
}
