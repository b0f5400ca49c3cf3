//! World-level behavior tests: buffer partitions, samplers, CBR
//! semantics, and cross-partition isolation.

use occamy_core::BmKind;
use occamy_sim::topology::{
    fabric, single_switch, BmSpec, FabricCfg, FabricTopo, SchedKind, SingleSwitchCfg,
};
use occamy_sim::{tx_time_ps, CbrDesc, CcAlgo, FlowDesc, SimConfig, MS, NS, SEC, US};

const G10: u64 = 10_000_000_000;

#[test]
fn cbr_budget_is_exact() {
    let mut w = single_switch(SingleSwitchCfg {
        host_rates_bps: vec![G10; 2],
        prop_ps: US,
        buffer_bytes: 1_000_000,
        classes: 1,
        bm: BmSpec::uniform(BmKind::Dt, 8.0),
        sched: SchedKind::Fifo,
        sim: SimConfig::default(),
    });
    let id = w.add_cbr(CbrDesc {
        host: 0,
        dst: 1,
        rate_bps: G10,
        pkt_len: 1_000,
        prio: 0,
        start_ps: 0,
        stop_ps: SEC,
        budget_bytes: Some(10_500), // 10 full packets + one 500 B tail
    });
    w.run_to_completion(SEC);
    let c = w.metrics.cbr[id];
    assert_eq!(c.sent_bytes, 10_500);
    assert_eq!(c.sent_pkts, 11);
    assert_eq!(c.rcvd_bytes, 10_500, "lossless path must deliver all");
    assert_eq!(c.loss_rate(), 0.0);
}

#[test]
fn cbr_paces_at_configured_rate() {
    // A 5 Gbps source on a 10 Gbps link must take ~2× the line-rate time.
    let mut w = single_switch(SingleSwitchCfg {
        host_rates_bps: vec![G10; 2],
        prop_ps: NS,
        buffer_bytes: 1_000_000,
        classes: 1,
        bm: BmSpec::uniform(BmKind::Dt, 8.0),
        sched: SchedKind::Fifo,
        sim: SimConfig::default(),
    });
    let bytes = 5_000_000u64;
    let id = w.add_cbr(CbrDesc {
        host: 0,
        dst: 1,
        rate_bps: 5_000_000_000,
        pkt_len: 1_460,
        prio: 0,
        start_ps: 0,
        stop_ps: SEC,
        budget_bytes: Some(bytes),
    });
    w.run_to_completion(SEC);
    assert_eq!(w.metrics.cbr[id].rcvd_bytes, bytes);
    // Delivery takes at least the paced duration: wire bytes at 5 Gbps.
    let paced = tx_time_ps(bytes + (bytes / 1_460) * 40, 5_000_000_000);
    assert!(
        w.now >= paced * 9 / 10,
        "CBR finished too fast for its configured rate"
    );
}

#[test]
fn sampler_cadence_and_contents() {
    let mut w = single_switch(SingleSwitchCfg {
        host_rates_bps: vec![G10; 2],
        prop_ps: US,
        buffer_bytes: 500_000,
        classes: 2,
        bm: BmSpec::per_class(BmKind::Dt, vec![1.0, 1.0]),
        sched: SchedKind::StrictPriority,
        sim: SimConfig::default(),
    });
    w.add_queue_sampler(0, 0, 100 * US, MS);
    w.run_to_completion(2 * MS);
    // Samples at 0, 100 µs, …, 1 ms inclusive = 11.
    assert_eq!(w.metrics.queue_samples.len(), 11);
    for (i, s) in w.metrics.queue_samples.iter().enumerate() {
        assert_eq!(s.t, i as u64 * 100 * US);
        assert_eq!(s.qlens.len(), 4, "2 ports × 2 classes");
        assert_eq!(s.thresholds.len(), 4);
    }
}

#[test]
fn partitions_isolate_buffer_pressure() {
    // On a leaf switch with several 8-port partitions, saturating ports
    // of partition 0 must not consume partition 1's buffer.
    let mut w = fabric(FabricCfg {
        // A leaf has 12 down + 2 up = 14 ports → 2 partitions.
        topo: FabricTopo::LeafSpine {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 12,
        },
        host_rate_bps: G10,
        fabric_rate_bps: G10,
        oversubscription: 1.0,
        link_prop_ps: US,
        buffer_per_8ports_bytes: 400_000,
        classes: 1,
        bm: BmSpec::uniform(BmKind::Dt, 8.0),
        sched: SchedKind::Fifo,
        sim: SimConfig::default(),
    });
    // Hosts 1..6 blast host 0 (partition 0 of leaf 0) with raw traffic.
    for src in 1..6 {
        w.add_cbr(CbrDesc {
            host: src,
            dst: 0,
            rate_bps: G10,
            pkt_len: 1_460,
            prio: 0,
            start_ps: 0,
            stop_ps: 5 * MS,
            budget_bytes: None,
        });
    }
    w.run_until(4 * MS);
    let leaf = &w.switches[0];
    assert_eq!(leaf.partitions.len(), 2);
    assert!(
        leaf.partitions[0].state.total() > 0,
        "partition 0 should be congested"
    );
    assert_eq!(
        leaf.partitions[1].state.total(),
        0,
        "partition 1 must be untouched by partition-0 congestion"
    );
}

#[test]
fn run_until_advances_time_without_events() {
    let mut w = single_switch(SingleSwitchCfg {
        host_rates_bps: vec![G10; 2],
        prop_ps: US,
        buffer_bytes: 100_000,
        classes: 1,
        bm: BmSpec::uniform(BmKind::Dt, 1.0),
        sched: SchedKind::Fifo,
        sim: SimConfig::default(),
    });
    w.run_until(5 * MS);
    assert_eq!(w.now, 5 * MS);
}

#[test]
fn reno_flow_completes_alongside_dctcp() {
    let mut w = single_switch(SingleSwitchCfg {
        host_rates_bps: vec![G10; 3],
        prop_ps: US,
        buffer_bytes: 400_000,
        classes: 1,
        bm: BmSpec::uniform(BmKind::Dt, 1.0),
        sched: SchedKind::Fifo,
        sim: SimConfig {
            min_rto: 5 * MS,
            ..SimConfig::default()
        },
    });
    for (src, cc) in [(0, CcAlgo::Reno), (1, CcAlgo::Dctcp)] {
        w.add_flow(FlowDesc {
            src,
            dst: 2,
            bytes: 3_000_000,
            start_ps: 0,
            prio: 0,
            cc,
            query: None,
            is_query: false,
        });
    }
    w.run_to_completion(5 * SEC);
    assert!(w.all_flows_done(), "mixed-CC flows wedged");
}

#[test]
fn ack_prioritization_keeps_reverse_path_alive() {
    // Host 0 both receives a heavy flow (must send ACKs) and sources its
    // own bulk flow. ACK-first NIC service keeps the inbound transfer's
    // ACK clock running, so both flows finish in bounded time.
    let mut w = single_switch(SingleSwitchCfg {
        host_rates_bps: vec![G10; 3],
        prop_ps: US,
        buffer_bytes: 400_000,
        classes: 1,
        bm: BmSpec::uniform(BmKind::Dt, 1.0),
        sched: SchedKind::Fifo,
        sim: SimConfig {
            min_rto: 5 * MS,
            ..SimConfig::default()
        },
    });
    w.add_flow(FlowDesc {
        src: 1,
        dst: 0,
        bytes: 5_000_000,
        start_ps: 0,
        prio: 0,
        cc: CcAlgo::Dctcp,
        query: None,
        is_query: false,
    });
    w.add_flow(FlowDesc {
        src: 0,
        dst: 2,
        bytes: 5_000_000,
        start_ps: 0,
        prio: 0,
        cc: CcAlgo::Dctcp,
        query: None,
        is_query: false,
    });
    w.run_to_completion(5 * SEC);
    assert!(w.all_flows_done());
    // Both directions at ~line rate: each flow ≈ 4.2 ms solo; allow 3×.
    for (hot, cold) in w.flows.hot.iter().zip(&w.flows.cold) {
        let fct = cold.end_ps.unwrap();
        assert!(fct < 13 * MS, "flow {} took {} ms", hot.id, fct / MS);
    }
}
