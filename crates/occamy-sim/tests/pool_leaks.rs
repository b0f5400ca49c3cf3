//! Pool-slot accounting. A packet enters the event queue's pool once, at
//! its sender's NIC, and leaves it once: at its receiver, or on the
//! switch hop that drops it. Each test here drives one drop path, runs
//! the world until its event queue drains, and checks that the pool is
//! empty, so a path that forgot to free its slot fails here (and, in
//! debug builds, in every test that runs a world to quiescence).

use occamy_core::BmKind;
use occamy_sim::topology::{
    fabric, single_switch, BmSpec, FabricCfg, FabricTopo, SchedKind, SingleSwitchCfg,
};
use occamy_sim::{
    CbrDesc, CcAlgo, Drain, FaultSchedule, FlowDesc, LinkFlap, SimConfig, World, XpSched, MS, SEC,
    US,
};

const G10: u64 = 10_000_000_000;
const G100: u64 = 100_000_000_000;

/// Runs `w` until its event queue drains and checks that no packet
/// kept its pool slot.
fn run_quiet(mut w: World, what: &str) -> World {
    w.run_to_completion(10 * SEC);
    assert!(w.all_flows_done(), "{what}: a flow did not finish");
    assert_eq!(w.pooled_packets(), 0, "{what}: pool slots leaked");
    w
}

/// One switch, two 100 G senders and two 10 G receivers: a 20 G stream
/// entrenches a queue toward host 2, then a line-rate burst and a DCTCP
/// flow overrun the port toward host 3, so raw packets, data and ACKs
/// all meet the drop paths.
fn burst_switch(kind: BmKind, alpha: f64) -> World {
    let mut w = single_switch(SingleSwitchCfg {
        host_rates_bps: vec![G100, G100, G10, G10],
        prop_ps: US,
        buffer_bytes: 200_000,
        classes: 1,
        bm: BmSpec::uniform(kind, alpha),
        sched: SchedKind::Fifo,
        sim: SimConfig::default(),
    });
    w.add_cbr(CbrDesc {
        host: 0,
        dst: 2,
        rate_bps: 2 * G10,
        pkt_len: 1_460,
        prio: 0,
        start_ps: 0,
        stop_ps: 2 * MS,
        budget_bytes: None,
    });
    w.add_cbr(CbrDesc {
        host: 1,
        dst: 3,
        rate_bps: G100,
        pkt_len: 1_460,
        prio: 0,
        start_ps: MS,
        stop_ps: 2 * MS,
        budget_bytes: Some(150_000),
    });
    w.add_flow(FlowDesc {
        src: 0,
        dst: 3,
        bytes: 300_000,
        start_ps: MS,
        prio: 0,
        cc: CcAlgo::Dctcp,
        query: None,
        is_query: false,
    });
    w
}

#[test]
fn threshold_drops_free_their_slots() {
    let w = run_quiet(burst_switch(BmKind::Dt, 1.0), "DT");
    assert!(w.metrics.drops.threshold_drops > 0, "no threshold drop");
}

#[test]
fn head_drops_free_their_slots() {
    let w = run_quiet(burst_switch(BmKind::Occamy, 8.0), "Occamy");
    assert!(w.metrics.drops.head_drops > 0, "no head drop");
}

#[test]
fn pushout_evictions_free_their_slots() {
    let w = run_quiet(burst_switch(BmKind::Pushout, 1.0), "Pushout");
    assert!(w.metrics.drops.pushout_evictions > 0, "no eviction");
}

/// A k=4 fat-tree (10 G, 1 µs links) whose hosts 1–15 each send 100 KB
/// to host 0, starting 1 µs apart: edge 0's port toward host 0 queues.
fn incast_fat_tree(kind: BmKind, threads: usize) -> World {
    let mut w = fabric(FabricCfg {
        topo: FabricTopo::FatTree { k: 4 },
        host_rate_bps: G10,
        fabric_rate_bps: G10,
        oversubscription: 1.0,
        link_prop_ps: US,
        buffer_per_8ports_bytes: 150_000,
        classes: 2,
        bm: BmSpec::per_class(kind, vec![kind.paper_alpha(); 2]),
        sched: SchedKind::Fifo,
        sim: SimConfig {
            threads,
            ..SimConfig::default()
        },
    });
    for src in 1..16 {
        w.add_flow(FlowDesc {
            src,
            dst: 0,
            bytes: 100_000,
            start_ps: src as u64 * US,
            prio: (src % 2) as u8,
            cc: CcAlgo::Dctcp,
            query: None,
            is_query: false,
        });
    }
    w
}

/// Edge 0's link to host 0 goes down at 100 µs, with the incast queued
/// on it: the flush drops the queue, and arrivals for host 0 find no
/// route until the link returns at 200 µs.
const FLAP: LinkFlap = LinkFlap {
    switch: 0,
    port: 0,
    down: 0.05,
    up: 0.1,
};

#[test]
fn link_flaps_free_flushed_and_unroutable_slots() {
    let mut w = incast_fat_tree(BmKind::Occamy, 1);
    FaultSchedule {
        link_flaps: vec![FLAP],
        ..FaultSchedule::default()
    }
    .apply(&mut w, 2 * MS);
    w.run_until(100 * US - 1);
    let queued: usize = w.switches[0].ports[0].queues.iter().map(|q| q.len()).sum();
    assert!(queued > 0, "nothing queued on the link that goes down");
    let w = run_quiet(w, "link flap");
    assert!(
        w.metrics.fault_drops > queued as u64,
        "{} fault drops: the flush alone accounts for {queued}",
        w.metrics.fault_drops
    );
}

#[test]
fn drain_refusals_free_their_slots() {
    let mut w = incast_fat_tree(BmKind::Dt, 1);
    FaultSchedule {
        drains: vec![Drain {
            switch: 0,
            start: 0.05,
            end: 0.1,
        }],
        ..FaultSchedule::default()
    }
    .apply(&mut w, 2 * MS);
    let w = run_quiet(w, "drain");
    assert!(w.metrics.fault_drops > 0, "the drain refused nothing");
}

/// Crosspoint buffers are small, so edge 0's column toward host 0 holds
/// packets only early in the incast: edge 0 drains from 10 to 20 µs,
/// and the link flaps at 40 µs.
#[test]
fn crosspoint_drops_free_their_slots() {
    let mut w = incast_fat_tree(BmKind::CompleteSharing, 1);
    w.enable_crosspoint(XpSched::RoundRobin);
    FaultSchedule {
        link_flaps: vec![LinkFlap { down: 0.02, ..FLAP }],
        drains: vec![Drain {
            switch: 0,
            start: 0.005,
            end: 0.01,
        }],
        ..FaultSchedule::default()
    }
    .apply(&mut w, 2 * MS);
    w.run_until(40 * US - 1);
    let xp = w.switches[0].xp.as_ref().expect("a crosspoint switch");
    let queued: usize = (0..xp.n_in).map(|i| xp.queues[xp.xp(0, i)].len()).sum();
    assert!(queued > 0, "nothing queued on the link that goes down");
    let w = run_quiet(w, "crosspoint");
    assert!(w.metrics.drops.full_drops > 0, "no crosspoint tail drop");
    assert!(
        w.metrics.fault_drops > queued as u64,
        "{} fault drops: the flush alone accounts for {queued}",
        w.metrics.fault_drops
    );
}

/// The parallel executor moves queued packets between the world's pool
/// and its domains' pools at every split and merge, and a packet that
/// crosses domains leaves its sender's pool. Stopping mid-incast merges
/// back with packets queued, so the second run splits them again.
#[test]
fn two_thread_runs_free_every_slot() {
    let mut w = incast_fat_tree(BmKind::Occamy, 2);
    FaultSchedule {
        link_flaps: vec![FLAP],
        drains: vec![Drain {
            switch: 8,
            start: 0.1,
            end: 0.2,
        }],
        ..FaultSchedule::default()
    }
    .apply(&mut w, 2 * MS);
    w.run_until(60 * US);
    assert!(w.par_stats.is_some(), "the parallel path must engage");
    let queued: usize = w
        .switches
        .iter()
        .flat_map(|s| &s.ports)
        .flat_map(|p| &p.queues)
        .map(|q| q.len())
        .sum();
    assert!(queued > 0, "nothing queued at the merge");
    let w = run_quiet(w, "threads = 2");
    let d = &w.metrics.drops;
    assert!(d.head_drops > 0 && w.metrics.fault_drops > 0);
}
