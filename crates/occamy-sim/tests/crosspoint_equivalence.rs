//! The crosspoint-queued switch model's determinism contract: repeat
//! runs are byte-identical, serial and `--threads N` executions agree
//! exactly, both crosspoint schedulers work end-to-end, and fault
//! injection composes with the architecture.

use occamy_core::BmKind;
use occamy_sim::topology::{fabric, BmSpec, FabricCfg, FabricTopo, SchedKind};
use occamy_sim::{
    CbrDesc, CcAlgo, Drain, FaultSchedule, FlowDesc, HostChurn, LinkFlap, SimConfig, World,
    XpSched, MS, US,
};

/// A k=4 fat-tree with every switch converted to crosspoint queueing,
/// under the mixed load the shared-memory equivalence suite uses: a
/// permutation, an 8:1 incast (the small per-crosspoint buffers make it
/// drop), and two cross-pod CBR sources.
fn build(threads: usize, sched: XpSched) -> World {
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
        bm: BmSpec::per_class(BmKind::CompleteSharing, vec![1.0, 1.0]),
        sched: SchedKind::Fifo,
        sim,
    });
    w.enable_crosspoint(sched);
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
        "now={} events={} delivered={}p/{}b drops={:?} faults={}/{}\nbuf={:?}\nmembw={:?}\ncbr={:?}\n",
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
fn crosspoint_runs_repeat_byte_identically() {
    for sched in [XpSched::RoundRobin, XpSched::Longest] {
        let mut a = build(1, sched);
        let mut b = build(1, sched);
        // The tiny per-crosspoint buffers make the incast lossy enough
        // that a straggler can need an RTO-driven retry, so give the
        // run a generous horizon.
        a.run_to_completion(500 * MS);
        b.run_to_completion(500 * MS);
        assert!(a.all_flows_done(), "{sched:?}: flows must complete");
        assert!(
            a.metrics.delivered_pkts > 0,
            "{sched:?}: traffic must actually flow through the crosspoints"
        );
        assert_eq!(snapshot(&a), snapshot(&b), "{sched:?} repeat run diverged");
    }
}

#[test]
fn crosspoint_parallel_matches_serial_exactly() {
    let mut serial = build(1, XpSched::RoundRobin);
    serial.run_to_completion(500 * MS);
    let want = snapshot(&serial);
    assert!(serial.par_stats.is_none(), "threads=1 must stay serial");

    for threads in [2, 4] {
        let mut par = build(threads, XpSched::RoundRobin);
        par.run_to_completion(500 * MS);
        let stats = par
            .par_stats
            .as_ref()
            .expect("parallel path must engage on a multi-domain fat-tree");
        assert!(stats.windows > 0);
        assert_eq!(
            snapshot(&par),
            want,
            "threads={threads} diverged from serial"
        );
    }
}

#[test]
fn crosspoint_schedulers_diverge_under_contention() {
    // Round-robin and longest-first serve contended output columns in
    // different orders; under the incast they must produce observably
    // different (yet individually deterministic) executions. This guards
    // against the scheduler knob silently not being wired through.
    let mut rr = build(1, XpSched::RoundRobin);
    let mut lg = build(1, XpSched::Longest);
    rr.run_to_completion(500 * MS);
    lg.run_to_completion(500 * MS);
    assert_ne!(
        snapshot(&rr),
        snapshot(&lg),
        "schedulers produced identical executions — knob not wired?"
    );
}

#[test]
fn crosspoint_composes_with_fault_injection() {
    let schedule = FaultSchedule {
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
    };
    let faulted = |threads: usize| {
        let mut w = build(threads, XpSched::RoundRobin);
        schedule.apply(&mut w, 2 * MS);
        w
    };
    let mut serial = faulted(1);
    serial.run_to_completion(500 * MS);
    assert!(
        serial.metrics.faults_fired > 0,
        "the schedule must actually fire"
    );
    assert!(serial.all_flows_done(), "fabric must heal and deliver");
    let want = snapshot(&serial);

    let mut rerun = faulted(1);
    rerun.run_to_completion(500 * MS);
    assert_eq!(snapshot(&rerun), want, "faulted repeat run diverged");

    let mut par = faulted(2);
    par.run_to_completion(500 * MS);
    assert_eq!(snapshot(&par), want, "faulted threads=2 diverged");
}
