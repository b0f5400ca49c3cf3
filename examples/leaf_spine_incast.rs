//! A leaf-spine datacenter running incast queries over web-search
//! background traffic — the paper's §6.4 environment in miniature.
//!
//! Builds a 32-host leaf-spine with the ECMP fabric builder
//! (`topology::fabric`), injects a 60%-loaded web-search background
//! plus Poisson incast queries, and compares query-completion slowdowns
//! across all four evaluated BM schemes.
//!
//! Run with: `cargo run --release --example leaf_spine_incast`

use occamy::sim::topology::{fabric, BmSpec, FabricCfg, FabricTopo, SchedKind};
use occamy::sim::{CcAlgo, FlowDesc, SimConfig, MS, US};
use occamy::stats::{FlowClass, Summary};
use occamy::traffic::{web_search, BackgroundWorkload, QueryWorkload, TrafficClass};
use occamy_core::BmKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(kind: BmKind, alpha: f64) -> (Summary, Summary, u64) {
    let sim = SimConfig {
        ecn_k_bytes: 180_000,
        min_rto: 5 * MS,
        ..SimConfig::default()
    };
    let mut world = fabric(FabricCfg {
        topo: FabricTopo::LeafSpine {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 8,
        },
        host_rate_bps: 25_000_000_000,
        fabric_rate_bps: 25_000_000_000,
        oversubscription: 1.0,
        link_prop_ps: 10 * US,
        buffer_per_8ports_bytes: 1_000_000,
        classes: 1,
        bm: BmSpec::per_class(kind, vec![alpha]),
        sched: SchedKind::Fifo,
        sim,
    });
    let mut rng = StdRng::seed_from_u64(7);
    let duration = 20 * MS;

    // Web-search background at 60% load between random host pairs.
    let bg = BackgroundWorkload::new(32, 25_000_000_000, 0.6, web_search());
    for f in bg.generate(duration, &mut rng) {
        world.add_flow(FlowDesc {
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
    // Incast queries: 16-way fan-in of 400 KB, 200 queries/s/host.
    let qw = QueryWorkload::new(32, 16, 400_000, 200.0);
    for q in qw.generate(duration, &mut rng) {
        for r in &q.responses {
            world.add_flow(FlowDesc {
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
    world.run_to_completion(duration + 150 * MS);
    let records = world.flow_records();
    // Slowdown vs an ideal 80 µs-RTT, 25 Gbps transfer.
    let ideal = |bytes: u64| 80 * US + bytes * 8 * 1_000_000 / 25_000_000;
    let qct = records.qct_slowdown(ideal);
    let bg_fct = records.slowdown(|r| r.class == FlowClass::Background, ideal);
    (qct, bg_fct, world.metrics.drops.total_losses())
}

fn main() {
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>8}",
        "scheme", "avg QCT slow", "p99 QCT slow", "bg FCT slow", "losses"
    );
    for (kind, alpha, name) in [
        (BmKind::Occamy, 8.0, "Occamy"),
        (BmKind::Abm, 2.0, "ABM"),
        (BmKind::Dt, 1.0, "DT"),
        (BmKind::Pushout, 1.0, "Pushout"),
    ] {
        let (mut qct, bg, losses) = run(kind, alpha);
        println!(
            "{:>8} {:>14.2} {:>14.2} {:>14.2} {:>8}",
            name,
            qct.mean().unwrap_or(f64::NAN),
            qct.p99().unwrap_or(f64::NAN),
            bg.mean().unwrap_or(f64::NAN),
            losses,
        );
    }
    println!("\nExpected: Occamy tracks Pushout; DT/ABM trail (paper Fig. 17).");
}
