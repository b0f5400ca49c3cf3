//! Property-based invariants of the event-domain partition
//! (`topology::DomainMap`) that the parallel executor's correctness
//! rests on: total coverage (every component in exactly one domain),
//! sound lookahead (every cross-domain link's propagation delay is at
//! least `lookahead_ps`, and nonzero whenever two domains exist), and
//! the guarantee that `threads = 1` takes the serial path bit-for-bit.

use occamy_core::BmKind;
use occamy_sim::topology::{fabric, BmSpec, FabricCfg, FabricTopo, SchedKind};
use occamy_sim::{CcAlgo, FlowDesc, NodeId, SimConfig, World, MS, US};
use proptest::prelude::*;

fn bm() -> BmSpec {
    BmSpec::uniform(BmKind::Occamy, 8.0)
}

/// The partition invariants every builder-exported `DomainMap` must
/// satisfy:
///
/// 1. exactly one domain per host and per switch (the map covers every
///    component, and every assignment is a valid domain id);
/// 2. every domain id below `n_domains()` is actually used;
/// 3. every link that crosses domains — host uplinks and switch-port
///    links — carries at least `lookahead_ps` of propagation delay, and
///    with more than one domain the lookahead is strictly positive
///    (zero lookahead would make conservative windows empty).
fn check_domain_invariants(w: &World) {
    let dm = w.domains.as_ref().expect("builder exports a DomainMap");
    let nd = dm.n_domains();
    assert_eq!(dm.host_domain.len(), w.hosts.len(), "host coverage");
    assert_eq!(dm.switch_domain.len(), w.switches.len(), "switch coverage");
    let mut used = vec![false; nd];
    for &d in dm.host_domain.iter().chain(&dm.switch_domain) {
        assert!((d as usize) < nd, "domain id {d} out of range");
        used[d as usize] = true;
    }
    assert!(used.iter().all(|&u| u), "unused domain id");

    if nd > 1 {
        assert!(dm.lookahead_ps > 0, "multi-domain map needs lookahead");
    }
    let node_dom = |n: NodeId| match n {
        NodeId::Host(h) => dm.host_domain[h as usize],
        NodeId::Switch(s) => dm.switch_domain[s as usize],
    };
    let mut cross_links = 0usize;
    for (h, host) in w.hosts.iter().enumerate() {
        if dm.host_domain[h] != dm.switch_domain[host.link.to_switch] {
            cross_links += 1;
            assert!(
                host.link.prop_ps >= dm.lookahead_ps,
                "host {h} uplink beats the lookahead"
            );
        }
    }
    for (s, sw) in w.switches.iter().enumerate() {
        for port in &sw.ports {
            if node_dom(port.link.to) != dm.switch_domain[s] {
                cross_links += 1;
                assert!(
                    port.link.prop_ps >= dm.lookahead_ps,
                    "switch {s} port link beats the lookahead"
                );
            }
        }
    }
    assert_eq!(
        cross_links > 0,
        nd > 1,
        "cross-domain links iff multiple domains"
    );
}

/// A small shifted-permutation workload, identical for every invocation
/// with the same host count.
fn inject_permutation(w: &mut World, n_hosts: usize) {
    for src in 0..n_hosts {
        w.add_flow(FlowDesc {
            src,
            dst: (src + 1) % n_hosts,
            bytes: 150_000,
            start_ps: (src as u64) * US,
            prio: 0,
            cc: CcAlgo::Dctcp,
            query: None,
            is_query: false,
        });
    }
}

proptest! {
    #[test]
    fn leaf_spine_domains_are_sound(
        spines in 1usize..5,
        leaves in 2usize..5,
        hosts_per_leaf in 1usize..5,
    ) {
        let w = fabric(FabricCfg {
            topo: FabricTopo::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            },
            host_rate_bps: 25_000_000_000,
            fabric_rate_bps: 25_000_000_000,
            oversubscription: 1.0,
            link_prop_ps: 10 * US,
            buffer_per_8ports_bytes: 1_000_000,
            classes: 1,
            bm: bm(),
            sched: SchedKind::Fifo,
            sim: SimConfig::large_scale(),
        });
        check_domain_invariants(&w);
    }

    #[test]
    fn fat_tree_domains_are_sound(half in 1usize..4) {
        let w = fabric(FabricCfg {
            topo: FabricTopo::FatTree { k: 2 * half },
            host_rate_bps: 25_000_000_000,
            fabric_rate_bps: 10_000_000_000,
            oversubscription: 1.0,
            link_prop_ps: 10 * US,
            buffer_per_8ports_bytes: 1_000_000,
            classes: 1,
            bm: bm(),
            sched: SchedKind::Fifo,
            sim: SimConfig::large_scale(),
        });
        check_domain_invariants(&w);
    }

    #[test]
    fn three_tier_domains_are_sound(
        pods in 2usize..4,
        access_per_pod in 1usize..3,
        aggs_per_pod in 1usize..3,
        cores in 1usize..4,
        hosts_per_access in 1usize..4,
    ) {
        let w = fabric(FabricCfg {
            topo: FabricTopo::ThreeTier {
                pods,
                access_per_pod,
                aggs_per_pod,
                cores,
                hosts_per_access,
            },
            host_rate_bps: 25_000_000_000,
            fabric_rate_bps: 25_000_000_000,
            oversubscription: 2.0,
            link_prop_ps: 10 * US,
            buffer_per_8ports_bytes: 1_000_000,
            classes: 1,
            bm: bm(),
            sched: SchedKind::Fifo,
            sim: SimConfig::large_scale(),
        });
        check_domain_invariants(&w);
    }

    /// `threads = 1` must take the serial path (never the parallel
    /// executor) and produce exactly what a domain-less world produces:
    /// the partition's existence alone cannot perturb a serial run.
    #[test]
    fn threads_one_is_the_serial_path(half in 1usize..3, seed_shift in 0usize..3) {
        let build = |threads: usize, strip_domains: bool| {
            let mut sim = SimConfig::large_scale();
            sim.threads = threads;
            let mut w = fabric(FabricCfg {
                topo: FabricTopo::FatTree { k: 2 * half },
                host_rate_bps: 25_000_000_000,
                fabric_rate_bps: 25_000_000_000,
                oversubscription: 1.0,
                link_prop_ps: 10 * US,
                buffer_per_8ports_bytes: 500_000,
                classes: 1,
                bm: bm(),
                sched: SchedKind::Fifo,
                sim,
            });
            if strip_domains {
                w.domains = None;
            }
            let n = w.hosts.len();
            inject_permutation(&mut w, n);
            // Perturb the workload a little per case so the property is
            // not about one fixed trajectory.
            for _ in 0..seed_shift {
                w.add_flow(FlowDesc {
                    src: 0,
                    dst: n - 1,
                    bytes: 9_000,
                    start_ps: 3 * US,
                    prio: 0,
                    cc: CcAlgo::Dctcp,
                    query: None,
                    is_query: false,
                });
            }
            w.run_to_completion(50 * MS);
            w
        };
        let with_domains = build(1, false);
        let without = build(1, true);
        prop_assert!(with_domains.par_stats.is_none(), "threads=1 engaged the parallel path");
        prop_assert_eq!(with_domains.now, without.now);
        prop_assert_eq!(
            with_domains.metrics.events_processed,
            without.metrics.events_processed
        );
        prop_assert_eq!(
            with_domains.metrics.delivered_bytes,
            without.metrics.delivered_bytes
        );
        prop_assert_eq!(
            &with_domains.metrics.drop_buffer_util,
            &without.metrics.drop_buffer_util
        );
        prop_assert!(with_domains.all_flows_done());
    }
}
