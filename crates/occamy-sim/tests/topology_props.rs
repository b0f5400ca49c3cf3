//! Property-based invariants of the fabric builder: every shape the
//! spec compiler can emit (leaf-spine, fat-tree, 3-tier) must be fully
//! connected, internally consistent and loop-free under ECMP routing,
//! and built exactly as [`FabricTopo`]'s closed-form arithmetic says,
//! for arbitrary configuration shapes.

use occamy_core::BmKind;
use occamy_sim::topology::{fabric, BmSpec, FabricCfg, FabricTopo, SchedKind};
use occamy_sim::{NodeId, SimConfig, World, US};
use proptest::prelude::*;

fn bm() -> BmSpec {
    BmSpec::uniform(BmKind::Dt, 1.0)
}

/// Checks the structural invariants shared by every fabric:
///
/// 1. `topo`'s host, switch and per-switch port counts equal the built
///    world's, and `n_ports` is `None` past the last switch;
/// 2. every host attaches to a valid switch;
/// 3. every switch's routing table covers every host with at least one
///    candidate egress port, and every candidate is a real port;
/// 4. every link endpoint names a real host or switch, and the
///    partition maps (`port_partition` / `port_local`) round-trip;
/// 5. for every (src, dst) host pair and several flow ids, hop-by-hop
///    forwarding terminates at `dst` without revisiting a switch, and
///    the longest such walk, access links included, has exactly
///    `topo.max_path_links()` links — the path the ideal RTT assumes.
fn check_fabric_invariants(topo: FabricTopo, w: &World) {
    let n_hosts = w.hosts.len();
    let n_switches = w.switches.len();
    assert_eq!(topo.n_hosts(), n_hosts, "{topo:?} host count");
    assert_eq!(topo.n_switches(), n_switches, "{topo:?} switch count");
    for sw in &w.switches {
        assert_eq!(
            topo.n_ports(sw.id),
            Some(sw.ports.len()),
            "switch {}",
            sw.id
        );
    }
    assert_eq!(topo.n_ports(n_switches), None);
    for h in &w.hosts {
        assert!(h.link.to_switch < n_switches, "host uplink out of range");
    }
    for sw in &w.switches {
        assert_eq!(sw.routing.num_dsts(), n_hosts, "switch {} routing", sw.id);
        assert_eq!(sw.port_partition.len(), sw.ports.len());
        assert_eq!(sw.port_local.len(), sw.ports.len());
        for p in 0..sw.ports.len() {
            let pi = sw.port_partition[p];
            assert!(pi < sw.partitions.len(), "switch {} partition map", sw.id);
            assert_eq!(
                sw.partitions[pi].ports[sw.port_local[p]], p,
                "switch {} port {} partition round-trip",
                sw.id, p
            );
            match sw.ports[p].link.to {
                NodeId::Host(h) => assert!((h as usize) < n_hosts, "dangling host link"),
                NodeId::Switch(s) => assert!((s as usize) < n_switches, "dangling switch link"),
            }
            assert!(sw.ports[p].link.rate_bps > 0, "zero-rate link");
        }
        for dst in 0..n_hosts {
            let cands = sw.routing.candidates(dst);
            assert!(!cands.is_empty(), "switch {} has no route to {dst}", sw.id);
            for &c in cands {
                assert!((c as usize) < sw.ports.len(), "route to ghost port");
            }
        }
    }
    // Path termination: walk the fabric for every host pair. ECMP picks
    // per-flow paths, so probe a few flow ids per pair.
    let mut longest = 0;
    for src in 0..n_hosts {
        for dst in 0..n_hosts {
            if src == dst {
                continue;
            }
            for flow in [0u64, 1, 0xDEAD_BEEF] {
                let mut at = w.hosts[src].link.to_switch;
                let mut visited = vec![false; n_switches];
                let mut links = 1; // the source's access link
                loop {
                    assert!(
                        !visited[at],
                        "routing loop at switch {at} for {src}->{dst} flow {flow}"
                    );
                    visited[at] = true;
                    let sw = &w.switches[at];
                    let port = sw.routing.port_for(dst, flow as u32);
                    links += 1;
                    match sw.ports[port].link.to {
                        NodeId::Host(h) => {
                            assert_eq!(h as usize, dst, "delivered to the wrong host");
                            break;
                        }
                        NodeId::Switch(s) => at = s as usize,
                    }
                }
                longest = longest.max(links);
            }
        }
    }
    assert_eq!(longest, topo.max_path_links(), "{topo:?} longest path");
}

fn cfg(topo: FabricTopo, fabric_rate_bps: u64, oversubscription: f64) -> FabricCfg {
    FabricCfg {
        topo,
        host_rate_bps: 25_000_000_000,
        fabric_rate_bps,
        oversubscription,
        link_prop_ps: 10 * US,
        buffer_per_8ports_bytes: 1_000_000,
        classes: 1,
        bm: bm(),
        sched: SchedKind::Fifo,
        sim: SimConfig::large_scale(),
    }
}

proptest! {
    #[test]
    fn leaf_spine_invariants(
        spines in 1usize..5,
        leaves in 2usize..5,
        hosts_per_leaf in 1usize..5,
    ) {
        let topo = FabricTopo::LeafSpine { spines, leaves, hosts_per_leaf };
        let w = fabric(cfg(topo, 25_000_000_000, 1.0));
        for leaf in &w.switches[..leaves] {
            prop_assert_eq!(leaf.ports.len(), hosts_per_leaf + spines);
        }
        for spine in &w.switches[leaves..] {
            prop_assert_eq!(spine.ports.len(), leaves);
        }
        check_fabric_invariants(topo, &w);
    }

    #[test]
    fn fat_tree_invariants(half in 1usize..4) {
        let k = 2 * half; // arity must be even
        let topo = FabricTopo::FatTree { k };
        let w = fabric(cfg(topo, 10_000_000_000, 1.0));
        // Every edge and aggregation switch has exactly k ports, every
        // core exactly k (one per pod).
        for sw in &w.switches {
            prop_assert_eq!(sw.ports.len(), k, "switch {} port count", sw.id);
        }
        check_fabric_invariants(topo, &w);
    }

    #[test]
    fn three_tier_invariants(
        pods in 2usize..4,
        access_per_pod in 1usize..3,
        aggs_per_pod in 1usize..3,
        cores in 1usize..4,
        hosts_per_access in 1usize..4,
        oversub in 1.0f64..8.0,
    ) {
        let topo = FabricTopo::ThreeTier {
            pods,
            access_per_pod,
            aggs_per_pod,
            cores,
            hosts_per_access,
        };
        let c = cfg(topo, 25_000_000_000, oversub);
        let uplink = c.link_rate_bps(0);
        prop_assert!(uplink >= 1);
        // The oversubscription knob shrinks uplinks monotonically.
        prop_assert!(uplink <= cfg(topo, 25_000_000_000, 1.0).link_rate_bps(0));
        let w = fabric(c);
        for acc in &w.switches[..pods * access_per_pod] {
            prop_assert_eq!(acc.ports.len(), hosts_per_access + aggs_per_pod);
            prop_assert_eq!(acc.ports[hosts_per_access].link.rate_bps, uplink);
        }
        for agg in &w.switches[pods * access_per_pod..pods * (access_per_pod + aggs_per_pod)] {
            prop_assert_eq!(agg.ports.len(), access_per_pod + cores);
        }
        for core in &w.switches[pods * (access_per_pod + aggs_per_pod)..] {
            prop_assert_eq!(core.ports.len(), pods * aggs_per_pod);
        }
        check_fabric_invariants(topo, &w);
    }
}
