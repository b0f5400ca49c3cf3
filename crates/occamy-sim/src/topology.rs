//! Topology builders: [`single_switch`] for the testbed experiments and
//! [`fabric`], the one builder for every [`FabricTopo`] shape — the
//! leaf-spine, the k-ary fat-tree and the classic 3-tier
//! (access/aggregation/core) fabric with an oversubscription knob.
//!
//! Both builders also export a [`DomainMap`]: a partition of the world
//! into *event domains* (a fabric's pods plus one per top-tier switch;
//! a single switch is one domain) that the deterministic parallel
//! executor uses for domain-decomposed runs (`SimConfig::threads > 1`).
//! Serial runs ignore it.

use crate::event::NodeId;
use crate::host::{Host, HostLink};
use crate::routing::RoutingTable;
use crate::scheduler::Scheduler;
use crate::switch::{BufferPartition, Link, Switch, SwitchPort};
use crate::time::Ps;
use crate::world::World;
use crate::SimConfig;
use occamy_core::{BmKind, BmTuning, QueueConfig, RateEstimator, TokenBucket};
use std::collections::VecDeque;
use std::iter::StepBy;
use std::ops::Range;

/// A partition of a fabric's hosts and switches into event domains for
/// domain-decomposed parallel execution.
///
/// Domains exchange packets only over links whose one-way propagation
/// delay is at least [`DomainMap::lookahead_ps`]; conservative
/// synchronization uses that bound as its lookahead: events executed
/// in the window `[W, W + lookahead)` can only schedule cross-domain
/// arrivals at `>= W + lookahead`, so domains are causally independent
/// within a window. Every host and switch belongs to exactly one
/// domain (pinned by `tests/domain_props.rs`).
#[derive(Debug, Clone)]
pub struct DomainMap {
    /// Domain of each host, indexed by host id.
    pub host_domain: Vec<u32>,
    /// Domain of each switch, indexed by switch id.
    pub switch_domain: Vec<u32>,
    /// Minimum one-way propagation delay over all cross-domain links;
    /// `0` when the partition has no cross-domain link (parallel
    /// execution then stays disabled).
    pub lookahead_ps: Ps,
    n_domains: usize,
}

impl DomainMap {
    /// Builds a map from per-component domain assignments, deriving the
    /// lookahead from the actual link delays of `hosts` / `switches`.
    pub fn new(
        host_domain: Vec<u32>,
        switch_domain: Vec<u32>,
        hosts: &[Host],
        switches: &[Switch],
    ) -> Self {
        assert_eq!(host_domain.len(), hosts.len());
        assert_eq!(switch_domain.len(), switches.len());
        let n_domains = host_domain
            .iter()
            .chain(&switch_domain)
            .map(|&d| d as usize + 1)
            .max()
            .unwrap_or(0);
        let mut lookahead = Ps::MAX;
        let mut any_cross = false;
        for (h, host) in hosts.iter().enumerate() {
            if host_domain[h] != switch_domain[host.link.to_switch] {
                lookahead = lookahead.min(host.link.prop_ps);
                any_cross = true;
            }
        }
        for (s, sw) in switches.iter().enumerate() {
            for p in &sw.ports {
                let peer = match p.link.to {
                    NodeId::Host(h) => host_domain[h as usize],
                    NodeId::Switch(t) => switch_domain[t as usize],
                };
                if peer != switch_domain[s] {
                    lookahead = lookahead.min(p.link.prop_ps);
                    any_cross = true;
                }
            }
        }
        DomainMap {
            host_domain,
            switch_domain,
            lookahead_ps: if any_cross { lookahead } else { 0 },
            n_domains,
        }
    }

    /// Number of domains.
    pub fn n_domains(&self) -> usize {
        self.n_domains
    }
}

/// Buffer-management specification for a topology.
#[derive(Debug, Clone)]
pub struct BmSpec {
    /// Which scheme to run.
    pub kind: BmKind,
    /// DT/ABM/Occamy `α` per service class.
    pub alpha_per_class: Vec<f64>,
    /// Scheme-specific tuning (BShare delay target, DAMQ reserve split);
    /// the default reproduces each scheme's canonical constants.
    pub tuning: BmTuning,
}

impl BmSpec {
    /// A single-class specification.
    pub fn uniform(kind: BmKind, alpha: f64) -> Self {
        Self::per_class(kind, vec![alpha])
    }

    /// A multi-class specification with default tuning.
    pub fn per_class(kind: BmKind, alpha_per_class: Vec<f64>) -> Self {
        BmSpec {
            kind,
            alpha_per_class,
            tuning: BmTuning::default(),
        }
    }
}

/// Scheduler specification for every port of a topology.
#[derive(Debug, Clone, Copy)]
pub enum SchedKind {
    /// Single-class FIFO.
    Fifo,
    /// Strict priority across classes (class 0 first).
    StrictPriority,
    /// Deficit Round Robin with the given quantum in bytes.
    Drr {
        /// Per-visit quantum in bytes.
        quantum: u64,
    },
}

impl SchedKind {
    fn build(self, classes: usize) -> Scheduler {
        match self {
            SchedKind::Fifo => Scheduler::Fifo,
            SchedKind::StrictPriority => Scheduler::StrictPriority,
            SchedKind::Drr { quantum } => Scheduler::drr(classes, quantum),
        }
    }

    /// ABM's priority classes: under strict priority each class is its own
    /// priority level; under FIFO/DRR all classes share one level.
    fn abm_priority(self, class: usize) -> u8 {
        match self {
            SchedKind::StrictPriority => class as u8,
            _ => 0,
        }
    }
}

/// Configuration of a single-switch topology (one host per port).
#[derive(Debug, Clone)]
pub struct SingleSwitchCfg {
    /// Per-host access-link rates (one port per host).
    pub host_rates_bps: Vec<u64>,
    /// One-way propagation per link.
    pub prop_ps: Ps,
    /// Shared buffer size in bytes (one partition).
    pub buffer_bytes: u64,
    /// Service classes per port.
    pub classes: usize,
    /// Buffer management.
    pub bm: BmSpec,
    /// Port scheduler.
    pub sched: SchedKind,
    /// Simulation parameters.
    pub sim: SimConfig,
}

/// Builds a world with one switch and `host_rates_bps.len()` hosts.
///
/// This is the substrate for the paper's testbed experiments: the Huawei
/// CE6865 motivation setup (Fig. 6), the Tofino micro-benchmarks
/// (Figs. 11–12, with per-port rates 100/100/10/10 Gbps) and the DPDK
/// software switch (Figs. 13–16).
pub fn single_switch(c: SingleSwitchCfg) -> World {
    let n = c.host_rates_bps.len();
    assert!(n >= 2, "need at least two hosts");
    assert!(c.classes >= 1, "need at least one class");
    assert_eq!(c.bm.alpha_per_class.len(), c.classes, "one alpha per class");
    let hosts: Vec<Host> = (0..n)
        .map(|h| {
            Host::new(
                h,
                HostLink {
                    to_switch: 0,
                    rate_bps: c.host_rates_bps[h],
                    prop_ps: c.prop_ps,
                },
            )
        })
        .collect();

    let ports: Vec<SwitchPort> = (0..n)
        .map(|p| {
            let rate = c.host_rates_bps[p];
            port(NodeId::host(p), rate, c.prop_ps, c.classes, c.sched)
        })
        .collect();

    let partition = build_partition(
        &c.bm,
        c.sched,
        c.buffer_bytes,
        &(0..n).collect::<Vec<_>>(),
        &c.host_rates_bps,
        c.classes,
        &c.sim,
    );
    let total_rate: u64 = c.host_rates_bps.iter().sum();
    let routing = RoutingTable::new((0..n).map(|h| vec![h as u16]).collect());
    let switch = Switch {
        id: 0,
        tier: 0,
        ports,
        partitions: vec![partition],
        port_partition: vec![0; n],
        port_local: (0..n).collect(),
        classes: c.classes,
        routing,
        disabled_ports: vec![false; n],
        n_disabled: 0,
        draining: false,
        xp: None,
        write_rate: RateEstimator::new(10_000, 0.0),
        read_rate: RateEstimator::new(10_000, 0.0),
        total_membw_bps: 2.0 * total_rate as f64,
    };
    let mut w = World::new(c.sim, hosts, vec![switch]);
    // One switch means one domain: runs stay serial.
    w.domains = Some(DomainMap::new(vec![0; n], vec![0], &w.hosts, &w.switches));
    w
}

/// Most ports a switch may have: routing tables and fault clauses hold
/// port ids as `u16`.
const MAX_PORTS: usize = 1 << 16;

const OVERFLOW: &str = "fabric size overflows usize (FabricTopo::check rejects it)";

/// The shape of an ECMP-routed multi-tier fabric (paper §6.4).
///
/// Switch ids run tier by tier from the bottom (leaves, edges or access
/// switches first, then spines or aggregations, then cores), pod-major
/// within a tier. Hosts are numbered bottom-switch-major: host `h`
/// hangs off bottom switch `h / hosts per bottom switch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricTopo {
    /// Two-tier leaf-spine: every leaf uplinks to every spine.
    LeafSpine {
        /// Spine switch count.
        spines: usize,
        /// Leaf switch count.
        leaves: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
    },
    /// k-ary fat-tree (Al-Fares et al.): `k` pods of `k/2` edge and
    /// `k/2` aggregation switches, `(k/2)²` cores, `k³/4` hosts.
    /// Aggregation switch `a` of each pod uplinks to core group `a`
    /// (cores `a·k/2 .. (a+1)·k/2`).
    FatTree {
        /// Pod arity (even, ≥ 2).
        k: usize,
    },
    /// Classic access/aggregation/core fabric: every access switch
    /// uplinks to all aggregations of its pod, and every aggregation to
    /// all cores, so inter-pod traffic crosses three tiers.
    ThreeTier {
        /// Pod count (a pod is one aggregation group plus its access
        /// layer).
        pods: usize,
        /// Access switches per pod.
        access_per_pod: usize,
        /// Aggregation switches per pod.
        aggs_per_pod: usize,
        /// Core switch count.
        cores: usize,
        /// Hosts per access switch.
        hosts_per_access: usize,
    },
}

impl FabricTopo {
    /// The spec spelling of the shape.
    pub fn name(&self) -> &'static str {
        match self {
            FabricTopo::LeafSpine { .. } => "leaf_spine",
            FabricTopo::FatTree { .. } => "fat_tree",
            FabricTopo::ThreeTier { .. } => "three_tier",
        }
    }

    /// Host count.
    pub fn n_hosts(&self) -> usize {
        self.sizes().expect(OVERFLOW).0
    }

    /// Switch count.
    pub fn n_switches(&self) -> usize {
        self.sizes().expect(OVERFLOW).1.iter().map(|t| t.0).sum()
    }

    /// Port count of switch `s`, or `None` for a switch outside the
    /// fabric.
    pub fn n_ports(&self, mut s: usize) -> Option<usize> {
        for (n, ports) in self.sizes().expect(OVERFLOW).1 {
            if s < n {
                return Some(ports);
            }
            s -= n;
        }
        None
    }

    /// Links on the longest (inter-pod) host-to-host path, access links
    /// included: 4 on the leaf-spine, 6 on the three-layer fabrics. The
    /// ideal-FCT base RTT is twice this many link propagations.
    pub fn max_path_links(&self) -> u64 {
        match self {
            FabricTopo::LeafSpine { .. } => 4,
            FabricTopo::FatTree { .. } | FabricTopo::ThreeTier { .. } => 6,
        }
    }

    /// Checks that [`fabric`] can build this shape: every dimension
    /// meets its minimum, host and switch counts fit a `u32` node id and
    /// every switch's ports fit a `u16` port id. Allocates nothing
    /// unless it fails.
    pub fn check(&self) -> Result<(), String> {
        let at_least = |key: &str, v: usize, min: usize| {
            if v >= min {
                Ok(())
            } else {
                Err(format!("'{key}' must be ≥ {min} (got {v})"))
            }
        };
        match *self {
            FabricTopo::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            } => {
                at_least("spines", spines, 1)?;
                at_least("leaves", leaves, 2)?;
                at_least("hosts_per_leaf", hosts_per_leaf, 1)?;
            }
            FabricTopo::FatTree { k } => {
                if k < 2 || k % 2 != 0 {
                    return Err(format!("fat-tree arity 'k' must be even, ≥ 2 (got {k})"));
                }
            }
            FabricTopo::ThreeTier {
                pods,
                access_per_pod,
                aggs_per_pod,
                cores,
                hosts_per_access,
            } => {
                at_least("pods", pods, 2)?;
                at_least("access_per_pod", access_per_pod, 1)?;
                at_least("aggs_per_pod", aggs_per_pod, 1)?;
                at_least("cores", cores, 1)?;
                at_least("hosts_per_access", hosts_per_access, 1)?;
            }
        }
        let name = self.name();
        let too_big = || {
            format!(
                "the {name} fabric has more than {} hosts or switches",
                u32::MAX
            )
        };
        let (hosts, tiers) = self.sizes().ok_or_else(too_big)?;
        let switches = tiers
            .iter()
            .try_fold(0usize, |sum, t| sum.checked_add(t.0))
            .ok_or_else(too_big)?;
        if hosts.max(switches) > u32::MAX as usize {
            return Err(too_big());
        }
        let mut first = 0;
        for (n, ports) in tiers {
            if n > 0 && ports > MAX_PORTS {
                return Err(format!(
                    "switch {first} of the {name} fabric has {ports} ports; \
                     port ids are u16, so a switch has at most {MAX_PORTS}"
                ));
            }
            first += n;
        }
        Ok(())
    }

    /// Host count and, bottom tier first, each tier's switch count and
    /// per-switch port count; `None` when a count overflows `usize`.
    fn sizes(&self) -> Option<(usize, [(usize, usize); 3])> {
        Some(match *self {
            FabricTopo::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            } => (
                leaves.checked_mul(hosts_per_leaf)?,
                [
                    (leaves, hosts_per_leaf.checked_add(spines)?),
                    (spines, leaves),
                    (0, 0),
                ],
            ),
            FabricTopo::FatTree { k } => {
                let half = k / 2;
                let per_tier = k.checked_mul(half)?;
                (
                    per_tier.checked_mul(half)?,
                    [(per_tier, k), (per_tier, k), (half.checked_mul(half)?, k)],
                )
            }
            FabricTopo::ThreeTier {
                pods,
                access_per_pod,
                aggs_per_pod,
                cores,
                hosts_per_access,
            } => {
                let access = pods.checked_mul(access_per_pod)?;
                let aggs = pods.checked_mul(aggs_per_pod)?;
                (
                    access.checked_mul(hosts_per_access)?,
                    [
                        (access, hosts_per_access.checked_add(aggs_per_pod)?),
                        (aggs, access_per_pod.checked_add(cores)?),
                        (cores, aggs),
                    ],
                )
            }
        })
    }
}

/// Configuration of an ECMP-routed multi-tier fabric.
#[derive(Debug, Clone)]
pub struct FabricCfg {
    /// Fabric shape and dimensions.
    pub topo: FabricTopo,
    /// Host access-link rate.
    pub host_rate_bps: u64,
    /// Switch-to-switch link rate before oversubscription (see
    /// [`FabricCfg::link_rate_bps`]).
    pub fabric_rate_bps: u64,
    /// Divisor (≥ 1) on the switch-link rates; see
    /// [`FabricCfg::link_rate_bps`]. Only on the 3-tier fabric is it the
    /// access layer's ratio of host-facing to up-link capacity. On the
    /// leaf-spine and the fat-tree it divides `fabric_rate_bps`, so the
    /// ratio is this knob times the shape's own ratio at `1.0`: 1:1 for
    /// a fat-tree with `fabric_rate_bps == host_rate_bps`, 2:1 for the
    /// §6.4 leaf-spine (8 hosts and 4 up-links per leaf). `4.0` cuts
    /// the up-links to a quarter of their `1.0` rate, the classic
    /// many-to-one stress for shared-buffer schemes.
    pub oversubscription: f64,
    /// One-way propagation per link.
    pub link_prop_ps: Ps,
    /// Shared buffer per group of 8 ports (Tomahawk-style partitioning).
    pub buffer_per_8ports_bytes: u64,
    /// Service classes per port.
    pub classes: usize,
    /// Buffer management.
    pub bm: BmSpec,
    /// Port scheduler.
    pub sched: SchedKind,
    /// Simulation parameters.
    pub sim: SimConfig,
}

impl FabricCfg {
    /// Rate of the links between switch tiers `tier` and `tier + 1`,
    /// never below 1 bps. On the leaf-spine and the fat-tree every
    /// switch link runs at `fabric_rate_bps / oversubscription`. On the
    /// 3-tier fabric an access switch's up-links together carry
    /// `hosts_per_access · host_rate_bps / oversubscription`, and the
    /// aggregation–core links run at `fabric_rate_bps`.
    ///
    /// # Panics
    ///
    /// Panics if `oversubscription` is below 1.
    pub fn link_rate_bps(&self, tier: u8) -> u64 {
        let o = self.oversubscription;
        assert!(o >= 1.0, "oversubscription must be ≥ 1 (got {o})");
        let rate = match self.topo {
            FabricTopo::ThreeTier {
                aggs_per_pod,
                hosts_per_access,
                ..
            } if tier == 0 => {
                let down = hosts_per_access as f64 * self.host_rate_bps as f64;
                (down / (aggs_per_pod as f64 * o)).round() as u64
            }
            FabricTopo::ThreeTier { .. } => self.fabric_rate_bps,
            _ => (self.fabric_rate_bps as f64 / o).round() as u64,
        };
        rate.max(1)
    }
}

/// One switch's place in a fabric, from which [`fabric`] derives its
/// ports, routes, tier and event domain.
struct Wiring {
    /// Tier, 0 at the bottom.
    tier: u8,
    /// Pod, or `None` on the top tier, which spans every pod.
    pod: Option<usize>,
    /// The hosts below this switch.
    hosts: Range<usize>,
    /// Switch ids of the down-links in port order; bottom switches
    /// link down to their `hosts` instead.
    down: StepBy<Range<usize>>,
    /// Switch ids of the up-links, in port order after the down-links.
    up: Range<usize>,
}

/// Lists every switch of `topo` in id order.
fn wiring(topo: FabricTopo) -> Vec<Wiring> {
    let all = 0..topo.n_hosts();
    let none = || (0..0).step_by(1);
    let mut w = Vec::with_capacity(topo.n_switches());
    let mut add = |tier, pod, hosts, down, up| {
        w.push(Wiring {
            tier,
            pod,
            hosts,
            down,
            up,
        })
    };
    match topo {
        FabricTopo::LeafSpine {
            spines,
            leaves,
            hosts_per_leaf: hpl,
        } => {
            for leaf in 0..leaves {
                let hosts = leaf * hpl..(leaf + 1) * hpl;
                add(0, Some(leaf), hosts, none(), leaves..leaves + spines);
            }
            for _ in 0..spines {
                add(1, None, all.clone(), (0..leaves).step_by(1), 0..0);
            }
        }
        FabricTopo::FatTree { k } => {
            let half = k / 2;
            let (edges, per_pod) = (k * half, half * half);
            for edge in 0..edges {
                let pod = edge / half;
                let up = edges + pod * half..edges + (pod + 1) * half;
                add(0, Some(pod), edge * half..(edge + 1) * half, none(), up);
            }
            for agg in 0..edges {
                let (pod, group) = (agg / half, agg % half);
                let hosts = pod * per_pod..(pod + 1) * per_pod;
                let down = (pod * half..(pod + 1) * half).step_by(1);
                let up = 2 * edges + group * half..2 * edges + (group + 1) * half;
                add(1, Some(pod), hosts, down, up);
            }
            // Core `c` reaches each pod through that pod's aggregation
            // switch of group `c / (k/2)`.
            for core in 0..per_pod {
                let down = (edges + core / half..2 * edges).step_by(half);
                add(2, None, all.clone(), down, 0..0);
            }
        }
        FabricTopo::ThreeTier {
            pods,
            access_per_pod: apo,
            aggs_per_pod: gpo,
            cores,
            hosts_per_access: hpa,
        } => {
            let (access, aggs, per_pod) = (pods * apo, pods * gpo, apo * hpa);
            for acc in 0..access {
                let pod = acc / apo;
                let up = access + pod * gpo..access + (pod + 1) * gpo;
                add(0, Some(pod), acc * hpa..(acc + 1) * hpa, none(), up);
            }
            for agg in 0..aggs {
                let pod = agg / gpo;
                let hosts = pod * per_pod..(pod + 1) * per_pod;
                let down = (pod * apo..(pod + 1) * apo).step_by(1);
                add(
                    1,
                    Some(pod),
                    hosts,
                    down,
                    access + aggs..access + aggs + cores,
                );
            }
            for _ in 0..cores {
                add(
                    2,
                    None,
                    all.clone(),
                    (access..access + aggs).step_by(1),
                    0..0,
                );
            }
        }
    }
    w
}

/// Builds a multi-tier fabric world.
///
/// Each switch's ports are its down-links (to hosts on the bottom tier)
/// and then its up-links, in [`FabricTopo`]'s id order. Routing is
/// shortest-path ECMP ([`RoutingTable`] hashes the flow id, §6.4): a
/// switch routes a host down every link whose subtree holds it, and
/// otherwise up every up-link. For the parallel executor, a pod's hosts
/// and switches share one event domain and each top-tier switch gets
/// its own, so every cross-domain link touches the top tier or an
/// inter-pod path.
///
/// # Panics
///
/// Panics with [`FabricTopo::check`]'s message when the shape is
/// invalid, and if `oversubscription` is below 1.
pub fn fabric(c: FabricCfg) -> World {
    if let Err(e) = c.topo.check() {
        panic!("{e}");
    }
    let (hosts, switches, switch_domain) = hosts_and_switches(&c);
    let host_domain = hosts
        .iter()
        .map(|h| switch_domain[h.link.to_switch])
        .collect();
    let domains = DomainMap::new(host_domain, switch_domain, &hosts, &switches);
    let mut w = World::new(c.sim, hosts, switches);
    w.domains = Some(domains);
    w
}

/// The hosts and switches of `c`'s fabric, with each switch's event
/// domain: its pod's, or on the top tier one of its own.
fn hosts_and_switches(c: &FabricCfg) -> (Vec<Host>, Vec<Switch>, Vec<u32>) {
    let wiring = wiring(c.topo);
    let n_hosts = c.topo.n_hosts();
    let tier_rate = [c.link_rate_bps(0), c.link_rate_bps(1)];
    let mut hosts = Vec::with_capacity(n_hosts);
    let mut switches = Vec::with_capacity(wiring.len());
    // Per destination, the run of down ports whose subtree holds it (a
    // run, since down-links are listed in host order); empty when the
    // destination is routed up.
    let mut down_ports = vec![0..0; n_hosts];
    for (s, sw) in wiring.iter().enumerate() {
        down_ports.fill(0..0);
        let n_down = if sw.tier == 0 {
            sw.hosts.len()
        } else {
            sw.down.len()
        };
        let mut ports = Vec::with_capacity(n_down + sw.up.len());
        let mut rates = Vec::with_capacity(n_down + sw.up.len());
        let mut link = |to, rate_bps| {
            ports.push(port(to, rate_bps, c.link_prop_ps, c.classes, c.sched));
            rates.push(rate_bps);
        };
        if sw.tier == 0 {
            for (p, h) in sw.hosts.clone().enumerate() {
                let host_link = HostLink {
                    to_switch: s,
                    rate_bps: c.host_rate_bps,
                    prop_ps: c.link_prop_ps,
                };
                hosts.push(Host::new(h, host_link));
                down_ports[h] = p..p + 1;
                link(NodeId::host(h), c.host_rate_bps);
            }
        }
        for (p, d) in sw.down.clone().enumerate() {
            for r in &mut down_ports[wiring[d].hosts.clone()] {
                // Start a run, or extend one (every run ends past 0).
                let start = if r.end == 0 { p } else { r.start };
                *r = start..p + 1;
            }
            link(NodeId::switch(d), tier_rate[sw.tier as usize - 1]);
        }
        for u in sw.up.clone() {
            link(NodeId::switch(u), tier_rate[sw.tier as usize]);
        }
        let up: Vec<u16> = (n_down..ports.len()).map(|p| p as u16).collect();
        let routes = down_ports
            .iter()
            .map(|r| {
                if r.is_empty() {
                    up.clone()
                } else {
                    r.clone().map(|p| p as u16).collect()
                }
            })
            .collect();
        let routing = RoutingTable::new(routes);
        switches.push(assemble_switch(s, sw.tier, ports, rates, routing, c));
    }
    let pods = wiring
        .iter()
        .filter_map(|s| s.pod)
        .max()
        .map_or(0, |p| p + 1);
    let mut top = pods..;
    let switch_domain = wiring
        .iter()
        .map(|s| s.pod.or_else(|| top.next()).unwrap_or_default() as u32)
        .collect();
    (hosts, switches, switch_domain)
}

/// Assembles a fabric switch, splitting its ports into Tomahawk-style
/// buffer partitions of 8.
fn assemble_switch(
    id: usize,
    tier: u8,
    ports: Vec<SwitchPort>,
    rates: Vec<u64>,
    routing: RoutingTable,
    c: &FabricCfg,
) -> Switch {
    let n = ports.len();
    let mut partitions = Vec::new();
    let mut port_partition = vec![0; n];
    let mut port_local = vec![0; n];
    let all_ports: Vec<usize> = (0..n).collect();
    for (pi, chunk) in all_ports.chunks(8).enumerate() {
        for (li, &p) in chunk.iter().enumerate() {
            port_partition[p] = pi;
            port_local[p] = li;
        }
        partitions.push(build_partition(
            &c.bm,
            c.sched,
            c.buffer_per_8ports_bytes * chunk.len() as u64 / 8,
            chunk,
            &rates,
            c.classes,
            &c.sim,
        ));
    }
    let total_rate: u64 = rates.iter().sum();
    Switch {
        id,
        tier,
        ports,
        partitions,
        port_partition,
        port_local,
        classes: c.classes,
        routing,
        disabled_ports: vec![false; n],
        n_disabled: 0,
        draining: false,
        xp: None,
        write_rate: RateEstimator::new(10_000, 0.0),
        read_rate: RateEstimator::new(10_000, 0.0),
        total_membw_bps: 2.0 * total_rate as f64,
    }
}

/// Builds one switch port with a link to `to` at `rate_bps`.
fn port(to: NodeId, rate_bps: u64, prop_ps: Ps, classes: usize, sched: SchedKind) -> SwitchPort {
    SwitchPort {
        link: Link {
            to,
            rate_bps,
            prop_ps,
        },
        queues: (0..classes).map(|_| VecDeque::new()).collect(),
        sched: sched.build(classes),
        tx_busy: false,
    }
}

fn build_partition(
    bm: &BmSpec,
    sched: SchedKind,
    buffer_bytes: u64,
    ports: &[usize],
    rates: &[u64],
    classes: usize,
    sim: &SimConfig,
) -> BufferPartition {
    let nq = ports.len() * classes;
    let mut qc = QueueConfig::uniform(nq, 1, 1.0);
    for (li, &p) in ports.iter().enumerate() {
        for class in 0..classes {
            let q = li * classes + class;
            qc.alpha[q] = bm.alpha_per_class[class];
            qc.port_rate_bps[q] = rates[p];
            qc.priority[q] = sched.abm_priority(class);
        }
    }
    let reactive = matches!(bm.kind, BmKind::Occamy | BmKind::OccamyLongest);
    // Token generation at the partition's aggregate forwarding capacity,
    // in cells/s (paper §5.3).
    let agg_rate: u64 = ports.iter().map(|&p| rates[p]).sum();
    let cells_per_sec = agg_rate as f64 / 8.0 / sim.cell_bytes as f64 * sim.expel_rate_factor;
    BufferPartition {
        state: occamy_core::BufferState::new(buffer_bytes, nq),
        bm: bm.kind.build_tuned(qc, bm.tuning),
        tb: TokenBucket::new(cells_per_sec, sim.expel_bucket_cells),
        reactive,
        expel_armed: false,
        ports: ports.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm() -> BmSpec {
        BmSpec::uniform(BmKind::Dt, 1.0)
    }

    #[test]
    fn single_switch_shape() {
        let w = single_switch(SingleSwitchCfg {
            host_rates_bps: vec![10_000_000_000; 4],
            prop_ps: 1_000,
            buffer_bytes: 400_000,
            classes: 2,
            bm: BmSpec::per_class(BmKind::Dt, vec![8.0, 1.0]),
            sched: SchedKind::StrictPriority,
            sim: SimConfig::default(),
        });
        assert_eq!(w.hosts.len(), 4);
        assert_eq!(w.switches.len(), 1);
        let sw = &w.switches[0];
        assert_eq!(sw.ports.len(), 4);
        assert_eq!(sw.partitions.len(), 1);
        assert_eq!(sw.partitions[0].state.num_queues(), 8);
        assert_eq!(sw.partitions[0].state.capacity(), 400_000);
        // Port 2, class 1 maps to queue 5 and back.
        assert_eq!(sw.queue_index(2, 1), 5);
        assert_eq!(sw.queue_location(0, 5), (2, 1));
    }

    /// A 25 G fabric of shape `topo`, switch links at the host rate.
    fn cfg(topo: FabricTopo) -> FabricCfg {
        FabricCfg {
            topo,
            host_rate_bps: 25_000_000_000,
            fabric_rate_bps: 25_000_000_000,
            oversubscription: 1.0,
            link_prop_ps: 10 * crate::time::US,
            buffer_per_8ports_bytes: 1_000_000,
            classes: 1,
            bm: bm(),
            sched: SchedKind::Fifo,
            sim: SimConfig::large_scale(),
        }
    }

    /// The paper's §6.4 fabric: 8 spines, 8 leaves, 16 hosts per leaf,
    /// 100 Gbps links, 4 MB per 8 ports.
    fn paper_leaf_spine() -> FabricCfg {
        FabricCfg {
            host_rate_bps: 100_000_000_000,
            fabric_rate_bps: 100_000_000_000,
            buffer_per_8ports_bytes: 4_000_000,
            ..cfg(FabricTopo::LeafSpine {
                spines: 8,
                leaves: 8,
                hosts_per_leaf: 16,
            })
        }
    }

    fn tiny_three_tier(oversubscription: f64) -> FabricCfg {
        let topo = FabricTopo::ThreeTier {
            pods: 2,
            access_per_pod: 2,
            aggs_per_pod: 2,
            cores: 2,
            hosts_per_access: 4,
        };
        FabricCfg {
            oversubscription,
            ..cfg(topo)
        }
    }

    #[test]
    fn leaf_spine_paper_shape() {
        let w = fabric(paper_leaf_spine());
        assert_eq!(w.hosts.len(), 128);
        assert_eq!(w.switches.len(), 16);
        // Leaf: 16 down + 8 up = 24 ports → 3 partitions of 8 → 12 MB.
        let leaf = &w.switches[0];
        assert_eq!(leaf.ports.len(), 24);
        assert_eq!(leaf.partitions.len(), 3);
        let leaf_buf: u64 = leaf.partitions.iter().map(|p| p.state.capacity()).sum();
        assert_eq!(leaf_buf, 12_000_000);
        // The paper's spines have 8 MB because they count 16 ports; ours
        // have `leaves` = 8 ports → one 4 MB partition.
        let spine = &w.switches[8];
        assert_eq!(spine.ports.len(), 8);
        assert_eq!(spine.partitions.len(), 1);
        assert_eq!(spine.partitions[0].state.capacity(), 4_000_000);
        assert_eq!((leaf.tier, spine.tier), (0, 1));
        // Oversubscription divides every leaf–spine link.
        let c = FabricCfg {
            oversubscription: 4.0,
            ..paper_leaf_spine()
        };
        assert_eq!(
            [c.link_rate_bps(0), c.link_rate_bps(1)],
            [25_000_000_000; 2]
        );
    }

    #[test]
    fn leaf_routing_separates_local_and_remote() {
        let w = fabric(paper_leaf_spine());
        let leaf0 = &w.switches[0];
        // Local host 3: single down port.
        assert_eq!(leaf0.routing.candidates(3), &[3]);
        // Remote host 17 (leaf 1): ECMP across the 8 up-links.
        assert_eq!(leaf0.routing.candidates(17).len(), 8);
        // Spine 0 routes host 17 down to leaf 1.
        let spine0 = &w.switches[8];
        assert_eq!(spine0.routing.candidates(17), &[1]);
    }

    #[test]
    fn fat_tree_k4_shape() {
        let topo = FabricTopo::FatTree { k: 4 };
        assert_eq!(topo.n_hosts(), 16);
        assert_eq!(topo.n_switches(), 20);
        let w = fabric(cfg(topo));
        assert_eq!(w.hosts.len(), 16);
        assert_eq!(w.switches.len(), 20);
        // Every switch in a k=4 fat-tree has exactly k = 4 ports.
        for sw in &w.switches {
            assert_eq!(sw.ports.len(), 4, "switch {}", sw.id);
        }
        // Host 0 hangs off edge 0; edge 0's up-links go to aggs 8 and 9.
        assert_eq!(w.hosts[0].link.to_switch, 0);
        let edge0 = &w.switches[0];
        assert_eq!(edge0.ports[2].link.to, NodeId::switch(8));
        assert_eq!(edge0.ports[3].link.to, NodeId::switch(9));
        // Local host: single down port; remote: ECMP across both aggs.
        assert_eq!(edge0.routing.candidates(1), &[1]);
        assert_eq!(edge0.routing.candidates(15), &[2, 3]);
        // Agg 8 (pod 0, group 0) reaches pod-local host 3 via edge 1 and
        // remote hosts via its two core up-links.
        let agg8 = &w.switches[8];
        assert_eq!(agg8.routing.candidates(3), &[1]);
        assert_eq!(agg8.routing.candidates(4), &[2, 3]);
        // Core 16 (group 0) reaches pod 3 through that pod's group-0 agg.
        let core16 = &w.switches[16];
        assert_eq!(core16.ports[3].link.to, NodeId::switch(8 + 3 * 2));
        assert_eq!(core16.routing.candidates(12), &[3]);
        let tiers: Vec<u8> = w.switches.iter().map(|s| s.tier).collect();
        // Oversubscription divides every switch–switch link.
        let c = FabricCfg {
            oversubscription: 4.0,
            ..cfg(topo)
        };
        assert_eq!([c.link_rate_bps(0), c.link_rate_bps(1)], [6_250_000_000; 2]);
        assert_eq!(tiers, [&[0; 8][..], &[1; 8], &[2; 4]].concat());
    }

    #[test]
    fn three_tier_shape_and_oversubscription() {
        let c = tiny_three_tier(4.0);
        assert_eq!(c.topo.n_hosts(), 16);
        assert_eq!(c.topo.n_switches(), 10);
        // 4 hosts × 25 G down, ÷ (2 uplinks × 4 oversub) = 12.5 G each
        // (50 G non-blocking); aggregation–core links keep the fabric rate.
        assert_eq!(c.link_rate_bps(0), 12_500_000_000);
        assert_eq!(tiny_three_tier(1.0).link_rate_bps(0), 50_000_000_000);
        assert_eq!(c.link_rate_bps(1), 25_000_000_000);
        let w = fabric(c);
        assert_eq!(w.hosts.len(), 16);
        assert_eq!(w.switches.len(), 10);
        let acc0 = &w.switches[0];
        assert_eq!(acc0.ports.len(), 6); // 4 hosts + 2 agg up-links
        assert_eq!(acc0.ports[4].link.rate_bps, 12_500_000_000);
        // Local host direct, remote ECMP over both aggs.
        assert_eq!(acc0.routing.candidates(2), &[2]);
        assert_eq!(acc0.routing.candidates(9), &[4, 5]);
        // Agg 4 (pod 0): pod-local host 5 via access 1, inter-pod via
        // both core up-links.
        let agg4 = &w.switches[4];
        assert_eq!(agg4.ports.len(), 4); // 2 access + 2 cores
        assert_eq!(agg4.ports[0].link.rate_bps, 12_500_000_000);
        assert_eq!(agg4.routing.candidates(5), &[1]);
        assert_eq!(agg4.routing.candidates(8), &[2, 3]);
        // Core 8: pod 1 reachable through either of its aggs.
        let core8 = &w.switches[8];
        assert_eq!(core8.ports.len(), 4); // one per agg
        assert_eq!(core8.routing.candidates(8), &[2, 3]);
        assert_eq!(core8.tier, 2);
    }

    #[test]
    #[should_panic(expected = "oversubscription must be ≥ 1")]
    fn undersubscription_rejected() {
        fabric(FabricCfg {
            oversubscription: 0.5,
            ..cfg(FabricTopo::FatTree { k: 2 })
        });
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_fat_tree_arity_rejected() {
        fabric(cfg(FabricTopo::FatTree { k: 3 }));
    }

    #[test]
    fn domains_group_pods_and_isolate_the_top_tier() {
        let w = fabric(tiny_three_tier(2.0));
        let d = w.domains.as_ref().unwrap();
        // Pods 0 and 1 own their hosts, access and aggregation
        // switches; cores 8 and 9 get domains 2 and 3.
        assert_eq!(d.switch_domain, [0, 0, 1, 1, 0, 0, 1, 1, 2, 3]);
        assert_eq!(d.host_domain, [[0; 8], [1; 8]].concat());
        assert_eq!(d.n_domains(), 4);
    }

    fn wide_leaf_spine(spines: usize) -> FabricTopo {
        FabricTopo::LeafSpine {
            spines,
            leaves: 2,
            hosts_per_leaf: 1,
        }
    }

    #[test]
    fn port_ids_must_fit_u16() {
        // 1 host + 65 535 spines = 65 536 ports per leaf: ids 0..=65 535.
        assert_eq!(wide_leaf_spine(65_535).check(), Ok(()));
        assert_eq!(wide_leaf_spine(65_535).n_ports(0), Some(65_536));
        let e = wide_leaf_spine(65_536).check().unwrap_err();
        assert!(
            e.contains("65537 ports") && e.contains("at most 65536"),
            "{e}"
        );
        let three = FabricTopo::ThreeTier {
            pods: 2,
            access_per_pod: 1,
            aggs_per_pod: 40_000,
            cores: 1,
            hosts_per_access: 1,
        };
        // Each core has one port per aggregation switch: 80 000.
        assert!(three.check().unwrap_err().contains("switch 80002"));
    }

    #[test]
    #[should_panic(expected = "has 65537 ports; port ids are u16, so a switch has at most 65536")]
    fn fabric_rejects_port_overflow() {
        fabric(cfg(wide_leaf_spine(65_536)));
    }

    #[test]
    fn node_counts_must_fit_u32_without_wrapping() {
        // k³ overflows u64: rejected, not wrapped.
        let e = FabricTopo::FatTree { k: 4_194_304 }.check().unwrap_err();
        assert!(e.contains("more than 4294967295 hosts or switches"), "{e}");
        // 2 × 2³¹ hosts: fits usize, not a u32 host id.
        let wide = FabricTopo::LeafSpine {
            spines: 1,
            leaves: 2,
            hosts_per_leaf: 1 << 31,
        };
        assert!(wide.check().is_err());
        assert_eq!(FabricTopo::FatTree { k: 4 }.n_ports(20), None);
    }

    #[test]
    fn occamy_partitions_are_reactive() {
        let w = single_switch(SingleSwitchCfg {
            host_rates_bps: vec![10_000_000_000; 2],
            prop_ps: 1_000,
            buffer_bytes: 100_000,
            classes: 1,
            bm: BmSpec::uniform(BmKind::Occamy, 8.0),
            sched: SchedKind::Fifo,
            sim: SimConfig::default(),
        });
        assert!(w.switches[0].partitions[0].reactive);
        let w2 = single_switch(SingleSwitchCfg {
            host_rates_bps: vec![10_000_000_000; 2],
            prop_ps: 1_000,
            buffer_bytes: 100_000,
            classes: 1,
            bm: BmSpec::uniform(BmKind::Pushout, 1.0),
            sched: SchedKind::Fifo,
            sim: SimConfig::default(),
        });
        assert!(
            !w2.switches[0].partitions[0].reactive,
            "Pushout evicts synchronously, not via the reactive process"
        );
    }
}
