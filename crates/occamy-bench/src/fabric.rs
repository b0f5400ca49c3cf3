//! The topology-generic fabric scenario behind declarative specs: one
//! builder that runs the paper's workload mix (web-search / all-to-all /
//! all-reduce / permutation background plus incast queries) over a
//! leaf-spine, fat-tree or 3-tier fabric with an oversubscription knob.
//!
//! [`FabricScenario`] is the compile target of `occamy-spec` documents
//! (see [`crate::spec_scenario`]): the spec front-end binds `[topology]`,
//! `[traffic]` and `[schemes]` sections onto this struct, the grid axes
//! mutate its knobs per cell, and the run path is byte-identical to the
//! hand-coded figures — a leaf-spine spec delegates to
//! [`LeafSpineScenario`] so a spec that recreates a registry scenario
//! reproduces its tables bit-for-bit.

use crate::report::{aggregate, IdealFct, RunResult};
use crate::scenario::Scale;
use crate::scenarios::{inject_fabric_workload, BgPattern, LeafSpineScenario};
use occamy_core::{BmKind, BmTuning};
use occamy_sim::topology::{
    fat_tree, leaf_spine, three_tier, BmSpec, FatTreeCfg, LeafSpineCfg, SchedKind, ThreeTierCfg,
};
use occamy_sim::{FaultSchedule, Ps, SimConfig, World, XpSched, MS};

/// The fabric shape a [`FabricScenario`] runs on.
#[derive(Debug, Clone)]
pub enum FabricTopo {
    /// Two-tier leaf-spine (paper §6.4).
    LeafSpine {
        /// Spine switch count.
        spines: usize,
        /// Leaf switch count.
        leaves: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
    },
    /// k-ary three-layer fat-tree.
    FatTree {
        /// Pod arity (even, ≥ 2); `k³/4` hosts.
        k: usize,
    },
    /// Classic access/aggregation/core 3-tier fabric.
    ThreeTier {
        /// Pod count.
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
    /// Host count of the fabric.
    pub fn n_hosts(&self) -> usize {
        match *self {
            FabricTopo::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
            FabricTopo::FatTree { k } => k * k * k / 4,
            FabricTopo::ThreeTier {
                pods,
                access_per_pod,
                hosts_per_access,
                ..
            } => pods * access_per_pod * hosts_per_access,
        }
    }

    /// One-way hop count of the longest (inter-pod) host-to-host path,
    /// in links — 4 for leaf-spine, 6 for the three-layer fabrics. Used
    /// by the ideal-FCT base-RTT model.
    pub fn max_path_links(&self) -> u64 {
        match self {
            FabricTopo::LeafSpine { .. } => 4,
            FabricTopo::FatTree { .. } | FabricTopo::ThreeTier { .. } => 6,
        }
    }
}

/// A workload run over an arbitrary fabric topology: the spec-driven
/// generalization of [`LeafSpineScenario`], sharing its injection logic,
/// ideal-FCT model and aggregation.
#[derive(Debug, Clone)]
pub struct FabricScenario {
    /// Fabric shape.
    pub topo: FabricTopo,
    /// Buffer-management scheme.
    pub bm: BmKind,
    /// DT/ABM/Occamy `α`.
    pub alpha: f64,
    /// Scheme-specific tuning (BShare delay target, DAMQ reserve
    /// split); the default reproduces each scheme's paper constants.
    pub tuning: BmTuning,
    /// Host access-link rate.
    pub host_rate_bps: u64,
    /// Switch-to-switch link rate before oversubscription.
    pub fabric_rate_bps: u64,
    /// Access-layer oversubscription ratio (≥ 1). For leaf-spine and
    /// fat-tree fabrics the effective fabric link rate is
    /// `fabric_rate_bps / oversubscription`; the 3-tier builder takes
    /// the ratio directly and sizes its access up-links from it.
    pub oversubscription: f64,
    /// One-way propagation per link.
    pub link_prop_ps: Ps,
    /// Shared buffer per 8 ports.
    pub buffer_per_8ports: u64,
    /// Background traffic.
    pub bg: BgPattern,
    /// Total response bytes per query.
    pub query_bytes: u64,
    /// Incast fan-out per query.
    pub query_fanout: usize,
    /// Queries per second per client host (0 disables queries).
    pub qps_per_host: f64,
    /// Workload injection window.
    pub duration_ps: Ps,
    /// Extra time to let tails finish.
    pub drain_ps: Ps,
    /// RNG seed.
    pub seed: u64,
    /// Simulation parameters.
    pub sim: SimConfig,
    /// Deterministic fault schedule (times are fractions of
    /// `duration_ps`, so the same schedule scales with `--quick` and
    /// `--smoke` clamps). Empty by default.
    pub faults: FaultSchedule,
    /// When set, every switch runs the crosspoint-queued architecture
    /// with this scheduler instead of the shared-memory model (`bm` and
    /// `alpha` are then unused — crosspoint buffers are statically
    /// partitioned). `None` (the default) keeps shared memory.
    pub crosspoint: Option<XpSched>,
}

impl FabricScenario {
    /// The paper-scaled defaults of [`LeafSpineScenario::paper_scaled`],
    /// lifted onto `topo`: 25 Gbps links, 1 MB per 8 ports, ECN K
    /// 180 KB, min RTO 5 ms, web-search background at 90%, fan-out 16,
    /// 400 queries/s/host over 15 ms (+100 ms drain).
    pub fn paper_scaled(topo: FabricTopo, bm: BmKind, alpha: f64) -> Self {
        let ls = LeafSpineScenario::paper_scaled(bm, alpha);
        FabricScenario {
            topo,
            bm,
            alpha,
            tuning: BmTuning::default(),
            host_rate_bps: ls.link_rate_bps,
            fabric_rate_bps: ls.fabric_rate_bps,
            oversubscription: 1.0,
            link_prop_ps: ls.link_prop_ps,
            buffer_per_8ports: ls.buffer_per_8ports,
            bg: ls.bg,
            query_bytes: ls.query_bytes,
            query_fanout: ls.query_fanout,
            qps_per_host: ls.qps_per_host,
            duration_ps: ls.duration_ps,
            drain_ps: ls.drain_ps,
            seed: ls.seed,
            sim: ls.sim,
            faults: FaultSchedule::default(),
            crosspoint: None,
        }
    }

    /// Host count.
    pub fn n_hosts(&self) -> usize {
        self.topo.n_hosts()
    }

    /// Effective switch-to-switch link rate after the oversubscription
    /// division (leaf-spine / fat-tree; the 3-tier builder derives its
    /// own up-link rate from the ratio).
    pub fn effective_fabric_rate_bps(&self) -> u64 {
        assert!(
            self.oversubscription >= 1.0,
            "oversubscription must be ≥ 1 (got {})",
            self.oversubscription
        );
        ((self.fabric_rate_bps as f64 / self.oversubscription).round() as u64).max(1)
    }

    /// Ideal-FCT model: base RTT = 2 × longest path × per-link
    /// propagation, access-link bottleneck (the leaf-spine instance of
    /// this formula is the 80 µs the figures use).
    pub fn ideal(&self) -> IdealFct {
        IdealFct {
            base_rtt_ps: 2 * self.topo.max_path_links() * self.link_prop_ps,
            bottleneck_bps: self.host_rate_bps,
            mss: self.sim.mss as u64,
        }
    }

    /// The equivalent [`LeafSpineScenario`] when the topology is
    /// leaf-spine (the delegation that keeps spec runs bit-identical to
    /// the hand-coded figures).
    fn as_leaf_spine(&self) -> Option<LeafSpineScenario> {
        // Crosspoint worlds never delegate: the hand-coded scenario is
        // shared-memory only, so they take the generic build path below.
        if self.crosspoint.is_some() {
            return None;
        }
        let FabricTopo::LeafSpine {
            spines,
            leaves,
            hosts_per_leaf,
        } = self.topo
        else {
            return None;
        };
        Some(LeafSpineScenario {
            bm: self.bm,
            alpha: self.alpha,
            tuning: self.tuning,
            spines,
            leaves,
            hosts_per_leaf,
            link_rate_bps: self.host_rate_bps,
            fabric_rate_bps: self.effective_fabric_rate_bps(),
            link_prop_ps: self.link_prop_ps,
            buffer_per_8ports: self.buffer_per_8ports,
            bg: self.bg.clone(),
            query_bytes: self.query_bytes,
            query_fanout: self.query_fanout,
            qps_per_host: self.qps_per_host,
            duration_ps: self.duration_ps,
            drain_ps: self.drain_ps,
            seed: self.seed,
            sim: self.sim.clone(),
            faults: self.faults.clone(),
        })
    }

    /// Builds the world without workload.
    pub fn build(&self) -> World {
        if let Some(ls) = self.as_leaf_spine() {
            return ls.build();
        }
        let bm = BmSpec {
            kind: self.bm,
            alpha_per_class: vec![self.alpha],
            tuning: self.tuning,
        };
        let mut world = match self.topo {
            // Reached only for crosspoint worlds; shared-memory
            // leaf-spine delegates to the hand-coded scenario above.
            FabricTopo::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            } => leaf_spine(LeafSpineCfg {
                spines,
                leaves,
                hosts_per_leaf,
                host_rate_bps: self.host_rate_bps,
                fabric_rate_bps: self.effective_fabric_rate_bps(),
                link_prop_ps: self.link_prop_ps,
                buffer_per_8ports_bytes: self.buffer_per_8ports,
                classes: 1,
                bm,
                sched: SchedKind::Fifo,
                sim: self.sim.clone(),
            }),
            FabricTopo::FatTree { k } => fat_tree(FatTreeCfg {
                k,
                host_rate_bps: self.host_rate_bps,
                fabric_rate_bps: self.effective_fabric_rate_bps(),
                link_prop_ps: self.link_prop_ps,
                buffer_per_8ports_bytes: self.buffer_per_8ports,
                classes: 1,
                bm,
                sched: SchedKind::Fifo,
                sim: self.sim.clone(),
            }),
            FabricTopo::ThreeTier {
                pods,
                access_per_pod,
                aggs_per_pod,
                cores,
                hosts_per_access,
            } => three_tier(ThreeTierCfg {
                pods,
                access_per_pod,
                aggs_per_pod,
                cores,
                hosts_per_access,
                host_rate_bps: self.host_rate_bps,
                core_rate_bps: self.fabric_rate_bps,
                oversubscription: self.oversubscription,
                link_prop_ps: self.link_prop_ps,
                buffer_per_8ports_bytes: self.buffer_per_8ports,
                classes: 1,
                bm,
                sched: SchedKind::Fifo,
                sim: self.sim.clone(),
            }),
        };
        if let Some(sched) = self.crosspoint {
            world.enable_crosspoint(sched);
        }
        world
    }

    /// Builds, injects, runs and aggregates, also returning the world.
    pub fn run_world(&self) -> (World, RunResult) {
        if let Some(ls) = self.as_leaf_spine() {
            return ls.run_world();
        }
        let mut world = self.build();
        crate::apply_sim_threads(&mut world);
        inject_fabric_workload(
            &mut world,
            self.n_hosts(),
            self.host_rate_bps,
            &self.bg,
            self.query_bytes,
            self.query_fanout,
            self.qps_per_host,
            self.duration_ps,
            self.seed,
        );
        self.faults.apply(&mut world, self.duration_ps);
        world.run_to_completion(self.duration_ps + self.drain_ps);
        let flows = world.flow_records();
        let result = aggregate(
            &flows,
            self.ideal(),
            world.metrics.drops.total_losses(),
            world.metrics.events_processed,
        )
        .with_resilience(&world);
        (world, result)
    }

    /// Builds, injects, runs and aggregates.
    pub fn run(&self) -> RunResult {
        self.run_world().1
    }
}

/// Applies the shared duration/rate reductions to a fabric scenario —
/// the [`crate::figs::scale_leaf_spine`] recipe, but monotone: reduced
/// scales only ever *shorten* a spec's windows, so a spec that already
/// describes a seconds-scale run keeps its own durations.
pub fn scale_fabric(sc: &mut FabricScenario, scale: Scale) {
    match scale {
        Scale::Full => {}
        Scale::Quick => {
            sc.duration_ps = sc.duration_ps.min(10 * MS);
            sc.drain_ps = sc.drain_ps.min(60 * MS);
        }
        Scale::Smoke => {
            sc.duration_ps = sc.duration_ps.min(3 * MS);
            sc.drain_ps = sc.drain_ps.min(40 * MS);
            sc.qps_per_host *= 4.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occamy_sim::US;

    fn paper_topo() -> FabricTopo {
        FabricTopo::LeafSpine {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 8,
        }
    }

    #[test]
    fn leaf_spine_delegation_matches_hand_coded_scenario() {
        // The fabric path and the figure path must be the same
        // simulation: identical worlds, identical results.
        let mut fabric = FabricScenario::paper_scaled(paper_topo(), BmKind::Dt, 1.0);
        fabric.duration_ps = 2 * MS;
        fabric.drain_ps = 20 * MS;
        fabric.qps_per_host *= 4.0;
        let mut ls = LeafSpineScenario::paper_scaled(BmKind::Dt, 1.0);
        ls.duration_ps = 2 * MS;
        ls.drain_ps = 20 * MS;
        ls.qps_per_host *= 4.0;
        let a = fabric.run();
        let b = ls.run();
        assert_eq!(a.qct_ms.mean(), b.qct_ms.mean());
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn ideal_rtt_matches_topology_depth() {
        let f = FabricScenario::paper_scaled(paper_topo(), BmKind::Dt, 1.0);
        assert_eq!(f.ideal().base_rtt_ps, 80 * US); // the figures' 80 µs
        let ft = FabricScenario::paper_scaled(FabricTopo::FatTree { k: 4 }, BmKind::Dt, 1.0);
        assert_eq!(ft.ideal().base_rtt_ps, 120 * US);
    }

    #[test]
    fn delegated_leaf_spine_ideal_rtt_follows_link_propagation() {
        // Shared-memory schemes normalise against the delegated
        // LeafSpineScenario's model, crosspoint against the fabric's;
        // the two must agree at any propagation delay.
        let mut f = FabricScenario::paper_scaled(paper_topo(), BmKind::Dt, 1.0);
        f.link_prop_ps = 5 * US;
        let ls = f.as_leaf_spine().unwrap();
        assert_eq!(ls.ideal().base_rtt_ps, f.ideal().base_rtt_ps);
        assert_eq!(f.ideal().base_rtt_ps, 40 * US);
    }

    #[test]
    fn oversubscription_divides_fabric_rate() {
        let mut f = FabricScenario::paper_scaled(FabricTopo::FatTree { k: 4 }, BmKind::Dt, 1.0);
        f.oversubscription = 4.0;
        assert_eq!(f.effective_fabric_rate_bps(), f.fabric_rate_bps / 4);
        let w = f.build();
        // Edge up-links run at the divided rate, host links at full.
        assert_eq!(w.switches[0].ports[0].link.rate_bps, f.host_rate_bps);
        assert_eq!(w.switches[0].ports[2].link.rate_bps, f.fabric_rate_bps / 4);
    }

    #[test]
    fn fat_tree_and_three_tier_runs_complete() {
        for topo in [
            FabricTopo::FatTree { k: 4 },
            FabricTopo::ThreeTier {
                pods: 2,
                access_per_pod: 2,
                aggs_per_pod: 2,
                cores: 2,
                hosts_per_access: 4,
            },
        ] {
            let mut f = FabricScenario::paper_scaled(topo, BmKind::Occamy, 8.0);
            f.oversubscription = 2.0;
            scale_fabric(&mut f, Scale::Smoke);
            let r1 = f.run();
            assert!(!r1.qct_ms.is_empty(), "no queries finished");
            let r2 = f.run();
            assert_eq!(r1.qct_ms.mean(), r2.qct_ms.mean(), "non-deterministic");
            assert_eq!(r1.events, r2.events);
        }
    }

    #[test]
    fn scale_fabric_only_shrinks() {
        let mut f = FabricScenario::paper_scaled(paper_topo(), BmKind::Dt, 1.0);
        f.duration_ps = 2 * MS; // already shorter than the smoke preset
        f.drain_ps = 10 * MS;
        scale_fabric(&mut f, Scale::Smoke);
        assert_eq!(f.duration_ps, 2 * MS);
        assert_eq!(f.drain_ps, 10 * MS);
        let mut g = FabricScenario::paper_scaled(paper_topo(), BmKind::Dt, 1.0);
        scale_fabric(&mut g, Scale::Quick);
        assert_eq!(g.duration_ps, 10 * MS);
        assert_eq!(g.drain_ps, 60 * MS);
    }
}
