//! The one fabric scenario builder: the paper's workload mix
//! (web-search / all-to-all / all-reduce / permutation background plus
//! incast queries) over a leaf-spine, fat-tree or 3-tier fabric with an
//! oversubscription knob. The shape is `occamy_sim`'s [`FabricTopo`]
//! (re-exported here), and [`FabricScenario::build`] hands it to
//! `occamy_sim::topology::fabric`.
//!
//! [`FabricScenario`] runs the §6.4 figures (fig07, fig17–fig23 start
//! from [`FabricScenario::paper_leaf_spine`]), the transport baseline
//! and every `occamy-spec` document (see [`crate::spec_scenario`]): the
//! spec front-end writes each cell's grid values into its document and
//! binds the `[topology]`, `[traffic]` and `[schemes]` sections onto
//! this struct. Because a spec and a figure run the same builder, a
//! spec that recreates a registry scenario's grid reproduces its tables
//! bit-for-bit.

use crate::report::{aggregate, IdealFct, RunResult};
use crate::scenario::Scale;
use crate::scenarios::{inject_fabric_workload, BgPattern};
use occamy_core::{BmKind, BmTuning};
pub use occamy_sim::topology::FabricTopo;
use occamy_sim::topology::{fabric, BmSpec, FabricCfg, SchedKind};
use occamy_sim::{FaultSchedule, Ps, SimConfig, World, XpSched, MS, US};

/// A workload run over an arbitrary fabric topology: build, inject
/// ([`inject_fabric_workload`]), apply faults, run and aggregate.
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
    /// Access-layer oversubscription ratio (≥ 1); see
    /// [`FabricCfg::link_rate_bps`] for how it sets each shape's switch
    /// link rates.
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
    /// The paper's §6.4 defaults, dimension-scaled from 128 × 100 G to
    /// 25 G hosts and lifted onto `topo`, keeping every ratio that
    /// drives the result: a non-blocking fabric (leaf↔spine links at the
    /// host rate), 10 µs per link, 1 MB per 8 ports (5 KB/port/Gbps,
    /// about Tomahawk's 5.12), ECN K = 0.72 BDP = 180 KB, min RTO 5 ms,
    /// web-search background at 90%, fan-out 16, queries of 40% of a
    /// partition buffer at 400 queries/s/host, over 15 ms (+100 ms
    /// drain).
    pub fn paper_scaled(topo: FabricTopo, bm: BmKind, alpha: f64) -> Self {
        FabricScenario {
            topo,
            bm,
            alpha,
            tuning: BmTuning::default(),
            host_rate_bps: 25_000_000_000,
            fabric_rate_bps: 25_000_000_000,
            oversubscription: 1.0,
            link_prop_ps: 10 * US,
            buffer_per_8ports: 1_000_000,
            bg: BgPattern::WebSearch { load: 0.9 },
            query_bytes: 400_000,
            query_fanout: 16,
            qps_per_host: 400.0,
            duration_ps: 15 * MS,
            drain_ps: 100 * MS,
            seed: 1,
            sim: SimConfig {
                ecn_k_bytes: 180_000,
                min_rto: 5 * MS,
                ..SimConfig::default()
            },
            faults: FaultSchedule::default(),
            crosspoint: None,
        }
    }

    /// The §6.4 fabric of Figs. 7 and 17–23: [`Self::paper_scaled`] on a
    /// 4-spine × 4-leaf × 8-host leaf-spine (32 hosts, 80 µs base RTT).
    pub fn paper_leaf_spine(bm: BmKind, alpha: f64) -> Self {
        let topo = FabricTopo::LeafSpine {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 8,
        };
        FabricScenario::paper_scaled(topo, bm, alpha)
    }

    /// Host count.
    pub fn n_hosts(&self) -> usize {
        self.topo.n_hosts()
    }

    /// Ideal-FCT model: base RTT = 2 × longest path × per-link
    /// propagation (80 µs on the paper leaf-spine), access-link
    /// bottleneck.
    pub fn ideal(&self) -> IdealFct {
        IdealFct {
            base_rtt_ps: 2 * self.topo.max_path_links() * self.link_prop_ps,
            bottleneck_bps: self.host_rate_bps,
            mss: self.sim.mss as u64,
        }
    }

    /// Builds the world without workload.
    pub fn build(&self) -> World {
        let bm = BmSpec {
            kind: self.bm,
            alpha_per_class: vec![self.alpha],
            tuning: self.tuning,
        };
        let mut world = fabric(FabricCfg {
            topo: self.topo,
            host_rate_bps: self.host_rate_bps,
            fabric_rate_bps: self.fabric_rate_bps,
            oversubscription: self.oversubscription,
            link_prop_ps: self.link_prop_ps,
            buffer_per_8ports_bytes: self.buffer_per_8ports,
            classes: 1,
            bm,
            sched: SchedKind::Fifo,
            sim: self.sim.clone(),
        });
        if let Some(sched) = self.crosspoint {
            world.enable_crosspoint(sched);
        }
        world
    }

    /// Injects the workload ([`inject_fabric_workload`]) and schedules
    /// the faults into a world from [`FabricScenario::build`].
    pub fn inject(&self, world: &mut World) {
        inject_fabric_workload(
            world,
            self.n_hosts(),
            self.host_rate_bps,
            &self.bg,
            self.query_bytes,
            self.query_fanout,
            self.qps_per_host,
            self.duration_ps,
            self.seed,
        );
        self.faults.apply(world, self.duration_ps);
    }

    /// Builds, injects, runs and aggregates, also returning the world.
    pub fn run_world(&self) -> (World, RunResult) {
        let mut world = self.build();
        crate::apply_sim_threads(&mut world);
        self.inject(&mut world);
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

/// Applies the `--quick` / `--smoke` duration and rate reductions to a
/// fabric scenario. Monotone: reduced scales only ever *shorten* the
/// windows, so a spec that already describes a short run keeps its own
/// durations. From [`FabricScenario::paper_scaled`]'s 15 ms / 100 ms,
/// Quick runs 10 ms / 60 ms and Smoke 3 ms / 40 ms at 4× the query rate.
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

    #[test]
    fn leaf_spine_scaled_preserves_ratios() {
        let s = FabricScenario::paper_leaf_spine(BmKind::Occamy, 8.0);
        // ~5 KB per port per Gbps, about the paper's Tomahawk 5.12.
        let per_port_per_gbps = s.buffer_per_8ports as f64 / 8.0 / (s.host_rate_bps as f64 / 1e9);
        assert!((per_port_per_gbps - 5_000.0).abs() < 150.0);
        // ECN K = 0.72 BDP.
        let rtt_s = s.ideal().base_rtt_ps as f64 / 1e12;
        let bdp = s.host_rate_bps as f64 * rtt_s / 8.0;
        assert!((s.sim.ecn_k_bytes as f64 / bdp - 0.72).abs() < 0.01);
        assert_eq!(s.n_hosts(), 32);
    }

    #[test]
    fn ideal_rtt_matches_topology_depth() {
        let mut f = FabricScenario::paper_leaf_spine(BmKind::Dt, 1.0);
        assert_eq!(f.ideal().base_rtt_ps, 80 * US); // the figures' 80 µs
        f.link_prop_ps = 5 * US;
        assert_eq!(f.ideal().base_rtt_ps, 40 * US);
        let ft = FabricScenario::paper_scaled(FabricTopo::FatTree { k: 4 }, BmKind::Dt, 1.0);
        assert_eq!(ft.ideal().base_rtt_ps, 120 * US);
    }

    #[test]
    fn oversubscription_divides_fabric_rate() {
        let mut f = FabricScenario::paper_scaled(FabricTopo::FatTree { k: 4 }, BmKind::Dt, 1.0);
        f.oversubscription = 4.0;
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
        let mut f = FabricScenario::paper_leaf_spine(BmKind::Dt, 1.0);
        f.duration_ps = 2 * MS; // already shorter than the smoke preset
        f.drain_ps = 10 * MS;
        scale_fabric(&mut f, Scale::Smoke);
        assert_eq!(f.duration_ps, 2 * MS);
        assert_eq!(f.drain_ps, 10 * MS);
        let mut g = FabricScenario::paper_leaf_spine(BmKind::Dt, 1.0);
        scale_fabric(&mut g, Scale::Quick);
        assert_eq!(g.duration_ps, 10 * MS);
        assert_eq!(g.drain_ps, 60 * MS);
    }
}
