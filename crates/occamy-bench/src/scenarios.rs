//! Scenario builders shared by the figure binaries.

use crate::report::{aggregate, IdealFct, RunResult};
use occamy_core::BmKind;
use occamy_sim::topology::{single_switch, BmSpec, SchedKind, SingleSwitchCfg};
use occamy_sim::{CcAlgo, FlowDesc, Ps, SimConfig, World, MS, US};
use occamy_traffic::{web_search, BackgroundWorkload, FlowSpec, QueryWorkload, TrafficClass};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Converts a traffic-generator [`FlowSpec`] into a simulator flow.
pub fn spec_to_flow(s: &FlowSpec, prio: u8, cc: CcAlgo, offset_ps: Ps) -> FlowDesc {
    FlowDesc {
        src: s.src,
        dst: s.dst,
        bytes: s.bytes,
        start_ps: s.start_ps + offset_ps,
        prio,
        cc,
        query: s.query,
        is_query: s.class == TrafficClass::Query,
    }
}

/// Background traffic running beside the queries.
#[derive(Debug, Clone)]
pub enum BgPattern {
    /// No background traffic.
    None,
    /// Poisson web-search flows at `load` of access capacity.
    WebSearch {
        /// Offered load fraction (1.2 = 120%).
        load: f64,
    },
    /// Repeated all-to-all rounds of fixed-size flows at `load`.
    AllToAll {
        /// Per-pair flow size.
        flow_bytes: u64,
        /// Offered load fraction.
        load: f64,
    },
    /// Repeated double-binary-tree all-reduce rounds at `load`.
    AllReduce {
        /// Per-edge flow size.
        flow_bytes: u64,
        /// Offered load fraction.
        load: f64,
    },
    /// Repeated permutation rounds (host `i` → host `(i+shift) mod n`)
    /// at `load` — the fully load-balanced ablation pattern.
    Permutation {
        /// Per-host flow size.
        flow_bytes: u64,
        /// Offered load fraction.
        load: f64,
        /// Destination shift (normalized so no host sends to itself).
        shift: usize,
    },
}

// -------------------------------------------------------------------
// DPDK-style single-switch testbed (paper §6.2, Figs. 13–16; §3.1 Fig. 6)
// -------------------------------------------------------------------

/// Background traffic on the testbed.
#[derive(Debug, Clone, Copy)]
pub struct TestbedBg {
    /// Offered load fraction of access capacity.
    pub load: f64,
    /// Congestion control of the background flows.
    pub cc: CcAlgo,
    /// Switch class carrying the background flows.
    pub class: u8,
}

/// The 8-host, 10 Gbps, 410 KB shared-buffer software-switch testbed.
#[derive(Debug, Clone)]
pub struct TestbedScenario {
    /// Buffer-management scheme.
    pub bm: BmKind,
    /// `α` per service class.
    pub alpha_per_class: Vec<f64>,
    /// Service classes per port.
    pub classes: usize,
    /// Port scheduler.
    pub sched: SchedKind,
    /// Host count (one per switch port).
    pub n_hosts: usize,
    /// Access-link rate.
    pub host_rate_bps: u64,
    /// Shared buffer in bytes (410 KB = 5.12 KB/port/Gbps × 8 × 10 G).
    pub buffer_bytes: u64,
    /// Total response bytes per query.
    pub query_bytes: u64,
    /// Servers per query.
    pub query_fanout: usize,
    /// Queries per second per client host.
    pub qps_per_host: f64,
    /// Class carrying query traffic.
    pub query_class: u8,
    /// Pin all queries to one client host (buffer-choking experiments);
    /// `None` = every host runs a client.
    pub query_client: Option<usize>,
    /// Redirect all background flows to one receiver host; `None` =
    /// uniformly random pairs.
    pub bg_dst: Option<usize>,
    /// Optional background traffic.
    pub bg: Option<TestbedBg>,
    /// Workload injection window.
    pub duration_ps: Ps,
    /// Extra time to let tails finish.
    pub drain_ps: Ps,
    /// RNG seed.
    pub seed: u64,
    /// Simulation parameters.
    pub sim: SimConfig,
}

impl TestbedScenario {
    /// The paper's §6.2 defaults: 8 hosts × 10 G, 410 KB buffer, ECN
    /// K = 65 packets, query fan-out across all other hosts, 1% query
    /// load, 50% web-search background, one class, FIFO.
    pub fn paper_dpdk(bm: BmKind, alpha: f64) -> Self {
        let query_bytes = 328_000; // 80% of buffer, Fig. 13's midpoint
        TestbedScenario {
            bm,
            alpha_per_class: vec![alpha],
            classes: 1,
            sched: SchedKind::Fifo,
            n_hosts: 8,
            host_rate_bps: 10_000_000_000,
            buffer_bytes: 410_000,
            query_bytes,
            query_fanout: 16,
            qps_per_host: 0.01 * 10e9 / (8.0 * query_bytes as f64),
            query_class: 0,
            query_client: None,
            bg_dst: None,
            bg: Some(TestbedBg {
                load: 0.5,
                cc: CcAlgo::Dctcp,
                class: 0,
            }),
            duration_ps: 400 * MS,
            drain_ps: 600 * MS,
            seed: 1,
            sim: SimConfig::default(),
        }
    }

    /// Recomputes the query rate for a 1%-load Poisson query process at
    /// the current query size.
    pub fn with_query_bytes(mut self, bytes: u64) -> Self {
        self.query_bytes = bytes;
        self.qps_per_host = 0.01 * self.host_rate_bps as f64 / (8.0 * bytes as f64);
        self
    }

    /// Ideal-FCT model for this topology.
    pub fn ideal(&self) -> IdealFct {
        IdealFct {
            base_rtt_ps: 4 * US, // 4 × 1 µs propagation through the switch
            bottleneck_bps: self.host_rate_bps,
            mss: self.sim.mss as u64,
        }
    }

    /// Builds the world without workload.
    pub fn build(&self) -> World {
        single_switch(SingleSwitchCfg {
            host_rates_bps: vec![self.host_rate_bps; self.n_hosts],
            prop_ps: US,
            buffer_bytes: self.buffer_bytes,
            classes: self.classes,
            bm: BmSpec::per_class(self.bm, self.alpha_per_class.clone()),
            sched: self.sched,
            sim: self.sim.clone(),
        })
    }

    /// Injects background and query traffic into `world`: background
    /// first, then queries over `[warmup, duration)` with `warmup =
    /// duration / 10`, from one RNG seeded with `seed`. `bg_dst` sends
    /// every background flow to one host and drops the flows that host
    /// would send; `query_client` draws every query at one client.
    pub fn inject(&self, world: &mut World) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        if let Some(bg) = self.bg {
            let wl =
                BackgroundWorkload::new(self.n_hosts, self.host_rate_bps, bg.load, web_search());
            for mut f in wl.generate(self.duration_ps, &mut rng) {
                if let Some(dst) = self.bg_dst {
                    if f.src == dst {
                        continue;
                    }
                    f.dst = dst;
                }
                world.add_flow(spec_to_flow(&f, bg.class, bg.cc, 0));
            }
        }
        let warmup = self.duration_ps / 10;
        let qw = QueryWorkload::new(
            self.n_hosts,
            self.query_fanout,
            self.query_bytes,
            self.qps_per_host,
        );
        let window = self.duration_ps - warmup;
        let queries = match self.query_client {
            Some(client) => qw.generate_for_client(client, window, &mut rng),
            None => qw.generate(window, &mut rng),
        };
        for q in queries {
            for f in &q.responses {
                world.add_flow(spec_to_flow(f, self.query_class, CcAlgo::Dctcp, warmup));
            }
        }
    }

    /// Builds, injects, runs and aggregates.
    pub fn run(&self) -> RunResult {
        let (_, result) = self.run_world();
        result
    }

    /// Like [`TestbedScenario::run`] but also returns the world for raw
    /// metric access.
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
}

// -------------------------------------------------------------------
// Fabric workload (paper §6.4, Figs. 7, 17–23; see `crate::fabric`)
// -------------------------------------------------------------------

/// Injects one fabric workload — a background pattern plus the incast
/// query process — into `world`: the injection step of
/// [`crate::fabric::FabricScenario::run_world`] on every topology, so
/// fabrics with the same host count, rate and seed draw the same flow
/// sequence. Public so a caller can time set-up apart from the run.
///
/// RNG draw order is part of the contract: background flows first, then
/// queries over `[warmup, duration)` with `warmup = duration / 10`.
#[allow(clippy::too_many_arguments)]
pub fn inject_fabric_workload(
    world: &mut World,
    n: usize,
    link_rate_bps: u64,
    bg: &BgPattern,
    query_bytes: u64,
    query_fanout: usize,
    qps_per_host: f64,
    duration_ps: Ps,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    match bg {
        BgPattern::None => {}
        BgPattern::WebSearch { load } => {
            let wl = BackgroundWorkload::new(n, link_rate_bps, *load, web_search());
            for f in wl.generate(duration_ps, &mut rng) {
                world.add_flow(spec_to_flow(&f, 0, CcAlgo::Dctcp, 0));
            }
        }
        BgPattern::AllToAll { flow_bytes, load } => {
            // One round sends (n−1)·flow_bytes per host; pace rounds
            // so the offered per-host load matches `load`. The byte
            // products saturate: a spec's flow may be up to u64::MAX
            // bytes, and such a round is simply never repeated.
            let per_host = (n as u64 - 1).saturating_mul(*flow_bytes);
            let interval = (per_host as f64 * 8.0 / (load * link_rate_bps as f64) * 1e12) as Ps;
            let mut t = 0;
            while t < duration_ps {
                for f in occamy_traffic::all_to_all(n, *flow_bytes, t) {
                    world.add_flow(spec_to_flow(&f, 0, CcAlgo::Dctcp, 0));
                }
                t += interval.max(1);
            }
        }
        BgPattern::AllReduce { flow_bytes, load } => {
            // Each round moves ≤ 2·flow_bytes up and down per rank
            // (two trees); the busiest host link carries ~4 flows.
            let dbt = occamy_traffic::DoubleBinaryTree::new(n);
            let per_host = flow_bytes.saturating_mul(4);
            let interval = (per_host as f64 * 8.0 / (load * link_rate_bps as f64) * 1e12) as Ps;
            let bcast_off = flow_bytes
                .saturating_mul(8)
                .saturating_mul(1_000_000_000_000)
                / link_rate_bps;
            let mut t = 0;
            while t < duration_ps {
                for f in dbt.flows(*flow_bytes, t, bcast_off) {
                    world.add_flow(spec_to_flow(&f, 0, CcAlgo::Dctcp, 0));
                }
                t += interval.max(1);
            }
        }
        BgPattern::Permutation {
            flow_bytes,
            load,
            shift,
        } => {
            // One flow per host per round; normalize the shift so no
            // host maps onto itself.
            let shift = if shift % n == 0 { 1 } else { shift % n };
            let interval = (*flow_bytes as f64 * 8.0 / (load * link_rate_bps as f64) * 1e12) as Ps;
            let mut t = 0;
            while t < duration_ps {
                for f in occamy_traffic::permutation(n, shift, *flow_bytes, t) {
                    world.add_flow(spec_to_flow(&f, 0, CcAlgo::Dctcp, 0));
                }
                t += interval.max(1);
            }
        }
    }
    if qps_per_host > 0.0 {
        let warmup = duration_ps / 10;
        let qw = QueryWorkload::new(n, query_fanout, query_bytes, qps_per_host);
        for q in qw.generate(duration_ps - warmup, &mut rng) {
            for f in &q.responses {
                world.add_flow(spec_to_flow(f, 0, CcAlgo::Dctcp, warmup));
            }
        }
    }
}

// -------------------------------------------------------------------
// Tofino-style CBR testbed (paper §6.1, Figs. 3, 11, 12)
// -------------------------------------------------------------------

/// The P4/Tofino-style CBR micro-testbed of Figs. 3, 11 and 12: two
/// fast senders (100 G NICs), two 10 G receivers, one shared-buffer
/// switch — no transport, just constant-bit-rate sources, so queue
/// dynamics are exactly the paper's whiteboard model.
#[derive(Debug, Clone)]
pub struct CbrTestbed {
    /// Buffer-management scheme.
    pub bm: BmKind,
    /// DT/Occamy `α`.
    pub alpha: f64,
    /// Shared buffer in bytes (paper: 1.2 MB).
    pub buffer_bytes: u64,
    /// Sender NIC rate.
    pub fast_rate_bps: u64,
    /// Receiver link rate (the bottleneck).
    pub slow_rate_bps: u64,
    /// Simulation parameters.
    pub sim: SimConfig,
}

impl CbrTestbed {
    /// The paper's Tofino testbed constants: 100 G senders, 10 G
    /// receivers, 1.2 MB shared buffer.
    pub fn paper_p4(bm: BmKind, alpha: f64) -> Self {
        CbrTestbed {
            bm,
            alpha,
            buffer_bytes: 1_200_000,
            fast_rate_bps: 100_000_000_000,
            slow_rate_bps: 10_000_000_000,
            sim: SimConfig::default(),
        }
    }

    /// Builds the 4-host world: hosts 0/1 send, hosts 2/3 receive.
    pub fn build(&self) -> World {
        single_switch(SingleSwitchCfg {
            host_rates_bps: vec![
                self.fast_rate_bps,
                self.fast_rate_bps,
                self.slow_rate_bps,
                self.slow_rate_bps,
            ],
            prop_ps: US,
            buffer_bytes: self.buffer_bytes,
            classes: 1,
            bm: BmSpec::uniform(self.bm, self.alpha),
            sched: SchedKind::Fifo,
            sim: self.sim.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_defaults_match_paper() {
        let s = TestbedScenario::paper_dpdk(BmKind::Dt, 1.0);
        assert_eq!(s.n_hosts, 8);
        assert_eq!(s.buffer_bytes, 410_000);
        // 1% query load: qps × query_bytes × 8 / rate ≈ 0.01 per host.
        let load = s.qps_per_host * s.query_bytes as f64 * 8.0 / s.host_rate_bps as f64;
        assert!((load - 0.01).abs() < 1e-6, "query load {load}");
    }

    #[test]
    fn with_query_bytes_rescales_rate() {
        let s = TestbedScenario::paper_dpdk(BmKind::Dt, 1.0).with_query_bytes(82_000);
        let load = s.qps_per_host * 82_000.0 * 8.0 / 10e9;
        assert!((load - 0.01).abs() < 1e-6);
    }

    #[test]
    fn cbr_testbed_matches_paper_constants() {
        let tb = CbrTestbed::paper_p4(BmKind::Occamy, 4.0);
        assert_eq!(tb.buffer_bytes, 1_200_000);
        let w = tb.build();
        assert_eq!(w.hosts.len(), 4);
    }

    #[test]
    fn tiny_testbed_run_is_sane() {
        // A heavily shortened run must produce finished queries and a
        // deterministic result.
        let mut s = TestbedScenario::paper_dpdk(BmKind::Dt, 1.0).with_query_bytes(82_000);
        s.duration_ps = 30 * MS;
        s.drain_ps = 200 * MS;
        s.bg = Some(TestbedBg {
            load: 0.3,
            cc: CcAlgo::Dctcp,
            class: 0,
        });
        s.qps_per_host *= 20.0; // more queries in the short window
        let r1 = s.run();
        assert!(!r1.qct_ms.is_empty(), "no queries finished");
        let r2 = s.run();
        assert_eq!(r1.qct_ms.mean(), r2.qct_ms.mean(), "non-deterministic");
    }
}
