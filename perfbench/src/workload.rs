//! The benchmark's workloads, built from the public scenario API so that
//! set-up, the event loop and result extraction can be timed apart.

use occamy_bench::fabric::{FabricScenario, FabricTopo};
use occamy_bench::report::aggregate;
use occamy_bench::scenarios::{inject_fabric_workload, BgPattern};
use occamy_core::BmKind;
use occamy_sim::{DropCounters, Ps, SimConfig, World, MS, SEC};
use std::time::Instant;

/// One named traffic mix on one fabric under one buffer manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scaled §6.4 leaf-spine, web-search + incast, Occamy α=8.
    LsWebsearchOccamy,
    /// The same traffic under DT α=1: expulsion never fires.
    LsWebsearchDt,
    /// k=8 fat-tree at 100 G, permutation + 32-way incast, Occamy α=8.
    Ft128Permutation,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LsWebsearchOccamy,
        Workload::LsWebsearchDt,
        Workload::Ft128Permutation,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LsWebsearchOccamy => "ls_websearch_occamy",
            Workload::LsWebsearchDt => "ls_websearch_dt",
            Workload::Ft128Permutation => "ft128_permutation",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cells per run. One leaf-spine cell's QCT tail swings with whether
    /// a few responses hit the 5 ms minimum RTO, so the modelled metrics
    /// pool the queries of independent cells: 9 leaf-spine cells give
    /// ~1,000 queries, enough for a p99 with ten beyond it. A fat-tree
    /// cell finishes ~35 queries, so 5 cells keep the run above 100.
    fn cells_per_run(self) -> u64 {
        match self {
            Workload::LsWebsearchOccamy | Workload::LsWebsearchDt => 9,
            Workload::Ft128Permutation => 5,
        }
    }

    /// The scenario of one cell.
    pub fn scenario(self, cell_seed: u64) -> FabricScenario {
        let mut sc = match self {
            Workload::LsWebsearchOccamy | Workload::LsWebsearchDt => {
                let (bm, alpha) = if self == Workload::LsWebsearchOccamy {
                    (BmKind::Occamy, 8.0)
                } else {
                    (BmKind::Dt, 1.0)
                };
                let topo = FabricTopo::LeafSpine {
                    spines: 4,
                    leaves: 4,
                    hosts_per_leaf: 8,
                };
                let mut f = FabricScenario::paper_scaled(topo, bm, alpha);
                f.duration_ps = 10 * MS;
                f
            }
            Workload::Ft128Permutation => {
                let mut f =
                    FabricScenario::paper_scaled(FabricTopo::FatTree { k: 8 }, BmKind::Occamy, 8.0);
                f.host_rate_bps = 100_000_000_000;
                f.fabric_rate_bps = 100_000_000_000;
                f.buffer_per_8ports = 4_000_000;
                f.sim = SimConfig::large_scale();
                f.query_bytes = f.buffer_per_8ports * 40 / 100;
                f.query_fanout = 32;
                f.qps_per_host = 200.0;
                f.bg = BgPattern::Permutation {
                    flow_bytes: 1_000_000,
                    load: 0.6,
                    shift: 1,
                };
                f.duration_ps = 3 * MS / 2;
                f
            }
        };
        // Far past the last flow: under DT a few responses chain RTO
        // backoffs beyond the default 100 ms drain, and `Cell::drive`
        // stops slicing once every flow is done.
        sc.drain_ps = SEC;
        sc.seed = cell_seed;
        sc
    }

    /// The QCT-slowdown percentile reported as `qct_slowdown_tail`: the
    /// highest whole percentile with at least ten of a run's queries
    /// beyond it (~1,000 queries on the leaf-spine, ~170 on the
    /// fat-tree). p90 would sit on the leaf-spine's RTO knee.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::LsWebsearchOccamy | Workload::LsWebsearchDt => 99.0,
            Workload::Ft128Permutation => 90.0,
        }
    }

    /// The cells of one run; the run seed fixes every cell's traffic.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        (0..self.cells_per_run())
            .map(|i| Cell {
                sc: self.scenario(seed.wrapping_mul(1_000).wrapping_add(i)),
            })
            .collect()
    }
}

/// Sim-time slices per injection window (see [`Cell::drive`]).
pub const WINDOW_SLICES: u64 = 20;

/// One simulation: a scenario built, injected, run and aggregated.
pub struct Cell {
    /// The scenario the cell runs.
    pub sc: FabricScenario,
}

/// Clock readings around one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Before the `topology` build.
    pub start: Instant,
    /// After the build, before `traffic` injection.
    pub built: Instant,
    /// After injection.
    pub injected: Instant,
}

impl SetupTimes {
    /// Build seconds.
    pub fn build_s(&self) -> f64 {
        (self.built - self.start).as_secs_f64()
    }

    /// Injection seconds.
    pub fn inject_s(&self) -> f64 {
        (self.injected - self.built).as_secs_f64()
    }

    /// Build plus injection seconds.
    pub fn total_s(&self) -> f64 {
        (self.injected - self.start).as_secs_f64()
    }
}

/// What one finished cell produced.
#[derive(Debug, Clone)]
pub struct CellOutput {
    /// Query completion-time slowdowns, one per finished query.
    pub qct_slowdown: Vec<f64>,
    /// Background flow-completion-time slowdowns.
    pub bg_slowdown: Vec<f64>,
    /// Flows injected.
    pub flows: usize,
    /// Flows unfinished at the horizon.
    pub unfinished: usize,
    /// Events the engine executed.
    pub events: u64,
    /// Buffer-manager drop counters.
    pub drops: DropCounters,
    /// Transport retransmissions.
    pub retransmissions: u64,
    /// Full retransmission timeouts.
    pub rto_fires: u64,
    /// FNV-1a digest of the simulated outputs: event count, drop
    /// counters, transport counters and every flow record.
    pub digest: u64,
}

/// Host seconds of one untraced cell, and its output.
pub struct CellRun {
    /// Set-up (build + inject).
    pub setup: SetupTimes,
    /// Event-loop seconds of each sim-time slice ([`Cell::drive`]).
    pub slice_s: Vec<f64>,
    /// Result extraction (`flow_records` + `aggregate` + `with_resilience`).
    pub extract_s: f64,
    /// The simulated outputs.
    pub out: CellOutput,
}

impl CellRun {
    /// Event-loop seconds.
    pub fn run_s(&self) -> f64 {
        self.slice_s.iter().sum()
    }
}

impl Cell {
    /// Simulated horizon: injection window plus drain.
    pub fn limit_ps(&self) -> Ps {
        self.sc.duration_ps + self.sc.drain_ps
    }

    /// Runs a set-up world to the horizon in sim-time slices, calling
    /// `slice(world, end)` to advance it to each slice's end: twentieths
    /// of the injection window, then on through the drain until every
    /// flow is done, then one last slice to the horizon. Slicing leaves
    /// exactly the state one `run_to_completion` would, and the slices
    /// are the same on every repetition of the cell.
    pub fn drive(&self, world: &mut World, mut slice: impl FnMut(&mut World, Ps)) {
        let step = (self.sc.duration_ps / WINDOW_SLICES).max(1);
        let limit = self.limit_ps();
        let mut end = step;
        while end < limit && (end <= self.sc.duration_ps || !world.all_flows_done()) {
            slice(world, end);
            end += step;
        }
        slice(world, limit);
    }

    /// Builds the topology and injects the traffic, timing each.
    pub fn setup(&self, threads: usize) -> (World, SetupTimes) {
        let start = Instant::now();
        let mut world = self.sc.build();
        let built = Instant::now();
        inject_fabric_workload(
            &mut world,
            self.sc.n_hosts(),
            self.sc.host_rate_bps,
            &self.sc.bg,
            self.sc.query_bytes,
            self.sc.query_fanout,
            self.sc.qps_per_host,
            self.sc.duration_ps,
            self.sc.seed,
        );
        let injected = Instant::now();
        world.cfg.threads = threads;
        let times = SetupTimes {
            start,
            built,
            injected,
        };
        (world, times)
    }

    /// Aggregates a finished world into the cell's output, and returns
    /// the seconds spent in the `report` layer (`flow_records`,
    /// `aggregate` and `with_resilience`; the digest is not included).
    pub fn extract(&self, world: &World) -> (CellOutput, f64) {
        let start = Instant::now();
        let flows = world.flow_records();
        let drops = world.metrics.drops;
        let events = world.metrics.events_processed;
        let result =
            aggregate(&flows, self.sc.ideal(), drops.total_losses(), events).with_resilience(world);
        let report_s = start.elapsed().as_secs_f64();
        let mut digest = Fnv::new();
        digest.add(events);
        for v in [
            drops.threshold_drops,
            drops.full_drops,
            drops.head_drops,
            drops.pushout_evictions,
            result.resilience.retransmissions,
            result.resilience.rto_fires,
        ] {
            digest.add(v);
        }
        for r in flows.records() {
            digest.add(r.id);
            digest.add(r.bytes);
            digest.add(r.start_ps);
            digest.add(r.end_ps.unwrap_or(u64::MAX));
        }
        let out = CellOutput {
            qct_slowdown: result.qct_slowdown.samples().to_vec(),
            bg_slowdown: result.bg_slowdown.samples().to_vec(),
            flows: flows.records().len(),
            unfinished: result.unfinished,
            events,
            drops,
            retransmissions: result.resilience.retransmissions,
            rto_fires: result.resilience.rto_fires,
            digest: digest.0,
        };
        (out, report_s)
    }

    /// Serial set-up, event loop (slice by slice) and extraction, each
    /// timed.
    pub fn run(&self) -> CellRun {
        let (mut world, setup) = self.setup(1);
        let mut slice_s = Vec::new();
        self.drive(&mut world, |world, end| {
            let start = Instant::now();
            world.run_until(end);
            slice_s.push(start.elapsed().as_secs_f64());
        });
        let (out, extract_s) = self.extract(&world);
        CellRun {
            setup,
            slice_s,
            extract_s,
            out,
        }
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("ls_websearch"), None);
    }

    #[test]
    fn twins_share_traffic_and_differ_in_scheme() {
        let a = Workload::LsWebsearchOccamy.scenario(7);
        let b = Workload::LsWebsearchDt.scenario(7);
        assert_eq!((a.bm, b.bm), (BmKind::Occamy, BmKind::Dt));
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.duration_ps, b.duration_ps);
        assert_eq!(a.qps_per_host, b.qps_per_host);
    }

    #[test]
    fn cells_derive_distinct_seeds_from_the_run_seed() {
        let seeds: Vec<u64> = Workload::LsWebsearchOccamy
            .cells(3)
            .iter()
            .map(|c| c.sc.seed)
            .collect();
        assert_eq!(seeds.len(), 9);
        assert_eq!(seeds[0], 3_000);
        let mut dedup = seeds.clone();
        dedup.dedup();
        assert_eq!(dedup, seeds);
    }

    #[test]
    fn slicing_reproduces_run_to_completion() {
        let mut sc = Workload::LsWebsearchDt.scenario(5);
        sc.duration_ps = MS;
        let cell = Cell { sc };
        let (mut whole, _) = cell.setup(1);
        whole.run_to_completion(cell.limit_ps());
        let (mut sliced, _) = cell.setup(1);
        let mut ends = Vec::new();
        cell.drive(&mut sliced, |w, end| {
            ends.push(end);
            w.run_until(end);
        });
        assert_eq!(ends[0], MS / WINDOW_SLICES);
        assert_eq!(ends[WINDOW_SLICES as usize - 1], MS);
        assert_eq!(*ends.last().unwrap(), cell.limit_ps());
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
        assert!(ends.len() < 1_000, "slicing stops once every flow is done");
        assert_eq!(
            cell.extract(&whole).0.digest,
            cell.extract(&sliced).0.digest
        );
    }

    #[test]
    fn digest_depends_on_every_word() {
        let mut a = Fnv::new();
        a.add(1);
        a.add(2);
        let mut b = Fnv::new();
        b.add(2);
        b.add(1);
        assert_ne!(a.0, b.0);
    }
}
