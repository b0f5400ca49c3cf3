//! **perf_transport** — the transport-bound registry scenario.
//!
//! Not a paper figure: two cells on the paper-faithful k=8 fat-tree at
//! 100 G (`specs/paper_fabric_128h.toml` scale) exercise the two
//! workload shapes that bound the transport hot path:
//!
//! - **incast**: 32-way query responses only — synchronized window
//!   bursts, ECN-driven cwnd cuts, dup-ACK recoveries and a retransmission
//!   timer armed per response flow (thousands pending at once);
//! - **permutation**: every host streams 1 MB flows to a shifted peer at
//!   60% load under the same incast queries — the ACK-clock steady state
//!   where `on_ack`/`next_segment` dominate.
//!
//! The runner records `events` per cell and events/sec in
//! `BENCH_perf_transport.json` / `results/perf_transport_perf.csv`, as
//! for every scenario. One run's events/sec is a log line: it moves by
//! tens of percent between identical runs on a shared host, so measured
//! speed figures come from perfbench, whose `ft128_permutation` workload
//! runs the permutation cell's fabric and traffic. CI runs the quick
//! scale serially on every push, and the golden snapshot pins the
//! headline (non-perf) metrics and event counts like any other
//! scenario's — a transport refactor must not move results.

use crate::fabric::{FabricScenario, FabricTopo};
use crate::scenario::{CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario};
use crate::scenarios::BgPattern;
use occamy_core::BmKind;
use occamy_sim::{SimConfig, MS};
use occamy_stats::Table;

/// Registry entry for the transport hot-path baseline.
pub struct PerfTransport;

/// Builds one cell's fabric: paper-scale k=8 at full/quick, k=4 at
/// smoke so the registry smoke test stays seconds-scale.
fn scenario_for(cell: &CellSpec) -> FabricScenario {
    let k = if cell.scale == Scale::Smoke { 4 } else { 8 };
    let mut f = FabricScenario::paper_scaled(FabricTopo::FatTree { k }, BmKind::Occamy, 8.0);
    // The paper fabric: 100 G hosts and fabric links, 4 MB per 8 ports,
    // ECN K = 0.72 BDP at 100 G / 80 µs, min RTO 5 ms.
    f.host_rate_bps = 100_000_000_000;
    f.fabric_rate_bps = 100_000_000_000;
    f.buffer_per_8ports = 4_000_000;
    f.sim = SimConfig::large_scale();
    f.query_bytes = f.buffer_per_8ports * 40 / 100;
    f.query_fanout = 32;
    match cell.str("pattern") {
        "incast" => {
            f.bg = BgPattern::None;
            f.qps_per_host = 400.0;
        }
        "permutation" => {
            f.bg = BgPattern::Permutation {
                flow_bytes: 1_000_000,
                load: 0.6,
                shift: 1,
            };
            f.qps_per_host = 200.0;
        }
        other => panic!("unknown pattern '{other}'"),
    }
    let (duration, drain) = match cell.scale {
        Scale::Full => (15 * MS, 100 * MS),
        Scale::Quick => (4 * MS, 40 * MS),
        Scale::Smoke => (2 * MS, 20 * MS),
    };
    f.duration_ps = duration;
    f.drain_ps = drain;
    f.seed = cell.seed;
    f
}

impl Scenario for PerfTransport {
    fn name(&self) -> &'static str {
        "perf_transport"
    }

    fn description(&self) -> &'static str {
        "transport hot-path baseline: incast + permutation on the k=8 fat-tree at 100G"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        Grid::new("perf_transport", scale)
            .axis("pattern", ["incast", "permutation"])
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        scenario_for(cell).run().into_cell()
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        let mut t = Table::new(
            "perf_transport: transport-bound workloads (k=8 fat-tree, 100G, Occamy α=8)",
            &[
                "pattern",
                "queries",
                "qct_avg_ms",
                "qct_p99_ms",
                "bg_slowdown_avg",
                "losses",
                "events",
            ],
        );
        for o in outcomes {
            t.row(vec![
                o.spec.str("pattern").to_string(),
                o.result.fmt("queries"),
                o.result.fmt("qct_avg_ms"),
                o.result.fmt("qct_p99_ms"),
                o.result.fmt("bg_slowdown_avg"),
                o.result.fmt("losses"),
                o.result.fmt("events"),
            ]);
        }
        Report::new().table_csv(t, "perf_transport.csv").note(
            "Not a paper figure: the transport-bound workloads, run end to end. \
             Their events/sec (BENCH_perf_transport.json, results/perf_transport_perf.csv) \
             is a log line, not a measurement; measured speed figures come from \
             perfbench (README §Performance).",
        )
    }
}
