//! Paper **Fig. 15**: mitigation of the buffer-choking problem.
//!
//! Two *priority* queues per port (strict priority): high-priority query
//! flows (α = 8 for every scheme) and low-priority CUBIC background
//! (α = 1). Both classes congest the same receiver port: host 0 is the
//! client of every query (`TestbedScenario::query_client`) and the
//! receiver of every background flow (`TestbedScenario::bg_dst`; the
//! background flows host 0 would send are dropped). Ideally the LP
//! background should not affect HP QCT at all.
//!
//! Paper shape: with background, DT's average QCT inflates up to ~6.6×
//! (p99 up to ~60×); ABM helps but cannot fix it (up to ~5.7×); Occamy ≈
//! Pushout are essentially unaffected.

use crate::figs::scale_testbed;
use crate::report::fmt;
use crate::scenario::{
    distinct, find, CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario, Value,
};
use crate::scenarios::{TestbedBg, TestbedScenario};
use occamy_core::BmKind;
use occamy_sim::topology::SchedKind;
use occamy_sim::CcAlgo;
use occamy_stats::Table;

/// Registry entry for paper Fig. 15.
pub struct Fig15;

/// The testbed of one cell.
fn testbed(cell: &CellSpec) -> TestbedScenario {
    let kind = BmKind::from_name(cell.str("scheme")).expect("evaluated scheme");
    let bytes = 410_000 * cell.u64("query_pct_buffer") / 100;
    let mut sc = TestbedScenario::paper_dpdk(kind, 8.0).with_query_bytes(bytes);
    sc.classes = 2;
    // HP α = 8 for all schemes, LP α = 1 (paper §6.2).
    sc.alpha_per_class = vec![8.0, 1.0];
    sc.sched = SchedKind::StrictPriority;
    sc.query_class = 0;
    // The paper congests both priority queues at the SAME port: one
    // host receives every query and all the background (§6.2).
    sc.query_client = Some(0);
    sc.bg_dst = Some(0);
    sc.qps_per_host *= 4.0; // one client instead of eight: keep query count up
    sc.bg = (cell.str("bg") == "with").then_some(TestbedBg {
        load: 0.5,
        cc: CcAlgo::Cubic,
        class: 1,
    });
    sc.seed = cell.seed;
    scale_testbed(&mut sc, cell.scale);
    sc
}

impl Scenario for Fig15 {
    fn name(&self) -> &'static str {
        "fig15"
    }

    fn description(&self) -> &'static str {
        "buffer-choking mitigation: HP QCT with vs without LP background"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        let sizes: Vec<u64> = match scale {
            Scale::Full => vec![150, 170, 190, 210, 230, 250],
            Scale::Quick => vec![150, 250],
            Scale::Smoke => vec![200],
        };
        Grid::new("fig15", scale)
            .axis("query_pct_buffer", sizes)
            .axis("scheme", BmKind::EVALUATED.map(BmKind::name))
            .axis("bg", ["without", "with"])
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        testbed(cell).run().into_cell()
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        let schemes = BmKind::EVALUATED.map(BmKind::name);
        let mut cols: Vec<String> = vec!["query_pct_buffer".into()];
        for n in &schemes {
            cols.push(format!("{n}_no_bg"));
            cols.push(format!("{n}_with_bg"));
        }
        let colrefs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
        let mut avg = Table::new(
            "Fig 15a: average QCT (ms), w/o vs w/ LP background",
            &colrefs,
        );
        let mut p99 = Table::new("Fig 15b: p99 QCT (ms), w/o vs w/ LP background", &colrefs);

        let mut worst_dt = 0.0f64;
        let mut worst_occamy = 0.0f64;
        for pct in distinct(outcomes, "query_pct_buffer") {
            let mut row_avg = vec![pct.to_string()];
            let mut row_p99 = vec![pct.to_string()];
            for name in &schemes {
                let get = |bg: &str, metric: &str| {
                    find(
                        outcomes,
                        &[
                            ("query_pct_buffer", &pct),
                            ("scheme", &Value::from(*name)),
                            ("bg", &Value::from(bg)),
                        ],
                    )
                    .and_then(|o| o.result.get(metric))
                };
                if let (Some(a), Some(b)) =
                    (get("without", "qct_avg_ms"), get("with", "qct_avg_ms"))
                {
                    let ratio = b / a;
                    if *name == "DT" {
                        worst_dt = worst_dt.max(ratio);
                    }
                    if *name == "Occamy" {
                        worst_occamy = worst_occamy.max(ratio);
                    }
                }
                row_avg.push(fmt(get("without", "qct_avg_ms")));
                row_avg.push(fmt(get("with", "qct_avg_ms")));
                row_p99.push(fmt(get("without", "qct_p99_ms")));
                row_p99.push(fmt(get("with", "qct_p99_ms")));
            }
            avg.row(row_avg);
            p99.row(row_p99);
        }
        Report::new()
            .table_csv(avg, "fig15a.csv")
            .table_csv(p99, "fig15b.csv")
            .note(format!(
                "Shape check: DT degrades {worst_dt:.1}x with background (paper: up \
                 to ~6.6x avg); Occamy degrades {worst_occamy:.1}x (paper: ~none)."
            ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_flow_goes_to_the_congested_host() {
        for cell in Fig15.grid(Scale::Smoke) {
            let sc = testbed(&cell);
            let mut world = sc.build();
            sc.inject(&mut world);
            let flows = &world.flows.hot;
            assert!(flows.iter().all(|f| f.dst == 0), "{}", cell.label());
            assert!(flows.iter().all(|f| f.src != 0), "{}", cell.label());
            let background = world.flows.cold.iter().filter(|c| !c.is_query).count();
            match cell.str("bg") {
                "with" => assert!(background > 0, "{}", cell.label()),
                _ => assert_eq!(background, 0, "{}", cell.label()),
            }
            assert!(
                world.flows.cold.iter().any(|c| c.is_query),
                "{}",
                cell.label()
            );
        }
    }
}
