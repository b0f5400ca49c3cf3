//! Paper **Fig. 20**: performance with higher query-traffic rates.
//!
//! The query load is swept from 10% to 80% (via the query rate, with
//! query size fixed at 80% of a buffer partition and light 10%
//! background).
//!
//! Paper shape: Occamy improves average QCT by up to ~38% vs DT and ~34%
//! vs ABM; the improvement is *largest at low query load* (DT's
//! inefficiency is most pronounced with few active ports); background
//! FCT is barely affected by the BM choice.

use crate::fabric::{scale_fabric, FabricScenario};
use crate::scenario::{
    matrix_table, CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario,
};
use crate::scenarios::BgPattern;
use occamy_core::BmKind;

/// Registry entry for paper Fig. 20.
pub struct Fig20;

impl Scenario for Fig20 {
    fn name(&self) -> &'static str {
        "fig20"
    }

    fn description(&self) -> &'static str {
        "query-rate sweep on the leaf-spine fabric: slowdowns vs query load"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        let loads: Vec<u64> = match scale {
            Scale::Full => vec![10, 30, 50, 80],
            Scale::Quick => vec![20, 60],
            Scale::Smoke => vec![30],
        };
        Grid::new("fig20", scale)
            .axis("query_load_pct", loads)
            .axis("scheme", BmKind::EVALUATED.map(BmKind::name))
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        let kind = BmKind::from_name(cell.str("scheme")).expect("evaluated scheme");
        let alpha = kind.paper_alpha();
        let mut sc = FabricScenario::paper_leaf_spine(kind, alpha);
        sc.bg = BgPattern::WebSearch { load: 0.1 };
        sc.query_bytes = sc.buffer_per_8ports * 80 / 100;
        // Load = qps × size × oversubscription / link rate (paper's
        // footnote 5); our fabric has the same 2:1 oversubscription.
        let oversub = 2.0;
        sc.qps_per_host = cell.u64("query_load_pct") as f64 / 100.0 * sc.host_rate_bps as f64
            / (8.0 * sc.query_bytes as f64 * oversub);
        sc.seed = cell.seed;
        // Smoke's query-rate boost is skipped here: the sweep already
        // sets the rate explicitly.
        let qps = sc.qps_per_host;
        scale_fabric(&mut sc, cell.scale);
        sc.qps_per_host = qps;
        sc.run().into_cell()
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        Report::new()
            .table_csv(
                matrix_table(
                    "Fig 20a: average QCT slowdown",
                    outcomes,
                    "query_load_pct",
                    "scheme",
                    "qct_slowdown_avg",
                ),
                "fig20a.csv",
            )
            .table_csv(
                matrix_table(
                    "Fig 20b: overall bg average FCT slowdown",
                    outcomes,
                    "query_load_pct",
                    "scheme",
                    "bg_slowdown_avg",
                ),
                "fig20b.csv",
            )
            .note(format!(
                "Shape check: columns {:?}; Occamy/Pushout lead most at low \
                 loads; panel (b) roughly flat across schemes.",
                BmKind::EVALUATED.map(BmKind::name)
            ))
    }
}
