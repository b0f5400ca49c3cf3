//! Paper **Fig. 17**: large-scale leaf-spine simulation with web-search
//! background traffic.
//!
//! Query (incast) traffic over a 90%-loaded web-search background; four
//! panels vs query size (% of a buffer partition): average / p99 QCT
//! slowdown, overall background average FCT slowdown, small-background
//! p99 FCT slowdown.
//!
//! Paper shape: Occamy reduces average QCT slowdown by up to ~44% vs DT
//! and ~36% vs ABM, tracks Pushout closely, and also helps background
//! flows (up to ~20% on average FCT, ~32% on small-flow p99).

use crate::fabric::{scale_fabric, FabricScenario};
use crate::scenario::{
    find, matrix_table, CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario, Value,
};
use occamy_core::BmKind;

/// Registry entry for paper Fig. 17.
pub struct Fig17;

impl Scenario for Fig17 {
    fn name(&self) -> &'static str {
        "fig17"
    }

    fn description(&self) -> &'static str {
        "leaf-spine fabric with web-search background: slowdowns vs query size"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        let sizes: Vec<u64> = match scale {
            Scale::Full => vec![20, 60, 100],
            Scale::Quick => vec![40, 100],
            Scale::Smoke => vec![40],
        };
        Grid::new("fig17", scale)
            .axis("query_pct_buffer", sizes)
            .axis("scheme", BmKind::EVALUATED.map(BmKind::name))
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        let kind = BmKind::from_name(cell.str("scheme")).expect("evaluated scheme");
        let alpha = kind.paper_alpha();
        let mut sc = FabricScenario::paper_leaf_spine(kind, alpha);
        sc.query_bytes = sc.buffer_per_8ports * cell.u64("query_pct_buffer") / 100;
        sc.seed = cell.seed;
        scale_fabric(&mut sc, cell.scale);
        sc.run().into_cell()
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        let mut report = Report::new();
        for (title, metric, csv) in [
            (
                "Fig 17a: average QCT slowdown",
                "qct_slowdown_avg",
                "fig17a.csv",
            ),
            (
                "Fig 17b: p99 QCT slowdown",
                "qct_slowdown_p99",
                "fig17b.csv",
            ),
            (
                "Fig 17c: overall bg average FCT slowdown",
                "bg_slowdown_avg",
                "fig17c.csv",
            ),
            (
                "Fig 17d: small bg p99 FCT slowdown",
                "small_bg_slowdown_p99",
                "fig17d.csv",
            ),
        ] {
            report = report.table_csv(
                matrix_table(title, outcomes, "query_pct_buffer", "scheme", metric),
                csv,
            );
        }
        // Anchor the shape check to the middle of whatever sizes this
        // grid actually ran (40% only exists in the Quick sweep).
        let sizes = crate::scenario::distinct(outcomes, "query_pct_buffer");
        let mid = &sizes[sizes.len() / 2];
        let at = |scheme: &str| {
            find(
                outcomes,
                &[("query_pct_buffer", mid), ("scheme", &Value::from(scheme))],
            )
            .and_then(|o| o.result.get("qct_slowdown_avg"))
        };
        if let (Some(d), Some(o)) = (at("DT"), at("Occamy")) {
            report = report.note(format!(
                "Shape check at {mid}% query size: Occamy cuts DT's average QCT \
                 slowdown by {:.0}% (paper: up to ~44%).",
                (1.0 - o / d) * 100.0
            ));
        }
        report
    }
}
