//! Paper **Fig. 22**: performance under heavy (120%) background load.
//!
//! Occamy's expulsion needs redundant memory bandwidth; this experiment
//! overloads the fabric to probe the §4.5 concern. The paper's answer:
//! congestion is unbalanced in practice (incast congests down-links while
//! up-links idle), so spare bandwidth remains and Occamy still wins.

use crate::fabric::{scale_fabric, FabricScenario};
use crate::scenario::{
    matrix_table, CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario,
};
use crate::scenarios::BgPattern;
use occamy_core::BmKind;

/// Registry entry for paper Fig. 22.
pub struct Fig22;

impl Scenario for Fig22 {
    fn name(&self) -> &'static str {
        "fig22"
    }

    fn description(&self) -> &'static str {
        "heavy 120% background load: does expulsion survive bandwidth pressure?"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        let sizes: Vec<u64> = match scale {
            Scale::Full => vec![20, 60, 100],
            Scale::Quick => vec![40, 100],
            Scale::Smoke => vec![40],
        };
        Grid::new("fig22", scale)
            .axis("query_pct_buffer", sizes)
            .axis("scheme", BmKind::EVALUATED.map(BmKind::name))
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        let kind = BmKind::from_name(cell.str("scheme")).expect("evaluated scheme");
        let alpha = kind.paper_alpha();
        let mut sc = FabricScenario::paper_leaf_spine(kind, alpha);
        sc.bg = BgPattern::WebSearch { load: 1.2 };
        sc.query_bytes = sc.buffer_per_8ports * cell.u64("query_pct_buffer") / 100;
        sc.seed = cell.seed;
        scale_fabric(&mut sc, cell.scale);
        sc.run().into_cell()
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        let mut report = Report::new();
        for (title, metric, csv) in [
            (
                "Fig 22a: average QCT slowdown (120% load)",
                "qct_slowdown_avg",
                "fig22a.csv",
            ),
            (
                "Fig 22b: p99 QCT slowdown (120% load)",
                "qct_slowdown_p99",
                "fig22b.csv",
            ),
            (
                "Fig 22c: overall bg average FCT slowdown",
                "bg_slowdown_avg",
                "fig22c.csv",
            ),
            (
                "Fig 22d: small bg p99 FCT slowdown",
                "small_bg_slowdown_p99",
                "fig22d.csv",
            ),
        ] {
            report = report.table_csv(
                matrix_table(title, outcomes, "query_pct_buffer", "scheme", metric),
                csv,
            );
        }
        report.note(format!(
            "Shape check: columns {:?}; Occamy must keep an edge over \
             DT/ABM even with the fabric overloaded (paper §6.4, Fig. 22).",
            BmKind::EVALUATED.map(BmKind::name)
        ))
    }
}
