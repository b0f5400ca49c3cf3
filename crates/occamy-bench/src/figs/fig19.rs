//! Paper **Fig. 19**: performance with all-reduce background traffic
//! (double binary tree, the prevailing collective algorithm).
//!
//! Background: repeated double-binary-tree all-reduce rounds (reduce
//! child→parent, broadcast parent→child, both trees) with identical flow
//! sizes swept 16 KB – 2 MB; incast queries on top.
//!
//! Paper shape: Occamy improves average QCT by up to ~48% and p99
//! background FCT by up to ~73% versus DT.

use crate::fabric::{scale_fabric, FabricScenario};
use crate::scenario::{
    matrix_table, CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario,
};
use crate::scenarios::BgPattern;
use occamy_core::BmKind;

/// Registry entry for paper Fig. 19.
pub struct Fig19;

impl Scenario for Fig19 {
    fn name(&self) -> &'static str {
        "fig19"
    }

    fn description(&self) -> &'static str {
        "all-reduce background (double binary tree): slowdowns vs collective flow size"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        let sizes: Vec<u64> = match scale {
            Scale::Full => vec![32_000, 128_000, 512_000, 2_000_000],
            Scale::Quick => vec![64_000, 512_000],
            Scale::Smoke => vec![128_000],
        };
        Grid::new("fig19", scale)
            .axis("flow_size", sizes)
            .axis("scheme", BmKind::EVALUATED.map(BmKind::name))
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        let kind = BmKind::from_name(cell.str("scheme")).expect("evaluated scheme");
        let alpha = kind.paper_alpha();
        let mut sc = FabricScenario::paper_leaf_spine(kind, alpha);
        sc.bg = BgPattern::AllReduce {
            flow_bytes: cell.u64("flow_size"),
            load: 0.4,
        };
        sc.query_bytes = sc.buffer_per_8ports * 40 / 100;
        sc.seed = cell.seed;
        scale_fabric(&mut sc, cell.scale);
        sc.run().into_cell()
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        Report::new()
            .table_csv(
                matrix_table(
                    "Fig 19a: average QCT slowdown",
                    outcomes,
                    "flow_size",
                    "scheme",
                    "qct_slowdown_avg",
                ),
                "fig19a.csv",
            )
            .table_csv(
                matrix_table(
                    "Fig 19b: overall bg p99 FCT slowdown",
                    outcomes,
                    "flow_size",
                    "scheme",
                    "bg_slowdown_p99",
                ),
                "fig19b.csv",
            )
            .note(format!(
                "Shape check: columns {:?}; Occamy ≈ Pushout should lead, \
                 with the gap to DT largest among the four schemes.",
                BmKind::EVALUATED.map(BmKind::name)
            ))
    }
}
