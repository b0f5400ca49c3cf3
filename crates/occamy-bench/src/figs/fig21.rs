//! Paper **Fig. 21**: effectiveness of round-robin drop.
//!
//! Occamy deliberately expels from over-allocated queues in round-robin
//! order instead of tracking the longest queue (which needs a Maximum
//! Finder, Fig. 4). This ablation compares Occamy against its
//! longest-queue-drop variant on the leaf-spine scenario at 40%
//! background load.
//!
//! Paper shape: the difference is small — within ~15% on average QCT and
//! within ~8.8% on average FCT — justifying the cheap RR arbiter.

use crate::fabric::{scale_fabric, FabricScenario};
use crate::scenario::{
    distinct, find, CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario, Value,
};
use crate::scenarios::BgPattern;
use occamy_core::BmKind;
use occamy_stats::Table;

/// Registry entry for paper Fig. 21.
pub struct Fig21;

impl Scenario for Fig21 {
    fn name(&self) -> &'static str {
        "fig21"
    }

    fn description(&self) -> &'static str {
        "ablation: round-robin vs longest-queue victim selection"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        let sizes: Vec<u64> = match scale {
            Scale::Full => vec![20, 60, 100],
            Scale::Quick => vec![40, 100],
            Scale::Smoke => vec![40],
        };
        Grid::new("fig21", scale)
            .axis("query_pct_buffer", sizes)
            .axis("variant", ["Occamy", "OccamyLongest"])
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        let kind = BmKind::from_name(cell.str("variant")).expect("known variant");
        let mut sc = FabricScenario::paper_leaf_spine(kind, 8.0);
        sc.bg = BgPattern::WebSearch { load: 0.4 };
        sc.query_bytes = sc.buffer_per_8ports * cell.u64("query_pct_buffer") / 100;
        sc.seed = cell.seed;
        scale_fabric(&mut sc, cell.scale);
        sc.run().into_cell()
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        let cols = &[
            "query_pct_buffer",
            "avg_qct_RR",
            "avg_qct_Longest",
            "p99_qct_RR",
            "p99_qct_Longest",
            "avg_fct_RR",
            "avg_fct_Longest",
            "p99_small_RR",
            "p99_small_Longest",
        ];
        let mut t = Table::new(
            "Fig 21: round-robin vs longest-queue drop (slowdowns)",
            cols,
        );
        let mut max_qct_gap = 0.0f64;
        let mut max_fct_gap = 0.0f64;
        for pct in distinct(outcomes, "query_pct_buffer") {
            let get = |variant: &str, metric: &str| {
                find(
                    outcomes,
                    &[
                        ("query_pct_buffer", &pct),
                        ("variant", &Value::from(variant)),
                    ],
                )
                .and_then(|o| o.result.get(metric))
            };
            let mut cells = vec![pct.to_string()];
            for metric in [
                "qct_slowdown_avg",
                "qct_slowdown_p99",
                "bg_slowdown_avg",
                "small_bg_slowdown_p99",
            ] {
                let rr = get("Occamy", metric);
                let longest = get("OccamyLongest", metric);
                if let (Some(a), Some(b)) = (rr, longest) {
                    let gap = (a - b).abs() / b.max(1e-9);
                    if metric == "qct_slowdown_avg" {
                        max_qct_gap = max_qct_gap.max(gap);
                    }
                    if metric == "bg_slowdown_avg" {
                        max_fct_gap = max_fct_gap.max(gap);
                    }
                }
                cells.push(crate::report::fmt(rr));
                cells.push(crate::report::fmt(longest));
            }
            t.row(cells);
        }
        Report::new().table_csv(t, "fig21.csv").note(format!(
            "Shape check: max avg-QCT gap {:.1}% (paper: within ~15%), max \
             avg-FCT gap {:.1}% (paper: within ~8.8%).",
            max_qct_gap * 100.0,
            max_fct_gap * 100.0
        ))
    }
}
