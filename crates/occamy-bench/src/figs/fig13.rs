//! Paper **Fig. 13**: end-to-end burst absorption on the DPDK
//! software-switch testbed.
//!
//! 8 hosts × 10 Gbps, 410 KB shared buffer, DCTCP, Poisson incast
//! queries at 1% load over a 50% web-search background. Four panels per
//! query size (as % of buffer): average QCT, 99th-percentile QCT,
//! average background FCT, 99th-percentile small-background FCT.
//!
//! Paper shape: Occamy ≈ Pushout < ABM < DT on QCT (up to ~55% better
//! average QCT than DT); background FCT comparable across schemes.

use crate::figs::scale_testbed;
use crate::scenario::{
    matrix_table, CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario,
};
use crate::scenarios::TestbedScenario;
use occamy_core::BmKind;

/// Registry entry for paper Fig. 13.
pub struct Fig13;

impl Scenario for Fig13 {
    fn name(&self) -> &'static str {
        "fig13"
    }

    fn description(&self) -> &'static str {
        "end-to-end burst absorption on the DPDK testbed: QCT and FCT vs query size"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        let sizes: Vec<u64> = match scale {
            Scale::Full => vec![20, 40, 60, 80, 100, 120, 140],
            Scale::Quick => vec![40, 80, 120],
            Scale::Smoke => vec![80],
        };
        Grid::new("fig13", scale)
            .axis("query_pct_buffer", sizes)
            .axis("scheme", BmKind::EVALUATED.map(BmKind::name))
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        let kind = BmKind::from_name(cell.str("scheme")).expect("evaluated scheme");
        let alpha = kind.paper_alpha();
        let bytes = 410_000 * cell.u64("query_pct_buffer") / 100;
        let mut sc = TestbedScenario::paper_dpdk(kind, alpha).with_query_bytes(bytes);
        sc.seed = cell.seed;
        scale_testbed(&mut sc, cell.scale);
        sc.run().into_cell()
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        let mut report = Report::new();
        for (title, metric, csv) in [
            ("Fig 13a: average QCT (ms)", "qct_avg_ms", "fig13a.csv"),
            ("Fig 13b: p99 QCT (ms)", "qct_p99_ms", "fig13b.csv"),
            (
                "Fig 13c: overall background average FCT (ms)",
                "bg_fct_avg_ms",
                "fig13c.csv",
            ),
            (
                "Fig 13d: small background p99 FCT (ms)",
                "small_bg_fct_p99_ms",
                "fig13d.csv",
            ),
        ] {
            report = report.table_csv(
                matrix_table(title, outcomes, "query_pct_buffer", "scheme", metric),
                csv,
            );
        }
        report.note(format!(
            "Shape check: columns ordered {:?}; expect Occamy ≈ Pushout \
             to beat ABM and DT on (a)/(b), with (c) roughly flat across \
             schemes.",
            BmKind::EVALUATED.map(BmKind::name)
        ))
    }
}
