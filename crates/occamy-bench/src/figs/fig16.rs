//! Paper **Fig. 16**: the impact of the `α` parameter on DT and Occamy
//! (the §6.3 parameter study).
//!
//! Same two-queue DRR setup as Fig. 14 (query DCTCP + background CUBIC).
//! Paper shape: DT is best at α ∈ {1, 2} and degrades at both extremes
//! (inefficient when small, anomalous when large); Occamy improves
//! monotonically with α and saturates around α = 4–8 — which is why the
//! paper recommends α = 8.

use crate::figs::scale_testbed;
use crate::scenario::{
    matrix_table, CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario,
};
use crate::scenarios::{TestbedBg, TestbedScenario};
use occamy_core::BmKind;
use occamy_sim::topology::SchedKind;
use occamy_sim::CcAlgo;

/// Registry entry for paper Fig. 16.
pub struct Fig16;

impl Scenario for Fig16 {
    fn name(&self) -> &'static str {
        "fig16"
    }

    fn description(&self) -> &'static str {
        "alpha parameter study: DT degrades at extremes, Occamy saturates upward"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        let (alphas, sizes): (Vec<f64>, Vec<u64>) = match scale {
            Scale::Full => (vec![0.5, 1.0, 2.0, 4.0, 8.0], vec![100, 120, 140, 160, 180]),
            Scale::Quick => (vec![0.5, 1.0, 2.0, 4.0, 8.0], vec![120, 180]),
            Scale::Smoke => (vec![1.0, 8.0], vec![140]),
        };
        Grid::new("fig16", scale)
            .axis("scheme", ["DT", "Occamy"])
            .axis("query_pct_buffer", sizes)
            .axis("alpha", alphas)
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        let kind = BmKind::from_name(cell.str("scheme")).expect("known scheme");
        let alpha = cell.f64("alpha");
        let bytes = 410_000 * cell.u64("query_pct_buffer") / 100;
        let mut sc = TestbedScenario::paper_dpdk(kind, alpha).with_query_bytes(bytes);
        sc.classes = 2;
        sc.alpha_per_class = vec![alpha; 2];
        sc.sched = SchedKind::Drr { quantum: 1_500 };
        sc.bg = Some(TestbedBg {
            load: 0.5,
            cc: CcAlgo::Cubic,
            class: 1,
        });
        sc.seed = cell.seed;
        scale_testbed(&mut sc, cell.scale);
        sc.run().into_cell()
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        let mut report = Report::new();
        for (scheme, label, csv) in [
            ("DT", "Fig 16a: DT QCT (ms) vs α", "fig16a"),
            ("Occamy", "Fig 16b: Occamy QCT (ms) vs α", "fig16b"),
        ] {
            let subset: Vec<CellOutcome> = outcomes
                .iter()
                .filter(|o| o.spec.str("scheme") == scheme)
                .cloned()
                .collect();
            // The paper plots p99; in our harsher incast the
            // non-preemptive p99 saturates at min-RTO, so the average
            // reveals the α trend (how *often* queries time out) — print
            // both.
            report = report
                .table_csv(
                    matrix_table(
                        &format!("{label} (p99)"),
                        &subset,
                        "query_pct_buffer",
                        "alpha",
                        "qct_p99_ms",
                    ),
                    &format!("{csv}_p99.csv"),
                )
                .table_csv(
                    matrix_table(
                        &format!("{label} (average)"),
                        &subset,
                        "query_pct_buffer",
                        "alpha",
                        "qct_avg_ms",
                    ),
                    &format!("{csv}_avg.csv"),
                );
        }
        report.note(
            "Shape check: DT best near α ∈ {1, 2}, worse at 0.5 and 8; \
             Occamy monotonically better with α, saturating by α = 4–8.",
        )
    }
}
