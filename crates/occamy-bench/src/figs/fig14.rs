//! Paper **Fig. 14**: performance isolation between service queues.
//!
//! Two service queues per port, fairly scheduled with DRR; query traffic
//! (DCTCP) in one queue, background (CUBIC) in the other. The background
//! load is swept from 10% to 60%.
//!
//! Paper shape: as the load grows, DT and ABM start hitting RTOs for the
//! query traffic (exploding p99 QCT); Occamy and Pushout stay flat
//! because the buffer is reallocated quickly.

use crate::figs::scale_testbed;
use crate::scenario::{
    matrix_table, CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario,
};
use crate::scenarios::{TestbedBg, TestbedScenario};
use occamy_core::BmKind;
use occamy_sim::topology::SchedKind;
use occamy_sim::CcAlgo;

/// Registry entry for paper Fig. 14.
pub struct Fig14;

impl Scenario for Fig14 {
    fn name(&self) -> &'static str {
        "fig14"
    }

    fn description(&self) -> &'static str {
        "isolation between DRR service queues: QCT vs background load"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        let loads: Vec<u64> = match scale {
            Scale::Full => vec![10, 20, 30, 40, 50, 60],
            Scale::Quick => vec![20, 50],
            Scale::Smoke => vec![30],
        };
        Grid::new("fig14", scale)
            .axis("bg_load_pct", loads)
            .axis("scheme", BmKind::EVALUATED.map(BmKind::name))
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        let kind = BmKind::from_name(cell.str("scheme")).expect("evaluated scheme");
        let alpha = kind.paper_alpha();
        let mut sc = TestbedScenario::paper_dpdk(kind, alpha).with_query_bytes(328_000); // 80% of buffer
        sc.classes = 2;
        sc.alpha_per_class = vec![alpha; 2];
        sc.sched = SchedKind::Drr { quantum: 1_500 };
        sc.query_class = 0;
        sc.bg = Some(TestbedBg {
            load: cell.u64("bg_load_pct") as f64 / 100.0,
            cc: CcAlgo::Cubic,
            class: 1,
        });
        sc.seed = cell.seed;
        scale_testbed(&mut sc, cell.scale);
        sc.run().into_cell()
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        Report::new()
            .table_csv(
                matrix_table(
                    "Fig 14a: average QCT (ms)",
                    outcomes,
                    "bg_load_pct",
                    "scheme",
                    "qct_avg_ms",
                ),
                "fig14a.csv",
            )
            .table_csv(
                matrix_table(
                    "Fig 14b: p99 QCT (ms)",
                    outcomes,
                    "bg_load_pct",
                    "scheme",
                    "qct_p99_ms",
                ),
                "fig14b.csv",
            )
            .note(format!(
                "Shape check: columns {:?}; expect DT (and to a lesser degree \
                 ABM) p99 to blow up with load while Occamy/Pushout stay low.",
                BmKind::EVALUATED.map(BmKind::name)
            ))
    }
}
