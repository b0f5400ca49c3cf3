//! Paper **Fig. 23**: impact of the buffer size.
//!
//! The per-port-per-Gbps buffer is swept from 3.44 KB (Intel Tofino) to
//! 9.6 KB (Broadcom Trident2); background 40%, query size 40% of the
//! (varying) partition buffer.
//!
//! Paper shape: Occamy keeps a consistent advantage over DT across the
//! whole range (~37% better average QCT at 3.44 KB, ~40% at 9.6 KB).

use crate::fabric::{scale_fabric, FabricScenario};
use crate::scenario::{
    matrix_table, CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario,
};
use crate::scenarios::BgPattern;
use occamy_core::BmKind;

/// Registry entry for paper Fig. 23.
pub struct Fig23;

impl Scenario for Fig23 {
    fn name(&self) -> &'static str {
        "fig23"
    }

    fn description(&self) -> &'static str {
        "buffer-size sweep (Tofino to Trident2): slowdowns vs KB/port/Gbps"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        // KB per port per Gbps, paper's Fig. 23 x-axis.
        let sizes: Vec<f64> = match scale {
            Scale::Full => vec![3.44, 5.12, 9.6],
            Scale::Quick => vec![3.44, 9.6],
            Scale::Smoke => vec![5.12],
        };
        Grid::new("fig23", scale)
            .axis("KB_per_port_per_Gbps", sizes)
            .axis("scheme", BmKind::EVALUATED.map(BmKind::name))
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        let kind = BmKind::from_name(cell.str("scheme")).expect("evaluated scheme");
        let alpha = kind.paper_alpha();
        let mut sc = FabricScenario::paper_leaf_spine(kind, alpha);
        sc.bg = BgPattern::WebSearch { load: 0.4 };
        // Buffer per 8 ports = 8 × rate_Gbps × KB-per-port-per-Gbps.
        let gbps = sc.host_rate_bps as f64 / 1e9;
        sc.buffer_per_8ports = (8.0 * gbps * cell.f64("KB_per_port_per_Gbps") * 1_000.0) as u64;
        sc.query_bytes = sc.buffer_per_8ports * 40 / 100;
        sc.seed = cell.seed;
        scale_fabric(&mut sc, cell.scale);
        sc.run().into_cell()
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        let mut report = Report::new();
        for (title, metric, csv) in [
            (
                "Fig 23a: average QCT slowdown",
                "qct_slowdown_avg",
                "fig23a.csv",
            ),
            (
                "Fig 23b: p99 QCT slowdown",
                "qct_slowdown_p99",
                "fig23b.csv",
            ),
            (
                "Fig 23c: overall bg average FCT slowdown",
                "bg_slowdown_avg",
                "fig23c.csv",
            ),
            (
                "Fig 23d: small bg p99 FCT slowdown",
                "small_bg_slowdown_p99",
                "fig23d.csv",
            ),
        ] {
            report = report.table_csv(
                matrix_table(title, outcomes, "KB_per_port_per_Gbps", "scheme", metric),
                csv,
            );
        }
        report.note(format!(
            "Shape check: columns {:?}; Occamy should lead DT at every \
             buffer size, shrinking QCT slowdown by roughly a third or more.",
            BmKind::EVALUATED.map(BmKind::name)
        ))
    }
}
