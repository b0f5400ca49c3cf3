//! Paper **Fig. 11**: queue-length evolution under Occamy vs DT with
//! α ∈ {1, 4} on the P4-testbed scenario.
//!
//! Topology (Fig. 12a): a sender with two fast NICs, two 10 G receivers,
//! one 1.2 MB shared-buffer switch. Long-lived traffic entrenches
//! queue 1; a bursty stream then arrives at queue 2. The paper's shape:
//! with Occamy, `q1` is actively drained (head-dropped) as soon as the
//! burst arrives, so `q2` climbs to the fair share before losing a
//! packet; with DT and a large α (little reserve), `q2` is choked far
//! below the fair share while `q1` stays entrenched.
//!
//! Timescale note: the paper's x-axis (µs) is inconsistent with draining
//! ~1 MB at 10 Gbps (~0.8 ms); we report milliseconds.

use crate::scenario::{CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario, Series};
use crate::scenarios::CbrTestbed;
use occamy_core::BmKind;
use occamy_sim::{ps_to_ms, CbrDesc, MS, US};
use occamy_stats::Table;

const BUFFER: u64 = 1_200_000;
const BURST_AT: u64 = 3 * MS;

/// Registry entry for paper Fig. 11.
pub struct Fig11;

impl Scenario for Fig11 {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn description(&self) -> &'static str {
        "queue evolution under a burst: Occamy drains the entrenched queue, DT cannot"
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        let alphas: Vec<f64> = match scale {
            Scale::Smoke => vec![1.0],
            _ => vec![1.0, 4.0],
        };
        Grid::new("fig11", scale)
            .axis("scheme", ["Occamy", "DT"])
            .axis("alpha", alphas)
            .build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        let kind = BmKind::from_name(cell.str("scheme")).expect("known scheme");
        let tb = CbrTestbed::paper_p4(kind, cell.f64("alpha"));
        let horizon = if cell.scale == Scale::Smoke {
            5 * MS
        } else {
            8 * MS
        };
        let mut w = tb.build();
        // Long-lived traffic: 20 G → 10 G, from t = 0, entrenches queue 1.
        w.add_cbr(CbrDesc {
            host: 0,
            dst: 2,
            rate_bps: 20_000_000_000,
            pkt_len: 1_460,
            prio: 0,
            start_ps: 0,
            stop_ps: horizon,
            budget_bytes: None,
        });
        // Bursty traffic: 100 G line-rate burst of 800 KB at t = BURST_AT.
        w.add_cbr(CbrDesc {
            host: 1,
            dst: 3,
            rate_bps: tb.fast_rate_bps,
            pkt_len: 1_460,
            prio: 0,
            start_ps: BURST_AT,
            stop_ps: horizon,
            budget_bytes: Some(800_000),
        });
        w.add_queue_sampler(0, 0, 50 * US, horizon);
        w.run_to_completion(horizon);

        let mut series = Series::new("queues", &["t_ms", "q1_KB", "q2_KB", "T_KB"]);
        for s in w
            .metrics
            .queue_samples
            .iter()
            .filter(|s| s.t % (250 * US) == 0)
        {
            series.row(vec![
                ps_to_ms(s.t),
                s.qlens[2] as f64 / 1e3,
                s.qlens[3] as f64 / 1e3,
                s.thresholds[3] as f64 / 1e3,
            ]);
        }
        let q2_peak = w
            .metrics
            .queue_samples
            .iter()
            .map(|s| s.qlens[3])
            .max()
            .unwrap_or(0);
        CellResult::new()
            .metric("q2_peak_bytes", q2_peak as f64)
            .metric("total_drops", w.metrics.drops.total_losses() as f64)
            .metric("events", w.metrics.events_processed as f64)
            .with_series(series)
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        let mut report = Report::new();
        let panels = [
            ("Occamy", 1.0, "Fig 11a: Occamy, α = 1", "fig11a.csv"),
            ("Occamy", 4.0, "Fig 11b: Occamy, α = 4", "fig11b.csv"),
            ("DT", 1.0, "Fig 11c: DT, α = 1", "fig11c.csv"),
            ("DT", 4.0, "Fig 11d: DT, α = 4", "fig11d.csv"),
        ];
        let cell = |scheme: &str, alpha: f64| {
            outcomes
                .iter()
                .find(|o| o.spec.str("scheme") == scheme && o.spec.f64("alpha") == alpha)
        };
        let mut peaks: Vec<(String, u64, u64)> = Vec::new();
        for (scheme, alpha, title, csv) in panels {
            let Some(o) = cell(scheme, alpha) else {
                continue;
            };
            let mut t = Table::new(title, &["t_ms", "q1_KB", "q2_KB", "T_KB"]);
            if let Some(series) = o.result.find_series("queues") {
                for row in &series.rows {
                    t.row(vec![
                        format!("{:.2}", row[0]),
                        format!("{:.0}", row[1]),
                        format!("{:.0}", row[2]),
                        format!("{:.0}", row[3]),
                    ]);
                }
            }
            report = report.table_csv(t, csv);
            // Fair share with two congested queues: αB/(1+2α).
            let fair = (alpha * BUFFER as f64 / (1.0 + 2.0 * alpha)) as u64 / 1000;
            peaks.push((
                format!("{scheme} α{alpha}"),
                o.result.get("q2_peak_bytes").unwrap_or(0.0) as u64 / 1000,
                fair,
            ));
        }
        let summary = peaks
            .iter()
            .map(|(label, peak, fair)| format!("{label} {peak}/{fair}"))
            .collect::<Vec<_>>()
            .join("  ");
        report
            .note(format!(
                "Shape check (q2 peak vs fair share, KB): {summary}"
            ))
            .note(
                "Expected: Occamy reaches the fair share at both αs; DT reaches it \
                 only at α = 1 and is choked at α = 4 (paper Fig. 11d).",
            )
    }
}
