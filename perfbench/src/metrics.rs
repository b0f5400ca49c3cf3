//! The metric table — every metric's unit, the direction in which it
//! improves, and for per-layer metrics the end-to-end metric and
//! workload it should move — and the result line the run prints.

use occamy_stats::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Whether a metric comes from untraced (`--trace 0`) or traced
/// (`--trace 1`) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the simulator sees.
    EndToEnd,
    /// One layer, from the traced run.
    PerLayer,
}

/// One row of the metric table.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Untraced or traced.
    pub kind: Kind,
    /// End-to-end metrics: what is measured. Per-layer metrics: the
    /// end-to-end metric it should move, and on which workload.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
        note,
    }
}

use Better::{Higher, Lower};

/// Every metric, in `BENCHMARK.json` order.
pub const METRICS: &[MetricSpec] = &[
    e2e("events_per_s", "1/s", Higher, "the first cell's events over its event-loop host seconds, each sim-time slice at its fastest of >= 4 repetitions"),
    e2e("wall_s", "s", Lower, "host seconds per cell: median set-up + that event loop + fastest extraction, scaled to the run's mean cell size"),
    e2e("setup_s", "s", Lower, "median of repeated topology build + traffic injection, cold first set-up excluded"),
    e2e("peak_rss_mb", "MiB", Lower, "peak resident set of the process through its first cell (set-ups, run, extraction)"),
    e2e("qct_slowdown_avg", "ratio", Lower, "mean query completion-time slowdown over all queries of the run's cells"),
    e2e("qct_slowdown_tail", "ratio", Lower, "highest whole percentile of query slowdown with ten queries beyond it: p99 on the leaf-spine, p90 on the fat-tree"),
    e2e("bg_slowdown_avg", "ratio", Lower, "mean background flow-completion-time slowdown"),
    layer("setup.cold_s", "s", Lower, "setup_s: the first set-up in the process, kept out of setup_s"),
    layer("topology.build_s", "s", Lower, "setup_s, most on ft128_permutation"),
    layer("topology.queues", "count", Lower, "setup_s and peak_rss_mb, most on ft128_permutation"),
    layer("traffic.inject_s", "s", Lower, "setup_s, most on ft128_permutation"),
    layer("traffic.flows", "count", Lower, "setup_s and peak_rss_mb on ft128_permutation"),
    layer("engine.run_s", "s", Lower, "events_per_s and wall_s on every workload"),
    layer("engine.events", "count", Lower, "events_per_s and wall_s on every workload (exact)"),
    layer("engine.ns_per_event", "ns", Lower, "events_per_s on every workload"),
    layer("engine.slice_ns_per_event_p50", "ns", Lower, "events_per_s on every workload"),
    layer("engine.slice_ns_per_event_p90", "ns", Lower, "events_per_s on every workload; burst slices against steady ones"),
    layer("bm.head_drops", "count", Lower, "qct_slowdown_avg on ls_websearch_occamy; always 0 on ls_websearch_dt and ft128_permutation"),
    layer("bm.threshold_drops", "count", Lower, "qct_slowdown_avg on ls_websearch_occamy and ls_websearch_dt"),
    layer("bm.full_drops", "count", Lower, "qct_slowdown_avg on ls_websearch_occamy"),
    layer("bm.pushout_evictions", "count", Lower, "none: no workload runs Pushout"),
    layer("bm.select_victim_ns", "ns", Lower, "events_per_s on ls_websearch_occamy; no change on the others"),
    layer("bm.admit_ns", "ns", Lower, "events_per_s on both ls_websearch workloads"),
    layer("bm.hooks_ns", "ns", Lower, "events_per_s on both ls_websearch workloads"),
    layer("eventq.push_pop_ns", "ns", Lower, "events_per_s, most on ft128_permutation"),
    layer("transport.ack_ns", "ns", Lower, "events_per_s on ft128_permutation"),
    layer("transport.retransmissions", "count", Lower, "qct_slowdown_tail on both ls_websearch workloads"),
    layer("transport.rto_fires", "count", Lower, "qct_slowdown_tail on both ls_websearch workloads"),
    layer("report.aggregate_s", "s", Lower, "wall_s on every workload"),
    layer("par.speedup_2t", "ratio", Higher, "none (every timed run is serial); the keep-or-delete figure for the parallel engine"),
    layer("par.windows", "count", Lower, "none; synchronization windows of the 2-thread pass"),
    layer("par.domain_imbalance", "ratio", Lower, "none; busiest domain's events over the mean domain's"),
    layer("trace.overhead_frac", "ratio", Lower, "none; traced engine.run_s over untraced, minus 1"),
];

/// The table row of `name`.
///
/// # Panics
///
/// Panics if `name` is not in [`METRICS`], which is a bug in the caller.
pub fn spec(name: &str) -> &'static MetricSpec {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric table"))
}

/// What one run measured and whether its outputs checked out.
pub struct Outcome {
    /// Workload name, for messages.
    pub workload: &'static str,
    /// Flows injected.
    pub attempted: u64,
    /// Flows unfinished at the horizon.
    pub failed: u64,
    /// `(name, value)` in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

impl Outcome {
    /// An outcome with nothing measured yet.
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        spec(name);
        self.metrics.push((name, value));
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{}: {}", self.workload, what()));
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Verifies that exactly the metrics of `kind` were recorded, once
    /// each and finite, in table order.
    pub fn check_complete(&mut self, kind: Kind) {
        let want: Vec<&str> = METRICS
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| m.name)
            .collect();
        let mut have: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        have.sort_by_key(|n| METRICS.iter().position(|m| m.name == *n));
        self.metrics
            .sort_by_key(|(n, _)| METRICS.iter().position(|m| m.name == *n));
        let workload = self.workload;
        self.check(have == want, || {
            format!("metrics {have:?} differ from the table's {want:?}")
        });
        for &(name, v) in &self.metrics {
            if !v.is_finite() {
                self.failures
                    .push(format!("{workload}: {name} is not finite ({v})"));
            }
        }
    }

    /// Human-readable lines, then the one-line JSON result the
    /// benchmark contract reads (always the last line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &(name, v) in &self.metrics {
            let s = spec(name);
            out += &format!(
                "{:<32} {:>18} {:<6} {:<6} {}\n",
                name,
                format!("{v:.6}"),
                s.unit,
                s.better.as_str(),
                s.note
            );
        }
        for f in &self.failures {
            out += &format!("CHECK FAILED {f}\n");
        }
        let metrics = Json::obj(self.metrics.iter().map(|&(name, v)| {
            (
                name,
                Json::obj([
                    ("value", Json::from(v)),
                    ("unit", Json::from(spec(name).unit)),
                ]),
            )
        }));
        let result = Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics),
        ]);
        out += &result.render();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(kind: Kind) -> Vec<(String, String, String)> {
        METRICS
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_direction_table() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), table(Kind::EndToEnd));
        assert_eq!(listed(&doc, "per_layer"), table(Kind::PerLayer));
    }

    #[test]
    fn benchmark_json_names_runnable_workloads() {
        let doc = benchmark_json();
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list");
        assert!(workloads.len() >= 2);
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).expect("workload name");
            assert!(crate::workload::Workload::parse(name).is_some(), "{name}");
        }
    }

    #[test]
    fn directions_point_the_right_way() {
        assert_eq!(spec("events_per_s").better, Higher);
        assert_eq!(spec("par.speedup_2t").better, Higher);
        for m in METRICS {
            if m.unit == "s"
                || m.unit == "ns"
                || m.name.contains("slowdown")
                || m.name.contains("drops")
            {
                assert_eq!(m.better, Lower, "{} should improve downwards", m.name);
            }
        }
    }

    #[test]
    fn per_layer_targets_name_end_to_end_metrics() {
        let e2e: Vec<&str> = METRICS
            .iter()
            .filter(|m| m.kind == Kind::EndToEnd)
            .map(|m| m.name)
            .collect();
        for m in METRICS.iter().filter(|m| m.kind == Kind::PerLayer) {
            let target = m.note.split([' ', ',', ':', ';']).next().unwrap_or("");
            assert!(
                target == "none" || e2e.contains(&target),
                "{}: '{}' names no end-to-end metric",
                m.name,
                m.note
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(m.name.len() <= 64);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
        }
    }

    #[test]
    fn result_line_is_last_and_complete() {
        let mut o = Outcome::new("w");
        o.attempted = 3;
        for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
            o.set(m.name, 1.5);
        }
        o.check_complete(Kind::EndToEnd);
        assert!(o.correct(), "{:?}", o.failures);
        let text = o.render();
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("attempted").and_then(Json::as_u64), Some(3));
        let wall = last.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.5));
    }

    #[test]
    fn missing_or_non_finite_metrics_fail_the_run() {
        let mut o = Outcome::new("w");
        o.set("wall_s", f64::NAN);
        o.check_complete(Kind::EndToEnd);
        assert!(!o.correct());
        assert!(o
            .render()
            .lines()
            .last()
            .unwrap()
            .contains("\"correct\":false"));
    }
}
