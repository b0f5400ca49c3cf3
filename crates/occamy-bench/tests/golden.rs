//! Golden-metric regression tracking (ROADMAP: "result regression
//! tracking"): `golden/` holds committed smoke-scale `BENCH_<name>.json`
//! snapshots of the four [`TRACKED`] registry scenarios and the
//! [`TRACKED_SPECS`] spec files; this test re-runs them in-process and
//! fails when any *headline* metric drifts beyond tolerance.
//!
//! Wall-clock fields (`wall_ms`, `events_per_sec`) vary run to run;
//! they sit outside a cell's `metrics` and are not compared. The
//! `events` count is deterministic, so it must match exactly: a change
//! that makes the engine do more (or less) work fails here even on a
//! noisy host. Everything else — queries, QCT/FCT slowdowns, losses,
//! unfinished — must match the snapshot to one part in 10⁶.
//!
//! Regenerating after an *intentional* result change:
//!
//! ```text
//! cd $(mktemp -d) && occamy-bench run fig03 fig12 fig20 perf_transport \
//!     --spec <repo>/specs/three_tier_oversub.toml --smoke --serial --freeze-perf
//! cp BENCH_fig03.json BENCH_fig12.json BENCH_fig20.json BENCH_perf_transport.json \
//!     BENCH_three_tier_oversub.json <repo>/golden/
//! ```

use occamy_bench::registry::find_scenario;
use occamy_bench::runner::execute;
use occamy_bench::scenario::{Scale, Scenario};
use occamy_bench::spec_scenario::SpecScenario;
use occamy_stats::Json;
use std::path::PathBuf;

/// The tracked scenarios: one CBR micro-testbed (fig03), one CBR sweep
/// with an α axis (fig12), one transport-level leaf-spine study
/// (fig20) and the transport hot-path baseline (perf_transport, whose
/// *headline* metrics must survive transport-layer perf work untouched)
/// — together they cover every simulation substrate.
const TRACKED: &[&str] = &["fig03", "fig12", "fig20", "perf_transport"];

/// Tracked spec files, relative to the repository root: the 3-tier
/// fabric, which no registry scenario runs.
const TRACKED_SPECS: &[&str] = &["specs/three_tier_oversub.toml"];

/// Metric keys compared exactly: deterministic work counts.
const EXACT_METRICS: &[&str] = &["events"];

const REL_TOL: f64 = 1e-6;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
        .canonicalize()
        .unwrap_or_else(|e| panic!("{rel}: {e}"))
}

fn golden_dir() -> PathBuf {
    repo_path("golden")
}

/// Every tracked scenario: the registry ones, then the spec files.
fn tracked() -> Vec<&'static dyn Scenario> {
    let registry = TRACKED
        .iter()
        .map(|name| find_scenario(name).unwrap_or_else(|| panic!("{name} not registered")));
    let specs = TRACKED_SPECS.iter().map(|rel| {
        let path = repo_path(rel);
        SpecScenario::load(path.to_str().unwrap()).unwrap() as &'static dyn Scenario
    });
    registry.chain(specs).collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1e-12)
}

#[test]
fn headline_metrics_match_golden_snapshots() {
    for scenario in tracked() {
        let name = scenario.name();
        let path = golden_dir().join(format!("BENCH_{name}.json"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let golden = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            golden.get("scale").and_then(Json::as_str),
            Some("smoke"),
            "{name}: golden snapshots are smoke-scale"
        );

        let (runs, _) = execute(&[scenario], Scale::Smoke, true);
        let run = &runs[0];

        let cells = golden
            .get("results")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{name}: golden file has no results"));
        assert_eq!(
            cells.len(),
            run.outcomes.len(),
            "{name}: grid size changed — regenerate golden/ if intentional"
        );

        for (cell, outcome) in cells.iter().zip(&run.outcomes) {
            let label = outcome.spec.label();
            // The cell identity (its seed) must match: a seed change
            // means the grid moved, not that results drifted.
            assert_eq!(
                cell.get("seed").and_then(Json::as_u64),
                Some(outcome.spec.seed),
                "{name} [{label}]: cell seed changed"
            );
            let metrics = cell
                .get("metrics")
                .unwrap_or_else(|| panic!("{name} [{label}]: golden cell has no metrics"));
            let entries = metrics.entries().unwrap();
            assert!(!entries.is_empty(), "{name} [{label}]: nothing to compare");
            for (key, golden_v) in entries {
                let want = golden_v.as_f64().unwrap();
                let got = outcome
                    .result
                    .get(key)
                    .unwrap_or_else(|| panic!("{name} [{label}]: metric '{key}' disappeared"));
                if EXACT_METRICS.contains(&key.as_str()) {
                    assert_eq!(
                        want, got,
                        "{name} [{label}]: '{key}' changed: the engine did different work; \
                         regenerate golden/ if this change is intentional"
                    );
                } else {
                    assert!(
                        close(want, got),
                        "{name} [{label}]: '{key}' drifted: golden {want}, got {got} \
                         (tol {REL_TOL}); regenerate golden/ if this change is intentional"
                    );
                }
            }
            // Metrics present now but absent from the snapshot are fine
            // (new metrics get added).
        }
    }
}

#[test]
fn golden_snapshots_cover_all_tracked_scenarios() {
    let dir = golden_dir();
    for name in tracked().iter().map(|s| s.name()) {
        assert!(
            dir.join(format!("BENCH_{name}.json")).exists(),
            "golden/BENCH_{name}.json missing"
        );
    }
}
