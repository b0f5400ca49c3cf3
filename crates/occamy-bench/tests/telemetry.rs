//! The telemetry acceptance bar: **turning the trace bus on must not
//! change a single output byte**. One direct run of the CI smoke spec
//! is compared against a telemetry-enabled run — BENCH json and every
//! CSV must be byte-identical under `OCCAMY_FREEZE_PERF=1` — and the
//! JSONL stream itself must be non-empty, parseable by
//! `occamy_stats::Json` and wall-clock-free under freeze.
//!
//! Everything lives in ONE #[test]: telemetry enablement and
//! freeze-perf are process-global state, so the phases must run
//! sequentially in a fixed order.

use occamy_bench::live::TelemetrySink;
use occamy_bench::runner::{execute, render_into};
use occamy_bench::scenario::{Scale, Scenario};
use occamy_bench::spec_scenario::SpecScenario;
use occamy_stats::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("occamy_telemetry_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every result artifact under `root` (BENCH json + CSVs), keyed by
/// relative path — telemetry JSONL streams excluded, they exist only on
/// the telemetry side by construction.
fn artifacts(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .to_string();
                if !rel.ends_with("_telemetry.jsonl") {
                    out.insert(rel, std::fs::read(&path).unwrap());
                }
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

fn direct(scenario: &'static dyn Scenario, root: &Path) {
    let (runs, stats) = execute(&[scenario], Scale::Smoke, false);
    render_into(&runs[0], Scale::Smoke, stats.wall, root).unwrap();
}

fn assert_same_artifacts(a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>, tag: &str) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{tag}: artifact file sets differ"
    );
    for (path, bytes) in a {
        assert_eq!(
            bytes, &b[path],
            "{tag}: {path} differs — telemetry must be invisible in outputs"
        );
    }
}

#[test]
fn telemetry_changes_no_output_byte_and_streams_parse() {
    std::env::set_var("OCCAMY_FREEZE_PERF", "1");
    let spec_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs/smoke.toml");
    let spec = SpecScenario::load(spec_path.to_str().unwrap()).unwrap();
    assert_eq!(
        spec.telemetry_every(),
        Some(20_000),
        "smoke.toml carries a [telemetry] cadence"
    );

    // Phase 1: baseline, no telemetry.
    let base = scratch("off");
    direct(spec, &base);
    let base_files = artifacts(&base);
    assert!(
        base_files.contains_key("BENCH_spec_smoke.json"),
        "baseline produced no BENCH json"
    );

    // Phase 2: telemetry on. Same bytes everywhere, plus a JSONL stream.
    let tele = scratch("on");
    let sink = TelemetrySink::start(&tele, false);
    direct(spec, &tele);
    sink.finish();
    assert_same_artifacts(&base_files, &artifacts(&tele), "telemetry on vs off");

    let stream = tele.join("results/spec_smoke_telemetry.jsonl");
    let text = std::fs::read_to_string(&stream).expect("telemetry stream was written");
    let records: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("unparseable JSONL line: {e}\n{l}")))
        .collect();
    assert!(!records.is_empty(), "telemetry stream is empty");
    let kinds: Vec<&str> = records
        .iter()
        .map(|r| r.get("kind").and_then(Json::as_str).unwrap())
        .collect();
    let count = |k: &str| kinds.iter().filter(|&&x| x == k).count();
    let cells = spec.grid(Scale::Smoke).len();
    assert_eq!(count("cell_start"), cells, "one start marker per cell");
    assert_eq!(count("cell_end"), cells, "one end marker per cell");
    assert!(count("snap") > 0, "no periodic snapshots fired: {kinds:?}");
    assert_eq!(count("summary"), 1, "one closing sketch summary");
    assert_eq!(
        kinds.last().copied(),
        Some("summary"),
        "summary closes the stream"
    );
    for r in &records {
        // Under freeze-perf even the stream is wall-clock-free.
        if let Some(ms) = r.get("unix_ms").and_then(Json::as_u64) {
            assert_eq!(ms, 0, "unix_ms must be zeroed under freeze-perf");
        }
        if r.get("kind").and_then(Json::as_str) == Some("snap") {
            assert_eq!(r.get("events_per_sec").and_then(Json::as_f64), Some(0.0));
            assert!(r.get("events").and_then(Json::as_u64).unwrap() > 0);
            let switches = r.get("switches").and_then(Json::as_arr).unwrap();
            assert_eq!(switches.len(), 20, "k=4 fat-tree has 20 switches");
        }
    }
    let summary = records.last().unwrap();
    assert_eq!(summary.get("sketch_eps").and_then(Json::as_f64), Some(0.01));
    assert!(summary.get("occ_frac_p99").and_then(Json::as_f64).is_some());

    for d in [&base, &tele] {
        let _ = std::fs::remove_dir_all(d);
    }
}
