//! The sharding acceptance bar: **plan → run → merge must be
//! byte-identical to a direct run** — for a registry figure and for a
//! `--spec` scenario — and every corruption of a shard file must fail
//! with a clear error naming the shard, never a panic or a silently
//! dropped cell.
//!
//! Everything runs under `OCCAMY_FREEZE_PERF=1` (as the CI
//! `shard-equivalence` job does): wall-clock fields are the one
//! platform-dependent output, and freezing them to zero is what makes
//! `cmp`-level equality meaningful across machines.

use occamy_bench::runner::{execute, render_into};
use occamy_bench::scenario::{Scale, Scenario};
use occamy_bench::shard::{self, ShardSource};
use occamy_bench::spec_scenario::SpecScenario;
use occamy_stats::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn freeze() {
    std::env::set_var("OCCAMY_FREEZE_PERF", "1");
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per call (tests run concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "occamy_shard_eq_{}_{tag}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .canonicalize()
        .expect("specs/ directory exists")
}

/// Every file under `root`, keyed by its relative path.
fn tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
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
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

/// Runs `source` directly (serial) and renders into `root`.
fn direct(source: &ShardSource, scale: Scale, root: &Path) {
    let (runs, stats) = execute(&[source.scenario()], scale, false);
    render_into(&runs[0], scale, stats.wall, root).unwrap();
}

/// plan → run each shard → merge into `root`; returns the journal paths.
fn sharded(source: &ShardSource, scale: Scale, shards: usize, root: &Path) -> Vec<PathBuf> {
    let plans = shard::plan(source, scale, shards, &root.join("shards")).unwrap();
    let journals: Vec<PathBuf> = plans
        .iter()
        .map(|p| shard::run_shard(p, false, false).unwrap())
        .collect();
    shard::merge(&journals, root).unwrap();
    journals
}

/// The full equivalence check: identical file sets, byte-identical
/// contents (BENCH json and every CSV).
fn assert_equivalent(source: &ShardSource, scale: Scale, shards: usize, tag: &str) {
    freeze();
    let a = scratch(&format!("{tag}_direct"));
    let b = scratch(&format!("{tag}_merged"));
    direct(source, scale, &a);
    sharded(source, scale, shards, &b);
    let direct_files = tree(&a);
    let mut merged_files = tree(&b);
    // The merged tree also holds the shard plan/journal files.
    merged_files.retain(|k, _| !k.starts_with("shards"));
    assert_eq!(
        direct_files.keys().collect::<Vec<_>>(),
        merged_files.keys().collect::<Vec<_>>(),
        "{tag}: output file sets differ"
    );
    let name = source.scenario().name();
    assert!(
        direct_files.contains_key(&format!("BENCH_{name}.json")),
        "{tag}: direct run produced no BENCH json"
    );
    for (path, bytes) in &direct_files {
        assert_eq!(
            bytes, &merged_files[path],
            "{tag}: {path} differs between direct run and plan/run/merge"
        );
    }
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn fig12_plan_run_merge_is_byte_identical_to_direct_run() {
    let source = ShardSource::from_name("fig12").unwrap();
    assert_equivalent(&source, Scale::Smoke, 3, "fig12");
}

#[test]
fn spec_scenario_plan_run_merge_is_byte_identical_to_direct_run() {
    let path = specs_dir().join("smoke.toml");
    let spec = SpecScenario::load(path.to_str().unwrap()).unwrap();
    assert_equivalent(&ShardSource::Spec(spec), Scale::Smoke, 2, "spec_smoke");
}

#[test]
fn paper_fabric_128h_plans_without_executing() {
    // The payoff spec: 60 full-scale cells of a 128-host fabric. Plan
    // it 8 ways (what CI smokes) and check coverage — but never run a
    // cell; that is what the sharding exists to distribute.
    let path = specs_dir().join("paper_fabric_128h.toml");
    let spec = SpecScenario::load(path.to_str().unwrap()).unwrap();
    assert_eq!(
        spec.grid(Scale::Full).len(),
        60,
        "5 sizes × 3 loads × 4 schemes"
    );
    let root = scratch("plan128h");
    let plans = shard::plan(&ShardSource::Spec(spec), Scale::Full, 8, &root).unwrap();
    assert_eq!(plans.len(), 8);
    let mut covered = 0usize;
    for p in &plans {
        let doc = Json::parse(&std::fs::read_to_string(p).unwrap()).unwrap();
        assert_eq!(doc.get("format").and_then(Json::as_u64), Some(1));
        assert!(
            doc.get("spec_toml").and_then(Json::as_str).is_some(),
            "spec plans must be self-contained"
        );
        covered += doc.get("cells").and_then(Json::as_arr).unwrap().len();
    }
    assert_eq!(covered, 60, "all cells assigned to some shard");
    let _ = std::fs::remove_dir_all(&root);
}

// -------------------------------------------------------------------
// Corruption handling
// -------------------------------------------------------------------

/// Plans fig12 into 2 shards and runs both, returning (root, journals).
fn fig12_journals() -> (PathBuf, Vec<PathBuf>) {
    freeze();
    let root = scratch("corrupt");
    let source = ShardSource::from_name("fig12").unwrap();
    let plans = shard::plan(&source, Scale::Smoke, 2, &root.join("shards")).unwrap();
    let journals = plans
        .iter()
        .map(|p| shard::run_shard(p, false, false).unwrap())
        .collect();
    (root, journals)
}

/// Rewrites a journal line by line: `header` maps the header line,
/// `keep` filters the outcome lines.
fn rewrite_journal(journal: &Path, header: impl Fn(&str) -> String, keep: impl Fn(&Json) -> bool) {
    let text = std::fs::read_to_string(journal).unwrap();
    let mut lines = text.lines();
    let mut out = header(lines.next().unwrap());
    out.push('\n');
    for line in lines.filter(|l| keep(&Json::parse(l).unwrap())) {
        out.push_str(line);
        out.push('\n');
    }
    std::fs::write(journal, out).unwrap();
}

/// Rewrites a plan's cell list through `edit`.
fn rewrite_plan_cells(plan: &Path, edit: impl Fn(&mut Vec<Json>)) {
    let doc = Json::parse(&std::fs::read_to_string(plan).unwrap()).unwrap();
    let Json::Obj(mut fields) = doc else { panic!() };
    for (k, v) in &mut fields {
        if k == "cells" {
            let Json::Arr(items) = v else { panic!() };
            edit(items);
        }
    }
    std::fs::write(plan, format!("{}\n", Json::Obj(fields))).unwrap();
}

#[test]
fn journals_are_the_only_shard_artifact() {
    let (root, journals) = fig12_journals();
    let mut names: Vec<String> = std::fs::read_dir(root.join("shards"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "fig12.shard-0.cells.jsonl",
            "fig12.shard-0.json",
            "fig12.shard-1.cells.jsonl",
            "fig12.shard-1.json"
        ]
    );
    assert!(journals[0].ends_with("shards/fig12.shard-0.cells.jsonl"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_journal_fails_naming_the_shard() {
    let (root, journals) = fig12_journals();
    let bytes = std::fs::read(&journals[1]).unwrap();
    let cut = &bytes[..bytes.len() / 2];
    assert_ne!(cut.last(), Some(&b'\n'), "the cut falls inside a line");
    std::fs::write(&journals[1], cut).unwrap();
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(
        err.contains("fig12.shard-1.cells.jsonl"),
        "error must name the truncated shard: {err}"
    );
    assert!(
        err.contains("truncated mid-write"),
        "error must say what is wrong: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn version_mismatch_fails_with_both_versions() {
    let (root, journals) = fig12_journals();
    let text = std::fs::read_to_string(&journals[0]).unwrap();
    std::fs::write(
        &journals[0],
        text.replacen("\"format\":1", "\"format\":99", 1),
    )
    .unwrap();
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(
        err.contains("fig12.shard-0.cells.jsonl") && err.contains("99"),
        "error must name the shard and its version: {err}"
    );
    assert!(err.contains("version 1"), "{err}");

    // Same gate on the plan side.
    let plan = root.join("shards/fig12.shard-0.json");
    let text = std::fs::read_to_string(&plan).unwrap();
    std::fs::write(&plan, text.replace("\"format\":1", "\"format\":2")).unwrap();
    let err = shard::run_shard(&plan, false, false).unwrap_err();
    assert!(err.contains("format version 2"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn missing_shard_fails_listing_it() {
    let (root, journals) = fig12_journals();
    let err = shard::merge(&journals[..1], &root).unwrap_err();
    assert!(
        err.contains("missing journal(s) for shard(s) 1"),
        "error must list the absent shard: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn duplicate_shard_fails_naming_both_files() {
    let (root, journals) = fig12_journals();
    let dup = vec![journals[0].clone(), journals[0].clone()];
    let err = shard::merge(&dup, &root).unwrap_err();
    assert!(
        err.contains("already provided by") && err.contains("fig12.shard-0.cells.jsonl"),
        "duplicate shard must be rejected: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dropped_cell_fails_instead_of_silently_merging() {
    let (root, journals) = fig12_journals();
    // Remove shard 0's last journaled cell (keeping a valid journal), as
    // an interrupted run leaves it.
    let last = std::fs::read_to_string(&journals[0])
        .unwrap()
        .lines()
        .last()
        .unwrap()
        .to_string();
    let dropped = Json::parse(&last).unwrap().get("index").unwrap().as_u64();
    rewrite_journal(&journals[0], str::to_string, |o| {
        o.get("index").and_then(Json::as_u64) != dropped
    });
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(
        err.contains("missing from the provided journals")
            && err.contains(&format!("grid cell(s) {} [", dropped.unwrap())),
        "a dropped cell must fail the merge, naming it: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn legacy_partial_result_file_is_refused_naming_it() {
    // Older binaries wrote a monolithic `<plan stem>.result.json` per
    // shard. Merge reads journals only and must say so, naming the file.
    let (root, journals) = fig12_journals();
    let plan = root.join("shards/fig12.shard-0.json");
    let legacy = root.join("shards/fig12.shard-0.result.json");
    let text = std::fs::read_to_string(&plan).unwrap();
    std::fs::write(
        &legacy,
        text.replace("\"kind\":\"plan\"", "\"kind\":\"partial\""),
    )
    .unwrap();
    let err = shard::merge(&[legacy, journals[1].clone()], &root).unwrap_err();
    assert!(
        err.contains("fig12.shard-0.result.json") && err.contains("expected a 'journal' file"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tampered_seed_is_rejected_before_running() {
    freeze();
    let root = scratch("tamper");
    let source = ShardSource::from_name("fig12").unwrap();
    let plans = shard::plan(&source, Scale::Smoke, 2, &root).unwrap();
    rewrite_plan_cells(&plans[0], |items| {
        let Json::Obj(cell) = &mut items[0] else {
            panic!()
        };
        for (ck, cv) in cell {
            if ck == "seed" {
                *cv = Json::from(12345u64);
            }
        }
    });
    let err = shard::run_shard(&plans[0], false, false).unwrap_err();
    assert!(
        err.contains("disagrees with this binary's grid"),
        "a tampered seed must not execute: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn repeated_plan_cell_is_rejected_before_running() {
    freeze();
    let root = scratch("repeat");
    let source = ShardSource::from_name("fig12").unwrap();
    let plans = shard::plan(&source, Scale::Smoke, 2, &root).unwrap();
    rewrite_plan_cells(&plans[0], |items| items.push(items[0].clone()));
    let err = shard::run_shard(&plans[0], false, false).unwrap_err();
    assert!(
        err.contains("fig12.shard-0.json") && err.contains("cell 0 is listed twice"),
        "a repeated cell must not execute: {err}"
    );
    assert!(
        !shard::journal_path(&plans[0]).exists(),
        "nothing may run before the plan is validated"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn foreign_plan_cell_is_rejected_before_running() {
    freeze();
    let root = scratch("foreign_cell");
    let source = ShardSource::from_name("fig12").unwrap();
    let plans = shard::plan(&source, Scale::Smoke, 2, &root).unwrap();
    // Shard 1's first cell (grid cell 1, a genuine cell of the grid)
    // smuggled into shard 0's plan.
    let other = Json::parse(&std::fs::read_to_string(&plans[1]).unwrap()).unwrap();
    let cell1 = other.get("cells").and_then(Json::as_arr).unwrap()[0].clone();
    rewrite_plan_cells(&plans[0], |items| items.push(cell1.clone()));
    let err = shard::run_shard(&plans[0], false, false).unwrap_err();
    assert!(
        err.contains("fig12.shard-0.json") && err.contains("cell 1 belongs to shard 1"),
        "a foreign shard's cell must not execute: {err}"
    );
    assert!(
        !shard::journal_path(&plans[0]).exists(),
        "nothing may run before the plan is validated"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn consistently_shrunken_journals_do_not_silently_drop_cells() {
    // Both journals rewritten to claim a 2-cell grid, with the cells
    // beyond it removed — internally consistent, but not the grid this
    // binary derives for fig12. The merge must refuse, not emit a
    // "complete" half-report.
    let (root, journals) = fig12_journals();
    for j in &journals {
        rewrite_journal(
            j,
            |h| h.replace("\"total_cells\":4", "\"total_cells\":2"),
            |o| o.get("index").and_then(Json::as_u64).unwrap() < 2,
        );
    }
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(
        err.contains("this binary generates 4") && err.contains("fig12.shard-0.cells.jsonl"),
        "a shrunken grid must fail the merge: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn absurd_wall_ms_errors_instead_of_panicking() {
    let (root, journals) = fig12_journals();
    let text = std::fs::read_to_string(&journals[0]).unwrap();
    assert!(text.contains("\"wall_ms\":0"), "freeze-perf zeroes walls");
    std::fs::write(
        &journals[0],
        text.replacen("\"wall_ms\":0", "\"wall_ms\":1e300", 1),
    )
    .unwrap();
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(
        err.contains("fig12.shard-0.cells.jsonl")
            && err.contains("'wall_ms'")
            && err.contains("out of range"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn frozen_merge_zeroes_walls_an_unfrozen_run_journaled() {
    // Journals written without --freeze-perf carry real wall clocks and
    // RSS; a frozen merge must still match a frozen direct run.
    let (root, journals) = fig12_journals();
    for j in &journals {
        let text = std::fs::read_to_string(j).unwrap();
        let unfrozen = text
            .replace("\"wall_ms\":0", "\"wall_ms\":12.5")
            .replace("\"peak_rss_bytes\":0", "\"peak_rss_bytes\":4096");
        assert_ne!(text, unfrozen);
        std::fs::write(j, unfrozen).unwrap();
    }
    shard::merge(&journals, &root).unwrap();
    let direct_root = scratch("unfrozen_direct");
    direct(
        &ShardSource::from_name("fig12").unwrap(),
        Scale::Smoke,
        &direct_root,
    );
    for file in ["BENCH_fig12.json", "results/fig12_perf.csv"] {
        assert_eq!(
            std::fs::read(root.join(file)).unwrap(),
            std::fs::read(direct_root.join(file)).unwrap(),
            "{file}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&direct_root);
}

#[test]
fn implausible_header_counts_error_instead_of_aborting() {
    let (root, journals) = fig12_journals();
    let text = std::fs::read_to_string(&journals[0]).unwrap();
    std::fs::write(
        &journals[0],
        text.replacen(
            "\"total_cells\":4",
            "\"total_cells\":4000000000000000000",
            1,
        ),
    )
    .unwrap();
    let err = shard::merge(&journals, &root).unwrap_err();
    assert!(
        err.contains("fig12.shard-0.cells.jsonl") && err.contains("implausible total_cells"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn journals_from_different_plans_do_not_merge() {
    let (root, journals) = fig12_journals();
    // A 3-shard replan of the same scenario: shard counts disagree.
    let source = ShardSource::from_name("fig12").unwrap();
    let other_plans = shard::plan(&source, Scale::Smoke, 3, &root.join("shards3")).unwrap();
    let other = shard::run_shard(&other_plans[1], false, false).unwrap();
    let err = shard::merge(&[journals[0].clone(), other], &root).unwrap_err();
    assert!(
        err.contains("journals of different plans") && err.contains("shards3/fig12.shard-1"),
        "mixed plans must be rejected: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Runs `f`, turning a panic into a test failure that names `what`.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| panic!("{what} panicked instead of returning an error"))
}

#[test]
fn every_truncated_plan_and_journal_prefix_fails_naming_the_file() {
    let (root, journals) = fig12_journals();
    let cut = root.join("cut");
    std::fs::create_dir_all(&cut).unwrap();

    // Plans: every strict prefix of the JSON text is refused before
    // anything runs, naming the plan file.
    let plan_text = std::fs::read(root.join("shards/fig12.shard-0.json")).unwrap();
    let plan_json = plan_text.trim_ascii_end();
    let plan = cut.join("fig12.shard-0.json");
    for n in 0..plan_json.len() {
        std::fs::write(&plan, &plan_json[..n]).unwrap();
        let what = format!("plan prefix of {n} bytes");
        let err = no_panic(&what, || shard::run_shard(&plan, false, false))
            .expect_err(&format!("{what} ran"));
        assert!(err.contains(&plan.display().to_string()), "{what}: {err}");
    }
    assert!(!shard::journal_path(&plan).exists(), "no prefix ran a cell");

    // Journals: every strict prefix either names the journal or, when
    // the cut falls on a line boundary, lists the grid cells it lacks.
    let journal_text = std::fs::read(&journals[0]).unwrap();
    let journal = cut.join("fig12.shard-0.cells.jsonl");
    for n in 0..journal_text.len() {
        let prefix = &journal_text[..n];
        std::fs::write(&journal, prefix).unwrap();
        let what = format!("journal prefix of {n} bytes");
        let inputs = [journal.clone(), journals[1].clone()];
        let err =
            no_panic(&what, || shard::merge(&inputs, &root)).expect_err(&format!("{what} merged"));
        let names_file = err.contains(&journal.display().to_string());
        let lists_cells =
            prefix.ends_with(b"\n") && err.contains("missing from the provided journals");
        assert!(names_file || lists_cells, "{what}: {err}");
    }
    assert!(
        !root.join("BENCH_fig12.json").exists(),
        "no prefix produced a report"
    );
    let _ = std::fs::remove_dir_all(&root);
}
