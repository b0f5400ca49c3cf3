//! The fault-tolerance acceptance bar: **kill → resume → merge must be
//! byte-identical to an uninterrupted direct run**, journal corruption
//! must fail naming the shard, and a `shard run` SIGKILLed mid-grid must
//! finish under `shard run --resume` by recomputing only the cells it
//! never journaled.
//!
//! Everything runs under `OCCAMY_FREEZE_PERF=1` (as the CI
//! `crash-resume` job does), which is what makes `cmp`-level equality
//! meaningful across kills and machines.

use occamy_bench::runner::{execute, render_into};
use occamy_bench::scenario::Scale;
use occamy_bench::shard::{self, ShardSource};
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
        "occamy_shard_resume_{}_{tag}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

/// Runs fig12 directly (serial, frozen) and renders into `root`.
fn direct_fig12(root: &Path) {
    freeze();
    let source = ShardSource::from_name("fig12").unwrap();
    let (runs, stats) = execute(&[source.scenario()], Scale::Smoke, false);
    render_into(&runs[0], Scale::Smoke, stats.wall, root).unwrap();
}

/// Asserts the merged output under `merged_root` matches a direct run,
/// ignoring the `shards/` working directory.
fn assert_matches_direct(merged_root: &Path, tag: &str) {
    let a = scratch(&format!("{tag}_direct"));
    direct_fig12(&a);
    let direct_files = tree(&a);
    let mut merged_files = tree(merged_root);
    merged_files.retain(|k, _| !k.starts_with("shards"));
    assert_eq!(
        direct_files.keys().collect::<Vec<_>>(),
        merged_files.keys().collect::<Vec<_>>(),
        "{tag}: output file sets differ"
    );
    for (path, bytes) in &direct_files {
        assert_eq!(
            bytes, &merged_files[path],
            "{tag}: {path} differs between direct run and kill/resume/merge"
        );
    }
    let _ = std::fs::remove_dir_all(&a);
}

/// Plans fig12 (smoke: 4 cells) into 2 shards under `root/shards` and
/// runs both serially, journaling as they go. Returns (plans, journals).
fn fig12_shard_artifacts(root: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
    freeze();
    let source = ShardSource::from_name("fig12").unwrap();
    let plans = shard::plan(&source, Scale::Smoke, 2, &root.join("shards")).unwrap();
    let journals = plans
        .iter()
        .map(|p| shard::run_shard(p, false, false).unwrap())
        .collect();
    (plans, journals)
}

/// Runs the `occamy-bench` binary with `args` in `dir`, perf fields
/// frozen, plus the extra environment `env`.
fn bench(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_occamy-bench"))
        .args(args)
        .current_dir(dir)
        .env("OCCAMY_FREEZE_PERF", "1")
        .envs(env.iter().copied())
        .output()
        .expect("occamy-bench spawns")
}

/// Truncates a journal to its header plus the first `keep` outcome
/// lines (preserving the trailing newline) — exactly what the disk
/// holds after a worker is SIGKILLed `keep` cells in.
fn truncate_journal(journal: &Path, keep: usize) -> String {
    let text = std::fs::read_to_string(journal).unwrap();
    let kept: Vec<&str> = text.lines().take(1 + keep).collect();
    let truncated = format!("{}\n", kept.join("\n"));
    std::fs::write(journal, &truncated).unwrap();
    truncated
}

#[test]
fn kill_and_resume_merges_byte_identical_to_direct_run() {
    let root = scratch("resume");
    let (plans, journals) = fig12_shard_artifacts(&root);

    // Simulate shard 0 dying one cell in: its journal lacks the second
    // outcome.
    let journal = &journals[0];
    assert_eq!(journal, &shard::journal_path(&plans[0]));
    let full = std::fs::read_to_string(journal).unwrap();
    assert_eq!(full.lines().count(), 3, "header + 2 journaled cells");
    let truncated = truncate_journal(journal, 1);

    // Resume: the journaled cell is replayed, only the missing one
    // recomputed, and the journal grows append-only.
    assert_eq!(&shard::run_shard(&plans[0], false, true).unwrap(), journal);
    let resumed = std::fs::read_to_string(journal).unwrap();
    assert!(
        resumed.starts_with(&truncated),
        "resume must append to the surviving journal, not rewrite it"
    );
    assert_eq!(
        resumed.lines().count(),
        3,
        "resume recomputes exactly the one unjournaled cell"
    );

    shard::merge(&journals, &root).unwrap();
    assert_matches_direct(&root, "resume");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn failed_journal_write_fails_the_shard() {
    let root = scratch("jwrite");
    let (plans, journals) = fig12_shard_artifacts(&root);
    // Shard 0 (cells 0 and 2) was killed one cell in, and now its
    // journal cannot be rewritten: a directory squats on the temp path
    // every append renames from.
    truncate_journal(&journals[0], 1);
    let tmp = root.join("shards/fig12.shard-0.cells.jsonl.tmp");
    std::fs::create_dir(&tmp).unwrap();
    let err = shard::run_shard(&plans[0], false, true).unwrap_err();
    assert!(
        err.contains("shard-0") && err.contains("cell 2 could not be journaled"),
        "a result that cannot be journaled must fail the shard: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A plan named without a directory has an empty parent path, which the
/// journal's directory sync must read as the working directory.
#[test]
fn bare_plan_name_run_from_its_directory_journals_every_cell() {
    let root = scratch("bare");
    freeze();
    let source = ShardSource::from_name("fig12").unwrap();
    let plans = shard::plan(&source, Scale::Smoke, 2, &root.join("shards")).unwrap();
    let output = bench(
        &root.join("shards"),
        &["shard", "run", "fig12.shard-0.json"],
        &[],
    );
    assert!(
        output.status.success(),
        "shard run from the plan directory must succeed\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The header plus shard 0's two cells (0 and 2 of fig12's four).
    let journal = std::fs::read_to_string(shard::journal_path(&plans[0])).unwrap();
    assert_eq!(journal.lines().count(), 3, "journal:\n{journal}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_journal_line_fails_naming_the_shard() {
    let root = scratch("torn");
    let (plans, journals) = fig12_shard_artifacts(&root);
    let journal = &journals[1];
    let text = std::fs::read_to_string(journal).unwrap();

    // A journal cut mid-line (no trailing newline), as an interrupted
    // copy leaves it.
    std::fs::write(journal, &text[..text.len() - 20]).unwrap();
    let err = shard::run_shard(&plans[1], false, true).unwrap_err();
    assert!(
        err.contains("truncated mid-write") && err.contains("shard-1"),
        "a torn journal must fail naming the shard: {err}"
    );

    // A half-written last line that does end in a newline: invalid JSON.
    std::fs::write(journal, format!("{}\n", &text[..text.len() - 20])).unwrap();
    let err = shard::run_shard(&plans[1], false, true).unwrap_err();
    assert!(
        err.contains("not valid JSON") && err.contains("shard 1"),
        "a half-written line must fail naming the shard: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn duplicated_journal_cell_fails_naming_the_shard() {
    let root = scratch("dupcell");
    let (plans, journals) = fig12_shard_artifacts(&root);
    let journal = &journals[1];
    let mut text = std::fs::read_to_string(journal).unwrap();
    let last = text.lines().last().unwrap().to_string();
    text.push_str(&last);
    text.push('\n');
    std::fs::write(journal, &text).unwrap();

    // Both the resume path and the merge path must refuse it.
    let err = shard::run_shard(&plans[1], false, true).unwrap_err();
    assert!(
        err.contains("already journaled") && err.contains("shard 1"),
        "a duplicated cell must fail the resume: {err}"
    );
    let err = shard::merge(std::slice::from_ref(journal), &root).unwrap_err();
    assert!(
        err.contains("already journaled") && err.contains("shard 1"),
        "a duplicated cell must fail the merge: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn foreign_journal_is_rejected_on_resume() {
    let root = scratch("foreign");
    let (plans, journals) = fig12_shard_artifacts(&root);
    // Shard 1's journal dropped in place of shard 0's: header mismatch.
    std::fs::copy(&journals[1], &journals[0]).unwrap();
    let err = shard::run_shard(&plans[0], false, true).unwrap_err();
    assert!(
        err.contains("belongs to a different plan"),
        "a foreign journal must not resume: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A `shard run` that SIGKILLs itself one cell in (the
/// `OCCAMY_SHARD_KILL_AFTER` hook) leaves exactly the header and that
/// cell in its journal; `shard run --resume` recomputes only the other
/// cell, and the merge is byte-identical to a direct run.
#[cfg(unix)]
#[test]
fn sigkilled_shard_run_resumes_and_merges_byte_identical() {
    use std::os::unix::process::ExitStatusExt;

    let root = scratch("crash_resume");
    freeze();
    let source = ShardSource::from_name("fig12").unwrap();
    let plans = shard::plan(&source, Scale::Smoke, 2, &root.join("shards")).unwrap();
    let plan1 = "shards/fig12.shard-1.json";

    let killed = bench(
        &root,
        &["shard", "run", plan1, "--serial"],
        &[("OCCAMY_SHARD_KILL_AFTER", "1:1")],
    );
    assert_eq!(
        killed.status.signal(),
        Some(9),
        "the shard run must die by SIGKILL: {:?}\nstderr:\n{}",
        killed.status,
        String::from_utf8_lossy(&killed.stderr)
    );
    let journal = shard::journal_path(&plans[1]);
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(
        text.lines().count(),
        2,
        "header + 1 journaled cell:\n{text}"
    );

    let resumed = bench(&root, &["shard", "run", plan1, "--serial", "--resume"], &[]);
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        resumed.status.success(),
        "the resumed run must finish\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(
        stdout.contains("resuming shard 1 of 'fig12': 1 of 2 cells journaled, 1 to run"),
        "the resumed run must replay the journal:\n{stdout}"
    );
    // The cell counter counts the grid (fig12 smoke: 4 cells), not the
    // one cell left to run, just as a direct run's does.
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    let starts: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("cell start: "))
        .collect();
    assert_eq!(starts.len(), 1, "one cell left to run:\n{stderr}");
    assert!(
        starts[0].starts_with("cell start: fig12[4/4] "),
        "the resumed cell must be numbered within the grid: {}",
        starts[0]
    );
    let resumed_text = std::fs::read_to_string(&journal).unwrap();
    assert!(
        resumed_text.starts_with(&text),
        "resume must append to the surviving journal, not rewrite it"
    );
    assert_eq!(
        resumed_text.lines().count(),
        3,
        "the journaled cell is not recomputed:\n{resumed_text}"
    );

    let shard0 = bench(&root, &["shard", "run", "shards/fig12.shard-0.json"], &[]);
    assert!(shard0.status.success(), "{shard0:?}");
    let merged = bench(
        &root,
        &[
            "shard",
            "merge",
            "shards/fig12.shard-0.cells.jsonl",
            "shards/fig12.shard-1.cells.jsonl",
        ],
        &[],
    );
    assert!(merged.status.success(), "{merged:?}");
    assert_matches_direct(&root, "crash_resume");
    let _ = std::fs::remove_dir_all(&root);
}
