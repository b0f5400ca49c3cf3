//! The fault-tolerant fleet driver: `occamy-bench fleet` supervises a
//! whole plan set on one machine, surviving worker crashes and hangs.
//!
//! [`fleet`] spawns one `occamy-bench shard run <plan> --resume` worker
//! *process* per shard (at most `--workers` concurrently), watching
//! each through its exit status and its `<plan>.cells.jsonl` journal:
//!
//! - a worker that **exits nonzero or disappears** (OOM-killed,
//!   SIGKILLed, machine hiccup) is re-dispatched with capped
//!   exponential backoff, up to `--retries` times — and because every
//!   finished cell is already in the shard's `<plan>.cells.jsonl`
//!   journal, the retried worker recomputes **only the cells the dead
//!   one never journaled**;
//! - a worker whose journal **stops growing** for `--timeout-s`
//!   seconds is declared hung, killed and re-dispatched the same way;
//! - a shard that exhausts its retries **degrades gracefully**: the
//!   fleet finishes every other shard, then reports the exact grid
//!   cells still owed (by index and grid label) and exits nonzero —
//!   no partial merge, no panic, no silent loss.
//!
//! When every shard completes, the journals are merged through the
//! ordinary [`crate::shard::merge`] path, so the fleet's output is
//! byte-identical to a direct `--freeze-perf` run even when workers
//! were killed and resumed mid-shard (CI-enforced by the
//! `fleet-resilience` job).
//!
//! Progress is mirrored to `fleet.status.json` next to the plans —
//! one small overwritten JSON object (`kind = "fleet"`) that
//! `occamy-bench watch` renders as a live per-shard table: running /
//! retried / done, with journal-backed cell counts.

use crate::retry::backoff_delay;
use crate::shard::{self, PlanInfo};
use occamy_stats::Json;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Poll cadence of the supervision loop.
const POLL: Duration = Duration::from_millis(100);

/// Ceiling on the re-dispatch backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(30);

/// Base re-dispatch backoff (first retry waits this long, then the
/// delay doubles up to [`BACKOFF_CAP`]). `OCCAMY_FLEET_BACKOFF_MS`
/// overrides it — the resilience tests shrink it so a kill-and-resume
/// cycle takes milliseconds, not seconds.
fn backoff_base() -> Duration {
    std::env::var("OCCAMY_FLEET_BACKOFF_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_millis(500))
}

/// Knobs of one [`fleet`] invocation, straight from the CLI.
pub struct FleetOptions {
    /// Max concurrently running workers (0 = min(shards, cores)).
    pub workers: usize,
    /// Re-dispatches allowed per shard after its first failure.
    pub retries: u32,
    /// Liveness timeout: a worker whose journal gains no cell for this
    /// long is killed and retried. Zero disables.
    pub timeout: Duration,
    /// Pass `--serial` to workers (one cell at a time per worker).
    pub serial_workers: bool,
    /// Where the merged report goes (the direct-run default is `.`).
    pub out_root: PathBuf,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            workers: 0,
            retries: 2,
            timeout: Duration::ZERO,
            serial_workers: false,
            out_root: PathBuf::from("."),
        }
    }
}

/// Where one shard is in its lifecycle.
enum ShardState {
    /// Waiting for a worker slot (and, after a failure, for backoff).
    Pending {
        ready_at: Instant,
    },
    /// A worker process is executing the shard.
    Running {
        child: Child,
        /// Journaled cells when last observed, for hang detection.
        last_cells: usize,
        last_progress: Instant,
    },
    Done,
    Failed,
}

struct ShardSlot {
    plan: PlanInfo,
    state: ShardState,
    /// Dispatches so far (1 = first attempt running or finished).
    attempts: u32,
}

impl ShardSlot {
    fn state_str(&self) -> &'static str {
        match self.state {
            ShardState::Pending { .. } => "pending",
            ShardState::Running { .. } => "running",
            ShardState::Done => "done",
            ShardState::Failed => "failed",
        }
    }
}

/// Whether a file name has a plan's form, `<scenario>.shard-<digits>.json`.
fn is_plan_name(name: &str) -> bool {
    name.strip_suffix(".json")
        .and_then(|stem| stem.rsplit_once(".shard-"))
        .is_some_and(|(scenario, id)| {
            !scenario.is_empty() && !id.is_empty() && id.bytes().all(|b| b.is_ascii_digit())
        })
}

/// Collects the plan files of a plan directory: every file named
/// `<scenario>.shard-<digits>.json`. Journals, logs, the status file
/// and leftovers of older runs never match that form.
pub fn plans_in_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut plans = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if is_plan_name(name) {
            plans.push(path);
        }
    }
    plans.sort();
    if plans.is_empty() {
        return Err(format!(
            "no shard plan files (*.shard-<i>.json) under {} — \
             generate them with `occamy-bench shard plan … --shards N`",
            dir.display()
        ));
    }
    Ok(plans)
}

/// Validates that `plans` form one complete plan set: same scenario,
/// scale and shard count everywhere, every shard id 0..shards present
/// exactly once (the fleet merges at the end, and merge needs them
/// all).
fn load_plan_set(plans: &[PathBuf]) -> Result<Vec<PlanInfo>, String> {
    let infos: Vec<PlanInfo> = plans
        .iter()
        .map(|p| shard::plan_info(p))
        .collect::<Result<_, _>>()?;
    let first = &infos[0];
    for i in &infos[1..] {
        if i.scenario != first.scenario || i.shards != first.shards || i.scale != first.scale {
            return Err(format!(
                "{}: plan ('{}', {} scale, {} shards) does not match {} \
                 ('{}', {} scale, {} shards) — plans of different runs",
                i.path.display(),
                i.scenario,
                i.scale,
                i.shards,
                first.path.display(),
                first.scenario,
                first.scale,
                first.shards
            ));
        }
    }
    let mut seen: Vec<Option<&PlanInfo>> = vec![None; first.shards];
    for i in &infos {
        if let Some(prev) = seen[i.shard] {
            return Err(format!(
                "{}: shard {} already planned by {}",
                i.path.display(),
                i.shard,
                prev.path.display()
            ));
        }
        seen[i.shard] = Some(i);
    }
    let missing: Vec<String> = seen
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_none())
        .map(|(s, _)| s.to_string())
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "plan set is missing shard(s) {} of {} — a fleet needs the whole set to merge",
            missing.join(", "),
            first.shards
        ));
    }
    Ok(infos)
}

/// Spawns one worker: `occamy-bench shard run <plan> --resume`,
/// stdout+stderr appended to `<plan stem>.log` (attempts separated by
/// a marker line the coordinator writes first). Inherits this
/// process's environment, so `--freeze-perf` / telemetry settings
/// propagate.
fn spawn_worker(plan: &PlanInfo, attempt: u32, serial: bool) -> Result<Child, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the occamy-bench binary: {e}"))?;
    let log_path = worker_log_path(&plan.path);
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log_path)
        .map_err(|e| format!("cannot open {}: {e}", log_path.display()))?;
    use std::io::Write as _;
    let _ = writeln!(log, "=== fleet: shard {} attempt {attempt} ===", plan.shard);
    let err_log = log
        .try_clone()
        .map_err(|e| format!("cannot clone log handle for {}: {e}", log_path.display()))?;
    let mut cmd = Command::new(exe);
    cmd.arg("shard")
        .arg("run")
        .arg(&plan.path)
        .arg("--resume")
        .stdin(Stdio::null())
        .stdout(Stdio::from(log))
        .stderr(Stdio::from(err_log));
    if serial {
        cmd.arg("--serial");
    }
    cmd.spawn()
        .map_err(|e| format!("cannot spawn worker for shard {}: {e}", plan.shard))
}

/// The worker log for a plan file: `<plan stem>.log` next to it.
fn worker_log_path(plan_path: &Path) -> PathBuf {
    let s = plan_path.to_string_lossy();
    match s.strip_suffix(".json") {
        Some(stem) => PathBuf::from(format!("{stem}.log")),
        None => PathBuf::from(format!("{s}.log")),
    }
}

/// Writes (overwrites) `fleet.status.json` in the plan directory —
/// operational metadata, not a result artifact: real timestamps even
/// under `--freeze-perf`, failures ignored (status must never fail a
/// fleet). `cells_done` counts each shard's journaled cells.
fn write_status(dir: &Path, scenario: &str, workers: usize, slots: &[ShardSlot]) {
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let count = |s: &str| slots.iter().filter(|x| x.state_str() == s).count();
    let _ = Json::obj([
        ("format", Json::from(shard::SHARD_FORMAT)),
        ("kind", Json::from("fleet")),
        ("scenario", Json::from(scenario)),
        ("workers", Json::from(workers)),
        ("running", Json::from(count("running"))),
        ("pending", Json::from(count("pending"))),
        ("done", Json::from(count("done"))),
        ("failed", Json::from(count("failed"))),
        (
            "retries",
            Json::from(
                slots
                    .iter()
                    .map(|s| s.attempts.saturating_sub(1) as u64)
                    .sum::<u64>(),
            ),
        ),
        (
            "shards",
            Json::arr(slots.iter().map(|s| {
                Json::obj([
                    ("shard", Json::from(s.plan.shard)),
                    ("state", Json::from(s.state_str())),
                    ("attempts", Json::from(s.attempts as u64)),
                    (
                        "cells_done",
                        Json::from(shard::journaled_cells(&s.plan.path)),
                    ),
                    ("cells_planned", Json::from(s.plan.cells)),
                ])
            })),
        ),
        ("last_event_unix_ms", Json::from(now_ms)),
    ])
    .write_to(&dir.join("fleet.status.json"));
}

/// Runs a whole plan set to completion under supervision (see the
/// module docs for the retry / hang / degraded-mode contract), then
/// merges the journals into `opts.out_root`. Returns the merged
/// `BENCH_<name>.json` path, or — after any shard exhausts its
/// retries — an error naming every unfinished cell by grid label.
pub fn fleet(plans: &[PathBuf], opts: &FleetOptions) -> Result<PathBuf, String> {
    let infos = load_plan_set(plans)?;
    let scenario = infos[0].scenario.clone();
    let status_dir = infos[0]
        .path
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let workers = if opts.workers > 0 {
        opts.workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(infos.len())
    };
    println!(
        "fleet: '{}' — {} shards, {} worker(s), {} retr{} per shard{}",
        scenario,
        infos.len(),
        workers,
        opts.retries,
        if opts.retries == 1 { "y" } else { "ies" },
        if opts.timeout.is_zero() {
            String::new()
        } else {
            format!(", {}s liveness timeout", opts.timeout.as_secs())
        }
    );

    let now = Instant::now();
    let mut slots: Vec<ShardSlot> = infos
        .into_iter()
        .map(|plan| ShardSlot {
            plan,
            state: ShardState::Pending { ready_at: now },
            attempts: 0,
        })
        .collect();

    let base = backoff_base();
    let mut last_status = Instant::now() - Duration::from_secs(1);
    loop {
        // Reap finished workers and detect hung ones.
        for slot in &mut slots {
            let ShardState::Running {
                child,
                last_cells,
                last_progress,
            } = &mut slot.state
            else {
                continue;
            };
            match child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    println!(
                        "fleet: shard {} done (attempt {})",
                        slot.plan.shard, slot.attempts
                    );
                    slot.state = ShardState::Done;
                }
                Ok(Some(status)) => {
                    fail_attempt(slot, &format!("exited with {status}"), opts.retries, base);
                }
                Ok(None) => {
                    let cells = shard::journaled_cells(&slot.plan.path);
                    if cells > *last_cells {
                        *last_cells = cells;
                        *last_progress = Instant::now();
                    } else if !opts.timeout.is_zero() && last_progress.elapsed() > opts.timeout {
                        let _ = child.kill();
                        let _ = child.wait();
                        let msg = format!(
                            "hung: no journal progress past {cells} cells for {}s",
                            opts.timeout.as_secs()
                        );
                        fail_attempt(slot, &msg, opts.retries, base);
                    }
                }
                Err(e) => {
                    fail_attempt(slot, &format!("wait failed: {e}"), opts.retries, base);
                }
            }
        }

        // Dispatch pending shards into free worker slots.
        let mut running = slots
            .iter()
            .filter(|s| matches!(s.state, ShardState::Running { .. }))
            .count();
        for slot in &mut slots {
            if running >= workers {
                break;
            }
            let ShardState::Pending { ready_at } = &slot.state else {
                continue;
            };
            if Instant::now() < *ready_at {
                continue;
            }
            slot.attempts += 1;
            match spawn_worker(&slot.plan, slot.attempts, opts.serial_workers) {
                Ok(child) => {
                    println!(
                        "fleet: shard {} dispatched (attempt {})",
                        slot.plan.shard, slot.attempts
                    );
                    slot.state = ShardState::Running {
                        child,
                        last_cells: shard::journaled_cells(&slot.plan.path),
                        last_progress: Instant::now(),
                    };
                    running += 1;
                }
                Err(e) => fail_attempt(slot, &e, opts.retries, base),
            }
        }

        if last_status.elapsed() >= Duration::from_millis(500) {
            write_status(&status_dir, &scenario, workers, &slots);
            last_status = Instant::now();
        }
        let settled = slots
            .iter()
            .all(|s| matches!(s.state, ShardState::Done | ShardState::Failed));
        if settled {
            break;
        }
        std::thread::sleep(POLL);
    }
    write_status(&status_dir, &scenario, workers, &slots);

    let retries_total: u32 = slots.iter().map(|s| s.attempts.saturating_sub(1)).sum();
    let failed: Vec<&ShardSlot> = slots
        .iter()
        .filter(|s| matches!(s.state, ShardState::Failed))
        .collect();
    if !failed.is_empty() {
        // Degraded mode: every other shard finished (its journal is on
        // disk and reusable); report exactly what the failed shards
        // still owe, by grid label.
        let mut owed = Vec::new();
        for slot in &failed {
            let cells = shard::unfinished_cells(&slot.plan.path)
                .unwrap_or_else(|e| vec![format!("(journal unreadable: {e})")]);
            owed.push(format!(
                "shard {} ({} attempts): {}",
                slot.plan.shard,
                slot.attempts,
                cells.join(", ")
            ));
        }
        return Err(format!(
            "fleet: {} of {} shards failed after retries; unfinished cells:\n  {}\n\
             completed shards keep their journals — fix the cause and re-run the \
             fleet to resume from where it stopped",
            failed.len(),
            slots.len(),
            owed.join("\n  ")
        ));
    }

    let journals: Vec<PathBuf> = slots
        .iter()
        .map(|s| shard::journal_path(&s.plan.path))
        .collect();
    let merged = shard::merge(&journals, &opts.out_root)?;
    println!(
        "fleet: {} shards done ({retries_total} retr{}), merged -> {}",
        slots.len(),
        if retries_total == 1 { "y" } else { "ies" },
        merged.display()
    );
    Ok(merged)
}

/// Marks one attempt failed: schedules a backed-off retry while any
/// remain, otherwise declares the shard permanently failed. Every
/// transition is printed with the shard, attempt and cause.
fn fail_attempt(slot: &mut ShardSlot, cause: &str, retries: u32, base: Duration) {
    if slot.attempts > retries {
        eprintln!(
            "fleet: shard {} FAILED permanently after {} attempts ({cause})",
            slot.plan.shard, slot.attempts
        );
        slot.state = ShardState::Failed;
    } else {
        let delay = backoff_delay(slot.attempts, base, BACKOFF_CAP);
        eprintln!(
            "fleet: shard {} attempt {} failed ({cause}); retrying in {delay:?}",
            slot.plan.shard, slot.attempts
        );
        slot.state = ShardState::Pending {
            ready_at: Instant::now() + delay,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;
    use crate::shard::ShardSource;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("occamy_fleet_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn plan_discovery_skips_artifacts() {
        let dir = scratch("discover");
        let source = ShardSource::from_name("fig12").unwrap();
        let plans = shard::plan(&source, Scale::Smoke, 2, &dir).unwrap();
        // Artifacts that must not be mistaken for plans, including the
        // partial-result and heartbeat files older binaries wrote.
        for name in [
            "fig12.shard-0.result.json",
            "fig12.shard-0.heartbeat.json",
            "fig12.shard-0.cells.jsonl",
            "fig12.shard-0.log",
            "fleet.status.json",
            "fig12.shard-x.json",
            ".shard-0.json",
        ] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let found = plans_in_dir(&dir).unwrap();
        assert_eq!(found, {
            let mut p = plans.clone();
            p.sort();
            p
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_is_an_error() {
        let dir = scratch("empty");
        let e = plans_in_dir(&dir).unwrap_err();
        assert!(e.contains("no shard plan files"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incomplete_plan_set_is_rejected() {
        let dir = scratch("incomplete");
        let source = ShardSource::from_name("fig12").unwrap();
        let plans = shard::plan(&source, Scale::Smoke, 3, &dir).unwrap();
        let e = load_plan_set(&plans[..2]).unwrap_err();
        assert!(e.contains("missing shard(s) 2 of 3"), "{e}");
        // A duplicated shard is also rejected, naming both files.
        let dup = vec![plans[0].clone(), plans[0].clone(), plans[1].clone()];
        let e = load_plan_set(&dup).unwrap_err();
        assert!(e.contains("already planned by"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_file_counts_states() {
        let dir = scratch("status");
        let source = ShardSource::from_name("fig12").unwrap();
        let plans = shard::plan(&source, Scale::Smoke, 2, &dir).unwrap();
        // Shard 0 has journaled two cells (header + 2 lines); shard 1
        // has no journal yet.
        std::fs::write(shard::journal_path(&plans[0]), "{}\n{}\n{}\n").unwrap();
        let infos = load_plan_set(&plans).unwrap();
        let now = Instant::now();
        let slots: Vec<ShardSlot> = infos
            .into_iter()
            .map(|plan| ShardSlot {
                plan,
                state: ShardState::Pending { ready_at: now },
                attempts: 0,
            })
            .collect();
        write_status(&dir, "fig12", 2, &slots);
        let doc =
            Json::parse(&std::fs::read_to_string(dir.join("fleet.status.json")).unwrap()).unwrap();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("fleet"));
        assert_eq!(doc.get("pending").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("done").and_then(Json::as_u64), Some(0));
        let cells_done: Vec<Option<u64>> = doc
            .get("shards")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.get("cells_done").and_then(Json::as_u64))
            .collect();
        assert_eq!(cells_done, [Some(2), Some(0)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
