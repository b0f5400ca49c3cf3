//! The parallel experiment runner: executes scenario grids cell-by-cell
//! across worker threads, then renders each scenario's report and writes
//! the machine-readable `BENCH_<name>.json` sink.
//!
//! Cells are flattened across all requested scenarios into one job list
//! so a wide grid keeps every core busy even while a narrow one
//! finishes. Results are reassembled in grid order before `emit`, so the
//! printed tables are identical however many threads ran.
//!
//! Execution and report assembly are separate stages on purpose: a
//! direct `run` executes a whole grid and assembles immediately, while
//! the shard pipeline (see [`crate::shard`]) executes subsets of a grid
//! on different machines ([`run_cells`]) and assembles later from the
//! reunited outcomes ([`assemble`] + [`render_into`]) — both paths go
//! through the same code, which is what makes a merged distributed run
//! byte-identical to a single-machine run.

use crate::scenario::{CellOutcome, CellSpec, Report, Scale, Scenario};
use occamy_sim::telemetry::{self, CellInfo, SnapshotKind};
use occamy_stats::{Json, Table};
use rayon::prelude::*;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where that file doesn't exist (non-Linux).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Executes one cell with full instrumentation: the cell-start log line
/// (grid label + seed, so long serial cells are attributable in the
/// job log), telemetry cell context + boundary markers, wall clock and
/// peak RSS. `total` is the number of cells in the batch being run.
fn run_cell(scenario: &dyn Scenario, spec: &CellSpec, total: usize) -> CellOutcome {
    if !crate::live_mode() {
        eprintln!(
            "cell start: {}[{}/{}] {} seed={:#018x}",
            scenario.name(),
            spec.index + 1,
            total,
            spec.label(),
            spec.seed
        );
    }
    telemetry::set_cell(CellInfo {
        scenario: scenario.name().to_string(),
        index: spec.index,
        total,
        label: spec.label(),
        seed: spec.seed,
    });
    telemetry::set_cell_cadence(scenario.telemetry_every());
    telemetry::emit_marker(SnapshotKind::CellStart, 0, 0, 0);
    let start = Instant::now();
    let result = scenario.run(spec);
    let events = result.get("events").unwrap_or(0.0) as u64;
    telemetry::emit_marker(SnapshotKind::CellEnd, events, 0, 0);
    CellOutcome {
        spec: spec.clone(),
        result,
        wall: start.elapsed(),
        rss: peak_rss_bytes(),
    }
}

/// One scenario's finished grid plus its rendered report.
pub struct ScenarioRun {
    /// The scenario that ran.
    pub scenario: &'static dyn Scenario,
    /// Every cell outcome, in grid order.
    pub outcomes: Vec<CellOutcome>,
    /// The rendered tables and notes.
    pub report: Report,
}

impl ScenarioRun {
    /// Sum of per-cell wall-clock times — what a serial runner would
    /// have spent executing (excludes emit).
    pub fn serial_cell_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.wall).sum()
    }

    /// Total simulator events across all cells (cells that report an
    /// `events` metric; see `occamy_sim::Metrics::events_processed`).
    pub fn events_total(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.get("events"))
            .sum::<f64>() as u64
    }

    /// Aggregate simulator throughput: total events over total per-cell
    /// wall time — the headline perf number tracked across PRs.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.serial_cell_time().as_secs_f64();
        if secs > 0.0 {
            self.events_total() as f64 / secs
        } else {
            0.0
        }
    }

    /// The machine-readable report for `BENCH_<name>.json`.
    ///
    /// `batch_wall` is the wall-clock time of the whole `execute` call
    /// that produced this run; cells of several scenarios may have
    /// interleaved in it, so it is recorded as `batch_wall_ms`, distinct
    /// from this scenario's own `serial_cell_time_ms`.
    pub fn to_json(&self, scale: Scale, batch_wall: Duration) -> Json {
        Json::obj([
            ("scenario", Json::from(self.scenario.name())),
            ("description", Json::from(self.scenario.description())),
            ("scale", Json::from(scale.to_string())),
            ("cells", Json::from(self.outcomes.len())),
            (
                "serial_cell_time_ms",
                Json::from(self.serial_cell_time().as_millis() as u64),
            ),
            ("batch_wall_ms", Json::from(batch_wall.as_millis() as u64)),
            ("events_total", Json::from(self.events_total())),
            ("events_per_sec", Json::from(self.events_per_sec())),
            // The cell pool's speedup: serial cell time over batch
            // wall (zero under OCCAMY_FREEZE_PERF, like both inputs).
            (
                "speedup",
                Json::from(if batch_wall.as_secs_f64() > 0.0 {
                    self.serial_cell_time().as_secs_f64() / batch_wall.as_secs_f64()
                } else {
                    0.0
                }),
            ),
            (
                "results",
                Json::arr(self.outcomes.iter().map(|o| {
                    let Json::Obj(mut fields) = o.spec.to_json() else {
                        unreachable!("CellSpec::to_json returns an object");
                    };
                    // Per-cell perf trajectory: wall clock and, when the
                    // cell counted simulator events, its events/sec.
                    let (wall_ms, eps) = cell_perf(o);
                    fields.push(("wall_ms".to_string(), Json::from(wall_ms)));
                    if let Some(eps) = eps {
                        fields.push(("events_per_sec".to_string(), Json::from(eps)));
                    }
                    fields.push(("peak_rss_bytes".to_string(), Json::from(o.rss)));
                    let Json::Obj(result) = o.result.to_json() else {
                        unreachable!("CellResult::to_json returns an object");
                    };
                    fields.extend(result);
                    Json::Obj(fields)
                })),
            ),
            (
                "tables",
                Json::arr(self.report.tables().iter().map(|(t, _)| t.to_json())),
            ),
            (
                "notes",
                Json::arr(self.report.notes().iter().map(|n| Json::from(n.as_str()))),
            ),
        ])
    }
}

/// Aggregate statistics of one `execute` call.
pub struct ExecStats {
    /// Total cells executed.
    pub cells: usize,
    /// Wall-clock time of the whole parallel phase.
    pub wall: Duration,
    /// Sum of per-cell times (the serial-execution lower bound).
    pub serial: Duration,
    /// Worker threads used.
    pub threads: usize,
}

/// Executes the grids of all `scenarios` at `scale` and folds each into
/// its report. With `parallel = false` cells run on the calling thread
/// (useful for profiling and as a baseline for the speedup check).
pub fn execute(
    scenarios: &[&'static dyn Scenario],
    scale: Scale,
    parallel: bool,
) -> (Vec<ScenarioRun>, ExecStats) {
    struct Job<'s> {
        scenario: &'s dyn Scenario,
        which: usize,
        spec: CellSpec,
    }

    let mut jobs: Vec<Job<'static>> = Vec::new();
    let mut grids: Vec<usize> = Vec::new();
    for (which, s) in scenarios.iter().enumerate() {
        let cells = s.grid(scale);
        assert!(
            !cells.is_empty(),
            "scenario '{}' generated an empty grid at scale {scale}",
            s.name()
        );
        grids.push(cells.len());
        jobs.extend(cells.into_iter().map(|spec| Job {
            scenario: *s,
            which,
            spec,
        }));
    }

    let run_one = |job: &Job<'static>| -> (usize, CellOutcome) {
        (
            job.which,
            run_cell(job.scenario, &job.spec, grids[job.which]),
        )
    };

    let started = Instant::now();
    let raw: Vec<(usize, CellOutcome)> = if parallel {
        jobs.par_iter().map(run_one).collect()
    } else {
        jobs.iter().map(run_one).collect()
    };
    let wall = if crate::freeze_perf() {
        Duration::ZERO
    } else {
        started.elapsed()
    };

    let mut per_scenario: Vec<Vec<CellOutcome>> =
        grids.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (which, outcome) in raw {
        per_scenario[which].push(outcome);
    }
    for outcomes in &mut per_scenario {
        freeze_walls(outcomes);
    }

    let serial = per_scenario.iter().flatten().map(|o| o.wall).sum();
    let cells = jobs.len();

    let runs = scenarios
        .iter()
        .zip(per_scenario)
        .map(|(scenario, outcomes)| assemble(*scenario, outcomes))
        .collect();

    let stats = ExecStats {
        cells,
        wall,
        serial,
        threads: if parallel {
            rayon::current_num_threads()
        } else {
            1
        },
    };
    (runs, stats)
}

/// Executes one scenario's `cells` (any subset of its grid, in any
/// order), handing each finished cell's outcome to `on_cell_done` — the
/// execution half shared by `run` (via [`execute`]'s job list) and
/// `shard run`, which feeds a planned subset instead of the whole grid
/// and journals each outcome, so a killed shard is resumable and its
/// progress visible from the outside.
///
/// `on_cell_done` may be invoked from worker threads, hence `Sync`. The
/// first error it returns stops the run: no further cell starts, and
/// that error is returned once the cells already running finish.
///
/// Perf fields are frozen *before* the callback fires (not only in the
/// final batch pass), so anything the callback persists — the journal
/// in particular — carries the same zeroed `wall`/`rss` a frozen direct
/// run records, keeping merged shards byte-identical.
pub fn run_cells(
    scenario: &'static dyn Scenario,
    cells: &[CellSpec],
    parallel: bool,
    on_cell_done: &(dyn Fn(&CellOutcome) -> Result<(), String> + Sync),
) -> Result<(), String> {
    const POISONED: &str = "a cell worker panicked while recording a failure";
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let run_one = |spec: &CellSpec| {
        if failure.lock().expect(POISONED).is_some() {
            return;
        }
        let mut outcome = run_cell(scenario, spec, cells.len());
        freeze_walls(std::slice::from_mut(&mut outcome));
        if let Err(e) = on_cell_done(&outcome) {
            failure.lock().expect(POISONED).get_or_insert(e);
        }
    };
    if parallel {
        let _: Vec<()> = cells.par_iter().map(run_one).collect();
    } else {
        cells.iter().for_each(run_one);
    }
    match failure.into_inner().expect(POISONED) {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Reassembles a scenario's outcomes into grid order and folds them
/// through [`Scenario::emit`] — the assembly half shared by [`execute`]
/// and `shard merge`. Sorting here (rather than trusting the caller)
/// means emit never sees a permuted grid, whether the outcomes arrived
/// from a parallel backend or from shard files in arbitrary order.
pub fn assemble(scenario: &'static dyn Scenario, mut outcomes: Vec<CellOutcome>) -> ScenarioRun {
    outcomes.sort_by_key(|o| o.spec.index);
    ScenarioRun {
        scenario,
        report: scenario.emit(&outcomes),
        outcomes,
    }
}

/// Under `OCCAMY_FREEZE_PERF=1` (see [`crate::freeze_perf`]) wall-clock
/// measurements are forced to zero at the moment they are collected, so
/// every downstream artifact — `BENCH_<name>.json`, `results/*_perf.csv`
/// — is byte-reproducible and a merged distributed run can be `cmp`-ed
/// against a direct run.
pub(crate) fn freeze_walls(outcomes: &mut [CellOutcome]) {
    if crate::freeze_perf() {
        for o in outcomes {
            o.wall = Duration::ZERO;
            o.rss = 0;
        }
    }
}

/// One cell's perf numbers: wall clock in ms and, when the cell counted
/// simulator events and took measurable time, its events/sec. The single
/// source for both the `BENCH_<name>.json` cells and the perf CSV.
fn cell_perf(o: &CellOutcome) -> (f64, Option<f64>) {
    let wall_ms = o.wall.as_secs_f64() * 1e3;
    let eps = o
        .result
        .get("events")
        .filter(|_| wall_ms > 0.0)
        .map(|events| events / (wall_ms / 1e3));
    (wall_ms, eps)
}

/// Builds the per-cell performance table (`results/<name>_perf.csv`):
/// wall clock, simulator events and events/sec for every cell.
fn perf_table(run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        &format!("{} cell performance", run.scenario.name()),
        &[
            "cell",
            "params",
            "wall_ms",
            "events",
            "events_per_sec",
            "peak_rss_mb",
        ],
    );
    let int = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.0}"));
    for o in &run.outcomes {
        let (wall_ms, eps) = cell_perf(o);
        t.row(vec![
            o.spec.index.to_string(),
            o.spec.label(),
            format!("{wall_ms:.3}"),
            int(o.result.get("events")),
            int(eps),
            format!("{:.1}", o.rss as f64 / (1024.0 * 1024.0)),
        ]);
    }
    t
}

/// Prints a run's tables and notes, mirrors tables to their CSV files
/// under `<root>/results/` and writes `<root>/BENCH_<name>.json`.
/// Returns the JSON path. `root = "."` is the CLI behavior ([`render`]);
/// tests and `shard merge` point it elsewhere.
pub fn render_into(
    run: &ScenarioRun,
    scale: Scale,
    batch_wall: Duration,
    root: &std::path::Path,
) -> std::io::Result<PathBuf> {
    println!(
        "=== {} — {} ({} cells) ===\n",
        run.scenario.name(),
        run.scenario.description(),
        run.outcomes.len()
    );
    let results_dir = root.join("results");
    for (table, csv) in run.report.tables() {
        table.print();
        if let Some(csv) = csv {
            table.to_csv(&results_dir.join(csv))?;
        }
    }
    for note in run.report.notes() {
        println!("{note}");
    }
    perf_table(run).to_csv(&results_dir.join(format!("{}_perf.csv", run.scenario.name())))?;
    let events = run.events_total();
    if events > 0 {
        println!(
            "perf: {} — {events} events in {:.1} ms serial cell time = {:.0} events/sec",
            run.scenario.name(),
            run.serial_cell_time().as_secs_f64() * 1e3,
            run.events_per_sec(),
        );
    }
    let path = root.join(format!("BENCH_{}.json", run.scenario.name()));
    run.to_json(scale, batch_wall).write_to(&path)?;
    println!("\nwrote {}\n", path.display());
    Ok(path)
}

/// [`render_into`] the current directory — what the CLI does.
pub fn render(run: &ScenarioRun, scale: Scale, batch_wall: Duration) -> std::io::Result<PathBuf> {
    render_into(run, scale, batch_wall, std::path::Path::new("."))
}

/// Prints the closing parallelism summary of an `execute` call.
pub fn print_stats(stats: &ExecStats) {
    let speedup = if stats.wall.as_secs_f64() > 0.0 {
        stats.serial.as_secs_f64() / stats.wall.as_secs_f64()
    } else {
        1.0
    };
    println!(
        "ran {} cells on {} threads: {:.2} s wall, {:.2} s total cell time ({speedup:.1}x)",
        stats.cells,
        stats.threads,
        stats.wall.as_secs_f64(),
        stats.serial.as_secs_f64(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CellResult, Grid, Report, Scale, Scenario};
    use occamy_stats::Table;

    struct Sleepy;

    impl Scenario for Sleepy {
        fn name(&self) -> &'static str {
            "sleepy"
        }
        fn description(&self) -> &'static str {
            "test scenario"
        }
        fn grid(&self, scale: Scale) -> Vec<CellSpec> {
            Grid::new("sleepy", scale).axis("i", 0u64..8).build()
        }
        fn run(&self, cell: &CellSpec) -> CellResult {
            std::thread::sleep(Duration::from_millis(15));
            CellResult::new().metric("i2", (cell.u64("i") * 2) as f64)
        }
        fn emit(&self, outcomes: &[CellOutcome]) -> Report {
            let mut t = Table::new("doubles", &["i", "i2"]);
            for o in outcomes {
                t.row(vec![o.spec.u64("i").to_string(), o.result.fmt("i2")]);
            }
            Report::new().table(t).note("done")
        }
    }

    #[test]
    fn execute_returns_grid_order_and_emits() {
        static S: Sleepy = Sleepy;
        let (runs, stats) = execute(&[&S], Scale::Smoke, true);
        assert_eq!(stats.cells, 8);
        let run = &runs[0];
        assert_eq!(run.outcomes.len(), 8);
        for (i, o) in run.outcomes.iter().enumerate() {
            assert_eq!(o.spec.index, i);
            assert_eq!(o.result.get("i2"), Some(i as f64 * 2.0));
        }
        assert_eq!(run.report.tables().len(), 1);
        assert_eq!(run.report.notes(), ["done".to_string()]);
    }

    #[test]
    fn parallel_beats_serial_cell_time() {
        // Sleep-bound cells overlap whenever the pool really runs
        // concurrently, even on a single-core host — so ask for a
        // multi-thread pool rather than skipping there. Upstream rayon
        // sizes its global pool once at first use and ignores later env
        // changes; if the request didn't take (vendor swap-back on a
        // 1-core host), skip rather than assert a speedup that can't
        // happen.
        std::env::set_var("RAYON_NUM_THREADS", "4");
        if rayon::current_num_threads() < 2 {
            return;
        }
        static S: Sleepy = Sleepy;
        let (_, stats) = execute(&[&S, &S], Scale::Smoke, true);
        assert!(
            stats.wall < stats.serial,
            "parallel wall {:?} not below serial cell time {:?}",
            stats.wall,
            stats.serial
        );
    }

    #[test]
    fn bench_json_contains_cells_and_tables() {
        static S: Sleepy = Sleepy;
        let (runs, stats) = execute(&[&S], Scale::Smoke, false);
        let json = runs[0].to_json(Scale::Smoke, stats.wall).render();
        assert!(json.contains("\"scenario\":\"sleepy\""), "{json}");
        assert!(json.contains("\"i2\":14"), "{json}");
        assert!(json.contains("\"title\":\"doubles\""), "{json}");
        assert!(json.contains("\"seed\":"), "{json}");
    }
}
