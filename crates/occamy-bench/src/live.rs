//! The consumer side of the telemetry bus: a sink thread that tails
//! [`occamy_sim::telemetry`] snapshots into per-scenario
//! `results/<name>_telemetry.jsonl` streams, and the `occamy-bench
//! watch` dashboard that renders those streams (or the live bus, via
//! `run --live`) as an ANSI terminal display.
//!
//! Division of labor with the simulator: every field a [`Snapshot`]
//! carries is deterministic; *this* module stamps the wall-clock
//! context (`unix_ms`, smoothed `events_per_sec` via
//! [`occamy_stats::EwmaRate`]) on the way to disk — and zeroes those
//! two fields under `OCCAMY_FREEZE_PERF=1` so even the telemetry
//! stream is byte-reproducible when CI asks for it. Each stream ends
//! with a `"summary"` record holding streaming-sketch
//! ([`occamy_stats::QuantileSketch`]) percentiles of fabric buffer
//! occupancy, computed in O(1) memory however long the run.

use occamy_sim::telemetry::{self, Snapshot};
use occamy_stats::{EwmaRate, Json, QuantileSketch};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Relative rank error of the per-scenario occupancy sketches written
/// into each stream's closing `"summary"` record.
const SKETCH_EPS: f64 = 0.01;

/// Smoothing window (seconds of wall clock) for the `events_per_sec`
/// stamped on each snapshot record.
const RATE_WINDOW_SECS: f64 = 2.0;

/// Snapshots of recent per-tier occupancy kept for the sparklines.
const SPARK_LEN: usize = 32;

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Renders one bus snapshot as a self-contained JSON object — the
/// schema of `results/<name>_telemetry.jsonl` lines. Built with
/// [`occamy_stats::Json`], so the stream re-parses with the same crate.
fn record_json(s: &Snapshot, unix_ms: u64, events_per_sec: f64) -> Json {
    Json::obj([
        ("kind", Json::from(s.kind.as_str())),
        ("scenario", Json::from(s.cell.scenario.as_str())),
        ("cell", Json::from(s.cell.index)),
        ("cells", Json::from(s.cell.total)),
        ("label", Json::from(s.cell.label.as_str())),
        ("seed", Json::from(s.cell.seed)),
        ("events", Json::from(s.events)),
        ("sim_ps", Json::from(s.sim_ps)),
        ("limit_ps", Json::from(s.limit_ps)),
        ("losses", Json::from(s.losses)),
        ("fault_drops", Json::from(s.fault_drops)),
        ("faults_fired", Json::from(s.faults_fired)),
        ("disabled_ports", Json::from(s.disabled_ports)),
        ("draining", Json::from(s.draining)),
        (
            "switches",
            Json::arr(s.switches.iter().map(|g| {
                Json::obj([
                    ("switch", Json::from(g.switch)),
                    ("tier", Json::from(g.tier as u64)),
                    ("occ_bytes", Json::from(g.occ_bytes)),
                    ("cap_bytes", Json::from(g.cap_bytes)),
                ])
            })),
        ),
        (
            "hot_queues",
            Json::arr(s.hot_queues.iter().map(|q| {
                Json::obj([
                    ("switch", Json::from(q.switch)),
                    ("partition", Json::from(q.partition)),
                    ("queue", Json::from(q.queue)),
                    ("bytes", Json::from(q.bytes)),
                ])
            })),
        ),
        // Wall-clock context, stamped by the consumer (zero under
        // OCCAMY_FREEZE_PERF): everything above is deterministic.
        ("unix_ms", Json::from(unix_ms)),
        ("events_per_sec", Json::from(events_per_sec)),
    ])
}

/// The bus consumer for a `run --telemetry` / `--live` invocation:
/// installs the process-global sink, and drains it on a background
/// thread into per-scenario JSONL streams (plus, in live mode, the
/// terminal dashboard). Call [`finish`](TelemetrySink::finish) after
/// the runs complete to flush the streams and join the thread.
pub struct TelemetrySink {
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetrySink {
    /// Installs the telemetry bus (cadence [`crate::telemetry_every`])
    /// and starts the drain thread. JSONL streams are created under
    /// `<root>/results/`; with `live` the dashboard renders to stderr.
    pub fn start(root: &Path, live: bool) -> TelemetrySink {
        let rx = telemetry::install(crate::telemetry_every());
        let results = root.join("results");
        let handle = std::thread::Builder::new()
            .name("telemetry-sink".into())
            .spawn(move || drain(rx, &results, live))
            .expect("spawn telemetry sink thread");
        TelemetrySink {
            handle: Some(handle),
        }
    }

    /// Uninstalls the bus (disconnecting the drain thread's receiver)
    /// and waits for the remaining records to hit disk.
    pub fn finish(mut self) {
        telemetry::uninstall();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Per-scenario consumer state: the open JSONL stream plus the O(1)
/// streaming statistics folded over every snapshot.
struct ScenSink {
    file: std::io::BufWriter<std::fs::File>,
    occ: QuantileSketch,
    snapshots: u64,
}

fn drain(rx: std::sync::mpsc::Receiver<Snapshot>, results: &Path, live: bool) {
    let freeze = crate::freeze_perf();
    let started = Instant::now();
    let mut sinks: BTreeMap<String, ScenSink> = BTreeMap::new();
    // (scenario, cell) → smoothed event rate over wall clock.
    let mut rates: BTreeMap<(String, usize), (EwmaRate, u64)> = BTreeMap::new();
    let mut dash = Dashboard::new();
    if live {
        eprint!("\x1b[2J\x1b[H\x1b[?25l");
    }
    let mut last_render = Instant::now() - Duration::from_secs(1);
    while let Ok(snap) = rx.recv() {
        let eps = if freeze {
            0.0
        } else {
            let key = (snap.cell.scenario.clone(), snap.cell.index);
            let (rate, last_events) = rates
                .entry(key)
                .or_insert_with(|| (EwmaRate::new(RATE_WINDOW_SECS), 0));
            let delta = snap.events.saturating_sub(*last_events);
            *last_events = snap.events;
            rate.update(started.elapsed().as_secs_f64(), delta as f64)
        };
        let rec = record_json(&snap, if freeze { 0 } else { unix_ms() }, eps);
        let sink = match sinks.entry(snap.cell.scenario.clone()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let path = results.join(format!("{}_telemetry.jsonl", snap.cell.scenario));
                let _ = std::fs::create_dir_all(results);
                let file = match std::fs::File::create(&path) {
                    Ok(f) => f,
                    // Telemetry must never fail a run: no stream, no
                    // records for this scenario.
                    Err(_) => continue,
                };
                e.insert(ScenSink {
                    file: std::io::BufWriter::new(file),
                    occ: QuantileSketch::new(SKETCH_EPS),
                    snapshots: 0,
                })
            }
        };
        for g in &snap.switches {
            if g.cap_bytes > 0 {
                sink.occ.observe(g.occ_bytes as f64 / g.cap_bytes as f64);
            }
        }
        sink.snapshots += 1;
        let _ = writeln!(sink.file, "{}", rec.render());
        dash.feed(&rec);
        if live && last_render.elapsed() >= Duration::from_millis(100) {
            eprint!("{}", dash.render());
            last_render = Instant::now();
        }
    }
    // Bus disconnected: close each stream with its sketch summary.
    for (name, sink) in &mut sinks {
        let q = |s: &QuantileSketch, q: f64| Json::from(s.quantile(q).unwrap_or(0.0));
        let summary = Json::obj([
            ("kind", Json::from("summary")),
            ("scenario", Json::from(name.as_str())),
            ("snapshots", Json::from(sink.snapshots)),
            ("occ_frac_p50", q(&sink.occ, 0.50)),
            ("occ_frac_p90", q(&sink.occ, 0.90)),
            ("occ_frac_p99", q(&sink.occ, 0.99)),
            ("occ_frac_max", q(&sink.occ, 1.0)),
            ("sketch_eps", Json::from(sink.occ.eps())),
            ("sketch_entries", Json::from(sink.occ.size() as u64)),
        ]);
        let _ = writeln!(sink.file, "{}", summary.render());
        let _ = sink.file.flush();
    }
    if live {
        eprint!("{}\x1b[?25h", dash.render());
    }
}

/// One in-flight cell as the dashboard shows it.
struct CellView {
    label: String,
    progress: f64,
    events: u64,
}

/// Aggregated view of one scenario's stream.
struct ScenView {
    cells_total: usize,
    cells_done: usize,
    active: BTreeMap<usize, CellView>,
    events_per_sec: f64,
    losses: u64,
    faults_fired: u64,
    snapshots: u64,
    /// Recent mean occupancy fraction per fabric tier, for sparklines.
    tier_hist: [Vec<f64>; 3],
}

/// Terminal dashboard state, fed one JSONL record at a time — either
/// straight off the bus (`run --live`) or tailed from disk (`watch`).
struct Dashboard {
    scenarios: BTreeMap<String, ScenView>,
}

fn spark(hist: &[f64]) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    hist.iter()
        .map(|&f| RAMP[((f * 8.0) as usize).min(7)])
        .collect()
}

fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0) * width as f64) as usize).min(width);
    format!("[{}{}]", "#".repeat(filled), "·".repeat(width - filled))
}

fn rate_str(eps: f64) -> String {
    if eps >= 1e6 {
        format!("{:.2}M ev/s", eps / 1e6)
    } else if eps >= 1e3 {
        format!("{:.0}k ev/s", eps / 1e3)
    } else {
        format!("{eps:.0} ev/s")
    }
}

impl Dashboard {
    fn new() -> Dashboard {
        Dashboard {
            scenarios: BTreeMap::new(),
        }
    }

    /// Folds one parsed JSONL record into the view.
    fn feed(&mut self, rec: &Json) {
        let str_of = |k: &str| rec.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let u64_of = |k: &str| rec.get(k).and_then(Json::as_u64).unwrap_or(0);
        let kind = str_of("kind");
        let scenario = str_of("scenario");
        if scenario.is_empty() || kind == "summary" {
            return;
        }
        let cell = u64_of("cell") as usize;
        let view = self.scenarios.entry(scenario).or_insert_with(|| ScenView {
            cells_total: 0,
            cells_done: 0,
            active: BTreeMap::new(),
            events_per_sec: 0.0,
            losses: 0,
            faults_fired: 0,
            snapshots: 0,
            tier_hist: [Vec::new(), Vec::new(), Vec::new()],
        });
        view.cells_total = view.cells_total.max(u64_of("cells") as usize);
        match kind.as_str() {
            "cell_end" => {
                view.cells_done += 1;
                view.active.remove(&cell);
            }
            "cell_start" => {
                view.active.insert(
                    cell,
                    CellView {
                        label: str_of("label"),
                        progress: 0.0,
                        events: 0,
                    },
                );
            }
            "snap" => {
                view.snapshots += 1;
                view.losses = view.losses.max(u64_of("losses"));
                view.faults_fired = view.faults_fired.max(u64_of("faults_fired"));
                let eps = rec
                    .get("events_per_sec")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                if eps > 0.0 {
                    view.events_per_sec = eps;
                }
                let limit = u64_of("limit_ps");
                let progress = if limit > 0 {
                    u64_of("sim_ps") as f64 / limit as f64
                } else {
                    0.0
                };
                let entry = view.active.entry(cell).or_insert_with(|| CellView {
                    label: str_of("label"),
                    progress: 0.0,
                    events: 0,
                });
                entry.progress = progress;
                entry.events = u64_of("events");
                // Mean occupancy fraction per tier for the sparklines.
                let mut occ = [0.0f64; 3];
                let mut cap = [0.0f64; 3];
                if let Some(switches) = rec.get("switches").and_then(Json::as_arr) {
                    for sw in switches {
                        let tier =
                            (sw.get("tier").and_then(Json::as_u64).unwrap_or(0) as usize).min(2);
                        occ[tier] += sw.get("occ_bytes").and_then(Json::as_f64).unwrap_or(0.0);
                        cap[tier] += sw.get("cap_bytes").and_then(Json::as_f64).unwrap_or(0.0);
                    }
                }
                for t in 0..3 {
                    if cap[t] > 0.0 {
                        let h = &mut view.tier_hist[t];
                        h.push(occ[t] / cap[t]);
                        if h.len() > SPARK_LEN {
                            h.remove(0);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Full-repaint ANSI frame: home the cursor, rewrite every line
    /// (clearing to end-of-line), then clear anything below.
    fn render(&self) -> String {
        let mut out = String::from("\x1b[H");
        let mut line = |s: String| {
            out.push_str(&s);
            out.push_str("\x1b[K\r\n");
        };
        let total_snaps: u64 = self.scenarios.values().map(|v| v.snapshots).sum();
        line(format!(
            "occamy telemetry — {} scenario(s), {} snapshot(s)",
            self.scenarios.len(),
            total_snaps
        ));
        for (name, v) in &self.scenarios {
            line(String::new());
            line(format!(
                "  {name}  cells {} done, grid {}  {}  losses {}  faults {}",
                v.cells_done,
                v.cells_total.max(v.cells_done),
                rate_str(v.events_per_sec),
                v.losses,
                v.faults_fired,
            ));
            let tiers: Vec<String> = (0..3)
                .filter(|&t| !v.tier_hist[t].is_empty())
                .map(|t| format!("tier{t} {}", spark(&v.tier_hist[t])))
                .collect();
            if !tiers.is_empty() {
                line(format!("    occupancy  {}", tiers.join("   ")));
            }
            for (idx, c) in &v.active {
                line(format!(
                    "    ▸ [{:>3}/{}] {:<28} {} {:>5.1}%  {} ev",
                    idx + 1,
                    v.cells_total.max(idx + 1),
                    c.label,
                    bar(c.progress, 20),
                    c.progress * 100.0,
                    c.events,
                ));
            }
        }
        out.push_str("\x1b[J");
        out
    }
}

/// `occamy-bench watch <dir>`: tails every `*_telemetry.jsonl` under
/// `<dir>/results` (or `<dir>` itself) and renders the dashboard,
/// following the streams as a concurrently-running `--telemetry` run
/// appends to them. Exits on its own once the streams go quiet for
/// `OCCAMY_WATCH_QUIET_MS` (default 8000) — CI can point it at a live
/// run without needing to kill it. A run writes its streams under its
/// working directory, which exists before the run starts, so a missing
/// `dir` is an error rather than a wait.
pub fn watch(dir: &Path) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no such directory: {}", dir.display()),
        ));
    }
    let results = dir.join("results");
    let root = if results.is_dir() {
        results
    } else {
        dir.to_path_buf()
    };
    let quiet_ms: u64 = std::env::var("OCCAMY_WATCH_QUIET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8000);
    let mut offsets: BTreeMap<PathBuf, u64> = BTreeMap::new();
    let mut dash = Dashboard::new();
    let mut seen_any = false;
    let started = Instant::now();
    let mut last_data = Instant::now();
    eprint!("\x1b[2J\x1b[H\x1b[?25l");
    eprintln!("watching {} …\x1b[K", root.display());
    loop {
        let mut fresh = false;
        for path in jsonl_files(&root)? {
            let offset = offsets.entry(path.clone()).or_insert(0);
            for rec in read_new_records(&path, offset) {
                dash.feed(&rec);
                fresh = true;
            }
        }
        if fresh {
            seen_any = true;
            last_data = Instant::now();
            eprint!("{}", dash.render());
        }
        let idle = last_data.elapsed() >= Duration::from_millis(quiet_ms);
        if seen_any && idle {
            break;
        }
        // No stream ever appeared: give a starting run a generous
        // grace period, then stop rather than spin forever.
        if !seen_any && started.elapsed() >= Duration::from_millis(quiet_ms.max(60_000)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    eprint!("\x1b[?25h");
    if seen_any {
        eprintln!("stream quiet for {quiet_ms} ms — done");
    } else {
        eprintln!("no *_telemetry.jsonl appeared under {}", root.display());
    }
    Ok(())
}

/// The `*_telemetry.jsonl` files under `root`, sorted by name.
fn jsonl_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(root) {
        Ok(e) => e,
        // The results dir may not exist yet while the run warms up.
        Err(_) => return Ok(out),
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with("_telemetry.jsonl"))
        {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Reads complete lines appended to `path` past `*offset`, advancing the
/// offset past every fully-parsed line (a partially-written tail line is
/// left for the next poll).
fn read_new_records(path: &Path, offset: &mut u64) -> Vec<Json> {
    use std::io::{Read as _, Seek as _};
    let Ok(mut f) = std::fs::File::open(path) else {
        return Vec::new();
    };
    if f.seek(std::io::SeekFrom::Start(*offset)).is_err() {
        return Vec::new();
    }
    let mut buf = String::new();
    if f.read_to_string(&mut buf).is_err() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut consumed = 0usize;
    for line in buf.split_inclusive('\n') {
        if !line.ends_with('\n') {
            break;
        }
        consumed += line.len();
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Ok(rec) = Json::parse(line) {
            out.push(rec);
        }
    }
    *offset += consumed as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_and_bar_are_width_stable() {
        assert_eq!(spark(&[0.0, 0.5, 1.0]).chars().count(), 3);
        assert_eq!(bar(0.5, 20).chars().count(), 22);
        assert_eq!(bar(2.0, 10), format!("[{}]", "#".repeat(10)));
    }

    #[test]
    fn dashboard_tracks_cells_and_progress() {
        let mut d = Dashboard::new();
        d.feed(
            &Json::parse(
                r#"{"kind":"cell_start","scenario":"s","cell":0,"cells":4,"label":"x=1"}"#,
            )
            .unwrap(),
        );
        d.feed(
            &Json::parse(
                r#"{"kind":"snap","scenario":"s","cell":0,"cells":4,"label":"x=1",
                    "events":500,"sim_ps":50,"limit_ps":100,"losses":3,
                    "switches":[{"switch":0,"tier":0,"occ_bytes":10,"cap_bytes":100}]}"#,
            )
            .unwrap(),
        );
        let v = &d.scenarios["s"];
        assert_eq!(v.cells_total, 4);
        assert_eq!(v.losses, 3);
        assert_eq!(v.active[&0].events, 500);
        assert!((v.active[&0].progress - 0.5).abs() < 1e-9);
        assert_eq!(v.tier_hist[0], vec![0.1]);
        let frame = d.render();
        assert!(frame.contains("cells 0 done, grid 4"), "{frame}");
        d.feed(&Json::parse(r#"{"kind":"cell_end","scenario":"s","cell":0,"cells":4}"#).unwrap());
        assert_eq!(d.scenarios["s"].cells_done, 1);
        assert!(d.scenarios["s"].active.is_empty());
    }

    #[test]
    fn record_json_round_trips_through_parser() {
        let snap = Snapshot {
            kind: occamy_sim::telemetry::SnapshotKind::Snap,
            cell: occamy_sim::telemetry::CellInfo {
                scenario: "demo".into(),
                index: 2,
                total: 9,
                label: "load=0.8".into(),
                seed: 42,
            },
            events: 1234,
            sim_ps: 10,
            limit_ps: 100,
            switches: vec![occamy_sim::telemetry::SwitchGauge {
                switch: 1,
                tier: 1,
                occ_bytes: 7,
                cap_bytes: 70,
            }],
            hot_queues: vec![occamy_sim::telemetry::QueueGauge {
                switch: 1,
                partition: 0,
                queue: 3,
                bytes: 7,
            }],
            losses: 1,
            fault_drops: 0,
            faults_fired: 0,
            disabled_ports: 0,
            draining: 0,
        };
        let rec = record_json(&snap, 1700000000000, 2.5e6);
        let back = Json::parse(&rec.render()).unwrap();
        assert_eq!(back.get("scenario").and_then(Json::as_str), Some("demo"));
        assert_eq!(back.get("events").and_then(Json::as_u64), Some(1234));
        let sw = &back.get("switches").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(sw.get("cap_bytes").and_then(Json::as_u64), Some(70));
    }

    #[test]
    fn watch_fails_at_once_on_a_missing_directory() {
        let dir = std::env::temp_dir().join(format!("occamy-live-missing-{}", std::process::id()));
        let started = Instant::now();
        let err = watch(&dir).unwrap_err();
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(
            err.to_string().contains(&dir.display().to_string()),
            "{err}"
        );
    }

    #[test]
    fn read_new_records_leaves_partial_tail_lines() {
        let dir = std::env::temp_dir().join(format!("occamy-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t_telemetry.jsonl");
        std::fs::write(&path, "{\"kind\":\"snap\"}\n{\"kind\":\"cel").unwrap();
        let mut off = 0u64;
        let recs = read_new_records(&path, &mut off);
        assert_eq!(recs.len(), 1);
        assert_eq!(off, 16);
        // Completing the tail line yields exactly the remainder.
        std::fs::write(&path, "{\"kind\":\"snap\"}\n{\"kind\":\"cell_end\"}\n").unwrap();
        let recs = read_new_records(&path, &mut off);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get("kind").and_then(Json::as_str), Some("cell_end"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
