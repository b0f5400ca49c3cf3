//! Sharded grid execution: **plan → run → merge** with byte-identical
//! results.
//!
//! The paper-faithful fabric sweeps (`specs/paper_fabric_128h.toml`,
//! `specs/paper_fabric_1024h.toml`) take hours of cell time, but grid
//! cells are independent, `Send`-safe and seed-deterministic — so a
//! grid can be split into shards, each shard executed anywhere (on other
//! machines, or side by side on this one), and the shards' results
//! reassembled into the **exact** report a single-machine run would
//! have produced:
//!
//! 1. [`plan`] splits a scenario's grid into `N` shard files
//!    (`shards/<name>.shard-<i>.json`). Each file is versioned and
//!    self-contained: it carries every [`CellSpec`] of the shard — grid
//!    coordinates (`index`), derived seed and typed scheme/knob
//!    bindings — plus, for `--spec` scenarios, the canonical TOML of
//!    the spec document itself, so the executing machine needs nothing
//!    but the plan file and the binary.
//! 2. [`run_shard`] executes one plan file with the same parallel
//!    runner a direct `run` uses ([`crate::runner::run_cells`]) and
//!    appends every finished cell to the shard's journal
//!    (`<plan stem>.cells.jsonl`, rewritten via temp-file + rename so a
//!    kill at any instant never leaves a torn line). The journal is the
//!    shard's one result artifact; with `--resume` a restarted run
//!    validates it and recomputes only the cells not yet journaled.
//! 3. [`merge`] validates and reunites the journals — every shard
//!    present exactly once, every grid cell covered exactly once, no
//!    version or header drift — and feeds them through the same
//!    assembly path as a direct run ([`crate::runner::assemble`] +
//!    [`crate::runner::render_into`]), emitting the byte-identical
//!    `BENCH_<name>.json` and `results/*.csv`.
//!
//! Byte-identity is enforced by `tests/shard_equivalence.rs` and the CI
//! `shard-equivalence` job, which `cmp` a merged 3-shard fig12 run
//! against a direct run. Wall-clock perf fields are the one
//! platform-dependent output; both sides run under
//! [`crate::freeze_perf`] (`--freeze-perf`), which zeroes them.
//!
//! Every failure mode names the offending file: truncated or tampered
//! JSON, format-version mismatches, header drift between journals,
//! missing or duplicated shards, and missing or duplicated grid cells
//! all produce errors, never panics or silently dropped cells.

use crate::registry::{find_scenario, registry};
use crate::retry::retry_with_backoff;
use crate::runner;
use crate::scenario::{CellOutcome, CellResult, CellSpec, Scale, Scenario, Series, Value};
use crate::spec_scenario::SpecScenario;
use occamy_stats::Json;
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Attempts and backoff for journal appends: a transient I/O failure
/// would throw away simulated work, so appends retry a few times before
/// giving up.
const WRITE_ATTEMPTS: u32 = 3;
const WRITE_BACKOFF_BASE: Duration = Duration::from_millis(100);
const WRITE_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Format version stamped into every shard file. Bump it when the file
/// layout changes; [`run_shard`] and [`merge`] refuse files from other
/// versions with an error that names the file and both versions.
pub const SHARD_FORMAT: u64 = 1;

// -------------------------------------------------------------------
// Sources
// -------------------------------------------------------------------

/// What a shard plan executes: a registry scenario (identified by name)
/// or a spec-compiled scenario (embedded as canonical TOML).
#[derive(Clone, Copy)]
pub enum ShardSource {
    /// A scenario from the static registry (`fig12`, `table01`, …).
    Registry(&'static dyn Scenario),
    /// A `--spec` scenario; the plan embeds its canonical TOML.
    Spec(&'static SpecScenario),
}

impl ShardSource {
    /// Resolves a registry scenario by name, with the known-name list in
    /// the error.
    pub fn from_name(name: &str) -> Result<ShardSource, String> {
        find_scenario(name)
            .map(ShardSource::Registry)
            .ok_or_else(|| {
                format!(
                    "unknown scenario '{name}'; known: {}",
                    registry()
                        .iter()
                        .map(|s| s.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
    }

    /// The scenario to plan.
    pub fn scenario(&self) -> &'static dyn Scenario {
        match self {
            ShardSource::Registry(s) => *s,
            ShardSource::Spec(s) => *s,
        }
    }

    fn source_tag(&self) -> &'static str {
        match self {
            ShardSource::Registry(_) => "registry",
            ShardSource::Spec(_) => "spec",
        }
    }

    fn spec_toml(&self) -> Option<String> {
        match self {
            ShardSource::Registry(_) => None,
            ShardSource::Spec(s) => Some(s.canonical_toml()),
        }
    }
}

// -------------------------------------------------------------------
// Value / cell encoding
// -------------------------------------------------------------------

/// Typed parameter encoding: `{key, kind, value}` rather than a bare
/// JSON value, so `2.0f64` survives the trip as an `f64` (a bare `2`
/// would decode as `u64` and change the cell's type contract).
fn encode_param(key: &str, v: &Value) -> Json {
    let (kind, value) = match v {
        Value::U64(x) => ("u64", Json::from(*x)),
        Value::F64(x) => ("f64", Json::from(*x)),
        Value::Str(s) => ("str", Json::from(s.as_str())),
    };
    Json::obj([
        ("key", Json::from(key)),
        ("kind", Json::from(kind)),
        ("value", value),
    ])
}

fn decode_param(ctx: &str, j: &Json) -> Result<(String, Value), String> {
    let key = j
        .get("key")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: param lacks a string 'key'"))?;
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: param '{key}' lacks a 'kind'"))?;
    let raw = j
        .get("value")
        .ok_or_else(|| format!("{ctx}: param '{key}' lacks a 'value'"))?;
    let value = match kind {
        "u64" => Value::U64(
            raw.as_u64()
                .ok_or_else(|| format!("{ctx}: param '{key}' is not a u64"))?,
        ),
        "f64" => Value::F64(
            raw.as_f64()
                .ok_or_else(|| format!("{ctx}: param '{key}' is not numeric"))?,
        ),
        "str" => Value::Str(
            raw.as_str()
                .ok_or_else(|| format!("{ctx}: param '{key}' is not a string"))?
                .to_string(),
        ),
        other => return Err(format!("{ctx}: param '{key}' has unknown kind '{other}'")),
    };
    Ok((key.to_string(), value))
}

fn encode_cell(spec: &CellSpec) -> Json {
    Json::obj([
        ("index", Json::from(spec.index)),
        ("seed", Json::from(spec.seed)),
        (
            "params",
            Json::arr(spec.params().iter().map(|(k, v)| encode_param(k, v))),
        ),
    ])
}

fn decode_cell(ctx: &str, j: &Json, scale: Scale) -> Result<CellSpec, String> {
    let index = j
        .get("index")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: cell lacks an 'index'"))? as usize;
    let ctx = format!("{ctx}: cell {index}");
    let seed = j
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: no 'seed'"))?;
    let params = j
        .get("params")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: no 'params' array"))?
        .iter()
        .map(|p| decode_param(&ctx, p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CellSpec::from_parts(index, seed, scale, params))
}

// -------------------------------------------------------------------
// Result encoding
// -------------------------------------------------------------------

fn encode_outcome(o: &CellOutcome) -> Json {
    let Json::Obj(mut fields) = encode_cell(&o.spec) else {
        unreachable!("encode_cell returns an object");
    };
    fields.push((
        "wall_ms".to_string(),
        Json::from(o.wall.as_secs_f64() * 1e3),
    ));
    fields.push(("peak_rss_bytes".to_string(), Json::from(o.rss)));
    fields.push((
        "metrics".to_string(),
        Json::obj(
            o.result
                .metrics()
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v))),
        ),
    ));
    if !o.result.series().is_empty() {
        fields.push((
            "series".to_string(),
            Json::arr(o.result.series().iter().map(Series::to_json)),
        ));
    }
    Json::Obj(fields)
}

fn decode_outcome(ctx: &str, j: &Json, scale: Scale) -> Result<CellOutcome, String> {
    let spec = decode_cell(ctx, j, scale)?;
    let ctx = format!("{ctx}: cell {}", spec.index);
    let wall_ms = j
        .get("wall_ms")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{ctx}: no 'wall_ms'"))?;
    // Bounded: Duration::from_secs_f64 panics on huge or NaN input, and
    // a year-long cell wall clock is corruption, not measurement.
    if !(0.0..=86_400_000.0 * 365.0).contains(&wall_ms) {
        return Err(format!("{ctx}: 'wall_ms' {wall_ms} is out of range"));
    }
    let mut result = CellResult::new();
    for (k, v) in j
        .get("metrics")
        .and_then(Json::entries)
        .ok_or_else(|| format!("{ctx}: no 'metrics' object"))?
    {
        // `null` is how the emitter spells a non-finite f64.
        let v = match v {
            Json::Null => f64::NAN,
            other => other
                .as_f64()
                .ok_or_else(|| format!("{ctx}: metric '{k}' is not numeric"))?,
        };
        result = result.metric(k, v);
    }
    for s in j.get("series").and_then(Json::as_arr).unwrap_or(&[]) {
        result = result.with_series(decode_series(&ctx, s)?);
    }
    // Tolerant: files written before the field existed decode as 0.
    let rss = j.get("peak_rss_bytes").and_then(Json::as_u64).unwrap_or(0);
    Ok(CellOutcome {
        spec,
        result,
        wall: Duration::from_secs_f64(wall_ms / 1e3),
        rss,
    })
}

fn decode_series(ctx: &str, j: &Json) -> Result<Series, String> {
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: series lacks a 'name'"))?;
    let columns: Vec<&str> = j
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: series '{name}' lacks 'columns'"))?
        .iter()
        .map(|c| {
            c.as_str()
                .ok_or_else(|| format!("{ctx}: series '{name}' has a non-string column"))
        })
        .collect::<Result<_, _>>()?;
    let mut series = Series::new(name, &columns);
    for row in j
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: series '{name}' lacks 'rows'"))?
    {
        let row: Vec<f64> = row
            .as_arr()
            .ok_or_else(|| format!("{ctx}: series '{name}' has a non-array row"))?
            .iter()
            .map(|v| match v {
                Json::Null => Ok(f64::NAN),
                other => other
                    .as_f64()
                    .ok_or_else(|| format!("{ctx}: series '{name}' has a non-numeric entry")),
            })
            .collect::<Result<_, _>>()?;
        if row.len() != series.columns.len() {
            return Err(format!(
                "{ctx}: series '{name}' row width {} != {} columns",
                row.len(),
                series.columns.len()
            ));
        }
        series.row(row);
    }
    Ok(series)
}

// -------------------------------------------------------------------
// File headers
// -------------------------------------------------------------------

/// The parsed, version-checked header shared by plan and journal files.
pub(crate) struct ShardFile {
    pub(crate) path: PathBuf,
    pub(crate) scenario: String,
    source: String,
    spec_toml: Option<String>,
    pub(crate) scale: Scale,
    pub(crate) shard: usize,
    pub(crate) shards: usize,
    pub(crate) total_cells: usize,
    doc: Json,
}

impl ShardFile {
    fn ctx(&self) -> String {
        format!("shard file {}", self.path.display())
    }
}

fn header_json(
    kind: &str,
    name: &str,
    source: &ShardSource,
    scale: Scale,
    shard: usize,
    shards: usize,
    total_cells: usize,
) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("format".to_string(), Json::from(SHARD_FORMAT)),
        ("kind".to_string(), Json::from(kind)),
        ("scenario".to_string(), Json::from(name)),
        ("source".to_string(), Json::from(source.source_tag())),
    ];
    if let Some(toml) = source.spec_toml() {
        fields.push(("spec_toml".to_string(), Json::from(toml)));
    }
    fields.extend([
        ("scale".to_string(), Json::from(scale.to_string())),
        ("shard".to_string(), Json::from(shard)),
        ("shards".to_string(), Json::from(shards)),
        ("total_cells".to_string(), Json::from(total_cells)),
    ]);
    fields
}

/// Reads and validates a shard file's envelope: parseable JSON (a
/// truncated upload fails here, naming the file), the supported format
/// version, the expected kind and a complete, well-typed header.
pub(crate) fn read_shard_file(path: &Path, expect_kind: &str) -> Result<ShardFile, String> {
    let ctx = format!("shard file {}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| format!("{ctx}: {e}"))?;
    let doc = Json::parse(&text)
        .map_err(|e| format!("{ctx}: not valid JSON ({e}) — truncated or corrupted?"))?;
    validate_shard_doc(path, doc, expect_kind)
}

/// The header-validation half of [`read_shard_file`], shared with the
/// journal reader (whose header is the first line of a JSONL stream,
/// not a whole file).
fn validate_shard_doc(path: &Path, doc: Json, expect_kind: &str) -> Result<ShardFile, String> {
    let ctx = format!("shard file {}", path.display());
    let format = doc
        .get("format")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: no 'format' version field"))?;
    if format != SHARD_FORMAT {
        return Err(format!(
            "{ctx}: format version {format}, but this binary reads version {SHARD_FORMAT} — \
             regenerate the plan with this binary"
        ));
    }
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: no 'kind' field"))?;
    if kind != expect_kind {
        return Err(format!(
            "{ctx}: is a '{kind}' file, expected a '{expect_kind}' file"
        ));
    }
    let str_field = |key: &str| -> Result<String, String> {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{ctx}: no '{key}' field"))
    };
    let usize_field = |key: &str| -> Result<usize, String> {
        doc.get(key)
            .and_then(Json::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| format!("{ctx}: no '{key}' field"))
    };
    let scale_str = str_field("scale")?;
    let scale =
        Scale::parse(&scale_str).ok_or_else(|| format!("{ctx}: unknown scale '{scale_str}'"))?;
    let source = str_field("source")?;
    let spec_toml = match source.as_str() {
        "registry" => None,
        "spec" => Some(str_field("spec_toml")?),
        other => return Err(format!("{ctx}: unknown source '{other}'")),
    };
    let file = ShardFile {
        path: path.to_path_buf(),
        scenario: str_field("scenario")?,
        source,
        spec_toml,
        scale,
        shard: usize_field("shard")?,
        shards: usize_field("shards")?,
        total_cells: usize_field("total_cells")?,
        doc,
    };
    if file.shards == 0 || file.shard >= file.shards {
        return Err(format!(
            "{}: shard id {} out of range for {} shards",
            file.ctx(),
            file.shard,
            file.shards
        ));
    }
    // These counts size allocations downstream; a corrupted header must
    // fail here, not abort with a capacity overflow. No real grid is
    // near this bound (the biggest shipped one is 60 cells), and merge
    // additionally cross-checks against the grid the binary derives.
    const MAX_GRID_CELLS: usize = 1_000_000;
    if file.total_cells == 0 || file.total_cells > MAX_GRID_CELLS {
        return Err(format!(
            "{}: implausible total_cells {} (limit {MAX_GRID_CELLS})",
            file.ctx(),
            file.total_cells
        ));
    }
    if file.shards > file.total_cells {
        return Err(format!(
            "{}: {} shards for {} cells — a plan never has more shards than cells",
            file.ctx(),
            file.shards,
            file.total_cells
        ));
    }
    Ok(file)
}

/// Re-resolves the scenario a shard file describes: a registry lookup,
/// or re-compiling the embedded spec TOML.
fn resolve_scenario(file: &ShardFile) -> Result<&'static dyn Scenario, String> {
    match file.source.as_str() {
        "registry" => find_scenario(&file.scenario).ok_or_else(|| {
            format!(
                "{}: scenario '{}' is not in this binary's registry",
                file.ctx(),
                file.scenario
            )
        }),
        "spec" => {
            let toml = file.spec_toml.as_deref().expect("checked at read");
            let doc = occamy_spec::spec_from_toml(toml)
                .map_err(|e| format!("{}: embedded spec invalid: {e}", file.ctx()))?;
            if doc.name != file.scenario {
                return Err(format!(
                    "{}: embedded spec is named '{}', header says '{}'",
                    file.ctx(),
                    doc.name,
                    file.scenario
                ));
            }
            Ok(SpecScenario::new(doc))
        }
        other => unreachable!("source '{other}' rejected at read"),
    }
}

// -------------------------------------------------------------------
// plan
// -------------------------------------------------------------------

/// Splits `source`'s grid at `scale` into `shards` plan files under
/// `out_dir`, one per shard, named `<scenario>.shard-<i>.json`. Cells
/// are dealt round-robin (`index % shards`) so a sweep whose cost grows
/// along an axis still load-balances. Returns the written paths in
/// shard order.
pub fn plan(
    source: &ShardSource,
    scale: Scale,
    shards: usize,
    out_dir: &Path,
) -> Result<Vec<PathBuf>, String> {
    let scenario = source.scenario();
    let cells = scenario.grid(scale);
    if shards == 0 {
        return Err("--shards must be ≥ 1".to_string());
    }
    if shards > cells.len() {
        return Err(format!(
            "cannot split {} cells of '{}' ({scale} scale) into {shards} shards — \
             use --shards ≤ {}",
            cells.len(),
            scenario.name(),
            cells.len()
        ));
    }
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mut paths = Vec::with_capacity(shards);
    for shard in 0..shards {
        let mine: Vec<&CellSpec> = cells.iter().filter(|c| c.index % shards == shard).collect();
        let mut fields = header_json(
            "plan",
            scenario.name(),
            source,
            scale,
            shard,
            shards,
            cells.len(),
        );
        fields.push((
            "cells".to_string(),
            Json::arr(mine.iter().map(|c| encode_cell(c))),
        ));
        let path = out_dir.join(format!("{}.shard-{shard}.json", scenario.name()));
        Json::Obj(fields)
            .write_to(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        paths.push(path);
    }
    Ok(paths)
}

// -------------------------------------------------------------------
// The journal
// -------------------------------------------------------------------

/// The per-shard journal for a plan file: `<plan stem>.cells.jsonl`
/// next to it. Line 1 is the shard header (kind `journal`); every
/// further line is one finished cell's encoded outcome. `shard run`
/// appends as cells complete; `shard run --resume` replays the journal
/// and recomputes only the cells it lacks; `shard merge` reads the
/// journals of every shard.
pub fn journal_path(plan_path: &Path) -> PathBuf {
    let s = plan_path.to_string_lossy();
    match s.strip_suffix(".json") {
        Some(stem) => PathBuf::from(format!("{stem}.cells.jsonl")),
        None => PathBuf::from(format!("{s}.cells.jsonl")),
    }
}

/// Crash-safe append-only journal writer. The full journal text is held
/// in memory; every append rewrites a sibling temp file and renames it
/// over the journal, so a SIGKILL at any instant leaves either the
/// previous complete journal or the new complete journal on disk —
/// never a half-written last line. The temp file is synced before the
/// rename and the directory after it, so a power loss cannot leave an
/// empty journal either. (Journals are small — one line per grid cell —
/// so the rewrite cost is noise next to simulating a cell.)
struct JournalWriter {
    path: PathBuf,
    text: String,
}

impl JournalWriter {
    /// Starts a fresh journal containing only the header line,
    /// overwriting any stale journal from a previous (non-`--resume`)
    /// run of the same plan.
    fn create(path: PathBuf, header: &Json) -> Result<JournalWriter, String> {
        let mut w = JournalWriter {
            path,
            text: String::new(),
        };
        w.append_line(&header.render())?;
        Ok(w)
    }

    /// Reopens a validated journal for appending; `text` is its current
    /// on-disk content (header + outcome lines).
    fn resume(path: PathBuf, text: String) -> JournalWriter {
        debug_assert!(text.ends_with('\n'), "validated journals end in \\n");
        JournalWriter { path, text }
    }

    fn append_line(&mut self, line: &str) -> Result<(), String> {
        self.text.push_str(line);
        self.text.push('\n');
        let tmp = self.path.with_extension("jsonl.tmp");
        // A bare file name has parent "", which names the working
        // directory.
        let dir = match self.path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        retry_with_backoff(
            &format!("journal write {}", self.path.display()),
            WRITE_ATTEMPTS,
            WRITE_BACKOFF_BASE,
            WRITE_BACKOFF_CAP,
            || {
                let mut file = std::fs::File::create(&tmp)?;
                file.write_all(self.text.as_bytes())?;
                file.sync_all()?;
                std::fs::rename(&tmp, &self.path)?;
                std::fs::File::open(dir)?.sync_all()
            },
        )
    }
}

/// Reads and validates a shard journal: a version-checked `journal`
/// header line, then one well-formed outcome per line, each cell
/// belonging to the journal's shard and appearing at most once. Returns
/// the header, the outcomes and the raw text (for reopening in append
/// mode). Every corruption mode fails naming the journal and its shard:
/// a file not ending in a newline (truncated mid-write — impossible
/// under this writer, but external copies can truncate), an unparseable
/// or half-written line, a duplicated cell, a foreign shard's cell.
fn read_journal(path: &Path) -> Result<(ShardFile, Vec<CellOutcome>, String), String> {
    let ctx = format!("journal {}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| format!("{ctx}: {e}"))?;
    if !text.ends_with('\n') {
        return Err(format!(
            "{ctx}: does not end in a newline — truncated mid-write; \
             delete it and re-run the shard from its plan"
        ));
    }
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| format!("{ctx}: empty — no header line"))?;
    let header_doc = Json::parse(header_line)
        .map_err(|e| format!("{ctx}: header line is not valid JSON ({e})"))?;
    let header = validate_shard_doc(path, header_doc, "journal")?;
    let shard = header.shard;
    let mut outcomes: Vec<CellOutcome> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    for (n, line) in lines.enumerate() {
        let lctx = format!("{ctx}: line {} (shard {shard})", n + 2);
        let j = Json::parse(line)
            .map_err(|e| format!("{lctx}: not valid JSON ({e}) — corrupted journal"))?;
        let o = decode_outcome(&lctx, &j, header.scale)?;
        if o.spec.index % header.shards != shard {
            return Err(format!(
                "{lctx}: cell {} belongs to shard {}, not shard {shard} — \
                 journals were mixed up",
                o.spec.index,
                o.spec.index % header.shards
            ));
        }
        if !seen.insert(o.spec.index) {
            return Err(format!(
                "{lctx}: cell {} already journaled earlier in shard {shard}'s journal — \
                 duplicated line; delete the journal and re-run the shard",
                o.spec.index
            ));
        }
        outcomes.push(o);
    }
    Ok((header, outcomes, text))
}

/// Checks that two shard headers come from the same plan set: same
/// scenario, source, scale, shard count, grid size and embedded spec.
/// The error names both files.
fn check_same_plan(a: &ShardFile, b: &ShardFile) -> Result<(), String> {
    for (what, x, y) in [
        ("scenario", a.scenario.as_str(), b.scenario.as_str()),
        ("source", a.source.as_str(), b.source.as_str()),
    ] {
        if x != y {
            return Err(format!(
                "{}: {what} '{x}' does not match '{y}' from {}",
                a.ctx(),
                b.path.display()
            ));
        }
    }
    if a.scale != b.scale || a.shards != b.shards || a.total_cells != b.total_cells {
        return Err(format!(
            "{}: header (scale {}, {} shards, {} cells) does not match {} \
             (scale {}, {} shards, {} cells)",
            a.ctx(),
            a.scale,
            a.shards,
            a.total_cells,
            b.path.display(),
            b.scale,
            b.shards,
            b.total_cells
        ));
    }
    if a.spec_toml != b.spec_toml {
        return Err(format!(
            "{}: embedded spec differs from {}",
            a.ctx(),
            b.path.display()
        ));
    }
    Ok(())
}

/// Checks one cell's identity (seed + grid label) against this binary's
/// reference grid — the guard that keeps a drifted or tampered file
/// from poisoning a merged report.
fn check_cell_matches(ctx: &str, cell: &CellSpec, reference: &[CellSpec]) -> Result<(), String> {
    let Some(expect) = reference.get(cell.index) else {
        return Err(format!(
            "{ctx}: cell index {} outside the {}-cell grid",
            cell.index,
            reference.len()
        ));
    };
    if expect.seed != cell.seed || expect.label() != cell.label() {
        return Err(format!(
            "{ctx}: cell {} disagrees with this binary's grid \
             (file: seed {} [{}], binary: seed {} [{}]) — regenerate the plan",
            cell.index,
            cell.seed,
            cell.label(),
            expect.seed,
            expect.label()
        ));
    }
    Ok(())
}

// -------------------------------------------------------------------
// run
// -------------------------------------------------------------------

/// Deterministic crash hook for the crash-resume tests:
/// `OCCAMY_SHARD_KILL_AFTER="<shard>:<k>"` makes a `shard run` of shard
/// `<shard>` SIGKILL itself after journaling `<k>` cells — but only
/// when it started with an empty journal, so the `shard run --resume`
/// that follows runs to completion. Returns the `k` applying to this
/// run, if any.
fn kill_after(shard: usize, journaled_at_start: usize) -> Option<usize> {
    let spec = std::env::var("OCCAMY_SHARD_KILL_AFTER").ok()?;
    if journaled_at_start > 0 {
        return None;
    }
    let (s, k) = spec.split_once(':')?;
    let (s, k) = (
        s.trim().parse::<usize>().ok()?,
        k.trim().parse::<usize>().ok()?,
    );
    (s == shard && k > 0).then_some(k)
}

/// Dies the way a crashed worker dies: SIGKILL (no destructors, no
/// half-done write, journal left as-is). Falls back to an abrupt exit
/// with SIGKILL's conventional status where no `kill` binary exists.
fn kill_self_for_test() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    std::process::exit(137);
}

/// Executes one shard plan file with the shared parallel runner,
/// appending every finished cell to the shard's journal
/// ([`journal_path`]) as it completes. Returns the journal's path.
///
/// With `resume`, an existing journal is validated (against the plan
/// header *and* this binary's reference grid) and its cells are skipped
/// — a shard killed mid-run finishes the rest of its work on restart,
/// and merging its journal gives the byte-identical report an
/// uninterrupted run gives. Without `resume`, a stale journal is
/// overwritten and every cell runs. The journal is the only copy of a
/// result, so a cell that cannot be journaled fails the shard at once.
///
/// Before running, the plan's cell list is validated: every cell
/// belongs to this shard, appears once, and matches the grid this
/// binary generates for the same scenario and scale. A seed or
/// parameter mismatch means the plan came from a different code version
/// (or was tampered with), and silently running it would poison the
/// merged report.
pub fn run_shard(plan_path: &Path, parallel: bool, resume: bool) -> Result<PathBuf, String> {
    let file = read_shard_file(plan_path, "plan")?;
    let scenario = resolve_scenario(&file)?;
    let ctx = file.ctx();
    let cells: Vec<CellSpec> = file
        .doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: no 'cells' array"))?
        .iter()
        .map(|c| decode_cell(&ctx, c, file.scale))
        .collect::<Result<_, _>>()?;
    // Verify the plan against this binary's own grid derivation.
    let reference = scenario.grid(file.scale);
    if reference.len() != file.total_cells {
        return Err(format!(
            "{ctx}: plan says the grid has {} cells, this binary generates {} — \
             scenario definition drifted; regenerate the plan",
            file.total_cells,
            reference.len()
        ));
    }
    let mut planned_idx: HashSet<usize> = HashSet::new();
    for cell in &cells {
        check_cell_matches(&ctx, cell, &reference)?;
        if cell.index % file.shards != file.shard {
            return Err(format!(
                "{ctx}: cell {} belongs to shard {}, not shard {} — regenerate the plan",
                cell.index,
                cell.index % file.shards,
                file.shard
            ));
        }
        if !planned_idx.insert(cell.index) {
            return Err(format!(
                "{ctx}: cell {} is listed twice — regenerate the plan",
                cell.index
            ));
        }
    }

    // Resume: replay a validated journal and run only the cells it
    // lacks. The journal's header must match the plan and every
    // journaled cell must match the reference grid — anything else is
    // a stale or foreign journal and fails loudly rather than welding
    // wrong results into the merged report.
    let jpath = journal_path(plan_path);
    let (journal, done_idx) = if resume && jpath.exists() {
        let (jheader, outcomes, text) = read_journal(&jpath)?;
        let foreign = if jheader.shard != file.shard {
            Err(format!(
                "{}: holds shard {}, the plan is shard {}",
                jheader.ctx(),
                jheader.shard,
                file.shard
            ))
        } else {
            check_same_plan(&jheader, &file)
        };
        foreign.map_err(|e| {
            format!("{e} — the journal belongs to a different plan; delete it and re-run")
        })?;
        for o in &outcomes {
            check_cell_matches(&jheader.ctx(), &o.spec, &reference)?;
            if !planned_idx.contains(&o.spec.index) {
                return Err(format!(
                    "{}: cell {} is not assigned to shard {} by the plan — \
                     stale journal; delete it and re-run",
                    jheader.ctx(),
                    o.spec.index,
                    file.shard
                ));
            }
        }
        println!(
            "resuming shard {} of '{}': {} of {} cells journaled, {} to run",
            file.shard,
            file.scenario,
            outcomes.len(),
            cells.len(),
            cells.len() - outcomes.len()
        );
        let done_idx: HashSet<usize> = outcomes.iter().map(|o| o.spec.index).collect();
        (JournalWriter::resume(jpath.clone(), text), done_idx)
    } else {
        // The journal header is the plan's header verbatim (minus the
        // cell list), kind flipped, so merge validates it the way
        // resume validates it against the plan.
        let Json::Obj(plan_fields) = &file.doc else {
            unreachable!("parsed shard file is an object");
        };
        let header: Vec<(String, Json)> = plan_fields
            .iter()
            .filter(|(k, _)| k != "cells")
            .map(|(k, v)| match k.as_str() {
                "kind" => ("kind".to_string(), Json::from("journal")),
                _ => (k.clone(), v.clone()),
            })
            .collect();
        let journal = JournalWriter::create(jpath.clone(), &Json::Obj(header))?;
        (journal, HashSet::new())
    };
    let remaining: Vec<CellSpec> = cells
        .iter()
        .filter(|c| !done_idx.contains(&c.index))
        .cloned()
        .collect();

    // Cells complete on rayon workers, so appends share a mutex.
    let kill = kill_after(file.shard, done_idx.len());
    let state = std::sync::Mutex::new((0usize, journal));
    runner::run_cells(scenario, &remaining, file.total_cells, parallel, &|o| {
        let mut guard = state
            .lock()
            .expect("a cell worker panicked while journaling");
        let (done, journal) = &mut *guard;
        journal
            .append_line(&encode_outcome(o).render())
            .map_err(|e| format!("{ctx}: cell {} could not be journaled: {e}", o.spec.index))?;
        *done += 1;
        if kill == Some(*done) {
            kill_self_for_test();
        }
        Ok(())
    })?;
    Ok(jpath)
}

// -------------------------------------------------------------------
// merge
// -------------------------------------------------------------------

/// Validates and merges the shards' journals (`….cells.jsonl`) into the
/// final report, writing `BENCH_<name>.json` and `results/*.csv` under
/// `out_root` — byte-identical to what a direct run of the whole grid
/// writes (under [`crate::freeze_perf`], which also zeroes whatever
/// wall-clock values the journals recorded; otherwise those differ by
/// nature). Returns the `BENCH_<name>.json` path.
pub fn merge(journals: &[PathBuf], out_root: &Path) -> Result<PathBuf, String> {
    if journals.is_empty() {
        return Err("shard merge needs at least one journal file".to_string());
    }
    let files: Vec<(ShardFile, Vec<CellOutcome>)> = journals
        .iter()
        .map(|p| read_journal(p).map(|(header, outcomes, _text)| (header, outcomes)))
        .collect::<Result<_, _>>()?;

    // Header consistency across inputs.
    let first = &files[0].0;
    for (f, _) in &files[1..] {
        check_same_plan(f, first).map_err(|e| format!("{e} — journals of different plans"))?;
    }

    // Every shard present exactly once — two journals for one shard are
    // two claims on the same cells, so a double claim refuses to merge
    // rather than picking a winner.
    let mut seen: Vec<Option<&ShardFile>> = vec![None; first.shards];
    for (h, _) in &files {
        if let Some(prev) = seen[h.shard] {
            return Err(format!(
                "{}: shard {} already provided by {}",
                h.ctx(),
                h.shard,
                prev.path.display()
            ));
        }
        seen[h.shard] = Some(h);
    }
    let missing: Vec<String> = seen
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_none())
        .map(|(i, _)| i.to_string())
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "missing journal(s) for shard(s) {} of {} — '{}' planned {} shards",
            missing.join(", "),
            first.shards,
            first.scenario,
            first.shards
        ));
    }

    // The file-declared grid size is untrusted; this binary's own grid
    // derivation is the truth. A header claiming fewer cells than the
    // scenario really has (a drifted or tampered planner) would
    // otherwise merge "completely" while silently dropping cells.
    let scenario = resolve_scenario(first)?;
    let reference = scenario.grid(first.scale);
    if reference.len() != first.total_cells {
        return Err(format!(
            "{}: header says the grid has {} cells, this binary generates {} for '{}' at {} \
             scale — scenario definition drifted; regenerate the plan",
            first.ctx(),
            first.total_cells,
            reference.len(),
            first.scenario,
            first.scale
        ));
    }

    // Every grid cell covered exactly once, each cell's identity
    // (seed + parameters) matching this binary's grid.
    let mut owner: Vec<Option<&ShardFile>> = vec![None; reference.len()];
    for (h, outcomes) in &files {
        let ctx = h.ctx();
        for o in outcomes {
            let Some(slot) = owner.get_mut(o.spec.index) else {
                return Err(format!(
                    "{ctx}: cell index {} outside the {}-cell grid",
                    o.spec.index,
                    reference.len()
                ));
            };
            if let Some(prev) = slot {
                return Err(format!(
                    "{ctx}: cell {} already provided by {}",
                    o.spec.index,
                    prev.path.display()
                ));
            }
            check_cell_matches(&ctx, &o.spec, &reference)?;
            *slot = Some(h);
        }
    }
    let missing: Vec<String> = owner
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_none())
        .map(|(i, _)| format!("{i} [{}]", reference[i].label()))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "grid cell(s) {} of '{}' missing from the provided journals \
             ({} of {} cells present) — a shard was truncated or its run incomplete",
            missing.join(", "),
            first.scenario,
            reference.len() - missing.len(),
            reference.len()
        ));
    }
    let scale = first.scale;
    let mut outcomes: Vec<CellOutcome> = files.into_iter().flat_map(|(_, o)| o).collect();
    runner::freeze_walls(&mut outcomes);

    let run = runner::assemble(scenario, outcomes);
    // There is no meaningful whole-batch wall clock for a distributed
    // run; record zero, which is also what a direct run records under
    // freeze-perf.
    runner::render_into(&run, scale, Duration::ZERO, out_root)
        .map_err(|e| format!("cannot write merged report: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_round_trip_typed() {
        for v in [
            Value::U64(2),
            Value::F64(2.0),
            Value::F64(0.1),
            Value::Str("Occamy".to_string()),
        ] {
            let j = encode_param("k", &v);
            let (k, back) = decode_param("t", &j).unwrap();
            assert_eq!(k, "k");
            assert_eq!(back, v, "kind must survive the trip");
        }
    }

    #[test]
    fn cell_round_trip_preserves_identity() {
        let cells = crate::scenario::Grid::new("fig12", Scale::Smoke)
            .axis("alpha", [1.0f64, 2.0])
            .axis("scheme", ["Occamy", "DT"])
            .build();
        for c in &cells {
            let j = encode_cell(c);
            let back = decode_cell("t", &j, Scale::Smoke).unwrap();
            assert_eq!(back.index, c.index);
            assert_eq!(back.seed, c.seed);
            assert_eq!(back.label(), c.label());
            assert_eq!(back.params(), c.params());
        }
    }

    #[test]
    fn outcome_round_trip_preserves_metrics_and_series() {
        let cells = crate::scenario::Grid::new("x", Scale::Smoke)
            .axis("k", [1u64])
            .build();
        let mut s = Series::new("q", &["t", "v"]);
        s.row(vec![0.0, 0.5]);
        s.row(vec![1.0, f64::NAN]);
        let o = CellOutcome {
            spec: cells[0].clone(),
            result: CellResult::new()
                .metric("loss_rate", 0.125)
                .metric("events", 12345.0)
                .metric("odd", f64::NAN)
                .with_series(s),
            wall: Duration::from_millis(7),
            rss: 4096,
        };
        let j = encode_outcome(&o);
        let back = decode_outcome("t", &j, Scale::Smoke).unwrap();
        assert_eq!(back.spec.seed, o.spec.seed);
        assert_eq!(back.rss, 4096);
        assert_eq!(back.result.get("loss_rate"), Some(0.125));
        assert_eq!(back.result.get("events"), Some(12345.0));
        assert!(back.result.get("odd").unwrap().is_nan());
        let sb = back.result.find_series("q").unwrap();
        assert_eq!(sb.columns, ["t", "v"]);
        assert_eq!(sb.rows[0], [0.0, 0.5]);
        assert!(sb.rows[1][1].is_nan());
        // The re-rendered result is byte-identical to the original —
        // the property the merged BENCH json rests on.
        assert_eq!(back.result.to_json().render(), o.result.to_json().render());
    }

    #[test]
    fn plan_balances_round_robin() {
        let dir = std::env::temp_dir().join(format!("occamy_shard_plan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let source = ShardSource::from_name("fig12").unwrap();
        let paths = plan(&source, Scale::Smoke, 3, &dir).unwrap();
        assert_eq!(paths.len(), 3);
        let mut indices = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            let f = read_shard_file(p, "plan").unwrap();
            assert_eq!(f.shard, i);
            assert_eq!(f.shards, 3);
            for c in f.doc.get("cells").and_then(Json::as_arr).unwrap() {
                let idx = c.get("index").and_then(Json::as_u64).unwrap() as usize;
                assert_eq!(idx % 3, i, "round-robin assignment");
                indices.push(idx);
            }
        }
        indices.sort_unstable();
        let total = ShardSource::from_name("fig12")
            .unwrap()
            .scenario()
            .grid(Scale::Smoke)
            .len();
        assert_eq!(indices, (0..total).collect::<Vec<_>>(), "full coverage");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_rejects_more_shards_than_cells() {
        let dir = std::env::temp_dir().join("occamy_shard_overplan");
        let source = ShardSource::from_name("fig12").unwrap();
        let cells = source.scenario().grid(Scale::Smoke).len();
        let e = plan(&source, Scale::Smoke, cells + 1, &dir).unwrap_err();
        assert!(e.contains("use --shards"), "{e}");
    }

    #[test]
    fn unknown_scenario_lists_known_names() {
        let e = match ShardSource::from_name("fig99") {
            Err(e) => e,
            Ok(_) => panic!("fig99 resolved"),
        };
        assert!(e.contains("fig99") && e.contains("fig12"), "{e}");
    }
}
