//! The declarative scenario layer: parameter grids, per-cell results and
//! report assembly.
//!
//! A [`Scenario`] describes one experiment (one figure or table of the
//! paper, or an extension study) as three pure pieces:
//!
//! 1. a **parameter grid** ([`Scenario::grid`]) — every independent
//!    simulation the experiment needs, one [`CellSpec`] each, with a
//!    deterministic per-cell seed;
//! 2. a **cell runner** ([`Scenario::run`]) — executes exactly one cell
//!    and distills it into a flat [`CellResult`] (named scalar metrics
//!    plus optional time series);
//! 3. an **emitter** ([`Scenario::emit`]) — folds all cell outcomes into
//!    the human-readable tables, CSV files and shape-check notes the old
//!    per-figure binaries printed.
//!
//! Because cells are independent and seeded, the runner (see
//! [`crate::runner`]) can execute them in parallel in any order and the
//! output is still reproducible.

use occamy_stats::{Json, Table};
use std::fmt;
use std::time::Duration;

// -------------------------------------------------------------------
// Scale
// -------------------------------------------------------------------

/// How much work a grid should generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper-faithful sweep (minutes of wall clock per scenario).
    Full,
    /// Reduced sweeps and durations for CI (`--quick`).
    Quick,
    /// A near-trivial grid that must finish in seconds — used by the
    /// registry smoke test to prove every scenario runs end to end.
    Smoke,
}

impl Scale {
    /// Parses the `Display` spelling back (shard files record the scale
    /// a plan was generated at).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "quick" => Some(Scale::Quick),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scale::Full => write!(f, "full"),
            Scale::Quick => write!(f, "quick"),
            Scale::Smoke => write!(f, "smoke"),
        }
    }
}

// -------------------------------------------------------------------
// Parameter values and cells
// -------------------------------------------------------------------

/// One grid-parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer (sizes, counts, percentages).
    U64(u64),
    /// A float (α values, load fractions).
    F64(f64),
    /// A symbolic value (scheme names, panel labels).
    Str(String),
}

impl Value {
    /// JSON form of the value.
    pub fn to_json(&self) -> Json {
        match self {
            Value::U64(v) => Json::from(*v),
            Value::F64(v) => Json::from(*v),
            Value::Str(s) => Json::from(s.as_str()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One point of a scenario's parameter grid: the cell's parameters, its
/// position, its deterministic seed and the scale it was generated for.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Position within the grid (stable across runs).
    pub index: usize,
    /// Deterministic seed derived from the scenario name and the cell
    /// index — workload generation inside the cell must use this.
    pub seed: u64,
    /// The scale the grid was generated for (cells shorten their
    /// durations on reduced scales).
    pub scale: Scale,
    params: Vec<(String, Value)>,
}

impl CellSpec {
    /// Reconstructs a cell from its serialized parts — the
    /// deserialization path of shard plan files (see [`crate::shard`]).
    /// The regular construction path is [`Grid::build`], which derives
    /// `seed` from the grid name and `index`.
    pub fn from_parts(
        index: usize,
        seed: u64,
        scale: Scale,
        params: Vec<(String, Value)>,
    ) -> CellSpec {
        CellSpec {
            index,
            seed,
            scale,
            params,
        }
    }

    /// Looks a parameter up by name.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn expect(&self, key: &str) -> &Value {
        self.get(key)
            .unwrap_or_else(|| panic!("cell has no parameter '{key}' (params: {})", self.label()))
    }

    /// The `u64` parameter `key`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is missing or not a `U64`.
    pub fn u64(&self, key: &str) -> u64 {
        match self.expect(key) {
            Value::U64(v) => *v,
            other => panic!("parameter '{key}' is {other:?}, not u64"),
        }
    }

    /// The numeric parameter `key` as `f64` (accepts `U64` too).
    ///
    /// # Panics
    ///
    /// Panics if the parameter is missing or a string.
    pub fn f64(&self, key: &str) -> f64 {
        match self.expect(key) {
            Value::F64(v) => *v,
            Value::U64(v) => *v as f64,
            other => panic!("parameter '{key}' is {other:?}, not numeric"),
        }
    }

    /// The string parameter `key`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is missing or not a string.
    pub fn str(&self, key: &str) -> &str {
        match self.expect(key) {
            Value::Str(s) => s.as_str(),
            other => panic!("parameter '{key}' is {other:?}, not a string"),
        }
    }

    /// All parameters, in axis order.
    pub fn params(&self) -> &[(String, Value)] {
        &self.params
    }

    /// A compact `key=value key=value` label for logs.
    pub fn label(&self) -> String {
        self.params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// JSON form: `{params: {...}, seed: n}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "params",
                Json::obj(self.params.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
            ("seed", Json::from(self.seed)),
        ])
    }
}

// -------------------------------------------------------------------
// Grid builder
// -------------------------------------------------------------------

fn fnv1a(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cartesian-product grid builder with deterministic per-cell seeds.
///
/// Axes multiply in declaration order: the *last* axis varies fastest,
/// so `axis("size", ..).axis("scheme", ..)` yields all schemes for the
/// first size, then all schemes for the second — the iteration order the
/// old figure binaries used.
#[derive(Debug, Clone)]
pub struct Grid {
    name: &'static str,
    scale: Scale,
    axes: Vec<(String, Vec<Value>)>,
}

impl Grid {
    /// Starts a grid for the scenario `name` at `scale`.
    pub fn new(name: &'static str, scale: Scale) -> Self {
        Grid {
            name,
            scale,
            axes: Vec::new(),
        }
    }

    /// Adds an axis with the given values.
    pub fn axis<V: Into<Value>>(mut self, key: &str, values: impl IntoIterator<Item = V>) -> Self {
        let values: Vec<Value> = values.into_iter().map(Into::into).collect();
        assert!(!values.is_empty(), "axis '{key}' has no values");
        self.axes.push((key.to_string(), values));
        self
    }

    /// Materializes every cell of the cartesian product.
    pub fn build(self) -> Vec<CellSpec> {
        let total: usize = self.axes.iter().map(|(_, v)| v.len()).product();
        let base = fnv1a(self.name);
        let mut cells = Vec::with_capacity(total);
        for index in 0..total {
            let mut rem = index;
            let mut params = Vec::with_capacity(self.axes.len());
            // Decode `index` in mixed radix, last axis fastest.
            let mut stride = total;
            for (key, values) in &self.axes {
                stride /= values.len();
                let pick = rem / stride;
                rem %= stride;
                params.push((key.clone(), values[pick].clone()));
            }
            cells.push(CellSpec {
                index,
                seed: splitmix(base ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
                scale: self.scale,
                params,
            });
        }
        cells
    }
}

/// Builds a grid from explicitly enumerated cells, for experiments whose
/// parameter sets are not a full cartesian product (e.g. Fig. 7's two
/// panels sharing one operating point). Seeds follow the same
/// name-and-index derivation as [`Grid`].
pub fn explicit_grid(
    name: &'static str,
    scale: Scale,
    cells: Vec<Vec<(&str, Value)>>,
) -> Vec<CellSpec> {
    let base = fnv1a(name);
    cells
        .into_iter()
        .enumerate()
        .map(|(index, params)| CellSpec {
            index,
            seed: splitmix(base ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
            scale,
            params: params
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        })
        .collect()
}

// -------------------------------------------------------------------
// Cell results
// -------------------------------------------------------------------

/// A named time series produced by one cell (queue evolution, CDF
/// quantiles, …): column names plus rows of numbers.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series name, unique within the cell.
    pub name: String,
    /// Column names, one per entry of each row.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Series {
            name: name.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the column count.
    pub fn row(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "series row width mismatch");
        self.rows.push(row);
    }

    /// JSON form of the series.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            (
                "columns",
                Json::arr(self.columns.iter().map(|c| Json::from(c.as_str()))),
            ),
            (
                "rows",
                Json::arr(
                    self.rows
                        .iter()
                        .map(|r| Json::arr(r.iter().map(|&v| Json::from(v)))),
                ),
            ),
        ])
    }
}

/// The distilled output of one cell: named scalar metrics (insertion
/// ordered) plus optional series.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    metrics: Vec<(String, f64)>,
    series: Vec<Series>,
}

impl CellResult {
    /// Creates an empty result.
    pub fn new() -> Self {
        CellResult::default()
    }

    /// Adds a scalar metric.
    pub fn metric(mut self, key: &str, v: f64) -> Self {
        self.metrics.push((key.to_string(), v));
        self
    }

    /// Adds a scalar metric when present (missing statistics are simply
    /// omitted and later format as `-`).
    pub fn metric_opt(self, key: &str, v: Option<f64>) -> Self {
        match v {
            Some(v) => self.metric(key, v),
            None => self,
        }
    }

    /// Attaches a series.
    pub fn with_series(mut self, s: Series) -> Self {
        self.series.push(s);
        self
    }

    /// Looks a metric up.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Formats a metric with 3 decimals, `-` when absent.
    pub fn fmt(&self, key: &str) -> String {
        crate::report::fmt(self.get(key))
    }

    /// All metrics in insertion order.
    pub fn metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }

    /// All series.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Finds a series by name.
    pub fn find_series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Whether the cell produced nothing at all.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.series.is_empty()
    }

    /// JSON form: `{metrics: {...}, series: [...]}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![(
            "metrics".to_string(),
            Json::obj(
                self.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v))),
            ),
        )];
        if !self.series.is_empty() {
            fields.push((
                "series".to_string(),
                Json::arr(self.series.iter().map(Series::to_json)),
            ));
        }
        Json::Obj(fields)
    }
}

/// A finished cell: its spec, its result and how long it took.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The grid point that was run.
    pub spec: CellSpec,
    /// What it measured.
    pub result: CellResult,
    /// Wall-clock time of [`Scenario::run`] for this cell.
    pub wall: Duration,
    /// Peak resident-set size of the process when the cell finished
    /// (`VmHWM` from `/proc/self/status`; 0 off-Linux and under
    /// `--freeze-perf`). Process-wide high-water mark, so within one
    /// run it is monotone across cells in completion order.
    pub rss: u64,
}

// -------------------------------------------------------------------
// Reports
// -------------------------------------------------------------------

/// The rendered output of a scenario: tables (optionally mirrored to
/// CSV files under `results/`) and free-form shape-check notes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    tables: Vec<(Table, Option<String>)>,
    notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds a table that is only printed.
    pub fn table(mut self, t: Table) -> Self {
        self.tables.push((t, None));
        self
    }

    /// Adds a table that is printed and mirrored to `results/<csv>`.
    pub fn table_csv(mut self, t: Table, csv: &str) -> Self {
        self.tables.push((t, Some(csv.to_string())));
        self
    }

    /// Adds a shape-check / commentary note.
    pub fn note(mut self, n: impl Into<String>) -> Self {
        self.notes.push(n.into());
        self
    }

    /// The tables with their optional CSV file names.
    pub fn tables(&self) -> &[(Table, Option<String>)] {
        &self.tables
    }

    /// The notes.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

// -------------------------------------------------------------------
// The trait
// -------------------------------------------------------------------

/// One declarative experiment: a named, self-describing parameter grid
/// whose independent cells the runner may execute in parallel.
pub trait Scenario: Sync {
    /// Registry name (`fig12`, `table01`, …).
    fn name(&self) -> &'static str;

    /// One-line description shown by `occamy-bench list`.
    fn description(&self) -> &'static str;

    /// The parameter grid at the given scale. Every cell must be
    /// independent of every other cell.
    fn grid(&self, scale: Scale) -> Vec<CellSpec>;

    /// Runs one cell. Must be deterministic given `cell` (use
    /// `cell.seed` for any randomness) and must not mutate shared state —
    /// the runner calls this concurrently from many threads.
    fn run(&self, cell: &CellSpec) -> CellResult;

    /// Folds all outcomes (in grid order) into tables and notes.
    fn emit(&self, outcomes: &[CellOutcome]) -> Report;

    /// Per-cell telemetry snapshot cadence override in executed events
    /// (`None` = the runner default). Spec scenarios surface their
    /// `[telemetry] every_events` knob here; only consulted when a
    /// telemetry sink is installed.
    fn telemetry_every(&self) -> Option<u64> {
        None
    }
}

// -------------------------------------------------------------------
// Emit helpers shared by the figure modules
// -------------------------------------------------------------------

/// The distinct values of parameter `key`, in first-appearance order.
pub fn distinct(outcomes: &[CellOutcome], key: &str) -> Vec<Value> {
    let mut seen: Vec<Value> = Vec::new();
    for o in outcomes {
        if let Some(v) = o.spec.get(key) {
            if !seen.contains(v) {
                seen.push(v.clone());
            }
        }
    }
    seen
}

/// The outcome whose parameters match every `(key, value)` selector.
pub fn find<'a>(outcomes: &'a [CellOutcome], sel: &[(&str, &Value)]) -> Option<&'a CellOutcome> {
    outcomes
        .iter()
        .find(|o| sel.iter().all(|(k, v)| o.spec.get(k) == Some(v)))
}

/// Builds the ubiquitous "row axis × column axis" metric table: one row
/// per distinct `row_key` value, one column per distinct `col_key`
/// value, each cell showing `metric` (or `-`).
pub fn matrix_table(
    title: &str,
    outcomes: &[CellOutcome],
    row_key: &str,
    col_key: &str,
    metric: &str,
) -> Table {
    let rows = distinct(outcomes, row_key);
    let cols = distinct(outcomes, col_key);
    let mut columns = vec![row_key.to_string()];
    columns.extend(cols.iter().map(|c| c.to_string()));
    let colrefs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &colrefs);
    for r in &rows {
        let mut cells = vec![r.to_string()];
        for c in &cols {
            let cell = find(outcomes, &[(row_key, r), (col_key, c)]);
            cells.push(cell.map_or_else(|| "-".to_string(), |o| o.result.fmt(metric)));
        }
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_cartesian_last_axis_fastest() {
        let cells = Grid::new("t", Scale::Full)
            .axis("size", [10u64, 20])
            .axis("scheme", ["A", "B", "C"])
            .build();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].u64("size"), 10);
        assert_eq!(cells[0].str("scheme"), "A");
        assert_eq!(cells[2].str("scheme"), "C");
        assert_eq!(cells[3].u64("size"), 20);
        assert_eq!(cells[3].str("scheme"), "A");
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a = Grid::new("x", Scale::Full).axis("k", [1u64, 2, 3]).build();
        let b = Grid::new("x", Scale::Full).axis("k", [1u64, 2, 3]).build();
        assert!(a.iter().zip(&b).all(|(ca, cb)| ca.seed == cb.seed));
        let mut seeds: Vec<u64> = a.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 3, "seed collision");
        let other = Grid::new("y", Scale::Full).axis("k", [1u64]).build();
        assert_ne!(other[0].seed, a[0].seed, "seed must depend on name");
    }

    #[test]
    fn cell_accessors_and_label() {
        let cells = Grid::new("t", Scale::Quick)
            .axis("alpha", [2.0f64])
            .axis("size", [80u64])
            .axis("scheme", ["DT"])
            .build();
        let c = &cells[0];
        assert_eq!(c.f64("alpha"), 2.0);
        assert_eq!(c.f64("size"), 80.0); // u64 coerces
        assert_eq!(c.u64("size"), 80);
        assert_eq!(c.str("scheme"), "DT");
        assert_eq!(c.label(), "alpha=2 size=80 scheme=DT");
        assert_eq!(c.scale, Scale::Quick);
    }

    #[test]
    #[should_panic(expected = "no parameter 'missing'")]
    fn missing_parameter_panics_clearly() {
        let cells = Grid::new("t", Scale::Full).axis("k", [1u64]).build();
        let _ = cells[0].u64("missing");
    }

    #[test]
    fn cell_result_roundtrip() {
        let r = CellResult::new()
            .metric("qct_avg_ms", 1.25)
            .metric_opt("skipped", None)
            .metric_opt("p99", Some(9.0));
        assert_eq!(r.get("qct_avg_ms"), Some(1.25));
        assert_eq!(r.get("skipped"), None);
        assert_eq!(r.fmt("p99"), "9.000");
        assert_eq!(r.fmt("skipped"), "-");
        assert!(!r.is_empty());
        let j = r.to_json().render();
        assert!(j.contains("\"qct_avg_ms\":1.25"), "{j}");
    }

    #[test]
    fn matrix_table_pairs_rows_and_columns() {
        let cells = Grid::new("t", Scale::Full)
            .axis("size", [1u64, 2])
            .axis("scheme", ["A", "B"])
            .build();
        let outcomes: Vec<CellOutcome> = cells
            .into_iter()
            .map(|spec| {
                let v =
                    spec.u64("size") as f64 * if spec.str("scheme") == "A" { 1.0 } else { 10.0 };
                CellOutcome {
                    spec,
                    result: CellResult::new().metric("m", v),
                    wall: Duration::ZERO,
                    rss: 0,
                }
            })
            .collect();
        let t = matrix_table("demo", &outcomes, "size", "scheme", "m");
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("1.000") && s.contains("20.000"), "{s}");
    }

    #[test]
    fn series_width_checked() {
        let mut s = Series::new("q", &["t", "v"]);
        s.row(vec![0.0, 1.0]);
        assert_eq!(s.rows.len(), 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.row(vec![1.0]);
        }));
        assert!(r.is_err());
    }
}
