//! The typed scenario-spec model and its validation.
//!
//! A spec document describes one experiment declaratively:
//!
//! ```toml
//! name = "fat_tree_incast"
//! description = "incast on a k=4 fat-tree across oversubscription"
//!
//! [topology]
//! kind = "fat_tree"
//! k = 4
//!
//! [traffic]
//! background = "web_search"
//! bg_load = 0.1
//! query_pct_buffer = 80
//!
//! [schemes]
//! use = ["Occamy", "ABM", "DT", "Pushout"]
//!
//! [grid]
//! oversubscription = [1.0, 2.0, 4.0]
//!
//! [[emit]]
//! title = "avg QCT slowdown vs oversubscription"
//! rows = "oversubscription"
//! metric = "qct_slowdown_avg"
//! ```
//!
//! Loading runs in two steps. The section readers only read: each key's
//! type, and every identifier — topology kind, traffic kind, scheme,
//! grid knob, emit metric — against its known set, where a typo fails
//! with a named suggestion (`unknown topology kind 'fat_treee'; did you
//! mean 'fat_tree'?`). Then [`SpecDoc::check`] applies every value rule
//! once, to the section keys and to each `[grid]` value written into
//! the document with [`SpecDoc::set_knob`], so a value breaks the same
//! rule whichever place it comes from, and fails with an error that
//! names its key, never a panic.

use crate::error::{Result, SpecError};
use crate::value::Value;
use occamy_core::{BmKind, BmTuning};
use occamy_sim::topology::FabricTopo;
use occamy_sim::{MS, US};
use std::fmt::Display;

/// The spec-only pseudo-scheme that runs every switch on the
/// crosspoint-queued architecture (see [`SwitchArch::Crosspoint`]) as
/// one column of the scheme sweep.
const CROSSPOINT: &str = "Crosspoint";

/// The scheme names `[schemes] use` accepts: every [`BmKind`] by
/// [`BmKind::name`], then [`CROSSPOINT`].
fn scheme_names() -> Vec<&'static str> {
    BmKind::ALL
        .map(BmKind::name)
        .into_iter()
        .chain([CROSSPOINT])
        .collect()
}

/// Switch buffer architectures (`[topology] switch_arch = …`).
pub const SWITCH_ARCHS: &[&str] = &["shared_memory", "crosspoint"];

/// Crosspoint schedulers (`[topology] xp_sched = …`), used when
/// `switch_arch = "crosspoint"` (or the pseudo-scheme `"Crosspoint"`
/// appears in `[schemes].use`).
pub const XP_SCHEDS: &[&str] = &["round_robin", "longest"];

/// Switch buffer architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchArch {
    /// Output-queued shared-memory switch (the paper's model).
    #[default]
    SharedMemory,
    /// Crosspoint-queued switch: dedicated per-(input, output) FIFOs.
    Crosspoint,
}

impl SwitchArch {
    /// The spec spelling.
    pub fn name(self) -> &'static str {
        match self {
            SwitchArch::SharedMemory => "shared_memory",
            SwitchArch::Crosspoint => "crosspoint",
        }
    }
}

/// Which crosspoint an output port serves next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XpSchedSpec {
    /// Rotate fairly over non-empty inputs.
    #[default]
    RoundRobin,
    /// Serve the fullest crosspoint first (lowest input wins ties).
    Longest,
}

impl XpSchedSpec {
    /// The spec spelling.
    pub fn name(self) -> &'static str {
        match self {
            XpSchedSpec::RoundRobin => "round_robin",
            XpSchedSpec::Longest => "longest",
        }
    }
}

/// Topology kinds the compiler can build.
pub const TOPOLOGIES: &[&str] = &["leaf_spine", "fat_tree", "three_tier"];

/// Background-traffic kinds (`[traffic] background = …`).
pub const BACKGROUNDS: &[&str] = &[
    "none",
    "web_search",
    "all_to_all",
    "allreduce",
    "permutation",
];

/// Knobs a `[grid]` axis may sweep ([`SpecDoc::set_knob`] writes each).
pub const KNOBS: &[&str] = &[
    "bg_load",
    "bg_flow_kb",
    "perm_shift",
    "query_pct_buffer",
    "query_bytes",
    "query_fanout",
    "qps_per_host",
    "oversubscription",
    "duration_ms",
    "alpha",
    "bshare_delay_us",
    "damq_reserve_frac",
];

/// Headline metrics an `[[emit]]` table may select — the scalar names
/// `RunResult::into_cell` produces in `occamy-bench`.
pub const METRICS: &[&str] = &[
    "queries",
    "qct_avg_ms",
    "qct_p99_ms",
    "qct_slowdown_avg",
    "qct_slowdown_p99",
    "bg_fct_avg_ms",
    "bg_slowdown_avg",
    "bg_slowdown_p99",
    "small_bg_fct_p99_ms",
    "small_bg_slowdown_p99",
    "losses",
    "unfinished",
    "events",
    "retransmissions",
    "rto_fires",
    "faults_fired",
    "fault_drops",
    "flows_killed",
    "flows_recovered",
    "recovery_ms_avg",
    "recovery_ms_p99",
];

/// Fault kinds a `[[faults]]` clause may declare.
pub const FAULT_KINDS: &[&str] = &["link_flap", "drain", "host_churn"];

/// Ceilings on the values that size a cell's workload. They sit far
/// past the paper's operating points (background load up to 1.2, 400
/// queries/s per host, 16- to 64-way incast, 15 ms windows) and keep
/// every accepted cell's injected workload finite: without them a value
/// such as `bg_load = 1e300` passes and the flow generator never ends.
const MAX_BG_LOAD: f64 = 10.0;
/// Queries per second per client host.
const MAX_QPS_PER_HOST: f64 = 10_000.0;
/// Responses per incast query.
const MAX_QUERY_FANOUT: u64 = 1_024;
/// Workload injection window, ms.
const MAX_DURATION_MS: u64 = 10_000;

/// One numeric axis value (integers and floats are kept distinct so
/// grids render `20`, not `20.0`, exactly like the hand-coded figures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// An unsigned integer value.
    Int(u64),
    /// A float value.
    Float(f64),
}

impl Num {
    /// The value as `f64`.
    pub fn as_f64(self) -> f64 {
        match self {
            Num::Int(v) => v as f64,
            Num::Float(v) => v,
        }
    }
}

/// The `[topology]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySection {
    /// Fabric shape and dimensions, checked with [`FabricTopo::check`].
    pub kind: FabricTopo,
    /// Host access-link rate in Gbps.
    pub host_rate_gbps: f64,
    /// Switch-to-switch link rate in Gbps (before oversubscription).
    pub fabric_rate_gbps: f64,
    /// One-way per-link propagation in µs.
    pub link_prop_us: f64,
    /// Shared buffer per 8 ports, in KB.
    pub buffer_per_8ports_kb: u64,
    /// Divisor (≥ 1; sweepable) on the switch-link rates. It is the
    /// access ratio only on `three_tier`; at `1.0` a `leaf_spine` leaf
    /// keeps its own hosts-to-spines ratio (see
    /// [`occamy_sim::topology::FabricCfg::oversubscription`]).
    pub oversubscription: f64,
    /// Switch buffer architecture (default shared-memory).
    pub switch_arch: SwitchArch,
    /// Crosspoint scheduler, for the crosspoint architecture.
    pub xp_sched: XpSchedSpec,
}

/// Background-traffic kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Background {
    /// No background traffic.
    None,
    /// Poisson web-search flows (DCTCP distribution).
    WebSearch,
    /// Paced all-to-all rounds.
    AllToAll,
    /// Paced double-binary-tree all-reduce rounds.
    Allreduce,
    /// Paced permutation rounds.
    Permutation,
}

impl Background {
    /// The spec spelling.
    pub fn name(self) -> &'static str {
        match self {
            Background::None => "none",
            Background::WebSearch => "web_search",
            Background::AllToAll => "all_to_all",
            Background::Allreduce => "allreduce",
            Background::Permutation => "permutation",
        }
    }
}

/// How the incast query size is given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySize {
    /// Absolute bytes per query.
    Bytes(u64),
    /// Percent of the 8-port buffer allotment (`buffer_per_8ports_kb`),
    /// the axis the hand-coded figures use. Note this is the *allotment*,
    /// not a materialized partition: a switch with fewer than 8 ports
    /// holds a proportionally smaller partition than this reference.
    PctBuffer(u64),
}

/// The `[traffic]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Background pattern.
    pub background: Background,
    /// Background offered load fraction.
    pub bg_load: f64,
    /// Per-flow size of the deterministic patterns, in KB.
    pub bg_flow_kb: u64,
    /// Destination shift of the permutation pattern.
    pub perm_shift: u64,
    /// Incast query size.
    pub query: QuerySize,
    /// Incast fan-out per query.
    pub query_fanout: u64,
    /// Queries per second per client host (0 disables queries).
    pub qps_per_host: f64,
    /// Workload injection window, ms.
    pub duration_ms: u64,
    /// Drain window, ms.
    pub drain_ms: u64,
}

/// The `[schemes]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemesSpec {
    /// Schemes to sweep (the implicit last grid axis).
    pub schemes: Vec<String>,
    /// Per-scheme `α` overrides (defaults: [`BmKind::paper_alpha`]).
    pub alpha: Vec<(String, f64)>,
    /// BShare's delay target `d` in µs. Grid-only: `[grid]
    /// bshare_delay_us` sets it per cell and no section key does, so a
    /// loaded document holds BShare's own default.
    pub bshare_delay_us: f64,
    /// DAMQ's reserved buffer fraction `ρ`. Grid-only like
    /// `bshare_delay_us` (`[grid] damq_reserve_frac`).
    pub damq_reserve_frac: f64,
}

impl SchemesSpec {
    /// The `α` for `scheme`, applying overrides. The crosspoint
    /// pseudo-scheme ignores `α` and gets 1.
    pub fn alpha_for(&self, scheme: &str) -> f64 {
        self.alpha
            .iter()
            .find(|(s, _)| s == scheme)
            .map(|(_, a)| *a)
            .unwrap_or_else(|| BmKind::from_name(scheme).map_or(1.0, BmKind::paper_alpha))
    }

    /// Overrides the `α` of `scheme`.
    fn set_alpha(&mut self, scheme: &str, alpha: f64) {
        match self.alpha.iter_mut().find(|(s, _)| s == scheme) {
            Some((_, a)) => *a = alpha,
            None => self.alpha.push((scheme.to_string(), alpha)),
        }
    }
}

/// The `[sim]` section (engine parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// ECN marking threshold, bytes.
    pub ecn_k_bytes: u64,
    /// Minimum RTO, ms.
    pub min_rto_ms: u64,
    /// Maximum segment size, bytes.
    pub mss: u64,
    /// Scale factor on the expulsion token rate (Occamy §5.3).
    pub expel_rate_factor: f64,
}

/// The `[telemetry]` section (live-observability cadence).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySpec {
    /// Snapshot cadence in executed events (0 = use the runner default
    /// when telemetry is enabled). Snapshots are event-count driven, so
    /// they are deterministic and never perturb simulation output.
    pub every_events: u64,
}

/// One `[grid]` axis: a knob swept over per-scale value lists
/// (`quick` / `smoke` default to `full`).
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpec {
    /// The knob (one of [`KNOBS`]).
    pub knob: String,
    /// Values at full scale.
    pub full: Vec<Num>,
    /// Values at quick scale.
    pub quick: Vec<Num>,
    /// Values at smoke scale.
    pub smoke: Vec<Num>,
}

/// The shape of an `[[emit]]` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableKind {
    /// A rows × cols matrix of one metric (the default).
    #[default]
    Matrix,
    /// The scheme-ranking headline table: one row per scheme, the
    /// headline-metric columns — the same table a grid-less spec emits
    /// by default, available explicitly so specs that sweep tuning
    /// knobs keep their ranking table (one per knob combination).
    Ranking,
}

/// One `[[emit]]` table: a rows × cols matrix of one metric, or
/// (`kind = "ranking"`) the per-scheme headline table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Matrix or ranking.
    pub kind: TableKind,
    /// Table title.
    pub title: String,
    /// Row axis (a grid knob or `"scheme"`); empty for ranking tables.
    pub rows: String,
    /// Column axis (default `"scheme"`); empty for ranking tables.
    pub cols: String,
    /// The metric shown (one of [`METRICS`]); empty for ranking tables.
    pub metric: String,
    /// Optional CSV file name under `results/`.
    pub csv: Option<String>,
}

/// One `[[faults]]` clause: a deterministic fault whose times are
/// fractions of the workload window (`duration_ms`), so the same
/// schedule scales with `--quick`/`--smoke` duration clamps. Indices
/// follow the `occamy-sim` builder numbering and are validated against
/// the `[topology]` section at load time.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultClause {
    /// `kind = "link_flap"`: `switch`'s `port` goes down at `down` and
    /// back up at `up`.
    LinkFlap {
        /// Switch index.
        switch: u64,
        /// Port index on that switch.
        port: u64,
        /// Down time as a fraction of the workload window.
        down: f64,
        /// Restore time as a fraction of the workload window.
        up: f64,
    },
    /// `kind = "drain"`: the switch stops admitting in `[start, end)`.
    Drain {
        /// Switch index.
        switch: u64,
        /// Drain start as a fraction of the workload window.
        start: f64,
        /// Drain end as a fraction of the workload window.
        end: f64,
    },
    /// `kind = "host_churn"`: the host leaves at `leave`, rejoins at
    /// `join`.
    HostChurn {
        /// Host index.
        host: u64,
        /// Leave time as a fraction of the workload window.
        leave: f64,
        /// Rejoin time as a fraction of the workload window.
        join: f64,
    },
}

/// A fully validated scenario spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecDoc {
    /// Scenario name (`BENCH_<name>.json`, `results/<name>_perf.csv`).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Grid name the per-cell seeds derive from. Defaults to `name`;
    /// set it to a registry scenario's name to reproduce that
    /// scenario's exact cell seeds (and hence its tables).
    pub seed_key: String,
    /// Fabric shape and link parameters.
    pub topology: TopologySection,
    /// Workload.
    pub traffic: TrafficSpec,
    /// Scheme sweep.
    pub schemes: SchemesSpec,
    /// Engine parameters.
    pub sim: SimSpec,
    /// Live-telemetry cadence.
    pub telemetry: TelemetrySpec,
    /// Deterministic fault schedule (empty = pristine fabric).
    pub faults: Vec<FaultClause>,
    /// Extra sweep axes (the scheme axis is implicit and last).
    pub grid: Vec<AxisSpec>,
    /// Report tables (when empty the binder emits a default table per
    /// headline metric).
    pub emit: Vec<TableSpec>,
}

// -------------------------------------------------------------------
// Section readers: types and identifiers only; values are checked by
// `SpecDoc::check`.
// -------------------------------------------------------------------

fn check_keys(ctx: &str, table: &Value, known: &[&str]) -> Result<()> {
    for (k, _) in table.entries()? {
        if !known.contains(&k.as_str()) {
            return Err(SpecError::unknown("key", k, known).in_context(ctx));
        }
    }
    Ok(())
}

fn get_f64(ctx: &str, t: &Value, key: &str, default: f64) -> Result<f64> {
    match t.get(key) {
        Some(v) => v.as_f64().map_err(|e| e.in_context(ctx)),
        None => Ok(default),
    }
}

fn get_u64(ctx: &str, t: &Value, key: &str, default: u64) -> Result<u64> {
    match t.get(key) {
        Some(v) => v.as_u64().map_err(|e| e.in_context(ctx)),
        None => Ok(default),
    }
}

fn get_usize(ctx: &str, t: &Value, key: &str, default: usize) -> Result<usize> {
    Ok(get_u64(ctx, t, key, default as u64)? as usize)
}

fn parse_topology(doc: &Value) -> Result<TopologySection> {
    let ctx = "[topology]";
    let t = doc
        .get("topology")
        .ok_or_else(|| SpecError::new("missing required [topology] section"))?;
    let kind_name = t
        .get("kind")
        .ok_or_else(|| SpecError::new("missing 'kind'").in_context(ctx))?
        .as_str()
        .map_err(|e| e.in_context(ctx))?;
    const COMMON: &[&str] = &[
        "kind",
        "host_rate_gbps",
        "fabric_rate_gbps",
        "link_prop_us",
        "buffer_per_8ports_kb",
        "oversubscription",
        "switch_arch",
        "xp_sched",
    ];
    let dim = |key, default| get_usize(ctx, t, key, default);
    let kind = match kind_name {
        "leaf_spine" => {
            check_keys(
                ctx,
                t,
                &[COMMON, &["spines", "leaves", "hosts_per_leaf"]].concat(),
            )?;
            FabricTopo::LeafSpine {
                spines: dim("spines", 4)?,
                leaves: dim("leaves", 4)?,
                hosts_per_leaf: dim("hosts_per_leaf", 8)?,
            }
        }
        "fat_tree" => {
            check_keys(ctx, t, &[COMMON, &["k"]].concat())?;
            FabricTopo::FatTree { k: dim("k", 4)? }
        }
        "three_tier" => {
            check_keys(
                ctx,
                t,
                &[
                    COMMON,
                    &[
                        "pods",
                        "access_per_pod",
                        "aggs_per_pod",
                        "cores",
                        "hosts_per_access",
                    ],
                ]
                .concat(),
            )?;
            FabricTopo::ThreeTier {
                pods: dim("pods", 2)?,
                access_per_pod: dim("access_per_pod", 2)?,
                aggs_per_pod: dim("aggs_per_pod", 2)?,
                cores: dim("cores", 2)?,
                hosts_per_access: dim("hosts_per_access", 4)?,
            }
        }
        other => return Err(SpecError::unknown("topology kind", other, TOPOLOGIES)),
    };
    let switch_arch = match t.get("switch_arch") {
        None => SwitchArch::SharedMemory,
        Some(v) => match v.as_str().map_err(|e| e.in_context(ctx))? {
            "shared_memory" => SwitchArch::SharedMemory,
            "crosspoint" => SwitchArch::Crosspoint,
            other => {
                return Err(SpecError::unknown(
                    "switch architecture",
                    other,
                    SWITCH_ARCHS,
                ))
            }
        },
    };
    let xp_sched = match t.get("xp_sched") {
        None => XpSchedSpec::RoundRobin,
        Some(v) => match v.as_str().map_err(|e| e.in_context(ctx))? {
            "round_robin" => XpSchedSpec::RoundRobin,
            "longest" => XpSchedSpec::Longest,
            other => return Err(SpecError::unknown("crosspoint scheduler", other, XP_SCHEDS)),
        },
    };
    let host_rate_gbps = get_f64(ctx, t, "host_rate_gbps", 25.0)?;
    Ok(TopologySection {
        kind,
        host_rate_gbps,
        fabric_rate_gbps: get_f64(ctx, t, "fabric_rate_gbps", host_rate_gbps)?,
        link_prop_us: get_f64(ctx, t, "link_prop_us", 10.0)?,
        buffer_per_8ports_kb: get_u64(ctx, t, "buffer_per_8ports_kb", 1_000)?,
        oversubscription: get_f64(ctx, t, "oversubscription", 1.0)?,
        switch_arch,
        xp_sched,
    })
}

fn parse_traffic(doc: &Value) -> Result<TrafficSpec> {
    let ctx = "[traffic]";
    let empty = Value::Table(Vec::new());
    let t = doc.get("traffic").unwrap_or(&empty);
    check_keys(
        ctx,
        t,
        &[
            "background",
            "bg_load",
            "bg_flow_kb",
            "perm_shift",
            "query_bytes",
            "query_pct_buffer",
            "query_fanout",
            "qps_per_host",
            "duration_ms",
            "drain_ms",
        ],
    )?;
    let background = match t.get("background") {
        None => Background::WebSearch,
        Some(v) => match v.as_str().map_err(|e| e.in_context(ctx))? {
            "none" => Background::None,
            "web_search" => Background::WebSearch,
            "all_to_all" => Background::AllToAll,
            "allreduce" => Background::Allreduce,
            "permutation" => Background::Permutation,
            other => return Err(SpecError::unknown("traffic kind", other, BACKGROUNDS)),
        },
    };
    let query = match (t.get("query_bytes"), t.get("query_pct_buffer")) {
        (Some(_), Some(_)) => {
            return Err(
                SpecError::new("give either 'query_bytes' or 'query_pct_buffer', not both")
                    .in_context(ctx),
            )
        }
        (Some(v), None) => QuerySize::Bytes(v.as_u64().map_err(|e| e.in_context(ctx))?),
        (None, Some(v)) => QuerySize::PctBuffer(v.as_u64().map_err(|e| e.in_context(ctx))?),
        (None, None) => QuerySize::PctBuffer(40),
    };
    Ok(TrafficSpec {
        background,
        bg_load: get_f64(ctx, t, "bg_load", 0.9)?,
        bg_flow_kb: get_u64(ctx, t, "bg_flow_kb", 100)?,
        perm_shift: get_u64(ctx, t, "perm_shift", 1)?,
        query,
        query_fanout: get_u64(ctx, t, "query_fanout", 16)?,
        qps_per_host: get_f64(ctx, t, "qps_per_host", 400.0)?,
        duration_ms: get_u64(ctx, t, "duration_ms", 15)?,
        drain_ms: get_u64(ctx, t, "drain_ms", 100)?,
    })
}

/// Reads a scheme name, which must be one of [`scheme_names`].
fn scheme_name(ctx: &str, v: &str) -> Result<String> {
    let known = scheme_names();
    if known.contains(&v) {
        Ok(v.to_string())
    } else {
        Err(SpecError::unknown("scheme", v, &known).in_context(ctx))
    }
}

fn parse_schemes(doc: &Value) -> Result<SchemesSpec> {
    let ctx = "[schemes]";
    let empty = Value::Table(Vec::new());
    let t = doc.get("schemes").unwrap_or(&empty);
    check_keys(ctx, t, &["use", "alpha"])?;
    let schemes = match t.get("use") {
        None => BmKind::EVALUATED.map(|k| k.name().to_string()).to_vec(),
        Some(v) => v
            .as_array()
            .map_err(|e| e.in_context(ctx))?
            .iter()
            .map(|item| scheme_name(ctx, item.as_str().map_err(|e| e.in_context(ctx))?))
            .collect::<Result<_>>()?,
    };
    let mut alpha = Vec::new();
    if let Some(a) = t.get("alpha") {
        let ctx = "[schemes.alpha]";
        for (k, v) in a.entries().map_err(|e| e.in_context(ctx))? {
            alpha.push((
                scheme_name(ctx, k)?,
                v.as_f64().map_err(|e| e.in_context(ctx))?,
            ));
        }
    }
    let tuning = BmTuning::default();
    Ok(SchemesSpec {
        schemes,
        alpha,
        bshare_delay_us: tuning.bshare_delay_ns as f64 / 1e3,
        damq_reserve_frac: tuning.damq_reserve_permille as f64 / 1e3,
    })
}

fn parse_sim(doc: &Value) -> Result<SimSpec> {
    let ctx = "[sim]";
    let empty = Value::Table(Vec::new());
    let t = doc.get("sim").unwrap_or(&empty);
    if t.get("threads").is_some() {
        return Err(SpecError::new(
            "[sim] threads: intra-run threads were removed (they never beat \
             the serial loop); delete this key — `occamy-bench --threads N` \
             now sizes the cell pool, which runs grid cells side by side",
        ));
    }
    check_keys(
        ctx,
        t,
        &["ecn_k_bytes", "min_rto_ms", "mss", "expel_rate_factor"],
    )?;
    Ok(SimSpec {
        ecn_k_bytes: get_u64(ctx, t, "ecn_k_bytes", 180_000)?,
        min_rto_ms: get_u64(ctx, t, "min_rto_ms", 5)?,
        mss: get_u64(ctx, t, "mss", 1_460)?,
        expel_rate_factor: get_f64(ctx, t, "expel_rate_factor", 1.0)?,
    })
}

fn parse_telemetry(doc: &Value) -> Result<TelemetrySpec> {
    let ctx = "[telemetry]";
    let empty = Value::Table(Vec::new());
    let t = doc.get("telemetry").unwrap_or(&empty);
    check_keys(ctx, t, &["every_events"])?;
    Ok(TelemetrySpec {
        every_events: get_u64(ctx, t, "every_events", 0)?,
    })
}

fn parse_nums(ctx: &str, v: &Value) -> Result<Vec<Num>> {
    let arr = v.as_array().map_err(|e| e.in_context(ctx))?;
    if arr.is_empty() {
        return Err(SpecError::new("axis has no values").in_context(ctx));
    }
    arr.iter()
        .map(|item| match item {
            Value::Int(_) => item.as_u64().map(Num::Int).map_err(|e| e.in_context(ctx)),
            Value::Float(f) => Ok(Num::Float(*f)),
            other => Err(SpecError::new(format!(
                "axis values must be numbers, found {}",
                other.type_name()
            ))
            .in_context(ctx)),
        })
        .collect()
}

fn parse_grid(doc: &Value) -> Result<Vec<AxisSpec>> {
    let Some(g) = doc.get("grid") else {
        return Ok(Vec::new());
    };
    let mut axes = Vec::new();
    for (knob, v) in g.entries().map_err(|e| e.in_context("[grid]"))? {
        if knob == "scheme" {
            return Err(SpecError::new(
                "'scheme' is the implicit last axis — select schemes with [schemes] use = […]",
            )
            .in_context("[grid]"));
        }
        if !KNOBS.contains(&knob.as_str()) {
            return Err(SpecError::unknown("grid knob", knob, KNOBS).in_context("[grid]"));
        }
        let ctx = format!("[grid] {knob}");
        let (full, quick, smoke) = match v {
            Value::Table(_) => {
                check_keys(&ctx, v, &["full", "quick", "smoke"])?;
                let full = parse_nums(
                    &ctx,
                    v.get("full").ok_or_else(|| {
                        SpecError::new("per-scale axis needs 'full'").in_context(&ctx)
                    })?,
                )?;
                let quick = match v.get("quick") {
                    Some(q) => parse_nums(&ctx, q)?,
                    None => full.clone(),
                };
                let smoke = match v.get("smoke") {
                    Some(s) => parse_nums(&ctx, s)?,
                    None => full.clone(),
                };
                (full, quick, smoke)
            }
            _ => {
                let full = parse_nums(&ctx, v)?;
                (full.clone(), full.clone(), full)
            }
        };
        axes.push(AxisSpec {
            knob: knob.clone(),
            full,
            quick,
            smoke,
        });
    }
    Ok(axes)
}

/// A required key of a fault clause (faults have no sensible defaults).
fn require<'v>(ctx: &str, t: &'v Value, key: &str) -> Result<&'v Value> {
    t.get(key)
        .ok_or_else(|| SpecError::new(format!("missing '{key}'")).in_context(ctx))
}

fn parse_faults(doc: &Value) -> Result<Vec<FaultClause>> {
    let Some(f) = doc.get("faults") else {
        return Ok(Vec::new());
    };
    let arr = f
        .as_array()
        .map_err(|_| SpecError::new("faults must be an array of tables ([[faults]])"))?;
    let mut out = Vec::new();
    for (i, t) in arr.iter().enumerate() {
        let ctx = &format!("[[faults]] #{}", i + 1);
        let u64_of = |key| -> Result<u64> { require(ctx, t, key)?.as_u64() };
        let f64_of = |key| -> Result<f64> { require(ctx, t, key)?.as_f64() };
        let kind = require(ctx, t, "kind")?
            .as_str()
            .map_err(|e| e.in_context(ctx))?;
        let clause = match kind {
            "link_flap" => {
                check_keys(ctx, t, &["kind", "switch", "port", "down", "up"])?;
                FaultClause::LinkFlap {
                    switch: u64_of("switch")?,
                    port: u64_of("port")?,
                    down: f64_of("down")?,
                    up: f64_of("up")?,
                }
            }
            "drain" => {
                check_keys(ctx, t, &["kind", "switch", "start", "end"])?;
                FaultClause::Drain {
                    switch: u64_of("switch")?,
                    start: f64_of("start")?,
                    end: f64_of("end")?,
                }
            }
            "host_churn" => {
                check_keys(ctx, t, &["kind", "host", "leave", "join"])?;
                FaultClause::HostChurn {
                    host: u64_of("host")?,
                    leave: f64_of("leave")?,
                    join: f64_of("join")?,
                }
            }
            other => return Err(SpecError::unknown("fault kind", other, FAULT_KINDS)),
        };
        out.push(clause);
    }
    Ok(out)
}

fn parse_emit(doc: &Value, grid: &[AxisSpec]) -> Result<Vec<TableSpec>> {
    let Some(e) = doc.get("emit") else {
        return Ok(Vec::new());
    };
    let ctx = "[[emit]]";
    let arr = e
        .as_array()
        .map_err(|_| SpecError::new("emit must be an array of tables ([[emit]])"))?;
    let mut axes: Vec<&str> = grid.iter().map(|a| a.knob.as_str()).collect();
    axes.push("scheme");
    let mut tables = Vec::new();
    for t in arr {
        check_keys(ctx, t, &["kind", "title", "rows", "cols", "metric", "csv"])?;
        let title = t
            .get("title")
            .ok_or_else(|| SpecError::new("missing 'title'").in_context(ctx))?
            .as_str()
            .map_err(|e| e.in_context(ctx))?
            .to_string();
        let kind = match t.get("kind") {
            None => TableKind::Matrix,
            Some(v) => match v.as_str().map_err(|e| e.in_context(ctx))? {
                "matrix" => TableKind::Matrix,
                "ranking" => TableKind::Ranking,
                other => {
                    return Err(
                        SpecError::unknown("emit kind", other, &["matrix", "ranking"])
                            .in_context(ctx),
                    )
                }
            },
        };
        if kind == TableKind::Ranking {
            for k in ["rows", "cols", "metric"] {
                if t.get(k).is_some() {
                    return Err(SpecError::new(format!(
                        "ranking tables fix rows = scheme and the headline-metric \
                         columns; '{k}' is not configurable"
                    ))
                    .in_context(ctx));
                }
            }
            let csv = match t.get("csv") {
                Some(v) => Some(v.as_str().map_err(|e| e.in_context(ctx))?.to_string()),
                None => None,
            };
            tables.push(TableSpec {
                kind,
                title,
                rows: String::new(),
                cols: String::new(),
                metric: String::new(),
                csv,
            });
            continue;
        }
        let rows = match t.get("rows") {
            Some(v) => v.as_str().map_err(|e| e.in_context(ctx))?.to_string(),
            None => axes[0].to_string(),
        };
        let cols = match t.get("cols") {
            Some(v) => v.as_str().map_err(|e| e.in_context(ctx))?.to_string(),
            None => "scheme".to_string(),
        };
        for (what, v) in [("rows", &rows), ("cols", &cols)] {
            if !axes.contains(&v.as_str()) {
                return Err(
                    SpecError::unknown(&format!("emit {what} axis"), v, &axes).in_context(ctx)
                );
            }
        }
        if rows == cols {
            return Err(SpecError::new(format!("rows and cols are both '{rows}'")).in_context(ctx));
        }
        let metric = t
            .get("metric")
            .ok_or_else(|| SpecError::new("missing 'metric'").in_context(ctx))?
            .as_str()
            .map_err(|e| e.in_context(ctx))?;
        if !METRICS.contains(&metric) {
            return Err(SpecError::unknown("metric", metric, METRICS).in_context(ctx));
        }
        let csv = match t.get("csv") {
            Some(v) => Some(v.as_str().map_err(|e| e.in_context(ctx))?.to_string()),
            None => None,
        };
        tables.push(TableSpec {
            kind,
            title,
            rows,
            cols,
            metric: metric.to_string(),
            csv,
        });
    }
    Ok(tables)
}

// -------------------------------------------------------------------
// Value rules
// -------------------------------------------------------------------

/// Fails naming `key` in section `ctx` unless `ok`: `'key' must {must}`.
fn rule(ctx: &str, key: &str, ok: bool, must: String) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(SpecError::new(format!("'{key}' must {must}")).in_context(ctx))
    }
}

/// `v` must be finite and above zero.
fn positive(ctx: &str, key: &str, v: f64) -> Result<()> {
    rule(
        ctx,
        key,
        v > 0.0 && v.is_finite(),
        format!("be positive (got {v})"),
    )
}

/// `lo ≤ v ≤ hi`; NaN fails, as every comparison with it is false.
fn within<T: PartialOrd + Display>(ctx: &str, key: &str, v: T, lo: T, hi: T) -> Result<()> {
    let must = format!("be in {lo}..={hi} (got {v})");
    rule(ctx, key, lo <= v && v <= hi, must)
}

/// `v · scale`, rounded as the fabric builder rounds it, must be a
/// whole number of `unit` in `1..=max`: a value that rounds to zero or
/// past `max` (NaN and infinities too) fails naming the key.
fn converts(ctx: &str, key: &str, v: f64, scale: f64, max: u64, unit: &str) -> Result<()> {
    let n = (v * scale).round();
    let must = format!("convert to 1..={max} {unit} (got {v}, which rounds to {n} {unit})");
    // `as u128` saturates, so a value past `max` cannot wrap back in.
    rule(ctx, key, n >= 1.0 && n as u128 <= max as u128, must)
}

/// A fraction of the workload window: finite, in `0..=1`.
fn fraction(ctx: &str, key: &str, v: f64) -> Result<()> {
    let must = format!("be a fraction of the workload window in 0..=1 (got {v})");
    rule(ctx, key, (0.0..=1.0).contains(&v), must)
}

fn check_topology(t: &TopologySection) -> Result<()> {
    let ctx = "[topology]";
    // The builder's own check, so a loadable spec never panics mid-run.
    t.kind
        .check()
        .map_err(|e| SpecError::new(e).in_context(ctx))?;
    // The builder rounds rates to whole bps and the propagation to whole
    // ps: a 0 bps link cannot transmit, and the ideal-FCT base RTT
    // (2 × the longest path's links × the propagation) must stay on the
    // u64 ps clock.
    let rates = [
        ("host_rate_gbps", t.host_rate_gbps),
        ("fabric_rate_gbps", t.fabric_rate_gbps),
    ];
    for (key, gbps) in rates {
        converts(ctx, key, gbps, 1e9, u64::MAX, "bps")?;
    }
    let (us, max_ps) = (US as f64, u64::MAX / (2 * t.kind.max_path_links()));
    converts(ctx, "link_prop_us", t.link_prop_us, us, max_ps, "ps")?;
    // Upper bounds like this one keep a value's conversion to bytes or
    // picoseconds inside a u64.
    let kb = t.buffer_per_8ports_kb;
    within(ctx, "buffer_per_8ports_kb", kb, 1, u64::MAX / 1_000)?;
    let o = t.oversubscription;
    let must = format!("be a finite ratio ≥ 1 (got {o})");
    rule(ctx, "oversubscription", o >= 1.0 && o.is_finite(), must)
}

fn check_traffic(t: &TrafficSpec, topo: &TopologySection) -> Result<()> {
    let ctx = "[traffic]";
    let load = t.bg_load;
    let must = format!("be positive and ≤ {MAX_BG_LOAD} (got {load})");
    let ok = t.background == Background::None || (load > 0.0 && load <= MAX_BG_LOAD);
    rule(ctx, "bg_load", ok, must)?;
    within(ctx, "bg_flow_kb", t.bg_flow_kb, 1, u64::MAX / 1_000)?;
    if let QuerySize::PctBuffer(pct) = t.query {
        // The query is `pct` percent of the buffer allotment in bytes.
        let buffer = topo.buffer_per_8ports_kb * 1_000;
        within(ctx, "query_pct_buffer", pct, 0, u64::MAX / buffer)?;
    }
    within(ctx, "query_fanout", t.query_fanout, 1, MAX_QUERY_FANOUT)?;
    within(ctx, "qps_per_host", t.qps_per_host, 0.0, MAX_QPS_PER_HOST)?;
    within(ctx, "duration_ms", t.duration_ms, 1, MAX_DURATION_MS)?;
    // The run ends at duration + drain on the simulator's u64 ps clock.
    within(
        ctx,
        "drain_ms",
        t.drain_ms,
        0,
        u64::MAX / MS - t.duration_ms,
    )
}

fn check_schemes(s: &SchemesSpec) -> Result<()> {
    let ctx = "[schemes]";
    if s.schemes.is_empty() {
        return Err(SpecError::new("'use' must list at least one scheme").in_context(ctx));
    }
    for (i, scheme) in s.schemes.iter().enumerate() {
        if s.schemes[..i].contains(scheme) {
            return Err(SpecError::new(format!("scheme '{scheme}' listed twice")).in_context(ctx));
        }
    }
    for (scheme, alpha) in &s.alpha {
        positive("[schemes.alpha]", scheme, *alpha)?;
    }
    // BShare's target must stay at least 1 ns once converted from µs.
    let delay = s.bshare_delay_us;
    let must = format!("be a finite delay ≥ 0.001 (got {delay})");
    rule(
        ctx,
        "bshare_delay_us",
        delay >= 0.001 && delay.is_finite(),
        must,
    )?;
    // Permille split: both halves of DAMQ's buffer must stay non-empty.
    within(ctx, "damq_reserve_frac", s.damq_reserve_frac, 0.001, 0.999)
}

fn check_sim(s: &SimSpec) -> Result<()> {
    let ctx = "[sim]";
    let ecn = s.ecn_k_bytes;
    rule(ctx, "ecn_k_bytes", ecn >= 1, format!("be ≥ 1 (got {ecn})"))?;
    within(ctx, "min_rto_ms", s.min_rto_ms, 1, u64::MAX / MS)?;
    within(ctx, "mss", s.mss, 1, u32::MAX as u64)?;
    within(ctx, "expel_rate_factor", s.expel_rate_factor, 0.0, 1_000.0)
}

/// Two times of a fault, as fractions of the workload window, with
/// the first strictly before the second (`order` says which comes first).
fn in_order(ctx: &str, (a, x): (&str, f64), (b, y): (&str, f64), order: &str) -> Result<()> {
    fraction(ctx, a, x)?;
    fraction(ctx, b, y)?;
    if x < y {
        Ok(())
    } else {
        Err(SpecError::new(format!("{order} ({a} = {x}, {b} = {y})")).in_context(ctx))
    }
}

fn check_faults(faults: &[FaultClause], topo: &TopologySection) -> Result<()> {
    let fabric = topo.kind.name();
    let (n_switches, n_hosts) = (topo.kind.n_switches(), topo.kind.n_hosts());
    for (i, clause) in faults.iter().enumerate() {
        let ctx = &format!("[[faults]] #{}", i + 1);
        let outside = |what: String| Err(SpecError::new(what).in_context(ctx));
        match *clause {
            FaultClause::LinkFlap { switch, .. } | FaultClause::Drain { switch, .. }
                if switch as usize >= n_switches =>
            {
                return outside(format!(
                    "'switch' {switch} outside the {fabric} fabric ({n_switches} switches)"
                ));
            }
            FaultClause::LinkFlap {
                switch,
                port,
                down,
                up,
            } => {
                let n_ports = topo.kind.n_ports(switch as usize).unwrap_or(0);
                if port as usize >= n_ports {
                    return outside(format!(
                        "'port' {port} outside switch {switch} ({n_ports} ports)"
                    ));
                }
                let order = "the link must go down before it comes up";
                in_order(ctx, ("down", down), ("up", up), order)?;
            }
            FaultClause::Drain { start, end, .. } => {
                let order = "the drain must start before it ends";
                in_order(ctx, ("start", start), ("end", end), order)?;
            }
            FaultClause::HostChurn { host, .. } if host as usize >= n_hosts => {
                return outside(format!(
                    "'host' {host} outside the {fabric} fabric ({n_hosts} hosts)"
                ));
            }
            FaultClause::HostChurn { leave, join, .. } => {
                let order = "the host must leave before it rejoins";
                in_order(ctx, ("leave", leave), ("join", join), order)?;
            }
        }
    }
    Ok(())
}

impl SpecDoc {
    /// Builds and validates a spec from a parsed document tree.
    pub fn from_value(doc: &Value) -> Result<SpecDoc> {
        check_keys(
            "spec",
            doc,
            &[
                "name",
                "description",
                "seed_key",
                "topology",
                "traffic",
                "schemes",
                "sim",
                "telemetry",
                "faults",
                "grid",
                "emit",
            ],
        )?;
        let name = doc
            .get("name")
            .ok_or_else(|| SpecError::new("missing required 'name'"))?
            .as_str()?
            .to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(SpecError::new(format!(
                "'name' must be non-empty [A-Za-z0-9_-] (got '{name}'); it names BENCH_<name>.json"
            )));
        }
        let description = match doc.get("description") {
            Some(v) => v.as_str()?.to_string(),
            None => String::new(),
        };
        let seed_key = match doc.get("seed_key") {
            Some(v) => v.as_str()?.to_string(),
            None => name.clone(),
        };
        let grid = parse_grid(doc)?;
        let spec = SpecDoc {
            name,
            description,
            seed_key,
            topology: parse_topology(doc)?,
            traffic: parse_traffic(doc)?,
            schemes: parse_schemes(doc)?,
            sim: parse_sim(doc)?,
            telemetry: parse_telemetry(doc)?,
            faults: parse_faults(doc)?,
            emit: parse_emit(doc, &grid)?,
            grid,
        };
        spec.check()?;
        Ok(spec)
    }

    /// Every value rule of a spec: per key and across keys, for the
    /// sections and for each `[grid]` value. A grid value is checked by
    /// writing it into a copy of the document with
    /// [`SpecDoc::set_knob`] and checking the sections of that copy, so
    /// it obeys exactly the rules of the key it sweeps; the error names
    /// `[grid] <knob>`. No rule couples two knobs, so checking each
    /// value alone checks every cell of the grid.
    pub fn check(&self) -> Result<()> {
        self.check_sections()?;
        for axis in &self.grid {
            let ctx = format!("[grid] {}", axis.knob);
            self.check_axis_applies(&axis.knob)
                .map_err(|e| e.in_context(&ctx))?;
            for &value in axis.full.iter().chain(&axis.quick).chain(&axis.smoke) {
                for scheme in &self.schemes.schemes {
                    let mut cell = self.clone();
                    cell.set_knob(&axis.knob, value, scheme)
                        .and_then(|()| cell.check_sections())
                        .map_err(|e| e.in_context(&ctx))?;
                }
            }
        }
        Ok(())
    }

    fn check_sections(&self) -> Result<()> {
        check_topology(&self.topology)?;
        check_traffic(&self.traffic, &self.topology)?;
        check_schemes(&self.schemes)?;
        check_sim(&self.sim)?;
        check_faults(&self.faults, &self.topology)
    }

    /// An axis over a knob the chosen background or schemes ignore
    /// would sweep identical cells and mislabel the table.
    fn check_axis_applies(&self, knob: &str) -> Result<()> {
        let has = |s: &str| self.schemes.schemes.iter().any(|x| x == s);
        let background = self.traffic.background;
        let (ok, needs) = match knob {
            "bshare_delay_us" => (has("BShare"), "scheme BShare in the sweep"),
            "damq_reserve_frac" => (has("DAMQ"), "scheme DAMQ in the sweep"),
            "bg_load" => (background != Background::None, "a background pattern"),
            "bg_flow_kb" => (
                matches!(
                    background,
                    Background::AllToAll | Background::Allreduce | Background::Permutation
                ),
                "background all_to_all, allreduce or permutation",
            ),
            "perm_shift" => (
                background == Background::Permutation,
                "background permutation",
            ),
            _ => (true, ""),
        };
        if ok {
            Ok(())
        } else {
            Err(SpecError::new(format!(
                "has no effect with background '{}' — it needs {needs}",
                background.name()
            )))
        }
    }

    /// Writes one `[grid]` value into the document: the key `knob`
    /// sweeps, for a cell of `scheme`. Integer knobs take integers
    /// only. `alpha` overrides the α of `scheme`; `bshare_delay_us` and
    /// `damq_reserve_frac` set the grid-only fields of
    /// [`SchemesSpec`]. The value is not checked here —
    /// [`SpecDoc::check`] checks every axis value this way at load.
    pub fn set_knob(&mut self, knob: &str, value: Num, scheme: &str) -> Result<()> {
        let int = || match value {
            Num::Int(v) => Ok(v),
            Num::Float(v) => Err(SpecError::new(format!(
                "'{knob}' takes integers only (got {v:?})"
            ))),
        };
        let t = &mut self.traffic;
        match knob {
            "bg_load" => t.bg_load = value.as_f64(),
            "bg_flow_kb" => t.bg_flow_kb = int()?,
            "perm_shift" => t.perm_shift = int()?,
            "query_pct_buffer" => t.query = QuerySize::PctBuffer(int()?),
            "query_bytes" => t.query = QuerySize::Bytes(int()?),
            "query_fanout" => t.query_fanout = int()?,
            "qps_per_host" => t.qps_per_host = value.as_f64(),
            "duration_ms" => t.duration_ms = int()?,
            "oversubscription" => self.topology.oversubscription = value.as_f64(),
            "alpha" => self.schemes.set_alpha(scheme, value.as_f64()),
            "bshare_delay_us" => self.schemes.bshare_delay_us = value.as_f64(),
            "damq_reserve_frac" => self.schemes.damq_reserve_frac = value.as_f64(),
            other => return Err(SpecError::unknown("grid knob", other, KNOBS)),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml;

    fn minimal() -> &'static str {
        "name = \"demo\"\n[topology]\nkind = \"leaf_spine\"\n"
    }

    #[test]
    fn minimal_spec_fills_paper_defaults() {
        let doc = SpecDoc::from_value(&toml::parse(minimal()).unwrap()).unwrap();
        assert_eq!(doc.name, "demo");
        assert_eq!(doc.seed_key, "demo");
        assert_eq!(
            doc.topology.kind,
            FabricTopo::LeafSpine {
                spines: 4,
                leaves: 4,
                hosts_per_leaf: 8
            }
        );
        assert_eq!(doc.topology.host_rate_gbps, 25.0);
        assert_eq!(doc.traffic.background, Background::WebSearch);
        assert_eq!(doc.traffic.bg_load, 0.9);
        assert_eq!(doc.traffic.query, QuerySize::PctBuffer(40));
        assert_eq!(doc.traffic.duration_ms, 15);
        assert_eq!(doc.schemes.schemes, ["Occamy", "ABM", "DT", "Pushout"]);
        assert_eq!(doc.schemes.alpha_for("Occamy"), 8.0);
        assert_eq!(doc.schemes.alpha_for("ABM"), 2.0);
        assert_eq!(doc.sim.ecn_k_bytes, 180_000);
        assert!(doc.grid.is_empty());
        assert!(doc.emit.is_empty());
    }

    #[test]
    fn typo_in_topology_kind_suggests() {
        let e = SpecDoc::from_value(
            &toml::parse("name = \"x\"\n[topology]\nkind = \"fat_treee\"\n").unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("did you mean 'fat_tree'?"), "{e}");
    }

    #[test]
    fn typo_in_switch_arch_suggests() {
        let e = SpecDoc::from_value(
            &toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\nswitch_arch = \"crosspont\"\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("did you mean 'crosspoint'?"), "{e}");
    }

    #[test]
    fn typo_in_xp_sched_suggests() {
        let e = SpecDoc::from_value(
            &toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\nxp_sched = \"round_robbin\"\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("did you mean 'round_robin'?"), "{e}");
    }

    #[test]
    fn new_schemes_parse_and_typos_suggest() {
        let ok = SpecDoc::from_value(
            &toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[schemes]\nuse = [\"BShare\", \"DAMQ\", \"Crosspoint\"]\n",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(ok.schemes.schemes, vec!["BShare", "DAMQ", "Crosspoint"]);
        assert_eq!(ok.schemes.alpha_for("BShare"), 8.0);
        assert_eq!(ok.schemes.alpha_for("DAMQ"), 1.0);
        assert_eq!(ok.schemes.alpha_for("Crosspoint"), 1.0);
        let e = SpecDoc::from_value(
            &toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[schemes]\nuse = [\"BSharre\"]\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("did you mean 'BShare'?"), "{e}");
    }

    #[test]
    fn typo_in_scheme_suggests() {
        let e = SpecDoc::from_value(
            &toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[schemes]\nuse = [\"Ocamy\"]\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("did you mean 'Occamy'?"), "{e}");
    }

    #[test]
    fn typo_in_grid_knob_suggests() {
        let e = SpecDoc::from_value(
            &toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[grid]\nbg_laod = [0.5]\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("did you mean 'bg_load'?"), "{e}");
    }

    #[test]
    fn unknown_traffic_kind_suggests() {
        let e = SpecDoc::from_value(
            &toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[traffic]\nbackground = \"allredcue\"\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("did you mean 'allreduce'?"), "{e}");
    }

    #[test]
    fn per_scale_axes_and_emit_validate() {
        let doc = SpecDoc::from_value(
            &toml::parse(
                r#"
name = "x"
[topology]
kind = "three_tier"
oversubscription = 2.0
[grid]
query_pct_buffer = { full = [20, 60, 100], smoke = [40] }
[[emit]]
title = "t"
rows = "query_pct_buffer"
metric = "qct_slowdown_avg"
"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(doc.grid.len(), 1);
        assert_eq!(doc.grid[0].full.len(), 3);
        assert_eq!(doc.grid[0].quick.len(), 3, "quick defaults to full");
        assert_eq!(doc.grid[0].smoke, [Num::Int(40)]);
        assert_eq!(doc.emit[0].cols, "scheme");
    }

    #[test]
    fn emit_metric_validated_with_suggestion() {
        let e = SpecDoc::from_value(
            &toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[[emit]]\ntitle = \"t\"\nrows = \"scheme\"\ncols = \"scheme\"\nmetric = \"qct_slowdown_avg\"\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("rows and cols"), "{e}");
        let e = SpecDoc::from_value(
            &toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[grid]\nbg_load = [0.5]\n[[emit]]\ntitle = \"t\"\nmetric = \"qct_slowdwn_avg\"\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(
            e.message().contains("did you mean 'qct_slowdown_avg'?"),
            "{e}"
        );
    }

    #[test]
    fn grid_scheme_axis_redirected() {
        let e = SpecDoc::from_value(
            &toml::parse("name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[grid]\nscheme = [1]\n")
                .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("[schemes]"), "{e}");
    }

    #[test]
    fn degenerate_dimensions_fail_at_parse_not_run() {
        // These are occamy-sim's `FabricTopo::check`, which the builder
        // asserts: a spec that loads must never panic inside the runner.
        for (toml, needle) in [
            (
                "name = \"x\"\n[topology]\nkind = \"three_tier\"\npods = 1\n",
                "'pods' must be ≥ 2",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"leaf_spine\"\nspines = 0\n",
                "'spines' must be ≥ 1",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"leaf_spine\"\nleaves = 1\n",
                "'leaves' must be ≥ 2",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"three_tier\"\ncores = 0\n",
                "'cores' must be ≥ 1",
            ),
            // A leaf's last up-link would wrap to port 0 as a u16.
            (
                "name = \"x\"\n[topology]\nkind = \"leaf_spine\"\nspines = 65536\nleaves = 2\nhosts_per_leaf = 1\n",
                "has 65537 ports; port ids are u16, so a switch has at most 65536",
            ),
            (
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\nk = 4194304\n",
                "more than 4294967295 hosts or switches",
            ),
        ] {
            let e = SpecDoc::from_value(&crate::toml::parse(toml).unwrap()).unwrap_err();
            assert!(e.message().contains(needle), "{toml}: {e}");
        }
        let widest = "name = \"x\"\n[topology]\nkind = \"leaf_spine\"\nspines = 65535\nleaves = 2\nhosts_per_leaf = 1\n";
        let doc = SpecDoc::from_value(&crate::toml::parse(widest).unwrap()).unwrap();
        assert_eq!(doc.topology.kind.n_ports(0), Some(65_536));
    }

    #[test]
    fn nan_and_infinite_ratios_rejected() {
        for v in ["nan", "inf", "0.5"] {
            let e = SpecDoc::from_value(
                &crate::toml::parse(&format!(
                    "name = \"x\"\n[topology]\nkind = \"fat_tree\"\noversubscription = {v}\n"
                ))
                .unwrap(),
            )
            .unwrap_err();
            assert!(e.message().contains("oversubscription"), "{v}: {e}");
        }
    }

    #[test]
    fn inapplicable_grid_knobs_rejected() {
        // bg_flow_kb means nothing under the (default) web_search
        // background: sweeping it would produce identical cells.
        let e = SpecDoc::from_value(
            &crate::toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[grid]\nbg_flow_kb = [64, 256]\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("has no effect"), "{e}");
        let e = SpecDoc::from_value(
            &crate::toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[traffic]\nbackground = \"none\"\n[grid]\nbg_load = [0.1, 0.9]\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("has no effect"), "{e}");
        // …but they are accepted when the background uses them.
        assert!(SpecDoc::from_value(
            &crate::toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[traffic]\nbackground = \"permutation\"\n[grid]\nperm_shift = [1, 3]\n",
            )
            .unwrap(),
        )
        .is_ok());
    }

    #[test]
    fn odd_fat_tree_rejected() {
        let e = SpecDoc::from_value(
            &toml::parse("name = \"x\"\n[topology]\nkind = \"fat_tree\"\nk = 5\n").unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("even"), "{e}");
    }

    #[test]
    fn faults_parse_and_validate() {
        let doc = SpecDoc::from_value(
            &toml::parse(
                r#"
name = "x"
[topology]
kind = "fat_tree"
k = 4
[[faults]]
kind = "link_flap"
switch = 2
port = 3
down = 0.2
up = 0.5
[[faults]]
kind = "drain"
switch = 0
start = 0.3
end = 0.6
[[faults]]
kind = "host_churn"
host = 15
leave = 0.25
join = 0.75
"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(doc.faults.len(), 3);
        assert_eq!(
            doc.faults[0],
            FaultClause::LinkFlap {
                switch: 2,
                port: 3,
                down: 0.2,
                up: 0.5
            }
        );
        assert_eq!(
            doc.faults[2],
            FaultClause::HostChurn {
                host: 15,
                leave: 0.25,
                join: 0.75
            }
        );
    }

    #[test]
    fn unknown_fault_kind_suggests() {
        let e = SpecDoc::from_value(
            &toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[[faults]]\nkind = \"link_flip\"\nswitch = 0\nport = 0\ndown = 0.1\nup = 0.2\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("did you mean 'link_flap'?"), "{e}");
    }

    #[test]
    fn fault_bounds_checked_against_topology() {
        // k=4 fat-tree: 16 hosts, 20 switches, 4 ports each.
        for (extra, needle) in [
            (
                "[[faults]]\nkind = \"drain\"\nswitch = 20\nstart = 0.1\nend = 0.2\n",
                "outside the fat_tree fabric (20 switches)",
            ),
            (
                "[[faults]]\nkind = \"link_flap\"\nswitch = 2\nport = 4\ndown = 0.1\nup = 0.2\n",
                "outside switch 2 (4 ports)",
            ),
            (
                "[[faults]]\nkind = \"host_churn\"\nhost = 16\nleave = 0.1\njoin = 0.2\n",
                "outside the fat_tree fabric (16 hosts)",
            ),
            (
                "[[faults]]\nkind = \"host_churn\"\nhost = 0\nleave = 1.5\njoin = 2.0\n",
                "fraction of the workload window",
            ),
            (
                "[[faults]]\nkind = \"link_flap\"\nswitch = 0\nport = 0\ndown = 0.5\nup = 0.2\n",
                "down before it comes up",
            ),
            (
                "[[faults]]\nkind = \"drain\"\nswitch = 0\nend = 0.2\n",
                "missing 'start'",
            ),
        ] {
            let spec = format!("name = \"x\"\n[topology]\nkind = \"fat_tree\"\nk = 4\n{extra}");
            let e = SpecDoc::from_value(&toml::parse(&spec).unwrap()).unwrap_err();
            assert!(e.message().contains(needle), "{extra}: {e}");
        }
    }

    #[test]
    fn query_size_is_exclusive() {
        let e = SpecDoc::from_value(
            &toml::parse(
                "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[traffic]\nquery_bytes = 1\nquery_pct_buffer = 2\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.message().contains("not both"), "{e}");
    }
}
