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
//! Every identifier — topology kind, traffic kind, scheme, grid knob,
//! emit metric — is validated against the known sets, and a typo fails
//! with a named suggestion (`unknown topology kind 'fat_treee'; did you
//! mean 'fat_tree'?`), never a panic.

use crate::error::{Result, SpecError};
use crate::value::Value;
use occamy_sim::topology::FabricTopo;

/// The buffer-management schemes a spec may select, with the `α` the
/// paper evaluates each at (see `[schemes.alpha]` to override).
pub const SCHEMES: &[&str] = &[
    "Occamy",
    "OccamyLongest",
    "ABM",
    "DT",
    "Pushout",
    "Static",
    "CompleteSharing",
    "BShare",
    "DAMQ",
    "Crosspoint",
];

/// The paper's evaluated `α` for `scheme` (§6.2): Occamy 8, ABM 2,
/// everything else 1. BShare gets 8 so its DT safety cap stays out of
/// the way of its delay-based threshold; DAMQ and the crosspoint
/// architecture ignore `α` entirely.
pub fn default_alpha(scheme: &str) -> f64 {
    match scheme {
        "Occamy" | "OccamyLongest" | "BShare" => 8.0,
        "ABM" => 2.0,
        _ => 1.0,
    }
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

/// Knobs a `[grid]` axis may sweep.
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
    /// Access-layer oversubscription ratio (≥ 1; sweepable).
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
    /// Per-scheme `α` overrides (defaults: [`default_alpha`]).
    pub alpha: Vec<(String, f64)>,
}

impl SchemesSpec {
    /// The `α` for `scheme`, applying overrides.
    pub fn alpha_for(&self, scheme: &str) -> f64 {
        self.alpha
            .iter()
            .find(|(s, _)| s == scheme)
            .map(|(_, a)| *a)
            .unwrap_or_else(|| default_alpha(scheme))
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
    /// Intra-run worker threads for domain-decomposed parallel
    /// simulation (default 1 = serial). Results are bit-identical for
    /// every value; the CLI's `--threads` can raise but never lower
    /// the effective count.
    pub threads: u64,
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
// Section readers
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

fn positive(ctx: &str, key: &str, v: f64) -> Result<f64> {
    if v > 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(SpecError::new(format!("'{key}' must be positive (got {v})")).in_context(ctx))
    }
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
    // The builder's own check, so a loadable spec never panics mid-run.
    kind.check()
        .map_err(|e| SpecError::new(e).in_context(ctx))?;
    let host_rate_gbps = positive(
        ctx,
        "host_rate_gbps",
        get_f64(ctx, t, "host_rate_gbps", 25.0)?,
    )?;
    let fabric_rate_gbps = positive(
        ctx,
        "fabric_rate_gbps",
        get_f64(ctx, t, "fabric_rate_gbps", host_rate_gbps)?,
    )?;
    let oversubscription = get_f64(ctx, t, "oversubscription", 1.0)?;
    // `!(x >= 1.0)` rather than `x < 1.0` so NaN is rejected too.
    if !(oversubscription >= 1.0 && oversubscription.is_finite()) {
        return Err(SpecError::new(format!(
            "'oversubscription' must be a finite ratio ≥ 1 (got {oversubscription})"
        ))
        .in_context(ctx));
    }
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
    Ok(TopologySection {
        kind,
        host_rate_gbps,
        fabric_rate_gbps,
        link_prop_us: positive(ctx, "link_prop_us", get_f64(ctx, t, "link_prop_us", 10.0)?)?,
        buffer_per_8ports_kb: get_u64(ctx, t, "buffer_per_8ports_kb", 1_000)?.max(1),
        oversubscription,
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
    let bg_load = get_f64(ctx, t, "bg_load", 0.9)?;
    if background != Background::None {
        positive(ctx, "bg_load", bg_load)?;
    }
    let qps = get_f64(ctx, t, "qps_per_host", 400.0)?;
    if !(qps >= 0.0 && qps.is_finite()) {
        return Err(
            SpecError::new(format!("'qps_per_host' must be ≥ 0 (got {qps})")).in_context(ctx),
        );
    }
    Ok(TrafficSpec {
        background,
        bg_load,
        bg_flow_kb: get_u64(ctx, t, "bg_flow_kb", 100)?.max(1),
        perm_shift: get_u64(ctx, t, "perm_shift", 1)?,
        query,
        query_fanout: get_u64(ctx, t, "query_fanout", 16)?.max(1),
        qps_per_host: qps,
        duration_ms: get_u64(ctx, t, "duration_ms", 15)?.max(1),
        drain_ms: get_u64(ctx, t, "drain_ms", 100)?,
    })
}

fn parse_schemes(doc: &Value) -> Result<SchemesSpec> {
    let ctx = "[schemes]";
    let empty = Value::Table(Vec::new());
    let t = doc.get("schemes").unwrap_or(&empty);
    check_keys(ctx, t, &["use", "alpha"])?;
    let schemes: Vec<String> = match t.get("use") {
        None => vec!["Occamy", "ABM", "DT", "Pushout"]
            .into_iter()
            .map(String::from)
            .collect(),
        Some(v) => {
            let arr = v.as_array().map_err(|e| e.in_context(ctx))?;
            let mut out = Vec::new();
            for item in arr {
                let s = item.as_str().map_err(|e| e.in_context(ctx))?;
                if !SCHEMES.contains(&s) {
                    return Err(SpecError::unknown("scheme", s, SCHEMES));
                }
                if out.iter().any(|o| o == s) {
                    return Err(
                        SpecError::new(format!("scheme '{s}' listed twice")).in_context(ctx)
                    );
                }
                out.push(s.to_string());
            }
            if out.is_empty() {
                return Err(SpecError::new("'use' must list at least one scheme").in_context(ctx));
            }
            out
        }
    };
    let mut alpha = Vec::new();
    if let Some(a) = t.get("alpha") {
        for (k, v) in a.entries().map_err(|e| e.in_context("[schemes.alpha]"))? {
            if !SCHEMES.contains(&k.as_str()) {
                return Err(SpecError::unknown("scheme", k, SCHEMES));
            }
            let val = v.as_f64().map_err(|e| e.in_context("[schemes.alpha]"))?;
            positive("[schemes.alpha]", k, val)?;
            alpha.push((k.clone(), val));
        }
    }
    Ok(SchemesSpec { schemes, alpha })
}

fn parse_sim(doc: &Value) -> Result<SimSpec> {
    let ctx = "[sim]";
    let empty = Value::Table(Vec::new());
    let t = doc.get("sim").unwrap_or(&empty);
    check_keys(
        ctx,
        t,
        &[
            "ecn_k_bytes",
            "min_rto_ms",
            "mss",
            "expel_rate_factor",
            "threads",
        ],
    )?;
    let expel = get_f64(ctx, t, "expel_rate_factor", 1.0)?;
    if !(0.0..=1_000.0).contains(&expel) {
        return Err(
            SpecError::new(format!("'expel_rate_factor' must be ≥ 0 (got {expel})"))
                .in_context(ctx),
        );
    }
    Ok(SimSpec {
        ecn_k_bytes: get_u64(ctx, t, "ecn_k_bytes", 180_000)?.max(1),
        min_rto_ms: get_u64(ctx, t, "min_rto_ms", 5)?.max(1),
        mss: get_u64(ctx, t, "mss", 1_460)?.max(1),
        expel_rate_factor: expel,
        threads: get_u64(ctx, t, "threads", 1)?.max(1),
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

/// A fraction of the workload window: finite, in `0..=1`.
fn fraction(ctx: &str, key: &str, v: f64) -> Result<f64> {
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(SpecError::new(format!(
            "'{key}' must be a fraction of the workload window in 0..=1 (got {v})"
        ))
        .in_context(ctx))
    }
}

/// A required key of a fault clause (faults have no sensible defaults).
fn require<'v>(ctx: &str, t: &'v Value, key: &str) -> Result<&'v Value> {
    t.get(key)
        .ok_or_else(|| SpecError::new(format!("missing '{key}'")).in_context(ctx))
}

fn parse_faults(doc: &Value, topo: &TopologySection) -> Result<Vec<FaultClause>> {
    let Some(f) = doc.get("faults") else {
        return Ok(Vec::new());
    };
    let arr = f
        .as_array()
        .map_err(|_| SpecError::new("faults must be an array of tables ([[faults]])"))?;
    let check_switch = |ctx: &str, s: u64| -> Result<u64> {
        let n = topo.kind.n_switches();
        if (s as usize) < n {
            Ok(s)
        } else {
            Err(SpecError::new(format!(
                "'switch' {s} outside the {} fabric ({n} switches)",
                topo.kind.name()
            ))
            .in_context(ctx))
        }
    };
    let mut out = Vec::new();
    for (i, t) in arr.iter().enumerate() {
        let ctx = &format!("[[faults]] #{}", i + 1);
        let kind = require(ctx, t, "kind")?
            .as_str()
            .map_err(|e| e.in_context(ctx))?;
        let clause = match kind {
            "link_flap" => {
                check_keys(ctx, t, &["kind", "switch", "port", "down", "up"])?;
                let switch = check_switch(ctx, require(ctx, t, "switch")?.as_u64()?)?;
                let port = require(ctx, t, "port")?.as_u64()?;
                let n_ports = topo.kind.n_ports(switch as usize).unwrap_or(0);
                if port as usize >= n_ports {
                    return Err(SpecError::new(format!(
                        "'port' {port} outside switch {switch} ({n_ports} ports)"
                    ))
                    .in_context(ctx));
                }
                let down = fraction(ctx, "down", require(ctx, t, "down")?.as_f64()?)?;
                let up = fraction(ctx, "up", require(ctx, t, "up")?.as_f64()?)?;
                if down >= up {
                    return Err(SpecError::new(format!(
                        "the link must go down before it comes up (down = {down}, up = {up})"
                    ))
                    .in_context(ctx));
                }
                FaultClause::LinkFlap {
                    switch,
                    port,
                    down,
                    up,
                }
            }
            "drain" => {
                check_keys(ctx, t, &["kind", "switch", "start", "end"])?;
                let switch = check_switch(ctx, require(ctx, t, "switch")?.as_u64()?)?;
                let start = fraction(ctx, "start", require(ctx, t, "start")?.as_f64()?)?;
                let end = fraction(ctx, "end", require(ctx, t, "end")?.as_f64()?)?;
                if start >= end {
                    return Err(SpecError::new(format!(
                        "the drain must start before it ends (start = {start}, end = {end})"
                    ))
                    .in_context(ctx));
                }
                FaultClause::Drain { switch, start, end }
            }
            "host_churn" => {
                check_keys(ctx, t, &["kind", "host", "leave", "join"])?;
                let host = require(ctx, t, "host")?.as_u64()?;
                let n = topo.kind.n_hosts();
                if host as usize >= n {
                    return Err(SpecError::new(format!(
                        "'host' {host} outside the {} fabric ({n} hosts)",
                        topo.kind.name()
                    ))
                    .in_context(ctx));
                }
                let leave = fraction(ctx, "leave", require(ctx, t, "leave")?.as_f64()?)?;
                let join = fraction(ctx, "join", require(ctx, t, "join")?.as_f64()?)?;
                if leave >= join {
                    return Err(SpecError::new(format!(
                        "the host must leave before it rejoins (leave = {leave}, join = {join})"
                    ))
                    .in_context(ctx));
                }
                FaultClause::HostChurn { host, leave, join }
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
        let traffic = parse_traffic(doc)?;
        let schemes = parse_schemes(doc)?;
        check_grid_applies(&grid, &traffic, &schemes)?;
        let topology = parse_topology(doc)?;
        let faults = parse_faults(doc, &topology)?;
        Ok(SpecDoc {
            name,
            description,
            seed_key,
            topology,
            traffic,
            schemes,
            sim: parse_sim(doc)?,
            telemetry: parse_telemetry(doc)?,
            faults,
            emit: parse_emit(doc, &grid)?,
            grid,
        })
    }
}

/// A grid axis over a knob the chosen background ignores would sweep
/// identical cells and mislabel the table — reject it at load time.
fn check_grid_applies(
    grid: &[AxisSpec],
    traffic: &TrafficSpec,
    schemes: &SchemesSpec,
) -> Result<()> {
    let has = |s: &str| schemes.schemes.iter().any(|x| x == s);
    for axis in grid {
        let (ok, needs) = match axis.knob.as_str() {
            "bshare_delay_us" => (has("BShare"), "scheme BShare in the sweep"),
            "damq_reserve_frac" => (has("DAMQ"), "scheme DAMQ in the sweep"),
            "bg_load" => (
                traffic.background != Background::None,
                "a background pattern",
            ),
            "bg_flow_kb" => (
                matches!(
                    traffic.background,
                    Background::AllToAll | Background::Allreduce | Background::Permutation
                ),
                "background all_to_all, allreduce or permutation",
            ),
            "perm_shift" => (
                traffic.background == Background::Permutation,
                "background permutation",
            ),
            _ => (true, ""),
        };
        if !ok {
            return Err(SpecError::new(format!(
                "axis '{}' has no effect with background '{}' — it needs {needs}",
                axis.knob,
                traffic.background.name()
            ))
            .in_context("[grid]"));
        }
    }
    Ok(())
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
        assert_eq!(super::default_alpha("BShare"), 8.0);
        assert_eq!(super::default_alpha("DAMQ"), 1.0);
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
