//! The back half of the declarative-spec pipeline: compiles a validated
//! [`occamy_spec::SpecDoc`] into the existing [`Grid`]/[`CellSpec`]
//! machinery, so `occamy-bench run --spec sweeps.toml` runs on the same
//! parallel runner — with the same deterministic per-cell seeds and the
//! same `BENCH_<name>.json` + `results/*.csv` sinks — as the hand-coded
//! registry scenarios.
//!
//! Cell seeds derive from the spec's `seed_key` (default: its name)
//! through the exact derivation `Grid` uses, and every cell runs on
//! [`FabricScenario`], the builder the leaf-spine figures use too.
//! Consequence: a spec whose `seed_key`, axes and knobs recreate a
//! registry scenario's grid reproduces that scenario's tables **bit for
//! bit** (pinned by `tests/spec_scenarios.rs`).

use crate::fabric::{scale_fabric, FabricScenario};
use crate::scenario::{
    matrix_table, CellOutcome, CellResult, CellSpec, Grid, Report, Scale, Scenario, Value,
};
use crate::scenarios::{bm_kind_by_name, BgPattern};
use occamy_core::{BmKind, BmTuning};
use occamy_sim::{Drain, FaultSchedule, HostChurn, LinkFlap, Ps, SimConfig, XpSched, MS, US};
use occamy_spec::{
    AxisSpec, Background, FaultClause, Num, QuerySize, SpecDoc, SwitchArch, TableKind, XpSchedSpec,
};

/// A registry-compatible scenario compiled from a spec document.
///
/// Instances are created once per process and leaked (`&'static`), which
/// is what the runner's `&'static dyn Scenario` job list wants; specs
/// are small, so the leak is a few hundred bytes per loaded file.
#[derive(Debug)]
pub struct SpecScenario {
    doc: SpecDoc,
    name: &'static str,
    description: &'static str,
    seed_key: &'static str,
}

impl SpecScenario {
    /// Wraps a validated document (leaking it into `'static`).
    pub fn new(doc: SpecDoc) -> &'static SpecScenario {
        let name: &'static str = Box::leak(doc.name.clone().into_boxed_str());
        let description: &'static str = Box::leak(
            if doc.description.is_empty() {
                format!("spec-driven scenario '{}'", doc.name)
            } else {
                doc.description.clone()
            }
            .into_boxed_str(),
        );
        let seed_key: &'static str = Box::leak(doc.seed_key.clone().into_boxed_str());
        Box::leak(Box::new(SpecScenario {
            doc,
            name,
            description,
            seed_key,
        }))
    }

    /// Loads, parses and validates a `.toml` / `.json` spec file.
    pub fn load(path: &str) -> Result<&'static SpecScenario, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc =
            occamy_spec::spec_from_file_text(path, &text).map_err(|e| format!("{path}: {e}"))?;
        // Semantic checks the pure data model can't make: axis values
        // must keep the scenario buildable at every grid cell.
        for axis in &doc.grid {
            for v in axis
                .full
                .iter()
                .chain(axis.quick.iter())
                .chain(axis.smoke.iter())
            {
                let f = v.as_f64();
                // Inverted comparisons so NaN axis values are rejected
                // rather than slipping past a `<` check.
                let ok = f.is_finite()
                    && match axis.knob.as_str() {
                        "oversubscription" | "duration_ms" | "query_fanout" | "bg_flow_kb" => {
                            f >= 1.0
                        }
                        // Must stay a positive delay after µs → ns.
                        "bshare_delay_us" => f >= 0.001,
                        // Permille split must keep both halves non-empty.
                        "damq_reserve_frac" => (0.001..=0.999).contains(&f),
                        _ => f >= 0.0,
                    };
                if !ok {
                    return Err(format!(
                        "{path}: [grid] {}: value {f} is out of range",
                        axis.knob
                    ));
                }
            }
        }
        Ok(Self::new(doc))
    }

    /// The underlying document.
    pub fn doc(&self) -> &SpecDoc {
        &self.doc
    }

    /// Canonical TOML of the document (`SpecDoc::to_toml`) — what
    /// `shard plan` embeds so a shard file is self-contained: the
    /// machine running `shard run` needs neither the original spec file
    /// nor its path, only the plan.
    pub fn canonical_toml(&self) -> String {
        self.doc.to_toml()
    }

    /// The base scenario (before grid-axis overrides) for `scheme`.
    fn base_scenario(&self, scheme: &str) -> FabricScenario {
        let t = &self.doc.topology;
        // The pseudo-scheme "Crosspoint" (or `[topology] switch_arch =
        // "crosspoint"`) swaps the switch architecture: crosspoint cells
        // get statically partitioned per-(input, output) buffers, so the
        // buffer manager is irrelevant (CompleteSharing over partitions
        // that stay empty).
        let crosspoint = if scheme == "Crosspoint" || t.switch_arch == SwitchArch::Crosspoint {
            Some(match t.xp_sched {
                XpSchedSpec::RoundRobin => XpSched::RoundRobin,
                XpSchedSpec::Longest => XpSched::Longest,
            })
        } else {
            None
        };
        let bm = if scheme == "Crosspoint" {
            BmKind::CompleteSharing
        } else {
            bm_kind_by_name(scheme)
                .unwrap_or_else(|| unreachable!("spec validation admits only known schemes"))
        };
        let tr = &self.doc.traffic;
        let buffer_per_8ports = t.buffer_per_8ports_kb * 1_000;
        let flow_bytes = tr.bg_flow_kb * 1_000;
        let bg = match tr.background {
            Background::None => BgPattern::None,
            Background::WebSearch => BgPattern::WebSearch { load: tr.bg_load },
            Background::AllToAll => BgPattern::AllToAll {
                flow_bytes,
                load: tr.bg_load,
            },
            Background::Allreduce => BgPattern::AllReduce {
                flow_bytes,
                load: tr.bg_load,
            },
            Background::Permutation => BgPattern::Permutation {
                flow_bytes,
                load: tr.bg_load,
                shift: tr.perm_shift as usize,
            },
        };
        let query_bytes = match tr.query {
            QuerySize::Bytes(b) => b,
            // Integer arithmetic, exactly like the figures' `buffer *
            // pct / 100` — keeps spec runs bit-identical to them.
            QuerySize::PctBuffer(pct) => buffer_per_8ports * pct / 100,
        };
        let mut faults = FaultSchedule::default();
        for f in &self.doc.faults {
            match *f {
                FaultClause::LinkFlap {
                    switch,
                    port,
                    down,
                    up,
                } => faults.link_flaps.push(LinkFlap {
                    switch: switch as u32,
                    port: port as u16,
                    down,
                    up,
                }),
                FaultClause::Drain { switch, start, end } => faults.drains.push(Drain {
                    switch: switch as u32,
                    start,
                    end,
                }),
                FaultClause::HostChurn { host, leave, join } => {
                    faults.host_churns.push(HostChurn {
                        host: host as u32,
                        leave,
                        join,
                    })
                }
            }
        }
        let s = &self.doc.sim;
        FabricScenario {
            topo: t.kind,
            bm,
            alpha: self.doc.schemes.alpha_for(scheme),
            tuning: BmTuning::default(),
            host_rate_bps: gbps(t.host_rate_gbps),
            fabric_rate_bps: gbps(t.fabric_rate_gbps),
            oversubscription: t.oversubscription,
            link_prop_ps: (t.link_prop_us * US as f64).round() as Ps,
            buffer_per_8ports,
            bg,
            query_bytes,
            query_fanout: tr.query_fanout as usize,
            qps_per_host: tr.qps_per_host,
            duration_ps: tr.duration_ms * MS,
            drain_ps: tr.drain_ms * MS,
            seed: 0,
            sim: SimConfig {
                ecn_k_bytes: s.ecn_k_bytes,
                min_rto: s.min_rto_ms * MS,
                mss: s.mss as u32,
                expel_rate_factor: s.expel_rate_factor,
                threads: (s.threads as usize).max(1),
                ..SimConfig::default()
            },
            faults,
            crosspoint,
        }
    }
}

fn gbps(rate: f64) -> u64 {
    (rate * 1e9).round() as u64
}

/// Applies one grid-axis value onto the scenario. The knob list mirrors
/// `occamy_spec::KNOBS`; unknown knobs are unreachable past validation.
fn apply_knob(sc: &mut FabricScenario, knob: &str, value: &Value) {
    let as_f64 = |v: &Value| match v {
        Value::U64(x) => *x as f64,
        Value::F64(x) => *x,
        Value::Str(s) => panic!("axis '{knob}' got non-numeric value '{s}'"),
    };
    let as_u64 = |v: &Value| match v {
        Value::U64(x) => *x,
        Value::F64(x) => x.round() as u64,
        Value::Str(s) => panic!("axis '{knob}' got non-numeric value '{s}'"),
    };
    match knob {
        "bg_load" => {
            let load = match &mut sc.bg {
                BgPattern::None => return,
                BgPattern::WebSearch { load } => load,
                BgPattern::AllToAll { load, .. } => load,
                BgPattern::AllReduce { load, .. } => load,
                BgPattern::Permutation { load, .. } => load,
            };
            *load = as_f64(value);
        }
        "bg_flow_kb" => {
            let bytes = as_u64(value) * 1_000;
            match &mut sc.bg {
                BgPattern::AllToAll { flow_bytes, .. }
                | BgPattern::AllReduce { flow_bytes, .. }
                | BgPattern::Permutation { flow_bytes, .. } => *flow_bytes = bytes,
                _ => {}
            }
        }
        "perm_shift" => {
            if let BgPattern::Permutation { shift, .. } = &mut sc.bg {
                *shift = as_u64(value) as usize;
            }
        }
        "query_pct_buffer" => match value {
            Value::U64(pct) => sc.query_bytes = sc.buffer_per_8ports * pct / 100,
            _ => sc.query_bytes = (sc.buffer_per_8ports as f64 * as_f64(value) / 100.0) as u64,
        },
        "query_bytes" => sc.query_bytes = as_u64(value),
        "query_fanout" => sc.query_fanout = as_u64(value) as usize,
        "qps_per_host" => sc.qps_per_host = as_f64(value),
        "oversubscription" => sc.oversubscription = as_f64(value),
        "duration_ms" => sc.duration_ps = as_u64(value) * MS,
        "alpha" => sc.alpha = as_f64(value),
        "bshare_delay_us" => sc.tuning.bshare_delay_ns = (as_f64(value) * 1000.0).round() as u64,
        "damq_reserve_frac" => {
            sc.tuning.damq_reserve_permille = (as_f64(value) * 1000.0).round() as u32
        }
        other => unreachable!("spec validation admits only known knobs, got '{other}'"),
    }
}

fn axis_values(axis: &AxisSpec, scale: Scale) -> Vec<Value> {
    let nums = match scale {
        Scale::Full => &axis.full,
        Scale::Quick => &axis.quick,
        Scale::Smoke => &axis.smoke,
    };
    nums.iter()
        .map(|n| match *n {
            Num::Int(v) => Value::U64(v),
            Num::Float(v) => Value::F64(v),
        })
        .collect()
}

impl Scenario for SpecScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn telemetry_every(&self) -> Option<u64> {
        // A spec's `[telemetry] every_events` overrides the runner-wide
        // snapshot cadence for this scenario's cells (0 = no override).
        (self.doc.telemetry.every_events > 0).then_some(self.doc.telemetry.every_events)
    }

    fn grid(&self, scale: Scale) -> Vec<CellSpec> {
        let mut g = Grid::new(self.seed_key, scale);
        for axis in &self.doc.grid {
            g = g.axis(&axis.knob, axis_values(axis, scale));
        }
        g = g.axis(
            "scheme",
            self.doc.schemes.schemes.iter().map(|s| s.as_str()),
        );
        g.build()
    }

    fn run(&self, cell: &CellSpec) -> CellResult {
        let mut sc = self.base_scenario(cell.str("scheme"));
        for axis in &self.doc.grid {
            apply_knob(
                &mut sc,
                &axis.knob,
                cell.get(&axis.knob).expect("axis value present in cell"),
            );
        }
        sc.seed = cell.seed;
        scale_fabric(&mut sc, cell.scale);
        let (world, result) = sc.run_world();
        crate::report::with_par_metrics(result.into_cell(), &world)
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        let mut report = Report::new();
        if self.doc.emit.is_empty() {
            // Default report: the two headline matrices (QCT and
            // background-FCT slowdown) over the first declared axis.
            if let Some(first) = self.doc.grid.first() {
                for metric in ["qct_slowdown_avg", "bg_slowdown_avg"] {
                    report = self.emit_sliced(
                        report,
                        outcomes,
                        &format!("{}: {metric}", self.name),
                        &first.knob,
                        "scheme",
                        metric,
                        Some(&format!("{}_{metric}.csv", self.name)),
                    );
                }
            } else {
                // Scheme-only grid: one row per scheme, headline columns.
                let t = ranking_table(&format!("{}: headline metrics", self.name), outcomes);
                report = report.table_csv(t, &format!("{}.csv", self.name));
            }
        } else {
            for ts in &self.doc.emit {
                report = match ts.kind {
                    TableKind::Ranking => {
                        self.emit_ranking(report, outcomes, &ts.title, ts.csv.as_deref())
                    }
                    TableKind::Matrix => self.emit_sliced(
                        report,
                        outcomes,
                        &ts.title,
                        &ts.rows,
                        &ts.cols,
                        &ts.metric,
                        ts.csv.as_deref(),
                    ),
                };
            }
        }
        report
    }
}

/// The per-scheme headline table: one row per scheme (in sweep order),
/// the headline-metric columns — the default report of a grid-less spec
/// and the body of every `kind = "ranking"` emit table.
fn ranking_table(title: &str, outcomes: &[CellOutcome]) -> occamy_stats::Table {
    let metrics = [
        "qct_avg_ms",
        "qct_slowdown_avg",
        "qct_slowdown_p99",
        "bg_slowdown_avg",
        "losses",
    ];
    let mut cols = vec!["scheme"];
    cols.extend(metrics);
    let mut t = occamy_stats::Table::new(title, &cols);
    for o in outcomes {
        let mut row = vec![o.spec.str("scheme").to_string()];
        row.extend(metrics.iter().map(|m| o.result.fmt(m)));
        t.row(row);
    }
    t
}

impl SpecScenario {
    /// Emits one rows × cols matrix per *slice* of the remaining grid
    /// axes. A 2-D table can only show two of the grid's dimensions;
    /// any other axis (including the implicit scheme axis) would
    /// otherwise silently collapse to its first value inside
    /// [`matrix_table`]'s first-match lookup — so instead every
    /// residual-axis combination gets its own table, suffixed with the
    /// fixed values (`… [bg_load=0.9]`), and no cell's result is
    /// dropped from the report.
    /// Emits one ranking table per combination of the grid axes (scheme
    /// excluded — it's the table's rows). When the grid collapses to a
    /// single combination (smoke/quick scales typically pin tuning
    /// knobs to one value), the title and CSV name stay unsuffixed, so
    /// the headline `results/<name>.csv` a grid-less spec would produce
    /// survives the addition of tuning axes byte-compatibly.
    fn emit_ranking(
        &self,
        mut report: Report,
        outcomes: &[CellOutcome],
        title: &str,
        csv: Option<&str>,
    ) -> Report {
        let residual: Vec<&str> = self.doc.grid.iter().map(|a| a.knob.as_str()).collect();
        let mut combos: Vec<Vec<(&str, Value)>> = Vec::new();
        for o in outcomes {
            let combo: Vec<(&str, Value)> = residual
                .iter()
                .map(|k| (*k, o.spec.get(k).expect("axis value present").clone()))
                .collect();
            if !combos.contains(&combo) {
                combos.push(combo);
            }
        }
        let single = combos.len() <= 1;
        for combo in &combos {
            let slice: Vec<CellOutcome> = outcomes
                .iter()
                .filter(|o| combo.iter().all(|(k, v)| o.spec.get(k) == Some(v)))
                .cloned()
                .collect();
            let suffix = combo
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let full_title = if single || suffix.is_empty() {
                title.to_string()
            } else {
                format!("{title} [{suffix}]")
            };
            let table = ranking_table(&full_title, &slice);
            report = match csv {
                Some(csv) if single || suffix.is_empty() => report.table_csv(table, csv),
                Some(csv) => {
                    let tag: String = suffix
                        .chars()
                        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                        .collect();
                    let csv = match csv.strip_suffix(".csv") {
                        Some(stem) => format!("{stem}_{tag}.csv"),
                        None => format!("{csv}_{tag}"),
                    };
                    report.table_csv(table, &csv)
                }
                None => report.table(table),
            };
        }
        report
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_sliced(
        &self,
        mut report: Report,
        outcomes: &[CellOutcome],
        title: &str,
        rows: &str,
        cols: &str,
        metric: &str,
        csv: Option<&str>,
    ) -> Report {
        let mut residual: Vec<&str> = self
            .doc
            .grid
            .iter()
            .map(|a| a.knob.as_str())
            .filter(|k| *k != rows && *k != cols)
            .collect();
        if rows != "scheme" && cols != "scheme" {
            residual.push("scheme");
        }
        // Distinct residual-value combinations, in grid order.
        let mut combos: Vec<Vec<(&str, Value)>> = Vec::new();
        for o in outcomes {
            let combo: Vec<(&str, Value)> = residual
                .iter()
                .map(|k| (*k, o.spec.get(k).expect("axis value present").clone()))
                .collect();
            if !combos.contains(&combo) {
                combos.push(combo);
            }
        }
        for combo in &combos {
            let slice: Vec<CellOutcome> = outcomes
                .iter()
                .filter(|o| combo.iter().all(|(k, v)| o.spec.get(k) == Some(v)))
                .cloned()
                .collect();
            let suffix = combo
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let full_title = if suffix.is_empty() {
                title.to_string()
            } else {
                format!("{title} [{suffix}]")
            };
            let table = matrix_table(&full_title, &slice, rows, cols, metric);
            report = match csv {
                Some(csv) if suffix.is_empty() => report.table_csv(table, csv),
                Some(csv) => {
                    let tag: String = suffix
                        .chars()
                        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                        .collect();
                    let csv = match csv.strip_suffix(".csv") {
                        Some(stem) => format!("{stem}_{tag}.csv"),
                        None => format!("{csv}_{tag}"),
                    };
                    report.table_csv(table, &csv)
                }
                None => report.table(table),
            };
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(toml: &str) -> &'static SpecScenario {
        SpecScenario::new(occamy_spec::spec_from_toml(toml).unwrap())
    }

    #[test]
    fn seed_key_reproduces_registry_seeds() {
        // A spec whose seed_key and axes mirror fig17's grid generates
        // the exact seeds the registry scenario uses.
        let s = spec(
            r#"
name = "fig17_repro"
seed_key = "fig17"
[topology]
kind = "leaf_spine"
[grid]
query_pct_buffer = { full = [20, 60, 100], quick = [40, 100], smoke = [40] }
"#,
        );
        let fig17 = crate::registry::find_scenario("fig17").unwrap();
        for scale in [Scale::Full, Scale::Quick, Scale::Smoke] {
            let a = s.grid(scale);
            let b = fig17.grid(scale);
            assert_eq!(a.len(), b.len(), "{scale}");
            for (ca, cb) in a.iter().zip(&b) {
                assert_eq!(ca.seed, cb.seed, "{scale} cell {}", ca.index);
                assert_eq!(ca.label(), cb.label(), "{scale} cell {}", ca.index);
            }
        }
    }

    #[test]
    fn scheme_axis_is_implicit_and_last() {
        let s = spec(
            "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[schemes]\nuse = [\"Occamy\", \"DT\"]\n[grid]\nbg_load = [0.1, 0.9]\n",
        );
        let cells = s.grid(Scale::Smoke);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].str("scheme"), "Occamy");
        assert_eq!(cells[1].str("scheme"), "DT");
        assert_eq!(cells[0].f64("bg_load"), 0.1);
        assert_eq!(cells[2].f64("bg_load"), 0.9);
    }

    #[test]
    fn knobs_apply_onto_the_scenario() {
        let s = spec(
            "name = \"x\"\n[topology]\nkind = \"three_tier\"\n[traffic]\nbackground = \"permutation\"\n",
        );
        let mut sc = s.base_scenario("Occamy");
        assert_eq!(sc.alpha, 8.0);
        apply_knob(&mut sc, "oversubscription", &Value::F64(4.0));
        assert_eq!(sc.oversubscription, 4.0);
        apply_knob(&mut sc, "query_pct_buffer", &Value::U64(80));
        assert_eq!(sc.query_bytes, sc.buffer_per_8ports * 80 / 100);
        apply_knob(&mut sc, "bg_load", &Value::F64(0.25));
        apply_knob(&mut sc, "bg_flow_kb", &Value::U64(64));
        apply_knob(&mut sc, "perm_shift", &Value::U64(3));
        match &sc.bg {
            BgPattern::Permutation {
                flow_bytes,
                load,
                shift,
            } => {
                assert_eq!(*flow_bytes, 64_000);
                assert_eq!(*load, 0.25);
                assert_eq!(*shift, 3);
            }
            other => panic!("unexpected bg {other:?}"),
        }
        apply_knob(&mut sc, "duration_ms", &Value::U64(7));
        assert_eq!(sc.duration_ps, 7 * MS);
        apply_knob(&mut sc, "alpha", &Value::F64(2.0));
        assert_eq!(sc.alpha, 2.0);
    }

    #[test]
    fn multi_axis_emit_slices_instead_of_dropping_cells() {
        use crate::runner::execute;
        // Two grid axes + scheme: a 2-D table can't show all three, so
        // emit must produce one table per residual oversubscription
        // value, together covering every cell.
        let s = spec(
            r#"
name = "slice_test"
[topology]
kind = "fat_tree"
k = 4
[traffic]
duration_ms = 1
drain_ms = 10
qps_per_host = 2000.0
query_fanout = 4
bg_load = 0.1
[schemes]
use = ["DT"]
[grid]
query_pct_buffer = [20, 40]
oversubscription = [1.0, 2.0]
[[emit]]
title = "qct"
rows = "query_pct_buffer"
metric = "qct_slowdown_avg"
csv = "slice_test.csv"
"#,
        );
        let (runs, _) = execute(&[s as &dyn Scenario], Scale::Smoke, false);
        let report = &runs[0].report;
        assert_eq!(
            report.tables().len(),
            2,
            "one table per residual oversubscription value"
        );
        let titles: Vec<String> = report.tables().iter().map(|(t, _)| t.render()).collect();
        assert!(titles[0].contains("[oversubscription=1]"), "{titles:?}");
        assert!(titles[1].contains("[oversubscription=2]"), "{titles:?}");
        let csvs: Vec<Option<&String>> = report.tables().iter().map(|(_, c)| c.as_ref()).collect();
        assert_ne!(csvs[0], csvs[1], "sliced tables need distinct CSV files");
    }

    #[test]
    fn load_rejects_out_of_range_axes() {
        let dir = std::env::temp_dir().join("occamy_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_oversub.toml");
        std::fs::write(
            &path,
            "name = \"bad\"\n[topology]\nkind = \"fat_tree\"\n[grid]\noversubscription = [0.5]\n",
        )
        .unwrap();
        let e = SpecScenario::load(path.to_str().unwrap()).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
    }
}
