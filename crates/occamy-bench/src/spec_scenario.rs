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
use crate::scenarios::BgPattern;
use occamy_core::{BmKind, BmTuning};
use occamy_sim::{Drain, FaultSchedule, HostChurn, LinkFlap, Ps, SimConfig, XpSched, MS, US};
use occamy_spec::{
    AxisSpec, Background, FaultClause, Num, QuerySize, SpecDoc, SwitchArch, TableKind, TableSpec,
    XpSchedSpec,
};
use occamy_stats::Table;

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

    /// Loads and parses a `.toml` / `.json` spec file; parsing runs
    /// every value rule (`SpecDoc::check`).
    pub fn load(path: &str) -> Result<&'static SpecScenario, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc =
            occamy_spec::spec_from_file_text(path, &text).map_err(|e| format!("{path}: {e}"))?;
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

    /// The fabric scenario of one grid cell: the cell's axis values
    /// written into a copy of the document (`SpecDoc::set_knob`), bound
    /// by [`SpecScenario::base_scenario`], seeded and scaled.
    pub fn scenario(&self, cell: &CellSpec) -> FabricScenario {
        let scheme = cell.str("scheme");
        let mut doc = self.doc.clone();
        for axis in &self.doc.grid {
            let value = match cell.get(&axis.knob) {
                Some(Value::U64(v)) => Num::Int(*v),
                Some(Value::F64(v)) => Num::Float(*v),
                other => panic!("axis '{}' has no numeric value: {other:?}", axis.knob),
            };
            doc.set_knob(&axis.knob, value, scheme)
                .expect("SpecDoc::check accepted every axis value");
        }
        let mut sc = Self::base_scenario(&doc, scheme);
        sc.seed = cell.seed;
        scale_fabric(&mut sc, cell.scale);
        sc
    }

    /// The report of a spec without `[[emit]]` tables: the two headline
    /// matrices (QCT and background-FCT slowdown) over the first grid
    /// axis, or with no axis the per-scheme headline ranking.
    fn default_tables(&self) -> Vec<TableSpec> {
        let name = self.name;
        let Some(first) = self.doc.grid.first() else {
            return vec![TableSpec {
                kind: TableKind::Ranking,
                title: format!("{name}: headline metrics"),
                rows: String::new(),
                cols: String::new(),
                metric: String::new(),
                csv: Some(format!("{name}.csv")),
            }];
        };
        ["qct_slowdown_avg", "bg_slowdown_avg"]
            .map(|metric| TableSpec {
                kind: TableKind::Matrix,
                title: format!("{name}: {metric}"),
                rows: first.knob.clone(),
                cols: "scheme".to_string(),
                metric: metric.to_string(),
                csv: Some(format!("{name}_{metric}.csv")),
            })
            .to_vec()
    }

    /// Binds a checked document onto [`FabricScenario`] for `scheme`: the
    /// only place a spec value becomes a scenario field.
    fn base_scenario(doc: &SpecDoc, scheme: &str) -> FabricScenario {
        let t = &doc.topology;
        let xp_sched = match t.xp_sched {
            XpSchedSpec::RoundRobin => XpSched::RoundRobin,
            XpSchedSpec::Longest => XpSched::Longest,
        };
        // A scheme name that is no `BmKind` is the pseudo-scheme
        // "Crosspoint": it swaps the switch architecture, as `[topology]
        // switch_arch = "crosspoint"` does for every scheme. Crosspoint
        // buffers are statically partitioned per (input, output), so the
        // buffer manager is irrelevant (CompleteSharing over partitions
        // that stay empty).
        let (bm, crosspoint) = match BmKind::from_name(scheme) {
            Some(bm) => (
                bm,
                (t.switch_arch == SwitchArch::Crosspoint).then_some(xp_sched),
            ),
            None => (BmKind::CompleteSharing, Some(xp_sched)),
        };
        let tr = &doc.traffic;
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
        for f in &doc.faults {
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
        let (s, sc) = (&doc.sim, &doc.schemes);
        FabricScenario {
            topo: t.kind,
            bm,
            alpha: sc.alpha_for(scheme),
            tuning: BmTuning {
                bshare_delay_ns: (sc.bshare_delay_us * 1000.0).round() as u64,
                damq_reserve_permille: (sc.damq_reserve_frac * 1000.0).round() as u32,
            },
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
                threads: s.threads as usize,
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
        let (world, result) = self.scenario(cell).run_world();
        crate::report::with_par_metrics(result.into_cell(), &world)
    }

    fn emit(&self, outcomes: &[CellOutcome]) -> Report {
        let defaults;
        let tables = if self.doc.emit.is_empty() {
            defaults = self.default_tables();
            &defaults
        } else {
            &self.doc.emit
        };
        let knobs = self.doc.grid.iter().map(|a| a.knob.as_str());
        let mut report = Report::new();
        for ts in tables {
            let (title, csv) = (&ts.title, ts.csv.as_deref());
            report = match ts.kind {
                // One ranking per combination of the grid axes (the
                // schemes are its rows). When the grid collapses to a
                // single combination (smoke/quick scales typically pin
                // tuning knobs to one value), the title and CSV name
                // stay unsuffixed, so the headline `results/<name>.csv`
                // a grid-less spec would produce survives the addition
                // of tuning axes byte-compatibly.
                TableKind::Ranking => {
                    let residual: Vec<&str> = knobs.clone().collect();
                    emit_slices(report, outcomes, &residual, true, title, csv, ranking_table)
                }
                // One matrix per combination of the other axes, the
                // implicit scheme axis included when it is neither rows
                // nor cols.
                TableKind::Matrix => {
                    let (rows, cols) = (ts.rows.as_str(), ts.cols.as_str());
                    let mut residual: Vec<&str> =
                        knobs.clone().filter(|k| *k != rows && *k != cols).collect();
                    if rows != "scheme" && cols != "scheme" {
                        residual.push("scheme");
                    }
                    emit_slices(report, outcomes, &residual, false, title, csv, |t, o| {
                        matrix_table(t, o, rows, cols, &ts.metric)
                    })
                }
            };
        }
        report
    }
}

/// The per-scheme headline table: one row per scheme (in sweep order),
/// the headline-metric columns — the default report of a grid-less spec
/// and the body of every `kind = "ranking"` emit table.
fn ranking_table(title: &str, outcomes: &[CellOutcome]) -> Table {
    let metrics = [
        "qct_avg_ms",
        "qct_slowdown_avg",
        "qct_slowdown_p99",
        "bg_slowdown_avg",
        "losses",
    ];
    let mut cols = vec!["scheme"];
    cols.extend(metrics);
    let mut t = Table::new(title, &cols);
    for o in outcomes {
        let mut row = vec![o.spec.str("scheme").to_string()];
        row.extend(metrics.iter().map(|m| o.result.fmt(m)));
        t.row(row);
    }
    t
}

/// Adds one table per *slice* of `outcomes`: each distinct combination
/// of the `residual` axes' values, in grid order. A 2-D table shows
/// only two of the grid's dimensions, and any other axis would
/// otherwise collapse to its first value inside the table's
/// first-match lookup; slicing keeps every cell's result in the
/// report. A slice's title gets the fixed values as a ` [k=v …]`
/// suffix and its CSV name the same values as a `_k_v…` tag, except
/// when there is no residual axis — or, with `plain_if_single`, only
/// one combination — which keeps the given title and CSV name.
fn emit_slices(
    mut report: Report,
    outcomes: &[CellOutcome],
    residual: &[&str],
    plain_if_single: bool,
    title: &str,
    csv: Option<&str>,
    table: impl Fn(&str, &[CellOutcome]) -> Table,
) -> Report {
    let mut combos: Vec<Vec<(&str, &Value)>> = Vec::new();
    for o in outcomes {
        let combo: Vec<(&str, &Value)> = residual
            .iter()
            .map(|k| (*k, o.spec.get(k).expect("axis value present")))
            .collect();
        if !combos.contains(&combo) {
            combos.push(combo);
        }
    }
    let plain = plain_if_single && combos.len() <= 1;
    for combo in &combos {
        let slice: Vec<CellOutcome> = outcomes
            .iter()
            .filter(|o| combo.iter().all(|&(k, v)| o.spec.get(k) == Some(v)))
            .cloned()
            .collect();
        let suffix = combo
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        let (title, csv) = if plain || suffix.is_empty() {
            (title.to_string(), csv.map(str::to_string))
        } else {
            let tag: String = suffix
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let csv = csv.map(|csv| match csv.strip_suffix(".csv") {
                Some(stem) => format!("{stem}_{tag}.csv"),
                None => format!("{csv}_{tag}"),
            });
            (format!("{title} [{suffix}]"), csv)
        };
        let t = table(&title, &slice);
        report = match csv {
            Some(csv) => report.table_csv(t, &csv),
            None => report.table(t),
        };
    }
    report
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
    fn default_tuning_binds_to_the_schemes_own_constants() {
        let s = spec("name = \"x\"\n[topology]\nkind = \"fat_tree\"\n");
        let cell = &s.grid(Scale::Full)[0];
        assert_eq!(s.scenario(cell).tuning, BmTuning::default());
        assert_eq!(s.scenario(cell).alpha, 8.0, "Occamy's paper alpha");
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
        assert!(
            e.contains("[grid] oversubscription: [topology]: 'oversubscription' must be"),
            "{e}"
        );
    }
}
