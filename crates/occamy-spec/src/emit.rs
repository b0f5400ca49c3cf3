//! Canonical TOML re-emission: `parse → compile → re-emit → parse`
//! round-trips to an identical [`SpecDoc`], which is what the spec
//! round-trip tests pin down.

use crate::model::{FaultClause, Num, QuerySize, SpecDoc, SwitchArch, TableKind, XpSchedSpec};
use occamy_sim::topology::FabricTopo;
use std::fmt::Write as _;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn num(n: Num) -> String {
    match n {
        Num::Int(v) => v.to_string(),
        // `{:?}` prints the shortest representation that parses back to
        // the same f64 and always keeps a '.' or exponent.
        Num::Float(v) => format!("{v:?}"),
    }
}

fn nums(ns: &[Num]) -> String {
    let items: Vec<String> = ns.iter().map(|&n| num(n)).collect();
    format!("[{}]", items.join(", "))
}

impl SpecDoc {
    /// Renders the spec as canonical TOML. Every effective value is
    /// written explicitly (defaults included), so the output is a
    /// complete record of what a run meant — and re-parsing it yields a
    /// `SpecDoc` equal to `self`.
    pub fn to_toml(&self) -> String {
        let mut o = String::new();
        let w = &mut o;
        let _ = writeln!(w, "name = {}", esc(&self.name));
        if !self.description.is_empty() {
            let _ = writeln!(w, "description = {}", esc(&self.description));
        }
        if self.seed_key != self.name {
            let _ = writeln!(w, "seed_key = {}", esc(&self.seed_key));
        }

        let t = &self.topology;
        let _ = writeln!(w, "\n[topology]");
        let _ = writeln!(w, "kind = {}", esc(t.kind.name()));
        match &t.kind {
            FabricTopo::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            } => {
                let _ = writeln!(w, "spines = {spines}");
                let _ = writeln!(w, "leaves = {leaves}");
                let _ = writeln!(w, "hosts_per_leaf = {hosts_per_leaf}");
            }
            FabricTopo::FatTree { k } => {
                let _ = writeln!(w, "k = {k}");
            }
            FabricTopo::ThreeTier {
                pods,
                access_per_pod,
                aggs_per_pod,
                cores,
                hosts_per_access,
            } => {
                let _ = writeln!(w, "pods = {pods}");
                let _ = writeln!(w, "access_per_pod = {access_per_pod}");
                let _ = writeln!(w, "aggs_per_pod = {aggs_per_pod}");
                let _ = writeln!(w, "cores = {cores}");
                let _ = writeln!(w, "hosts_per_access = {hosts_per_access}");
            }
        }
        let _ = writeln!(w, "host_rate_gbps = {:?}", t.host_rate_gbps);
        let _ = writeln!(w, "fabric_rate_gbps = {:?}", t.fabric_rate_gbps);
        let _ = writeln!(w, "link_prop_us = {:?}", t.link_prop_us);
        let _ = writeln!(w, "buffer_per_8ports_kb = {}", t.buffer_per_8ports_kb);
        let _ = writeln!(w, "oversubscription = {:?}", t.oversubscription);
        // Architecture keys appear only when non-default, so canonical
        // output for pre-existing shared-memory specs is unchanged.
        if t.switch_arch != SwitchArch::SharedMemory {
            let _ = writeln!(w, "switch_arch = {}", esc(t.switch_arch.name()));
        }
        if t.xp_sched != XpSchedSpec::RoundRobin {
            let _ = writeln!(w, "xp_sched = {}", esc(t.xp_sched.name()));
        }

        let tr = &self.traffic;
        let _ = writeln!(w, "\n[traffic]");
        let _ = writeln!(w, "background = {}", esc(tr.background.name()));
        // Every knob is written even when the background kind ignores it
        // (the model keeps explicit values regardless), so re-parsing
        // the canonical form is the identity.
        let _ = writeln!(w, "bg_load = {:?}", tr.bg_load);
        let _ = writeln!(w, "bg_flow_kb = {}", tr.bg_flow_kb);
        let _ = writeln!(w, "perm_shift = {}", tr.perm_shift);
        match tr.query {
            QuerySize::Bytes(b) => {
                let _ = writeln!(w, "query_bytes = {b}");
            }
            QuerySize::PctBuffer(p) => {
                let _ = writeln!(w, "query_pct_buffer = {p}");
            }
        }
        let _ = writeln!(w, "query_fanout = {}", tr.query_fanout);
        let _ = writeln!(w, "qps_per_host = {:?}", tr.qps_per_host);
        let _ = writeln!(w, "duration_ms = {}", tr.duration_ms);
        let _ = writeln!(w, "drain_ms = {}", tr.drain_ms);

        let _ = writeln!(w, "\n[schemes]");
        let uses: Vec<String> = self.schemes.schemes.iter().map(|s| esc(s)).collect();
        let _ = writeln!(w, "use = [{}]", uses.join(", "));
        if !self.schemes.alpha.is_empty() {
            let _ = writeln!(w, "\n[schemes.alpha]");
            for (s, a) in &self.schemes.alpha {
                let _ = writeln!(w, "{s} = {a:?}");
            }
        }

        let s = &self.sim;
        let _ = writeln!(w, "\n[sim]");
        let _ = writeln!(w, "ecn_k_bytes = {}", s.ecn_k_bytes);
        let _ = writeln!(w, "min_rto_ms = {}", s.min_rto_ms);
        let _ = writeln!(w, "mss = {}", s.mss);
        let _ = writeln!(w, "expel_rate_factor = {:?}", s.expel_rate_factor);

        if self.telemetry.every_events != 0 {
            let _ = writeln!(w, "\n[telemetry]");
            let _ = writeln!(w, "every_events = {}", self.telemetry.every_events);
        }

        for f in &self.faults {
            let _ = writeln!(w, "\n[[faults]]");
            match f {
                FaultClause::LinkFlap {
                    switch,
                    port,
                    down,
                    up,
                } => {
                    let _ = writeln!(w, "kind = \"link_flap\"");
                    let _ = writeln!(w, "switch = {switch}");
                    let _ = writeln!(w, "port = {port}");
                    let _ = writeln!(w, "down = {down:?}");
                    let _ = writeln!(w, "up = {up:?}");
                }
                FaultClause::Drain { switch, start, end } => {
                    let _ = writeln!(w, "kind = \"drain\"");
                    let _ = writeln!(w, "switch = {switch}");
                    let _ = writeln!(w, "start = {start:?}");
                    let _ = writeln!(w, "end = {end:?}");
                }
                FaultClause::HostChurn { host, leave, join } => {
                    let _ = writeln!(w, "kind = \"host_churn\"");
                    let _ = writeln!(w, "host = {host}");
                    let _ = writeln!(w, "leave = {leave:?}");
                    let _ = writeln!(w, "join = {join:?}");
                }
            }
        }

        if !self.grid.is_empty() {
            let _ = writeln!(w, "\n[grid]");
            for a in &self.grid {
                if a.quick == a.full && a.smoke == a.full {
                    let _ = writeln!(w, "{} = {}", a.knob, nums(&a.full));
                } else {
                    let _ = writeln!(
                        w,
                        "{} = {{ full = {}, quick = {}, smoke = {} }}",
                        a.knob,
                        nums(&a.full),
                        nums(&a.quick),
                        nums(&a.smoke)
                    );
                }
            }
        }

        for t in &self.emit {
            let _ = writeln!(w, "\n[[emit]]");
            if t.kind == TableKind::Ranking {
                let _ = writeln!(w, "kind = \"ranking\"");
                let _ = writeln!(w, "title = {}", esc(&t.title));
            } else {
                let _ = writeln!(w, "title = {}", esc(&t.title));
                let _ = writeln!(w, "rows = {}", esc(&t.rows));
                let _ = writeln!(w, "cols = {}", esc(&t.cols));
                let _ = writeln!(w, "metric = {}", esc(&t.metric));
            }
            if let Some(csv) = &t.csv {
                let _ = writeln!(w, "csv = {}", esc(csv));
            }
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use crate::model::SpecDoc;
    use crate::toml;

    #[test]
    fn reemitted_spec_reparses_identically() {
        let src = r#"
name = "demo"
description = "round trip"

[topology]
kind = "three_tier"
pods = 3
oversubscription = 2.0

[traffic]
background = "permutation"
bg_load = 0.4
bg_flow_kb = 64
query_bytes = 200000

[schemes]
use = ["Occamy", "DT"]

[schemes.alpha]
Occamy = 4.0

[telemetry]
every_events = 25000

[[faults]]
kind = "link_flap"
switch = 0
port = 0
down = 0.2
up = 0.5

[[faults]]
kind = "host_churn"
host = 0
leave = 0.3
join = 0.6

[grid]
oversubscription = { full = [1.0, 2.0, 4.0], smoke = [2.0] }
duration_ms = [5, 15]

[[emit]]
title = "avg qct"
rows = "oversubscription"
metric = "qct_slowdown_avg"
csv = "demo.csv"
"#;
        let doc = SpecDoc::from_value(&toml::parse(src).unwrap()).unwrap();
        let emitted = doc.to_toml();
        let doc2 = SpecDoc::from_value(&toml::parse(&emitted).unwrap())
            .unwrap_or_else(|e| panic!("re-emitted spec failed to parse: {e}\n{emitted}"));
        assert_eq!(doc, doc2, "round trip changed the document:\n{emitted}");
        // Canonical form is a fixed point.
        assert_eq!(doc2.to_toml(), emitted);
    }

    #[test]
    fn crosspoint_arch_survives_round_trip() {
        let src = r#"
name = "xp"
[topology]
kind = "fat_tree"
k = 4
switch_arch = "crosspoint"
xp_sched = "longest"
[schemes]
use = ["BShare", "DAMQ", "Crosspoint"]
"#;
        let doc = SpecDoc::from_value(&toml::parse(src).unwrap()).unwrap();
        let emitted = doc.to_toml();
        assert!(emitted.contains("switch_arch = \"crosspoint\""));
        assert!(emitted.contains("xp_sched = \"longest\""));
        let doc2 = SpecDoc::from_value(&toml::parse(&emitted).unwrap()).unwrap();
        assert_eq!(doc, doc2);
        assert_eq!(doc2.to_toml(), emitted);
    }

    #[test]
    fn default_arch_keys_are_not_emitted() {
        // Explicitly writing the defaults canonicalizes to silence, so
        // pre-existing shared-memory specs re-emit byte-identically.
        let src = "name = \"x\"\n[topology]\nkind = \"fat_tree\"\nswitch_arch = \"shared_memory\"\nxp_sched = \"round_robin\"\n";
        let doc = SpecDoc::from_value(&toml::parse(src).unwrap()).unwrap();
        let emitted = doc.to_toml();
        assert!(!emitted.contains("switch_arch"));
        assert!(!emitted.contains("xp_sched"));
    }

    #[test]
    fn escaping_survives_round_trip() {
        let src = "name = \"x\"\ndescription = \"quote \\\" and \\\\ back\"\n[topology]\nkind = \"fat_tree\"\n";
        let doc = SpecDoc::from_value(&toml::parse(src).unwrap()).unwrap();
        let doc2 = SpecDoc::from_value(&toml::parse(&doc.to_toml()).unwrap()).unwrap();
        assert_eq!(doc, doc2);
    }
}
