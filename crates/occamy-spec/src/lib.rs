//! Declarative scenario descriptions for the Occamy experiment harness.
//!
//! This crate is the *front half* of the spec pipeline: it reads a
//! TOML (or JSON) scenario description into a validated [`SpecDoc`] —
//! `[topology]` (leaf-spine / fat-tree / 3-tier with an
//! oversubscription knob), `[traffic]` (web-search, incast queries,
//! all-to-all, all-reduce, permutation), `[schemes]`, `[grid]` sweep
//! axes and `[[emit]]` tables — and can re-emit it as canonical TOML.
//! The *back half* lives in `occamy-bench::spec_scenario`, which
//! compiles a `SpecDoc` into the existing `Grid`/`CellSpec` machinery
//! so spec-driven sweeps run on the same parallel runner, with the
//! same deterministic per-cell seeds and `BENCH_<name>.json` +
//! `results/*.csv` outputs, as the hand-coded paper figures.
//!
//! Both formats land in one order-preserving [`Value`] tree: TOML
//! through the crate's own minimal [`toml`] reader, JSON through the
//! workspace's `occamy_stats::Json` reader. `[topology]` parses straight
//! into `occamy_sim::topology::FabricTopo`, the shape the fabric
//! builder takes, and is validated by the builder's own
//! `FabricTopo::check`. Scheme names and their default α come from
//! `occamy_core::BmKind` (`name`, `from_name`, `paper_alpha`); the spec
//! adds only the pseudo-scheme `"Crosspoint"`. Those three workspace
//! crates are the only dependencies, so the crate builds offline.
//!
//! Validation is strict and typo-friendly: every identifier is checked
//! against the known sets and a misspelling fails with a named
//! suggestion — `unknown scheme 'Ocamy'; did you mean 'Occamy'?` —
//! never a panic. Every value rule lives in one place,
//! [`SpecDoc::check`], and holds for section keys and `[grid]` values
//! alike: each grid value is written into the document with
//! [`SpecDoc::set_knob`] and checked with the rules of the key it
//! sweeps, so a loaded `SpecDoc` — from TOML, JSON or a shard plan's
//! embedded TOML — holds only valid cells, and an invalid grid value
//! fails naming `[grid] <knob>`. Nothing is clamped: a value out of
//! range fails naming its key.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
pub mod error;
pub mod model;
pub mod suggest;
pub mod toml;
mod value;

pub use error::{Result, SpecError};
pub use model::{
    AxisSpec, Background, FaultClause, Num, QuerySize, SchemesSpec, SimSpec, SpecDoc, SwitchArch,
    TableKind, TableSpec, TelemetrySpec, TopologySection, TrafficSpec, XpSchedSpec, BACKGROUNDS,
    FAULT_KINDS, KNOBS, METRICS, SWITCH_ARCHS, TOPOLOGIES, XP_SCHEDS,
};
pub use value::Value;

use occamy_stats::Json;

/// Parses a TOML spec into a validated [`SpecDoc`].
pub fn spec_from_toml(text: &str) -> Result<SpecDoc> {
    SpecDoc::from_value(&toml::parse(text)?)
}

/// Parses a JSON spec into a validated [`SpecDoc`]. Syntax errors name
/// their line and column.
pub fn spec_from_json(text: &str) -> Result<SpecDoc> {
    let doc = Json::parse(text).map_err(SpecError::new)?;
    SpecDoc::from_value(&json_to_value(doc)?)
}

/// Converts a parsed JSON document into the [`Value`] tree. `Json`
/// reads a non-negative number without fraction or exponent as `UInt`
/// (an integer here) and every negative number as `Num`, so a negative
/// number becomes an integer when its value is integral. `null` (a spec
/// omits absent keys instead) and a key repeated within one object
/// (which would shadow the first) fail, naming the key.
fn json_to_value(json: Json) -> Result<Value> {
    Ok(match json {
        Json::Null => {
            return Err(SpecError::new(
                "null is not supported — omit the key instead",
            ))
        }
        Json::Bool(b) => Value::Bool(b),
        Json::UInt(v) => Value::Int(v.into()),
        Json::Num(v) if v < 0.0 && v.fract() == 0.0 && v >= i64::MIN as f64 => {
            Value::Int(v as i128)
        }
        Json::Num(v) => Value::Float(v),
        Json::Str(s) => Value::Str(s),
        Json::Arr(items) => Value::Array(
            items
                .into_iter()
                .map(json_to_value)
                .collect::<Result<_>>()?,
        ),
        Json::Obj(pairs) => {
            let mut table: Vec<(String, Value)> = Vec::with_capacity(pairs.len());
            for (key, v) in pairs {
                if table.iter().any(|(k, _)| *k == key) {
                    return Err(SpecError::new(format!("duplicate key '{key}'")));
                }
                let v = json_to_value(v).map_err(|e| e.in_context(&key))?;
                table.push((key, v));
            }
            Value::Table(table)
        }
    })
}

/// Parses a spec, choosing the reader from the file name's extension
/// (`.toml` or `.json`).
pub fn spec_from_file_text(path: &str, text: &str) -> Result<SpecDoc> {
    if path.ends_with(".json") {
        spec_from_json(text)
    } else if path.ends_with(".toml") {
        spec_from_toml(text)
    } else {
        Err(SpecError::new(format!(
            "can't tell the format of '{path}': expected a .toml or .json extension"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occamy_sim::topology::FabricTopo;

    /// The smallest valid JSON spec.
    const MINIMAL: &str = r#"{"name": "x", "topology": {"kind": "fat_tree"}}"#;

    #[test]
    fn json_objects_arrays_and_scalars_parse() {
        let doc = spec_from_json(
            r#"{"name": "demo", "topology": {"kind": "fat_tree", "k": 4,
                "host_rate_gbps": 2.5e1, "link_prop_us": 10},
                "traffic": {"bg_load": 0.5, "query_fanout": 8},
                "grid": {"bg_load": [0.5, 9e-1]},
                "emit": [{"title": "t", "rows": "bg_load", "metric": "qct_slowdown_avg"}]}"#,
        )
        .unwrap();
        assert_eq!(doc.name, "demo");
        assert_eq!(doc.topology.kind, FabricTopo::FatTree { k: 4 });
        assert_eq!(doc.topology.host_rate_gbps, 25.0);
        assert_eq!(doc.topology.link_prop_us, 10.0);
        assert_eq!(doc.traffic.bg_load, 0.5);
        assert_eq!(doc.traffic.query_fanout, 8);
        assert_eq!(doc.grid[0].full, [Num::Float(0.5), Num::Float(0.9)]);
        assert_eq!(doc.emit[0].title, "t");
        // Scalars no spec key takes: booleans, and negative integers,
        // which `Json` reads as integral floats.
        let v = json_to_value(Json::parse(r#"{"ok": true, "k": -1, "x": -2.5, "n": 3}"#).unwrap())
            .unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("k"), Some(&Value::Int(-1)));
        assert_eq!(v.get("x"), Some(&Value::Float(-2.5)));
        assert_eq!(v.get("n"), Some(&Value::Int(3)));
    }

    #[test]
    fn json_rejects_null_trailing_and_bad_syntax() {
        assert!(spec_from_json(MINIMAL).is_ok());
        let e = spec_from_json(r#"{"name": "x", "topology": {"kind": null}}"#).unwrap_err();
        assert!(e.message().contains("null"), "{e}");
        assert!(e.message().contains("kind"), "null must name its key: {e}");
        let e = spec_from_json(&format!("{MINIMAL} extra")).unwrap_err();
        assert!(e.message().contains("trailing"), "{e}");
        assert!(spec_from_json(r#"{"name" "x"}"#).is_err());
        assert!(spec_from_json(r#"{"name": "x",, "topology": {}}"#).is_err());
    }

    #[test]
    fn json_error_names_the_line() {
        let e = spec_from_json("{\n\"name\": nope\n}").unwrap_err();
        assert!(e.message().contains("line 2"), "{e}");
    }

    #[test]
    fn json_repeated_key_fails_naming_it() {
        let e =
            spec_from_json(r#"{"name": "x", "topology": {"kind": "fat_tree", "k": 4, "k": 8}}"#)
                .unwrap_err();
        assert!(e.message().contains("duplicate key 'k'"), "{e}");
    }

    #[test]
    fn json_raw_control_character_in_string_fails() {
        // RFC 8259 §7: control characters inside strings must be escaped.
        let escaped =
            r#"{"name": "x", "description": "two\nlines", "topology": {"kind": "fat_tree"}}"#;
        assert_eq!(spec_from_json(escaped).unwrap().description, "two\nlines");
        let raw = escaped.replace("\\n", "\n");
        let e = spec_from_json(&raw).unwrap_err();
        assert!(e.message().contains("control character"), "{e}");
    }

    #[test]
    fn every_truncated_json_spec_fails_without_panicking() {
        let text = include_str!("../../../specs/leaf_spine_allreduce.json");
        assert!(spec_from_json(text).is_ok());
        let last = text.rfind('}').unwrap();
        for cut in (0..=last).filter(|&c| text.is_char_boundary(c)) {
            assert!(
                spec_from_json(&text[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
    }

    #[test]
    fn toml_and_json_agree() {
        let t = spec_from_toml(
            "name = \"x\"\n[topology]\nkind = \"fat_tree\"\nk = 4\n[grid]\nbg_load = [0.5, 0.9]\n",
        )
        .unwrap();
        let j = spec_from_json(
            r#"{"name": "x", "topology": {"kind": "fat_tree", "k": 4},
                "grid": {"bg_load": [0.5, 0.9]}}"#,
        )
        .unwrap();
        assert_eq!(t, j);
    }

    #[test]
    fn extension_dispatch() {
        assert!(
            spec_from_file_text("a.toml", "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n")
                .is_ok()
        );
        assert!(spec_from_file_text(
            "a.json",
            r#"{"name": "x", "topology": {"kind": "fat_tree"}}"#
        )
        .is_ok());
        let e = spec_from_file_text("a.yaml", "").unwrap_err();
        assert!(e.message().contains(".toml or .json"), "{e}");
    }
}
