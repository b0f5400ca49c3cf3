//! Property tests of the spec readers: damaged copies of the shipped
//! TOML and JSON specs never panic them, whatever parses re-emits as a
//! fixed point, and a `[topology]` section parses exactly when the
//! fabric builder's own check accepts its shape.

use occamy_sim::topology::FabricTopo;
use occamy_spec::{spec_from_json, spec_from_toml, Result, SpecDoc};
use proptest::prelude::*;
use std::path::PathBuf;

fn spec_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

/// The shipped `.toml` specs: `(file name, bytes)`.
fn shipped() -> Vec<(String, Vec<u8>)> {
    let dir = spec_dir();
    let mut specs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect();
    specs.sort();
    assert!(
        specs.len() >= 8,
        "shipped specs missing from {}",
        dir.display()
    );
    specs
}

/// Parses `bytes` (lossily decoded, as a damaged file might be) with
/// `read` and, if it is a valid spec, checks that `parse → to_toml →
/// parse` is a fixed point: an equal document and identical canonical
/// text. Returns whether the input parsed.
fn parse_is_fixed_point(read: fn(&str) -> Result<SpecDoc>, what: &str, bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let Ok(doc) = read(&text) else {
        return false;
    };
    let canonical = doc.to_toml();
    let again = spec_from_toml(&canonical)
        .unwrap_or_else(|e| panic!("{what}: canonical text fails to parse: {e}\n{canonical}"));
    assert_eq!(again, doc, "{what}: re-parsed document differs");
    assert_eq!(
        again.to_toml(),
        canonical,
        "{what}: canonical text not stable"
    );
    true
}

#[test]
fn every_byte_prefix_of_a_shipped_spec_parses_or_fails_cleanly() {
    for (name, bytes) in shipped() {
        for n in 0..bytes.len() {
            parse_is_fixed_point(spec_from_toml, &format!("{name}[..{n}]"), &bytes[..n]);
        }
        assert!(
            parse_is_fixed_point(spec_from_toml, &name, &bytes),
            "{name} must parse"
        );
    }
}

proptest! {
    #[test]
    fn single_byte_substitutions_parse_or_fail_cleanly(
        file in 0usize..64,
        edits in prop::collection::vec((0usize..1 << 20, 0u16..256), 256),
    ) {
        let specs = shipped();
        let (name, bytes) = &specs[file % specs.len()];
        for (pos, byte) in edits {
            let mut damaged = bytes.clone();
            let at = pos % damaged.len();
            damaged[at] = byte as u8;
            parse_is_fixed_point(spec_from_toml, &format!("{name} with byte {at} = {byte:#04x}"), &damaged);
        }
    }

    #[test]
    fn single_byte_substitutions_of_the_json_spec_parse_or_fail_cleanly(
        edits in prop::collection::vec((0usize..1 << 20, 0u16..256), 256),
    ) {
        let name = "leaf_spine_allreduce.json";
        let bytes = std::fs::read(spec_dir().join(name)).unwrap();
        prop_assert!(parse_is_fixed_point(spec_from_json, name, &bytes), "{} must parse", name);
        for (pos, byte) in edits {
            let mut damaged = bytes.clone();
            let at = pos % damaged.len();
            damaged[at] = byte as u8;
            parse_is_fixed_point(spec_from_json, &format!("{name} with byte {at} = {byte:#04x}"), &damaged);
        }
    }

    #[test]
    fn topology_parses_iff_the_fabric_check_accepts(
        kind in 0usize..3,
        dims in prop::collection::vec((prop::bool::ANY, 0u64..9, 0usize..5), 5),
    ) {
        // Each dimension is absent (its default applies) or a small
        // value scaled into the port-id, node-id and u64-overflow
        // ranges.
        let value = |i: usize, default: usize| -> (Option<u64>, usize) {
            let (present, base, scale) = dims[i];
            let v = base << [0, 13, 16, 22, 40][scale];
            if present { (Some(v), v as usize) } else { (None, default) }
        };
        let (name, keys, topo) = match kind {
            0 => {
                let [s, l, h] = [value(0, 4), value(1, 4), value(2, 8)];
                let topo = FabricTopo::LeafSpine { spines: s.1, leaves: l.1, hosts_per_leaf: h.1 };
                ("leaf_spine", vec![("spines", s.0), ("leaves", l.0), ("hosts_per_leaf", h.0)], topo)
            }
            1 => {
                let k = value(0, 4);
                ("fat_tree", vec![("k", k.0)], FabricTopo::FatTree { k: k.1 })
            }
            _ => {
                let [p, a, g, c, h] = [value(0, 2), value(1, 2), value(2, 2), value(3, 2), value(4, 4)];
                let topo = FabricTopo::ThreeTier {
                    pods: p.1,
                    access_per_pod: a.1,
                    aggs_per_pod: g.1,
                    cores: c.1,
                    hosts_per_access: h.1,
                };
                let keys = vec![
                    ("pods", p.0),
                    ("access_per_pod", a.0),
                    ("aggs_per_pod", g.0),
                    ("cores", c.0),
                    ("hosts_per_access", h.0),
                ];
                ("three_tier", keys, topo)
            }
        };
        let mut text = format!("name = \"gen\"\n[topology]\nkind = \"{name}\"\n");
        for (key, v) in keys {
            if let Some(v) = v {
                text += &format!("{key} = {v}\n");
            }
        }
        let parsed = spec_from_toml(&text);
        prop_assert_eq!(parsed.is_ok(), topo.check().is_ok(), "{}: {:?}", text, parsed.err());
        if let Ok(doc) = parsed {
            prop_assert_eq!(doc.topology.kind, topo);
        }
    }
}
