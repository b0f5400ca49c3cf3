//! The value rules of a spec hold for section keys and `[grid]` values
//! alike: each grid value is written into the document with
//! `SpecDoc::set_knob` and checked with the rules of the key it sweeps,
//! and an out-of-range value fails naming its key instead of being
//! clamped.

use occamy_spec::{spec_from_json, spec_from_toml, Num, KNOBS};

/// A minimal spec: a k=4 fat-tree and every other value at its default.
const MINIMAL: &str = "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n";

/// Parses `extra` appended to [`MINIMAL`] and returns the load error.
fn load_err(extra: &str) -> String {
    spec_from_toml(&format!("{MINIMAL}{extra}"))
        .unwrap_err()
        .message()
        .to_string()
}

#[test]
fn grid_bg_load_zero_fails_like_the_section_key() {
    let section = load_err("[traffic]\nbg_load = 0.0\n");
    assert!(section.contains("'bg_load' must be positive"), "{section}");
    let grid = load_err("[grid]\nbg_load = [0.5, 0.0]\n");
    assert!(grid.starts_with("[grid] bg_load: "), "{grid}");
    assert!(grid.contains("'bg_load' must be positive"), "{grid}");
}

#[test]
fn grid_alpha_zero_fails_like_schemes_alpha() {
    let section = load_err("[schemes.alpha]\nDT = 0.0\n");
    assert!(section.contains("'DT' must be positive"), "{section}");
    let grid = load_err("[schemes]\nuse = [\"DT\"]\n[grid]\nalpha = [0.0]\n");
    assert!(grid.starts_with("[grid] alpha: "), "{grid}");
    assert!(grid.contains("'DT' must be positive"), "{grid}");
}

#[test]
fn grid_duration_takes_integers_only() {
    let section = load_err("[traffic]\nduration_ms = 1.5\n");
    assert!(section.contains("[traffic]"), "{section}");
    let grid = load_err("[grid]\nduration_ms = { full = [2], smoke = [1.5] }\n");
    assert!(grid.starts_with("[grid] duration_ms: "), "{grid}");
    assert!(grid.contains("takes integers only (got 1.5)"), "{grid}");
}

#[test]
fn zero_fanout_and_duration_fail_instead_of_clamping() {
    for (key, section) in [
        ("query_fanout", "traffic"),
        ("duration_ms", "traffic"),
        ("bg_flow_kb", "traffic"),
        ("buffer_per_8ports_kb", "topology"),
        ("ecn_k_bytes", "sim"),
        ("min_rto_ms", "sim"),
        ("mss", "sim"),
    ] {
        // The minimal spec ends inside [topology].
        let e = match section {
            "topology" => load_err(&format!("{key} = 0\n")),
            _ => load_err(&format!("[{section}]\n{key} = 0\n")),
        };
        assert!(
            e.starts_with(&format!("[{section}]: '{key}' must be")),
            "{e}"
        );
        assert!(e.contains("(got 0)"), "{e}");
    }
    // The grid rejects the same zero with the same rule.
    let grid = load_err("[grid]\nquery_fanout = [0]\n");
    assert!(grid.starts_with("[grid] query_fanout: [traffic]: 'query_fanout' must be in 1..="));
}

/// `[sim] threads` fails naming the key and saying why, wherever the
/// document comes from.
fn assert_threads_refused(e: &str) {
    assert!(e.starts_with("[sim] threads: "), "{e}");
    assert!(e.contains("intra-run threads were removed"), "{e}");
    assert!(e.contains("--threads N` now sizes the cell pool"), "{e}");
}

#[test]
fn threads_key_is_refused_in_toml_json_and_plan_specs() {
    for n in [0, 1, 8] {
        assert_threads_refused(&load_err(&format!("[sim]\nthreads = {n}\n")));
    }
    let json = r#"{"name": "x", "topology": {"kind": "fat_tree"}, "sim": {"threads": 8}}"#;
    assert_threads_refused(spec_from_json(json).unwrap_err().message());
    // A shard plan embeds the canonical TOML, which wrote `threads`
    // as the last `[sim]` key whenever it was not 1.
    let canonical = spec_from_toml(MINIMAL).unwrap().to_toml();
    let key = "expel_rate_factor = 1.0\n";
    assert!(canonical.contains(key), "{canonical}");
    let embedded = canonical.replace(key, &format!("{key}threads = 8\n"));
    assert_threads_refused(spec_from_toml(&embedded).unwrap_err().message());
}

#[test]
fn workload_ceilings_bound_section_keys_and_grid_values() {
    for (extra, needle) in [
        (
            "[traffic]\nbg_load = 1e300\n",
            "'bg_load' must be positive and ≤ 10",
        ),
        (
            "[traffic]\nqps_per_host = 10001.0\n",
            "'qps_per_host' must be in 0..=10000",
        ),
        (
            "[grid]\nquery_fanout = [1025]\n",
            "'query_fanout' must be in 1..=1024",
        ),
        (
            "[grid]\nduration_ms = [10001]\n",
            "'duration_ms' must be in 1..=10000",
        ),
        (
            "[traffic]\nbackground = \"permutation\"\n[grid]\nbg_flow_kb = [18446744073709552]\n",
            "'bg_flow_kb' must be in 1..=18446744073709551 ",
        ),
        (
            "[grid]\nquery_pct_buffer = [18446744073710]\n",
            "'query_pct_buffer' must be in 0..=18446744073709 ",
        ),
    ] {
        let e = load_err(extra);
        assert!(e.contains(needle), "{extra}: {e}");
    }
    // The boundaries themselves load.
    for extra in [
        "[traffic]\nbg_load = 10.0\nqps_per_host = 10000.0\nquery_fanout = 1024\n",
        "[grid]\nduration_ms = [1, 10000]\nquery_pct_buffer = [0, 18446744073709]\n",
    ] {
        assert!(
            spec_from_toml(&format!("{MINIMAL}{extra}")).is_ok(),
            "{extra}"
        );
    }
}

#[test]
fn every_knob_is_accepted_by_set_knob() {
    let base = spec_from_toml(MINIMAL).unwrap();
    for knob in KNOBS {
        let mut doc = base.clone();
        doc.set_knob(knob, Num::Int(3), "Occamy")
            .unwrap_or_else(|e| panic!("{knob}: {e}"));
        assert_ne!(doc, base, "{knob} wrote nothing");
    }
    let mut doc = base.clone();
    let e = doc.set_knob("drain_ms", Num::Int(1), "Occamy").unwrap_err();
    assert!(e.message().contains("unknown grid knob 'drain_ms'"), "{e}");
}

#[test]
fn link_rates_and_propagation_convert_to_whole_nonzero_units() {
    for (extra, needle) in [
        // 1e-12 Gbps is 0.001 bps, which rounds to a 0 bps link.
        (
            "host_rate_gbps = 1e-12\n",
            "[topology]: 'host_rate_gbps' must convert to 1..=18446744073709551615 bps",
        ),
        (
            "fabric_rate_gbps = 1e-12\n",
            "[topology]: 'fabric_rate_gbps' must convert to 1..=",
        ),
        (
            "host_rate_gbps = 1e300\n",
            "'host_rate_gbps' must convert to",
        ),
        // 1e13 µs is 1e19 ps per link: the k=4 fat-tree's base RTT
        // over 12 link hops leaves the u64 ps clock.
        (
            "link_prop_us = 1e13\n",
            "[topology]: 'link_prop_us' must convert to 1..=1537228672809129301 ps",
        ),
        ("link_prop_us = 1e-7\n", "'link_prop_us' must convert to"),
    ] {
        let e = load_err(extra);
        assert!(e.contains(needle), "{extra}: {e}");
    }
    // 1 bps, 1 ps and a propagation just under the ceiling load.
    for extra in [
        "host_rate_gbps = 1e-9\nfabric_rate_gbps = 1e-9\n",
        "link_prop_us = 1e-6\n",
        "link_prop_us = 1537228672809.0\n",
    ] {
        assert!(
            spec_from_toml(&format!("{MINIMAL}{extra}")).is_ok(),
            "{extra}"
        );
    }
}
