//! Property test of the spec input boundary for `[grid]` values: a grid
//! value obeys the rule of the section key it sweeps. Generated specs
//! sweep one or two knobs of `occamy_spec::KNOBS` over values at and
//! around every rule's boundary — zero, negatives, non-integers for
//! integer knobs, NaN and infinity, and numbers past every conversion
//! limit. Each spec either fails to load with an error that names the
//! `[grid]` axis, or binds every cell at every scale into a
//! `FabricScenario` that builds its world and injects its workload
//! without panicking. The event loop never runs, so the whole property
//! takes seconds. A last test pins where each axis value binds.

use occamy_bench::scenario::{Scale, Scenario};
use occamy_bench::scenarios::BgPattern;
use occamy_bench::spec_scenario::SpecScenario;
use occamy_core::{BmKind, BmTuning};
use occamy_sim::{XpSched, MS};
use occamy_spec::{spec_from_toml, BACKGROUNDS, KNOBS};
use proptest::prelude::*;

/// Axis values, as TOML literals: each rule's boundary and its
/// neighbours (`bg_load` ≤ 10, `qps_per_host` ≤ 10 000, `query_fanout`
/// ≤ 1024, `duration_ms` ≤ 10 000, the DAMQ split in 0.001..=0.999, a
/// BShare target ≥ 0.001 µs, the KB-to-byte limit of `bg_flow_kb` and
/// the byte limit of `query_pct_buffer` on the base spec's 1000 KB
/// buffer), plus zero, negatives, non-integers, NaN, infinity and very
/// large numbers.
const VALUES: &[&str] = &[
    "0",
    "0.0",
    "-1",
    "-0.5",
    "1",
    "1.0",
    "2",
    "0.0005",
    "0.001",
    "0.5",
    "0.999",
    "1.5",
    "10.0",
    "10.5",
    "1024",
    "1025",
    "10000",
    "10001",
    "18446744073709",
    "18446744073710",
    "18446744073709551",
    "18446744073709552",
    "18446744073709551615",
    "1e15",
    "1e300",
    "inf",
    "nan",
];

/// A valid spec on the smallest fabric (two hosts), with a light
/// workload of `qps` queries per second per host, sweeping `axes`.
fn spec_text(background: &str, qps: f64, axes: &[(&str, Vec<&str>)]) -> String {
    let mut text = format!(
        "name = \"grid_rules\"\n\
         [topology]\nkind = \"leaf_spine\"\nspines = 1\nleaves = 2\nhosts_per_leaf = 1\n\
         host_rate_gbps = 1.0\n\
         [traffic]\nbackground = \"{background}\"\nbg_load = 0.01\nbg_flow_kb = 1000\n\
         query_fanout = 1\nqps_per_host = {qps:?}\nduration_ms = 1\ndrain_ms = 1\n\
         [schemes]\nuse = [\"BShare\", \"DAMQ\"]\n[grid]\n"
    );
    for (knob, values) in axes {
        text.push_str(&format!("{knob} = [{}]\n", values.join(", ")));
    }
    text
}

/// Loads `axes` over `background`: the load must fail with an error
/// that names one of the axes, or every cell at every scale must bind,
/// build and inject.
fn fails_by_name_or_injects(
    background: &str,
    qps: f64,
    axes: &[(&str, Vec<&str>)],
) -> Result<(), String> {
    let text = spec_text(background, qps, axes);
    match spec_from_toml(&text) {
        Err(e) => {
            let msg = e.message();
            if axes
                .iter()
                .any(|(knob, _)| msg.starts_with(&format!("[grid] {knob}: ")))
            {
                Ok(())
            } else {
                Err(format!("error names no grid axis: {msg}\n{text}"))
            }
        }
        Ok(doc) => {
            let spec = SpecScenario::new(doc);
            for scale in [Scale::Full, Scale::Quick, Scale::Smoke] {
                for cell in spec.grid(scale) {
                    let sc = spec.scenario(&cell);
                    let mut world = sc.build();
                    sc.inject(&mut world);
                }
            }
            Ok(())
        }
    }
}

/// Every knob, background and value alone, at a query rate that gives
/// most cells a query.
#[test]
fn every_single_axis_fails_by_name_or_injects() {
    for background in BACKGROUNDS {
        for knob in KNOBS {
            for value in VALUES {
                fails_by_name_or_injects(background, 1_000.0, &[(knob, vec![value])])
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }
}

proptest! {
    /// Two axes, each over one or two values. The base query rate is
    /// low so that two workload ceilings at once (10 s windows of
    /// 1024-way queries) still inject in well under a second.
    #[test]
    fn grid_values_fail_by_name_or_inject(
        background in 0..BACKGROUNDS.len(),
        first in 0..KNOBS.len(),
        second in 0..KNOBS.len() + 1,
        first_values in prop::collection::vec(0..VALUES.len(), 1..3),
        second_values in prop::collection::vec(0..VALUES.len(), 1..3),
    ) {
        let pick = |idx: &[usize]| idx.iter().map(|&i| VALUES[i]).collect::<Vec<_>>();
        let mut axes = vec![(KNOBS[first], pick(&first_values))];
        // Past the end of KNOBS (or a repeat of the first knob) means
        // one axis.
        if second < KNOBS.len() && second != first {
            axes.push((KNOBS[second], pick(&second_values)));
        }
        let outcome = fails_by_name_or_injects(BACKGROUNDS[background], 1.0, &axes);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// Every knob accepts a value inside its rules, and its cells bind,
/// build and inject.
#[test]
fn every_knob_binds_a_valid_value() {
    for knob in KNOBS {
        let background = match *knob {
            "bg_flow_kb" | "perm_shift" => "permutation",
            _ => "web_search",
        };
        let value = match *knob {
            "damq_reserve_frac" => "0.5",
            "oversubscription" => "2.0",
            _ => "2",
        };
        let spec = SpecScenario::new(
            spec_from_toml(&spec_text(background, 1.0, &[(knob, vec![value])]))
                .unwrap_or_else(|e| panic!("{knob}: {e}")),
        );
        let cells = spec.grid(Scale::Smoke);
        assert_eq!(cells.len(), 2, "{knob}");
        for cell in &cells {
            let sc = spec.scenario(cell);
            let mut world = sc.build();
            sc.inject(&mut world);
        }
    }
}

/// Each axis value of a cell reaches its `FabricScenario` field, the
/// tuning knobs in their scheme's units, and `alpha` the cell's own
/// scheme.
#[test]
fn cells_bind_their_axis_values() {
    let s = SpecScenario::new(
        spec_from_toml(
            r#"
name = "x"
[topology]
kind = "three_tier"
[traffic]
background = "permutation"
[schemes]
use = ["Occamy", "BShare", "DAMQ", "Crosspoint"]
[grid]
oversubscription = [4.0]
query_pct_buffer = [80]
bg_load = [0.25]
bg_flow_kb = [64]
perm_shift = [3]
duration_ms = [7]
alpha = [2.0]
bshare_delay_us = [25.0]
damq_reserve_frac = [0.25]
"#,
        )
        .unwrap(),
    );
    let cells = s.grid(Scale::Full);
    assert_eq!(cells.len(), 4);
    let sc = s.scenario(&cells[0]);
    assert_eq!(
        (sc.bm, sc.alpha, sc.crosspoint),
        (BmKind::Occamy, 2.0, None)
    );
    assert_eq!(sc.seed, cells[0].seed);
    assert_eq!(sc.oversubscription, 4.0);
    assert_eq!(sc.query_bytes, sc.buffer_per_8ports * 80 / 100);
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
    assert_eq!(sc.duration_ps, 7 * MS);
    assert_eq!(
        sc.tuning,
        BmTuning {
            bshare_delay_ns: 25_000,
            damq_reserve_permille: 250,
        }
    );
    // The α axis overrides each cell's own scheme.
    assert_eq!(s.scenario(&cells[1]).alpha, 2.0);
    let xp = s.scenario(&cells[3]);
    assert_eq!(xp.bm, BmKind::CompleteSharing);
    assert_eq!(xp.crosspoint, Some(XpSched::RoundRobin));
}
