//! End-to-end tests of the declarative-spec pipeline over the shipped
//! `specs/` examples: every spec parses, compiles, re-emits and
//! round-trips; spec runs are deterministic; and the `fig17_repro.toml`
//! spec reproduces the registry scenario's tables **bit for bit** —
//! the acceptance bar for `--spec` being a first-class front-end to the
//! scenario machinery.

use occamy_bench::registry::find_scenario;
use occamy_bench::runner::execute;
use occamy_bench::scenario::{Scale, Scenario};
use occamy_bench::spec_scenario::SpecScenario;
use std::path::PathBuf;

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .canonicalize()
        .expect("specs/ directory exists")
}

fn shipped_specs() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(specs_dir())
        .expect("read specs/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml" || e == "json"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 3,
        "expected ≥ 3 example specs, found {files:?}"
    );
    files
}

#[test]
fn every_shipped_spec_parses_compiles_and_round_trips() {
    for path in shipped_specs() {
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = occamy_spec::spec_from_file_text(path.to_str().unwrap(), &text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // parse → re-emit → parse must be the identity.
        let reparsed = occamy_spec::spec_from_toml(&doc.to_toml())
            .unwrap_or_else(|e| panic!("{}: re-emitted spec invalid: {e}", path.display()));
        assert_eq!(
            doc,
            reparsed,
            "{}: round trip changed the spec",
            path.display()
        );
        // …and the compiled scenario must produce sane grids at every
        // scale (non-empty, deterministic seeds, scheme axis last).
        let scenario = SpecScenario::new(doc);
        for scale in [Scale::Full, Scale::Quick, Scale::Smoke] {
            let a = scenario.grid(scale);
            let b = scenario.grid(scale);
            assert!(!a.is_empty(), "{}: empty grid", path.display());
            assert_eq!(a.len(), b.len());
            for (ca, cb) in a.iter().zip(&b) {
                assert_eq!(ca.seed, cb.seed, "{}: seeds unstable", path.display());
                assert!(
                    ca.get("scheme").is_some(),
                    "{}: no scheme axis",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn spec_loader_gives_named_suggestions_not_panics() {
    let dir = std::env::temp_dir().join("occamy_spec_errors");
    std::fs::create_dir_all(&dir).unwrap();
    for (file, content, expect) in [
        (
            "topo.toml",
            "name = \"x\"\n[topology]\nkind = \"leaf_spin\"\n",
            "did you mean 'leaf_spine'?",
        ),
        (
            "scheme.toml",
            "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[schemes]\nuse = [\"Pushuot\"]\n",
            "did you mean 'Pushout'?",
        ),
        (
            "traffic.toml",
            "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[traffic]\nbackground = \"web_serach\"\n",
            "did you mean 'web_search'?",
        ),
        (
            "knob.toml",
            "name = \"x\"\n[topology]\nkind = \"fat_tree\"\n[grid]\nquery_pct_bufer = [10]\n",
            "did you mean 'query_pct_buffer'?",
        ),
        (
            "key.toml",
            "name = \"x\"\n[topology]\nkind = \"fat_tree\"\nhost_rate_gpbs = 10.0\n",
            "did you mean 'host_rate_gbps'?",
        ),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, content).unwrap();
        let err = SpecScenario::load(path.to_str().unwrap())
            .err()
            .unwrap_or_else(|| panic!("{file}: bad spec loaded successfully"));
        assert!(err.contains(expect), "{file}: error lacks suggestion: {err}");
    }
}

#[test]
fn spec_runs_are_deterministic() {
    let path = specs_dir().join("smoke.toml");
    let scenario = SpecScenario::load(path.to_str().unwrap()).unwrap();
    let render = || {
        let (runs, _) = execute(&[scenario], Scale::Smoke, true);
        let mut s = String::new();
        for o in &runs[0].outcomes {
            s.push_str(&format!(
                "cell {} [{}] -> {}\n",
                o.spec.index,
                o.spec.label(),
                o.result.to_json().render()
            ));
        }
        for (t, _) in runs[0].report.tables() {
            s.push_str(&t.render());
        }
        s
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "spec run not byte-identical on repeat");
    assert!(
        a.contains("\"events\""),
        "cells must count simulator events"
    );
}

/// The acceptance bar: a spec recreating a registry scenario's
/// grid reproduces its tables bit for bit.
#[test]
fn fig17_repro_spec_matches_registry_tables_bit_for_bit() {
    let path = specs_dir().join("fig17_repro.toml");
    let spec = SpecScenario::load(path.to_str().unwrap()).unwrap();
    let fig17 = find_scenario("fig17").expect("fig17 registered");

    // Same grid: labels and seeds agree cell by cell.
    let sg = spec.grid(Scale::Smoke);
    let fg = fig17.grid(Scale::Smoke);
    assert_eq!(sg.len(), fg.len());
    for (a, b) in sg.iter().zip(&fg) {
        assert_eq!(a.seed, b.seed, "cell {} seed", a.index);
        assert_eq!(a.label(), b.label(), "cell {} label", a.index);
    }

    let (runs, _) = execute(&[spec as &dyn Scenario, fig17], Scale::Smoke, true);
    let (spec_run, fig_run) = (&runs[0], &runs[1]);

    // Cell metrics agree exactly.
    for (a, b) in spec_run.outcomes.iter().zip(&fig_run.outcomes) {
        assert_eq!(
            a.result.to_json().render(),
            b.result.to_json().render(),
            "cell {} metrics diverge",
            a.spec.index
        );
    }

    // And the four emitted tables are byte-identical.
    let spec_tables = spec_run.report.tables();
    let fig_tables = fig_run.report.tables();
    assert_eq!(spec_tables.len(), 4);
    assert_eq!(fig_tables.len(), 4);
    for ((st, _), (ft, _)) in spec_tables.iter().zip(fig_tables) {
        assert_eq!(
            st.render(),
            ft.render(),
            "spec table differs from registry table"
        );
    }
}
