//! `run` and `all` name every output after its scenario, so two
//! selected scenarios with one name would overwrite each other's
//! report. The binary must refuse such a selection with exit 2, naming
//! the scenario, before any cell starts or any file is written.

use std::path::PathBuf;

#[test]
fn two_selected_scenarios_with_one_name_are_refused() {
    let dir = std::env::temp_dir().join(format!("occamy_duplicate_names_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // `specs/smoke.toml` renamed after a registry scenario.
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let smoke = std::fs::read_to_string(repo.join("specs/smoke.toml")).unwrap();
    assert!(smoke.contains("name = \"spec_smoke\""));
    let spec = dir.join("fig12.toml");
    std::fs::write(
        &spec,
        smoke.replace("name = \"spec_smoke\"", "name = \"fig12\""),
    )
    .unwrap();
    let spec = spec.to_str().unwrap();

    for args in [
        vec!["run", "fig12", "--spec", spec, "--smoke", "--serial"],
        vec!["all", "--spec", spec, "--smoke", "--serial"],
        vec!["run", "fig12", "fig12", "--smoke", "--serial"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_occamy-bench"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("occamy-bench spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("named 'fig12'"), "{args:?}: {stderr}");
        assert!(!stderr.contains("cell start"), "{args:?}: a cell started");
        let written: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with("BENCH_") || f == "results")
            .collect();
        assert!(written.is_empty(), "{args:?}: outputs written: {written:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
