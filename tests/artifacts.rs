//! The artifact registry is complete: every checked-in golden, corpus
//! and regression file and every root `BENCH_*.json` belongs to a
//! registry entry, so `cider-report --regen` regenerates it, and
//! every registry path exists. Renders nothing.

use std::fs;

use cider_suite::artifacts::{root, ARTIFACTS};

/// Paths relative to the repository root of the entries of `dir`.
fn entries(dir: &str) -> Vec<String> {
    let names = fs::read_dir(root().join(dir)).expect("directory exists");
    names
        .map(|e| e.expect("readable entry").file_name())
        .map(|name| format!("{dir}/{}", name.to_string_lossy()))
        .collect()
}

#[test]
fn every_checked_in_artifact_is_registered() {
    let mut files: Vec<String> =
        ["tests/golden", "tests/corpus", "tests/regress"]
            .into_iter()
            .flat_map(entries)
            .collect();
    files.extend(entries(".").into_iter().filter_map(|path| {
        let name = path.strip_prefix("./")?;
        (name.starts_with("BENCH_") && name.ends_with(".json"))
            .then(|| name.to_string())
    }));
    assert!(files.len() > 10, "{files:?}");
    for file in &files {
        assert!(
            ARTIFACTS.iter().any(|a| a.owns(file)),
            "{file} is checked in but not in the artifact registry"
        );
    }
}

#[test]
fn every_registry_path_exists() {
    for artifact in ARTIFACTS {
        assert!(
            root().join(artifact.path).exists(),
            "{} is registered but missing",
            artifact.path
        );
    }
}
