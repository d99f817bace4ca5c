//! Golden-snapshot tests for the evaluation tables: the rendered
//! Figure 5, Figure 6 and app-scenario output is pinned byte-for-byte
//! under `tests/golden/`. The virtual clock makes every table fully
//! deterministic, so any drift is a real behaviour change — either a
//! deliberate model change (regenerate the snapshots) or a regression.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release --bin cider-report -- --regen
//! ```

use std::fs;
use std::path::PathBuf;

fn check(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let want = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        got, want,
        "{name} drifted from its golden snapshot; if the change is \
         intended, regenerate with `cider-report --regen`"
    );
}

#[test]
fn fig5_table_matches_golden() {
    check("fig5.txt", &cider_bench::fig5::run().to_string());
}

#[test]
fn fig6_table_matches_golden() {
    check("fig6.txt", &cider_bench::fig6::run().to_string());
}

#[test]
fn app_scenario_table_matches_golden() {
    check("fig_apps.txt", &cider_bench::apps::run().to_string());
}
