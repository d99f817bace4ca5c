//! Tier-1 integration for the differential conformance engine: the
//! fixed default seed must generate its full program batch
//! deterministically, the checked-in regression corpus must replay
//! byte-for-byte, and regenerating the corpus from the same seed must
//! reproduce exactly the files under `tests/corpus/`.

use std::fs;
use std::path::PathBuf;

use cider_conform::engine::{run_engine, EngineConfig};
use cider_conform::CorpusEntry;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "conform"))
        .collect();
    paths.sort();
    paths
}

/// Every checked-in corpus entry parses and replays green, standalone
/// from the generator.
#[test]
fn checked_in_corpus_replays_green() {
    let files = corpus_files();
    assert!(
        files.len() >= 10,
        "corpus has only {} entries, need at least 10",
        files.len()
    );
    for path in &files {
        let text = fs::read_to_string(path).unwrap();
        let entry = CorpusEntry::parse(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            path.file_stem().and_then(|s| s.to_str()),
            Some(entry.name.as_str()),
            "file name and entry name disagree"
        );
        entry.replay().unwrap_or_else(|m| panic!("{m}"));
    }
}

/// The default seed runs its full 200-program batch, agrees with the
/// domestic personality on every dimension, and regenerates the
/// checked-in corpus byte-for-byte — determinism across processes and
/// checkouts, not merely within one run.
#[test]
fn default_seed_regenerates_the_checked_in_corpus() {
    let cfg = EngineConfig::default();
    let report = run_engine(&cfg);
    assert!(report.programs_run >= 200, "{}", report.programs_run);
    assert!(report.total_ops > report.programs_run);

    // The translated persona must be indistinguishable from native
    // Linux wherever a domestic equivalent exists.
    for (pair, dim, compared, diverged) in report.matrix.rows() {
        if pair == "xnu vs linux" {
            assert_eq!(
                diverged,
                0,
                "{pair} diverged on {} ({compared} comparisons)",
                dim.label()
            );
        }
    }
    assert!(report.matrix.total_comparisons() > 1000);

    let files = corpus_files();
    assert_eq!(
        report.corpus.len(),
        files.len(),
        "engine produced a different corpus size than checked in"
    );
    for entry in &report.corpus {
        let path = corpus_dir().join(format!("{}.conform", entry.name));
        let want = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            entry.serialize(),
            want,
            "{} drifted from the checked-in corpus; regenerate with \
             `cargo run --release --bin cider-report -- --regen`",
            entry.name
        );
    }
}

/// Two engine runs under one seed are byte-identical in both report
/// and corpus (in-process determinism on a small batch).
#[test]
fn same_seed_is_byte_identical() {
    let cfg = EngineConfig {
        programs: 24,
        ..EngineConfig::default()
    };
    let a = run_engine(&cfg);
    let b = run_engine(&cfg);
    assert_eq!(a.render(cfg.seed), b.render(cfg.seed));
    let sa: Vec<String> = a.corpus.iter().map(|e| e.serialize()).collect();
    let sb: Vec<String> = b.corpus.iter().map(|e| e.serialize()).collect();
    assert_eq!(sa, sb);
}
