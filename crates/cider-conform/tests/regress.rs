//! Hand-pinned regression entries under `tests/regress/` at the
//! workspace root: unlike `tests/corpus/` (which the engine owns and
//! regenerates byte-for-byte from the default seed), these are curated
//! programs that must keep replaying and bisecting identically.
//!
//! The IPC-heavy entry drives the v2 surface — an out-of-line message,
//! a ring submission, and a ring flush — before hitting the known
//! `diag` outcome divergence between the translated and the native XNU
//! personality. Time-travel bisection must walk *past* the IPC ops
//! (their state and virtual clocks agree on both sides) and land
//! exactly on the diag op.
//!
//! `cargo run --release --bin cider-report -- --regen` rewrites the
//! entry from [`corpus::div_ipc_ring`]; these tests only compare.

use std::fs;
use std::path::PathBuf;

use cider_conform::corpus;
use cider_conform::{bisect, ConfigId, CorpusEntry};

fn regress_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/regress/div_ipc_ring.conform")
}

/// The checked-in entry matches a fresh capture byte-for-byte and
/// replays green.
#[test]
fn ipc_heavy_entry_is_pinned_and_replays() {
    let text = corpus::div_ipc_ring().serialize();
    let path = regress_path();
    let want = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        text, want,
        "regress entry drifted; regenerate with `cider-report --regen`"
    );
    let parsed = CorpusEntry::parse(&want).unwrap();
    parsed.replay().unwrap_or_else(|m| panic!("{m}"));
}

/// Bisection over the IPC-heavy program is deterministic and lands on
/// the diag op — the last op, after the whole v2 IPC prefix — for the
/// xnu/xnu-native pair, while the xnu/linux pair (where every op is
/// outside the shared vocabulary) never diverges.
#[test]
fn ipc_heavy_bisection_is_deterministic() {
    let program = corpus::div_ipc_ring().program;
    let a = bisect(
        &program,
        None,
        (ConfigId::XnuTranslated, ConfigId::XnuNative),
        2,
    );
    let b = bisect(
        &program,
        None,
        (ConfigId::XnuTranslated, ConfigId::XnuNative),
        2,
    );
    assert_eq!(a.summary(), b.summary());
    assert_eq!(a.first_divergent_op, Some(5), "{}", a.summary());
    assert_eq!(a.op_line.as_deref(), Some("diag n=1"));
    assert!(!a.delta.is_empty());

    let l = bisect(
        &program,
        None,
        (ConfigId::XnuTranslated, ConfigId::Linux),
        2,
    );
    assert_eq!(l.first_divergent_op, None, "{}", l.summary());
}
