//! `cider-report` argument handling: CI runs `cider-report --regen`,
//! so a mistyped flag must fail instead of printing the report.

use std::process::Command;

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_cider-report"))
        .arg("--regn")
        .output()
        .expect("cider-report runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "printed the report: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: cider-report"), "{stderr}");
}
