//! Fixture-tree integration tests: the good tree is clean, the bad tree
//! produces exactly the expected `(file, line, rule)` findings, and the
//! CLI wires findings to exit codes.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

#[test]
fn good_tree_is_clean() {
    let findings = snapshot_lint::run(&fixture("tree_good")).unwrap();
    assert!(findings.is_empty(), "unexpected findings: {findings:#?}");
}

#[test]
fn bad_tree_reports_every_rule_at_the_right_line() {
    let findings = snapshot_lint::run(&fixture("tree_bad")).unwrap();
    let got: Vec<(&str, u32, &str)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    let want: Vec<(&str, u32, &str)> = vec![
        // README cites a metric nothing registers.
        ("README.md", 3, "metric_hygiene"),
        // A normalisation kernel whose run walk never polls the check.
        ("crates/engine/src/coalesce.rs", 5, "cancellation"),
        // A `for` loop that never reaches the cancel token, and one whose
        // only call is the infallible sweep kernel (which cannot poll it).
        ("crates/engine/src/exec.rs", 5, "cancellation"),
        ("crates/engine/src/exec.rs", 12, "cancellation"),
        // Not snake_case; unknown prefix; uncataloged; kind clash;
        // non-literal name.
        ("crates/session/src/session.rs", 11, "metric_hygiene"),
        ("crates/session/src/session.rs", 12, "metric_hygiene"),
        ("crates/session/src/session.rs", 13, "metric_hygiene"),
        ("crates/session/src/session.rs", 14, "metric_hygiene"),
        ("crates/session/src/session.rs", 15, "metric_hygiene"),
        // `.unwrap()` in the recovery driver.
        ("crates/session/src/shared.rs", 4, "panic_freedom"),
        // A raw `Mutex` field; a constructor naming no row of the table;
        // a second constructor for a row that already has one.
        ("crates/txn/src/manager.rs", 8, "lock_order"),
        ("crates/txn/src/manager.rs", 16, "lock_order"),
        ("crates/txn/src/manager.rs", 21, "lock_order"),
        // unwrap, expect, panic!, indexing — the allowed `bytes[0]` at
        // line 14 must NOT appear (suppression works).
        ("crates/wal/src/codec.rs", 4, "panic_freedom"),
        ("crates/wal/src/codec.rs", 5, "panic_freedom"),
        ("crates/wal/src/codec.rs", 7, "panic_freedom"),
        ("crates/wal/src/codec.rs", 9, "panic_freedom"),
        // A declared lock nothing constructs (the stale-row direction).
        ("docs/lock_order.md", 6, "lock_order"),
        // Cataloged-but-unregistered: flagged by the catalog check and by
        // the citation check (the catalog is itself a doc).
        ("docs/metrics.md", 8, "metric_hygiene"),
        ("docs/metrics.md", 8, "metric_hygiene"),
    ];
    assert_eq!(got, want);
}

#[test]
fn cli_exit_codes_and_output_formats() {
    let bin = env!("CARGO_BIN_EXE_snapshot_lint");
    let out = Command::new(bin)
        .arg("--root")
        .arg(fixture("tree_bad"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "findings exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/wal/src/codec.rs:4: [panic_freedom]"),
        "human output carries file:line: {stdout}"
    );

    let out = Command::new(bin)
        .arg("--root")
        .arg(fixture("tree_good"))
        .arg("--json")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "clean tree exits 0");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[]");

    let out = Command::new(bin)
        .arg("--root")
        .arg(fixture("tree_bad"))
        .arg("--json")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"rule\":\"panic_freedom\""));
    assert!(json.contains("\"line\":4"));
}
