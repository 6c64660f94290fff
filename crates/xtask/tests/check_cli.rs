//! End-to-end test of the `cargo xtask check` binary: the seeded
//! violation fixture under `tests/fixtures/violations` must produce a
//! non-zero exit, a `file:line: [RULE]` diagnostic for every rule in the
//! catalog, and `--rule` filtering must isolate a single rule.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

const ALL_RULES: &[&str] = &[
    "GT-LINT-001",
    "GT-LINT-002",
    "GT-LINT-003",
    "GT-LINT-004",
    "GT-LINT-005",
    "GT-LINT-006",
    "GT-LINT-009",
];

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations")
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

fn run_check(extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("check")
        .arg("--root")
        .arg(fixture_root())
        .args(extra)
        .output()
        .expect("spawn xtask");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

#[test]
fn seeded_fixture_trips_every_rule_with_file_line_diagnostics() {
    let (code, stdout) = run_check(&[]);
    assert_eq!(code, 1, "violations must exit 1; output:\n{stdout}");
    for rule in ALL_RULES {
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "missing {rule} in output:\n{stdout}"
        );
    }
    // Diagnostics carry a real file:line location.
    assert!(
        stdout.contains("crates/bad-geo/src/lib.rs:11: [GT-LINT-001]"),
        "thread_rng site not located:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/bad-geo/Cargo.toml:10: [GT-LINT-006]"),
        "layering edge not located at its manifest line:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/core/src/engine/faulty.rs:5: [GT-LINT-009]"),
        "supervised-path unwrap not located:\n{stdout}"
    );
}

#[test]
fn rule_filter_isolates_one_rule() {
    let (code, stdout) = run_check(&["--rule", "GT-LINT-004"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("[GT-LINT-004]"));
    for rule in ALL_RULES.iter().filter(|r| **r != "GT-LINT-004") {
        assert!(
            !stdout.contains(&format!("[{rule}]")),
            "{rule} leaked past the filter:\n{stdout}"
        );
    }
}

#[test]
fn unknown_rule_is_a_usage_error() {
    let (code, _) = run_check(&["--rule", "GT-LINT-999"]);
    assert_eq!(code, 2);
}

#[test]
fn list_prints_catalog_and_exits_zero() {
    let (code, stdout) = run_check(&["--list"]);
    assert_eq!(code, 0);
    let listed: BTreeSet<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        listed,
        ALL_RULES.iter().copied().collect(),
        "--list output:\n{stdout}"
    );
    // DESIGN.md's lint table documents exactly the rules `--list` prints,
    // so a deleted rule cannot leave a stale row behind.
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("read DESIGN.md");
    let documented: BTreeSet<&str> = design
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|rest| rest.split('`').next())
        .filter(|id| id.starts_with("GT-LINT-"))
        .collect();
    assert_eq!(
        documented, listed,
        "DESIGN.md's lint table disagrees with --list"
    );
}

#[test]
fn real_workspace_is_clean() {
    // The repo itself must pass its own lint pass (CI gates on this).
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("check")
        .arg("--root")
        .arg(repo_root())
        .output()
        .expect("spawn xtask");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "repo lint pass not clean:\n{stdout}"
    );
}
