//! Runs clippy on the seeded fixture under `tests/fixtures/clippy` and
//! asserts exactly which `(line, lint)` pairs it reports. This pins what
//! the repository's lint configuration bans: `clippy.toml`'s
//! `disallowed-methods`/`disallowed-types` and the lint levels of
//! `[workspace.lints.clippy]` in the root `Cargo.toml`. The fixture is its
//! own workspace, so the root's lint levels are passed on the command
//! line; `clippy.toml` is found by clippy's own upward search.
//!
//! Needs the clippy component. Without it the test fails rather than
//! skips: a missing tool must not read as a passing ban.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every report the fixture must produce: `(line, lint, case)`.
const EXPECTED: &[(u64, &str, &str)] = &[
    (6, "disallowed_types", "use of BinaryHeap"),
    (16, "disallowed_methods", "std::thread::spawn"),
    (19, "disallowed_methods", "imported spawn"),
    (22, "disallowed_methods", "std::thread::scope"),
    (25, "disallowed_methods", "imported scope"),
    (28, "disallowed_methods", "std::thread::Builder::new"),
    (31, "disallowed_methods", "imported Builder::new"),
    (36, "disallowed_methods", "std::time::Instant::now"),
    (39, "disallowed_methods", "imported Instant::now"),
    (44, "disallowed_methods", "std::fs::write"),
    (47, "disallowed_methods", "imported write"),
    (50, "disallowed_methods", "write imported `as put`"),
    (53, "disallowed_methods", "std::fs::rename"),
    (56, "disallowed_methods", "imported rename"),
    (59, "disallowed_methods", "std::fs::File::create"),
    (62, "disallowed_methods", "imported File::create"),
    (69, "disallowed_types", "BinaryHeap in a signature"),
    (73, "disallowed_types", "std::collections::BinaryHeap::new"),
    (78, "todo", "todo!"),
    (81, "unimplemented", "unimplemented!"),
    (84, "dbg_macro", "dbg! outside tests"),
    (
        122,
        "disallowed_methods",
        "another lint's allow waives nothing",
    ),
    (134, "disallowed_methods", "bans apply in test code too"),
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

/// `--warn=clippy::<name>`-style flags for each entry of the root
/// manifest's `[workspace.lints.clippy]` table.
fn workspace_clippy_flags(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[workspace.lints.clippy]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let (name, level) = l.split_once('=')?;
            let level = level.trim().trim_matches('"');
            Some(format!("--{level}=clippy::{}", name.trim()))
        })
        .collect()
}

fn cargo() -> Command {
    Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
}

fn assert_clippy_installed() {
    let ok = cargo()
        .args(["clippy", "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    assert!(
        ok,
        "`cargo clippy` is not available; install it with \
         `rustup component add clippy` (this test checks the repository's \
         clippy bans and cannot pass without clippy)"
    );
}

/// `(line, lint)` of every coded diagnostic in cargo's JSON messages,
/// at warning or error level (CI runs with `RUSTFLAGS=-D warnings`).
fn reported(json_lines: &str) -> BTreeSet<(u64, String)> {
    let mut out = BTreeSet::new();
    for msg in json_lines
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
    {
        let Some(diag) = msg.get("message") else {
            continue;
        };
        let level = diag.get("level").and_then(Value::as_str);
        let code = diag
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Value::as_str);
        let (Some("warning" | "error"), Some(code)) = (level, code) else {
            continue;
        };
        let spans = diag.get("spans").and_then(Value::as_array);
        for span in spans.into_iter().flatten() {
            if span.get("is_primary").and_then(Value::as_bool) == Some(true) {
                if let Some(line) = span.get("line_start").and_then(Value::as_u64) {
                    out.insert((line, code.trim_start_matches("clippy::").to_string()));
                }
            }
        }
    }
    out
}

#[test]
fn clippy_config_bans_every_seeded_case() {
    assert_clippy_installed();
    let manifest =
        std::fs::read_to_string(repo_root().join("Cargo.toml")).expect("read Cargo.toml");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy");
    let out = cargo()
        .current_dir(&fixture)
        .env_remove("CLIPPY_CONF_DIR")
        .args(["clippy", "--offline", "--all-targets", "--keep-going"])
        .args(["--message-format", "json", "--target-dir"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixture"))
        .arg("--")
        .args(workspace_clippy_flags(&manifest))
        .output()
        .expect("spawn cargo clippy");
    let got = reported(&String::from_utf8_lossy(&out.stdout));
    let want: BTreeSet<(u64, String)> = EXPECTED
        .iter()
        .map(|&(line, lint, _)| (line, lint.to_string()))
        .collect();
    let case = |line: u64| EXPECTED.iter().find(|e| e.0 == line).map_or("", |e| e.2);
    let missing: Vec<_> = want
        .difference(&got)
        .map(|(l, n)| format!("src/lib.rs:{l} {n} ({})", case(*l)))
        .collect();
    let extra: Vec<_> = got
        .difference(&want)
        .map(|(l, n)| format!("src/lib.rs:{l} {n}"))
        .collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "clippy bans drifted from the fixture\nnot reported: {missing:#?}\nunexpected: {extra:#?}\n\
         cargo stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
