//! The lint rule catalog.
//!
//! Every rule is a standalone module implementing [`Rule`]. Rules see the
//! whole [`WorkspaceSrc`] so crate-scoped and cross-crate rules use the
//! same interface. IDs are stable (`GT-LINT-001`...) and documented in
//! `DESIGN.md`; diagnostics print as `file:line: [ID] message` so editors
//! and CI logs can jump to the site. Bans that clippy can enforce by
//! resolved path live in `clippy.toml` instead; the IDs of the rules they
//! replaced (007, 008, 010, 011, 012) are retired, not reused.

pub mod float_eq;
pub mod layering;
pub mod missing_debug;
pub mod nondeterminism;
pub mod supervised_paths;
pub mod unwrap;
pub mod wall_clock;

use crate::workspace::WorkspaceSrc;
use std::fmt;
use std::path::PathBuf;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule ID (`GT-LINT-00x`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A source-level lint rule.
pub trait Rule {
    /// Stable rule identifier (`GT-LINT-00x`).
    fn id(&self) -> &'static str;
    /// One-line description for `xtask check --list`.
    fn describe(&self) -> &'static str;
    /// Runs the rule over the workspace.
    fn check(&self, ws: &WorkspaceSrc) -> Vec<Finding>;
}

/// All rules, in ID order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(nondeterminism::NonDeterminism),
        Box::new(wall_clock::WallClock),
        Box::new(unwrap::NoUnwrap),
        Box::new(float_eq::FloatEq),
        Box::new(missing_debug::MissingDebug),
        Box::new(layering::Layering),
        Box::new(supervised_paths::SupervisedPaths),
    ]
}

/// Runs `rules` over `ws`, returning findings sorted by file/line/rule.
pub fn run(rules: &[Box<dyn Rule>], ws: &WorkspaceSrc) -> Vec<Finding> {
    let mut findings: Vec<Finding> = rules.iter().flat_map(|r| r.check(ws)).collect();
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Test helper: wraps inline snippets into a single-crate workspace.
#[cfg(test)]
pub fn ws_of(crate_name: &str, files: &[(&str, &str)]) -> WorkspaceSrc {
    use crate::source::SourceFile;
    use crate::workspace::CrateSrc;
    WorkspaceSrc {
        crates: vec![CrateSrc {
            name: crate_name.to_string(),
            dir: PathBuf::from("crates/x"),
            manifest: format!("[package]\nname = \"{crate_name}\"\n"),
            manifest_path: PathBuf::from("crates/x/Cargo.toml"),
            files: files
                .iter()
                .map(|(p, s)| SourceFile::from_str(p, s))
                .collect(),
            ref_files: Vec::new(),
        }],
    }
}
