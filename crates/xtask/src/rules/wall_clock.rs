//! GT-LINT-002: no wall-clock reads in library code.
//!
//! `SystemTime::now()` / `UNIX_EPOCH` make output depend on when the
//! pipeline ran. Reports must be byte-identical across runs of the same
//! seed (the determinism regression test asserts exactly that), so
//! nothing in the library crates may observe time. Benchmarks are the one
//! sanctioned consumer and `geotopo-bench` is exempt. `Instant::now()` is
//! banned by clippy's `disallowed-methods` (see `clippy.toml`); this rule
//! stays because `UNIX_EPOCH` is a constant, which that list cannot name.

use super::{Finding, Rule};
use crate::workspace::WorkspaceSrc;

/// See module docs.
#[derive(Debug)]
pub struct WallClock;

const NEEDLES: &[&str] = &["SystemTime::now(", "UNIX_EPOCH"];

/// Benchmarks legitimately measure elapsed time.
const EXEMPT_CRATES: &[&str] = &["geotopo-bench", "xtask"];

impl Rule for WallClock {
    fn id(&self) -> &'static str {
        "GT-LINT-002"
    }

    fn describe(&self) -> &'static str {
        "no wall-clock reads (SystemTime::now/UNIX_EPOCH) in library code"
    }

    fn check(&self, ws: &WorkspaceSrc) -> Vec<Finding> {
        let mut out = Vec::new();
        for krate in &ws.crates {
            if EXEMPT_CRATES.contains(&krate.name.as_str()) {
                continue;
            }
            for file in &krate.files {
                for (line, text) in file.code_lines() {
                    for needle in NEEDLES {
                        if text.contains(needle) && !file.is_allowed(line, "wall_clock") {
                            out.push(Finding {
                                file: file.path.clone(),
                                line,
                                rule: self.id(),
                                message: format!(
                                    "`{}` makes output time-dependent; library code must be \
                                     deterministic (or `// lint: allow(wall_clock)`)",
                                    needle.trim_end_matches('(')
                                ),
                            });
                            break;
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ws_of;

    #[test]
    fn flags_system_time_and_epoch() {
        let ws = ws_of(
            "geotopo-measure",
            &[(
                "crates/x/src/lib.rs",
                "fn f() { let t = std::time::SystemTime::now(); }\n\
                 fn g() { let e = std::time::UNIX_EPOCH; }\n",
            )],
        );
        let f = WallClock.check(&ws);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == "GT-LINT-002"));
    }

    #[test]
    fn bench_crate_is_exempt() {
        let ws = ws_of(
            "geotopo-bench",
            &[(
                "crates/x/src/lib.rs",
                "fn f() { let t = SystemTime::now(); }\n",
            )],
        );
        assert!(WallClock.check(&ws).is_empty());
    }

    #[test]
    fn string_mention_is_not_flagged() {
        let ws = ws_of(
            "geotopo-geo",
            &[(
                "crates/x/src/lib.rs",
                "const MSG: &str = \"SystemTime::now() banned\";\n",
            )],
        );
        assert!(WallClock.check(&ws).is_empty());
    }
}
