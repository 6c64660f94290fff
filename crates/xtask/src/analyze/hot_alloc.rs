//! GT-AN-002: no allocation reachable from a registered hot-path root.
//!
//! PR 5 made the measurement kernels allocation-free (CSR topology,
//! bucket-queue routing, `TraceBuf` reuse); this rule keeps them that
//! way as the code grows. Roots opt in with `// analyze: hot-path-root`
//! on the fn header (or the line above) — the marker *is* the registry,
//! so the rule and the code cannot drift apart.
//!
//! Allocation sites: `vec!` / `format!` macros; `Vec::new`-style
//! constructors on the std collection types; `.collect()`, `.to_vec()`,
//! `.to_owned()`, `.to_string()` adaptors; and `.push(..)` on a local
//! that was freshly constructed in the same body (pushing into a
//! caller-provided buffer is fine — that is the whole point of the
//! `*_into` APIs). Waive a deliberate allocation with
//! `// analyze: allow(alloc)` plus a comment saying why it is not per-op
//! (e.g. output arrays owned by the returned value).

use super::AnalyzeRule;
use crate::graph::{CallKind, Model};
use crate::lexer::{Token, TokenKind};
use crate::rules::Finding;

/// See module docs.
#[derive(Debug)]
pub struct HotAlloc;

/// Std types whose constructors allocate (or may, for `with_capacity`).
const ALLOC_TYPES: &[&str] = &[
    "Vec", "Box", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque",
];

/// Constructor names counted as allocating on [`ALLOC_TYPES`].
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// Method adaptors that allocate their result.
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_owned", "to_string"];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

impl AnalyzeRule for HotAlloc {
    fn id(&self) -> &'static str {
        "GT-AN-002"
    }

    fn describe(&self) -> &'static str {
        "no allocation reachable from a `// analyze: hot-path-root` fn"
    }

    fn explain(&self) -> &'static str {
        "GT-AN-002 allocation-in-hot-path\n\
         \n\
         The measurement hot path (routing solves, traceroute emission, prefix\n\
         lookups, CSR neighbor scans) runs millions of times per campaign; a\n\
         single `Vec::new()` per probe regresses the whole pipeline. This rule\n\
         walks the call graph from every registered hot-path root and reports\n\
         any reachable allocation.\n\
         \n\
         Roots: fns carrying `// analyze: hot-path-root` on their header line\n\
         or the line directly above (past attributes/docs). The marker is the\n\
         registry — adding a kernel means adding a marker.\n\
         \n\
         Allocation sites:\n\
           - `vec!` and `format!` macros\n\
           - `Vec`/`Box`/`String`/`HashMap`/`HashSet`/`BTreeMap`/`BTreeSet`/\n\
             `VecDeque` `::new` / `::with_capacity` / `::from`\n\
           - `.collect()`, `.to_vec()`, `.to_owned()`, `.to_string()`\n\
           - `.push(..)` on a local freshly constructed in the same body\n\
             (pushing into caller-provided buffers is allowed by design)\n\
         \n\
         Each finding carries a witness call path from a root. Waiving: add\n\
         `// analyze: allow(alloc)` on the site line, the line above, or the\n\
         enclosing fn header, with a comment saying why the allocation is\n\
         amortized (e.g. output arrays owned by the returned oracle)."
    }

    fn check(&self, model: &Model<'_>) -> Vec<Finding> {
        let mut roots = Vec::new();
        for (i, f) in model.fns.iter().enumerate() {
            if !f.is_test && model.file(f.file).hot_path_roots.contains(&f.line) {
                roots.push(i as u32);
            }
        }
        let parents = model.reachable(&roots);
        let mut out = Vec::new();
        for (i, f) in model.fns.iter().enumerate() {
            if parents[i].is_none() {
                continue;
            }
            let sf = model.file(f.file);
            let witness = || model.witness_path(&parents, i as u32);
            for m in &f.macros {
                if !ALLOC_MACROS.contains(&m.name.as_str()) || sf.is_allowed(m.line, "alloc") {
                    continue;
                }
                out.push(Finding {
                    file: sf.path.clone(),
                    line: m.line,
                    rule: self.id(),
                    message: format!("`{}!` allocates on hot path via {}", m.name, witness()),
                });
            }
            let mut fresh_locals: Option<Vec<String>> = None;
            for call in &f.calls {
                let flagged = match &call.kind {
                    CallKind::Qualified(q) => {
                        ALLOC_TYPES.contains(&q.as_str())
                            && ALLOC_CTORS.contains(&call.name.as_str())
                    }
                    CallKind::Method { .. } if ALLOC_METHODS.contains(&call.name.as_str()) => true,
                    CallKind::Method { on_self: false } if call.name == "push" => {
                        // Only `push` on a local constructed in this body.
                        let locals = fresh_locals.get_or_insert_with(|| match f.body {
                            Some((s, e)) => fresh_local_names(&sf.raw, &sf.tree.tokens[s..e]),
                            None => Vec::new(),
                        });
                        push_receiver_is_fresh(&sf.raw, &sf.tree.tokens, f.body, call.line, locals)
                    }
                    _ => false,
                };
                if !flagged || sf.is_allowed(call.line, "alloc") {
                    continue;
                }
                let what = match &call.kind {
                    CallKind::Qualified(q) => format!("`{}::{}`", q, call.name),
                    _ => format!("`.{}()`", call.name),
                };
                out.push(Finding {
                    file: sf.path.clone(),
                    line: call.line,
                    rule: self.id(),
                    message: format!("{what} allocates on hot path via {}", witness()),
                });
            }
        }
        out
    }
}

/// Names of locals bound to an allocating constructor in this body:
/// `let buf = Vec::new()`, `let mut s = String::with_capacity(n)`, ...
fn fresh_local_names(src: &str, toks: &[Token]) -> Vec<String> {
    let text = |t: &Token| t.text(src);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident || text(&toks[i]) != "let" {
            continue;
        }
        // `let [mut] NAME = Type::ctor` / `= vec!`
        let mut j = i + 1;
        if toks
            .get(j)
            .is_some_and(|t| t.kind == TokenKind::Ident && text(t) == "mut")
        {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        // Skip an optional `: Type` annotation up to the `=`.
        let mut k = j + 1;
        while k < toks.len() && !toks[k].is_punct(b'=') && !toks[k].is_punct(b';') {
            k += 1;
        }
        if !toks.get(k).is_some_and(|t| t.is_punct(b'=')) {
            continue;
        }
        let rhs = toks.get(k + 1);
        let allocating = match rhs {
            Some(t) if t.kind == TokenKind::Ident => {
                let s = text(t);
                ALLOC_TYPES.contains(&s)
                    || (s == "vec" && toks.get(k + 2).is_some_and(|n| n.is_punct(b'!')))
            }
            _ => false,
        };
        if allocating {
            out.push(text(name_tok).to_string());
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Whether a `.push(` call at `line` has a fresh-local receiver:
/// tokens `NAME . push (` with `NAME` in `locals`.
fn push_receiver_is_fresh(
    src: &str,
    toks: &[Token],
    body: Option<(usize, usize)>,
    line: usize,
    locals: &[String],
) -> bool {
    let Some((s, e)) = body else { return false };
    let toks = &toks[s..e];
    for i in 2..toks.len() {
        let t = &toks[i];
        if t.line != line || t.kind != TokenKind::Ident || t.text(src) != "push" {
            continue;
        }
        if !toks[i - 1].is_punct(b'.') {
            continue;
        }
        let recv = &toks[i - 2];
        if recv.kind == TokenKind::Ident
            && locals.iter().any(|l| l == recv.text(src))
            // `x.buf.push(..)` — receiver is a field, not the local.
            && (i < 4 || !toks[i - 3].is_punct(b'.'))
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Model;
    use crate::rules::ws_of;

    #[test]
    fn alloc_behind_helper_flagged_from_root() {
        let ws = ws_of(
            "geotopo-measure",
            &[(
                "crates/measure/src/lib.rs",
                "// analyze: hot-path-root\npub fn lookup(&self) { helper(); }\nfn helper() { let v: Vec<u32> = Vec::new(); let _ = v; }\n",
            )],
        );
        let model = Model::build(&ws);
        let f = HotAlloc.check(&model);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("`Vec::new`"));
        assert!(f[0].message.contains("lookup -> helper"));
    }

    #[test]
    fn unmarked_fns_are_not_roots() {
        let ws = ws_of(
            "geotopo-measure",
            &[(
                "crates/measure/src/lib.rs",
                "pub fn cold() { let _ = vec![1]; }\n",
            )],
        );
        let model = Model::build(&ws);
        assert!(HotAlloc.check(&model).is_empty());
    }

    #[test]
    fn push_into_caller_buffer_is_fine_fresh_local_is_not() {
        let ws = ws_of(
            "geotopo-measure",
            &[(
                "crates/measure/src/lib.rs",
                "// analyze: hot-path-root\nfn walk_into(out: &mut Vec<u32>) {\n    out.push(1);\n    let mut tmp = Vec::new();\n    tmp.push(2);\n}\n",
            )],
        );
        let model = Model::build(&ws);
        let f = HotAlloc.check(&model);
        // `Vec::new` and `tmp.push` flagged; `out.push` into the caller's
        // buffer is not.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.line != 3));
        assert!(f
            .iter()
            .any(|f| f.line == 5 && f.message.contains("`.push()`")));
    }

    #[test]
    fn collect_and_format_flagged() {
        let ws = ws_of(
            "geotopo-measure",
            &[(
                "crates/measure/src/lib.rs",
                "// analyze: hot-path-root\nfn solve() {\n    let v: Vec<u32> = it.collect();\n    let s = format!(\"x\");\n}\n",
            )],
        );
        let model = Model::build(&ws);
        let f = HotAlloc.check(&model);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn allow_alloc_waives_site() {
        let ws = ws_of(
            "geotopo-measure",
            &[(
                "crates/measure/src/lib.rs",
                "// analyze: hot-path-root\nfn solve() {\n    // analyze: allow(alloc): output arrays owned by the returned oracle\n    let dist = vec![0u32; n];\n}\n",
            )],
        );
        let model = Model::build(&ws);
        assert!(HotAlloc.check(&model).is_empty());
    }
}
