//! `unused-export`: a `pub`/`pub(crate)` item under `crates/*/src` that
//! nothing but its own tests reaches. Rustc's dead-code lint stops at
//! `pub` and at the crate boundary; this rule looks across the whole
//! workspace, so an export stays only while production code — another
//! crate, a binary, `src/`, `examples/`, `bench_e2e/src` — names it.
//!
//! Like the call graph it is name-level: an item is *reached* when its
//! bare name occurs as an identifier on a non-test line outside
//!
//! * the item itself (for a type: its declaration and every `impl`
//!   block whose header names it),
//! * `pub use` re-export lines, and
//! * the items already found unreached — so a helper called only from
//!   a dead method is dead too (iterated to a fixpoint).
//!
//! Items kept on purpose — reference implementations tests compare
//! against, advertised extension points — carry
//! `// xlint::allow(unused-export): <why>` and count as reached, with
//! everything they call. Whole test-support modules (fault-injecting
//! fakes, the model checker, corpus generators) are listed in
//! `Config::unused_export_exempt` instead.
//!
//! **Blind spot:** names are not resolved. A dead `load` is hidden by
//! any `x.load(Ordering::Relaxed)`, a dead `get` by every map lookup;
//! the rule only ever errs towards silence.

use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::model::{ItemDef, Span, WorkspaceModel};
use std::collections::HashMap;

pub const RULE: &str = "unused-export";

fn any_contains(spans: &[Span], file: usize, tok: usize) -> bool {
    spans.iter().any(|s| s.contains(file, tok))
}

pub fn check(model: &WorkspaceModel, config: &Config, out: &mut Vec<Finding>) {
    // Items the rule may report: declared in production lines of a
    // crate's `src/`, outside the test-support modules, not allowed.
    let candidate = |item: &ItemDef| {
        let file = &model.files[item.span.file];
        file.path.starts_with("crates/")
            && file.path.contains("/src/")
            && !Config::in_scope(&file.path, &config.unused_export_exempt)
            && !file.is_test_line(item.line)
            && !file.is_suppressed(RULE, item.line)
    };
    let items: Vec<&ItemDef> = model.items.iter().filter(|i| candidate(i)).collect();
    let own: Vec<Vec<Span>> = items
        .iter()
        .map(|item| {
            let impls = model
                .impls
                .iter()
                .filter(|b| item.is_type && b.header.contains(&item.name))
                .map(|b| b.span);
            std::iter::once(item.span).chain(impls).collect()
        })
        .collect();

    // Every production occurrence of a candidate's name, re-exports
    // aside.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (ix, item) in items.iter().enumerate() {
        by_name.entry(item.name.as_str()).or_default().push(ix);
    }
    let mut occurrences: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, file) in model.files.iter().enumerate() {
        for (k, t) in file.code_tokens().into_iter().enumerate() {
            if t.kind != TokenKind::Ident || file.is_test_line(t.line) {
                continue;
            }
            if let Some((name, _)) = by_name.get_key_value(t.text.as_str()) {
                if !any_contains(&model.reexports, fi, k) {
                    occurrences.entry(name).or_default().push((fi, k));
                }
            }
        }
    }

    // Fixpoint: a name is dead when every occurrence of it lies in the
    // own region of an item of that name or of an item already dead.
    let mut dead = vec![false; items.len()];
    let mut dead_spans: Vec<Span> = Vec::new();
    loop {
        let newly_dead: Vec<usize> = by_name
            .iter()
            .filter(|(name, same_named)| {
                !dead[same_named[0]]
                    && !occurrences.get(*name).is_some_and(|occ| {
                        occ.iter().any(|&(f, k)| {
                            !any_contains(&dead_spans, f, k)
                                && !same_named.iter().any(|&ix| any_contains(&own[ix], f, k))
                        })
                    })
            })
            .flat_map(|(_, same_named)| same_named.iter().copied())
            .collect();
        if newly_dead.is_empty() {
            break;
        }
        for ix in newly_dead {
            dead[ix] = true;
            dead_spans.extend(&own[ix]);
        }
    }

    // Report the outermost dead items: a method of a dead type goes
    // with its type.
    for (ix, item) in items.iter().enumerate() {
        let nested = || {
            (0..items.len()).any(|other| {
                other != ix
                    && dead[other]
                    && any_contains(&own[other], item.span.file, item.span.start)
            })
        };
        if !dead[ix] || nested() {
            continue;
        }
        super::emit(
            out,
            &model.files[item.span.file],
            RULE,
            item.line,
            item.col,
            format!(
                "`{}` is exported but no production code in the workspace names it",
                item.name
            ),
            "delete it with its tests, or keep it with `// xlint::allow(unused-export): <why>` \
             when it is an oracle, a test fake or an advertised extension"
                .into(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn findings(files: &[(&str, &str)]) -> Vec<(String, usize)> {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile::parse(path, src, FileKind::Production))
            .collect();
        let model = WorkspaceModel::build(&parsed);
        let mut out = Vec::new();
        check(&model, &Config::workspace_defaults(), &mut out);
        out.into_iter().map(|f| (f.path, f.line)).collect()
    }

    #[test]
    fn an_export_only_its_own_tests_reach_is_a_finding() {
        let lib = "pub fn used() {}\n\
                   pub fn unused() {}\n\
                   #[cfg(test)]\n\
                   mod tests { fn t() { super::unused(); } }\n";
        let user = "fn main() { demo::used(); }\n";
        assert_eq!(
            findings(&[("crates/demo/src/lib.rs", lib), ("examples/e.rs", user)]),
            vec![("crates/demo/src/lib.rs".to_string(), 2)]
        );
    }

    #[test]
    fn a_dead_type_takes_its_methods_and_their_helpers_with_it() {
        let lib = "pub struct Cursor { at: usize }\n\
                   impl Cursor {\n\
                       pub fn new() -> Cursor { Cursor { at: helper() } }\n\
                       pub fn seek(&mut self) {}\n\
                   }\n\
                   pub(crate) fn helper() -> usize { 0 }\n\
                   pub use self::Cursor as C;\n";
        // The type and the helper only it calls; `new`/`seek` are inside
        // the type's own region and are not listed separately.
        assert_eq!(
            findings(&[("crates/demo/src/lib.rs", lib)]),
            vec![
                ("crates/demo/src/lib.rs".to_string(), 1),
                ("crates/demo/src/lib.rs".to_string(), 6)
            ]
        );
    }

    #[test]
    fn allowed_items_and_exempt_modules_are_roots() {
        let lib = "// xlint::allow(unused-export): brute-force oracle the property tests compare against\n\
                   pub fn oracle() { oracle_step(); }\n\
                   pub(crate) fn oracle_step() {}\n";
        assert!(findings(&[("crates/demo/src/lib.rs", lib)]).is_empty());
        let fake = "pub struct FaultVfs;\nimpl FaultVfs { pub fn fail_at(&self) {} }\n";
        assert!(findings(&[("crates/kvstore/src/vfs.rs", fake)]).is_empty());
        // Outside `crates/*/src` nothing is an export of the workspace.
        assert!(findings(&[("bench_e2e/src/lib.rs", "pub fn unused() {}\n")]).is_empty());
    }

    #[test]
    fn a_shared_name_hides_a_dead_item() {
        // The stated blind spot: `.load(..)` on an atomic keeps `load`.
        let lib = "pub fn load() {}\n\
                   fn count(n: &AtomicU64) -> u64 { n.load(Ordering::Relaxed) }\n";
        assert!(findings(&[("crates/demo/src/lib.rs", lib)]).is_empty());
    }
}
