//! `lock-order`: every bare `.lock()` / `.read()` / `.write()` call in
//! the locking crates must carry an `// xlint::lock(<name>)` annotation
//! naming a lock from the declared hierarchy (`obs::lockrank::rank`), and
//! lexically nested acquisitions must take locks in strictly increasing
//! rank order.
//!
//! Guard lifetimes are approximated conservatively from scopes:
//!
//! * a guard bound by `let g = …` lives until its enclosing block closes
//!   (or until an explicit `drop(g)`);
//! * an unbound guard (statement temporary, or an `if let`/`match`
//!   scrutinee temporary under Rust 2021 rules) lives until the end of
//!   its statement — the `;` at its own depth, or the `}` that returns
//!   to its own depth (the end of the `if`/`match` body it feeds).
//!
//! Cross-function nesting is invisible to a lexical analysis; the
//! runtime rank checker in `obs::lockrank` covers that half (see
//! DESIGN.md §Static analysis).
//!
//! One finding is about the workspace, not a file
//! ([`check_declared`]): a lock the class table declares that no
//! annotation in the locking crates names — a rank that outlived its
//! lock. It is reported at the class's own line.

use crate::config::{Config, LockDecl, LOCK_CLASSES_PATH};
use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::model::WorkspaceModel;
use crate::source::SourceFile;
use std::collections::BTreeSet;

pub const RULE: &str = "lock-order";

const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

#[derive(Debug)]
struct Active {
    name: String,
    rank: u32,
    /// Brace depth at the acquisition site.
    depth: usize,
    /// `let` binding holding the guard, if any.
    binding: Option<String>,
    /// Statement temporary: expires at `;` or at the `}` returning to
    /// `depth` (scrutinee temporaries).
    temp: bool,
}

pub fn check(file: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    if !Config::in_scope(&file.path, &config.lock_paths) {
        return;
    }
    let toks = file.code_tokens();
    let mut depth = 0usize;
    let mut active: Vec<Active> = Vec::new();
    // `let` binding of the statement currently being scanned.
    let mut stmt_binding: Option<String> = None;
    let mut pending_let = false;

    let mut i = 0;
    while i < toks.len() {
        let t = toks[i];
        match &t.kind {
            TokenKind::Punct('{') => {
                depth += 1;
                pending_let = false;
            }
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                // Guards scoped deeper than here are gone; scrutinee
                // temporaries acquired *at* this depth end with the
                // body we just closed.
                active.retain(|a| a.depth <= depth && !(a.temp && a.depth == depth));
                stmt_binding = None;
                pending_let = false;
            }
            TokenKind::Punct(';') => {
                active.retain(|a| !(a.temp && a.depth == depth));
                stmt_binding = None;
                pending_let = false;
            }
            TokenKind::Ident if t.text == "let" => {
                // `if let` / `while let` scrutinees are temporaries, not
                // bindings — the pattern idents must not be captured.
                let scrutinee =
                    i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
                pending_let = !scrutinee;
                i += 1;
                continue;
            }
            TokenKind::Ident if pending_let && t.text == "mut" => {
                i += 1;
                continue;
            }
            TokenKind::Ident if pending_let => {
                stmt_binding = Some(t.text.clone());
                pending_let = false;
            }
            // `drop(g)` releases a bound guard early.
            TokenKind::Ident if t.text == "drop" => {
                if i + 2 < toks.len()
                    && toks[i + 1].is_punct('(')
                    && matches!(toks[i + 2].kind, TokenKind::Ident)
                    && i + 3 < toks.len()
                    && toks[i + 3].is_punct(')')
                {
                    let victim = &toks[i + 2].text;
                    active.retain(|a| a.binding.as_deref() != Some(victim.as_str()));
                }
                pending_let = false;
            }
            _ => {
                pending_let = false;
            }
        }

        // Acquisition pattern: `.lock()` / `.read()` / `.write()`.
        if t.is_punct('.')
            && i + 3 < toks.len()
            && matches!(toks[i + 1].kind, TokenKind::Ident)
            && ACQUIRE_METHODS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].is_punct('(')
            && toks[i + 3].is_punct(')')
        {
            let site = toks[i + 1];
            if file.is_test_line(site.line) {
                i += 1;
                continue;
            }
            match file.lock_name_at(site.line) {
                None => {
                    super::emit(
                        out,
                        file,
                        RULE,
                        site.line,
                        site.col,
                        format!(
                            "`.{}()` acquisition has no `xlint::lock(..)` annotation",
                            site.text
                        ),
                        "annotate the site with the lock's name from obs::lockrank::rank".into(),
                    );
                }
                Some(name) => match config.locks.get(name) {
                    None => {
                        super::emit(
                            out,
                            file,
                            RULE,
                            site.line,
                            site.col,
                            format!("lock `{name}` is not declared in obs::lockrank::rank"),
                            "add a class for it to the `lock_classes!` table".into(),
                        );
                    }
                    Some(&LockDecl { rank, .. }) => {
                        if let Some(held) = active.iter().max_by_key(|a| a.rank) {
                            if rank <= held.rank {
                                super::emit(
                                    out,
                                    file,
                                    RULE,
                                    site.line,
                                    site.col,
                                    format!(
                                        "acquiring `{name}` (rank {rank}) while holding `{}` (rank {}) violates the lock hierarchy",
                                        held.name, held.rank
                                    ),
                                    "acquire locks in strictly increasing rank order, or narrow the outer guard's scope".into(),
                                );
                            }
                        }
                        active.push(Active {
                            name: name.to_string(),
                            rank,
                            depth,
                            binding: stmt_binding.clone().filter(|b| b != "_"),
                            temp: stmt_binding.is_none(),
                        });
                    }
                },
            }
        }
        i += 1;
    }
}

/// Reports every declared lock that no annotation under the lock paths
/// names. Annotations in test-support regions count here (a lock only
/// test support takes, like `obs.test_serial`, is still in use). A
/// model with no lock annotation at all uses no hierarchy and is left
/// alone.
pub fn check_declared(model: &WorkspaceModel, config: &Config, out: &mut Vec<Finding>) {
    let annotated: BTreeSet<&str> = model
        .files
        .iter()
        .filter(|f| Config::in_scope(&f.path, &config.lock_paths))
        .flat_map(SourceFile::annotated_locks)
        .collect();
    if annotated.is_empty() {
        return;
    }
    for (name, decl) in &config.locks {
        if !annotated.contains(name.as_str()) {
            out.push(Finding {
                rule: RULE,
                path: LOCK_CLASSES_PATH.into(),
                line: decl.line,
                col: 1,
                message: format!(
                    "lock `{name}` (rank {}) is declared but no lock site annotates it",
                    decl.rank
                ),
                help: "delete its class, or annotate the site that takes it".into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture_config as config;
    use crate::source::FileKind;

    fn findings(src: &str) -> Vec<(usize, String)> {
        let file = SourceFile::parse("crates/invindex/src/cache.rs", src, FileKind::Production);
        let mut out = Vec::new();
        check(&file, &config(), &mut out);
        out.into_iter().map(|f| (f.line, f.message)).collect()
    }

    #[test]
    fn unannotated_and_unknown_locks_are_flagged() {
        let fs = findings(
            "fn f() {\n\
             let g = self.m.lock();\n\
             // xlint::lock(no.such.lock)\n\
             let h = self.n.lock();\n\
             }\n",
        );
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs[0].1.contains("no `xlint::lock"));
        assert!(fs[1].1.contains("not declared"));
    }

    #[test]
    fn increasing_rank_nesting_is_clean() {
        let fs = findings(
            "fn f() {\n\
             let store = self.store.read(); // xlint::lock(kvindex.store)\n\
             let shard = self.shards[0].lock(); // xlint::lock(cache.shard)\n\
             }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn inverted_nesting_is_flagged() {
        let fs = findings(
            "fn f() {\n\
             let shard = self.shards[0].lock(); // xlint::lock(cache.shard)\n\
             let store = self.store.read(); // xlint::lock(kvindex.store)\n\
             }\n",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].1.contains("violates the lock hierarchy"));
    }

    #[test]
    fn drop_releases_a_bound_guard() {
        let fs = findings(
            "fn f() {\n\
             let shard = self.shards[0].lock(); // xlint::lock(cache.shard)\n\
             drop(shard);\n\
             let store = self.store.read(); // xlint::lock(kvindex.store)\n\
             }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn block_scoped_guard_does_not_leak() {
        let fs = findings(
            "fn f() {\n\
             {\n\
             let shard = self.shards[0].lock(); // xlint::lock(cache.shard)\n\
             }\n\
             let store = self.store.read(); // xlint::lock(kvindex.store)\n\
             }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn statement_temporary_expires_at_semicolon() {
        let fs = findings(
            "fn f() {\n\
             self.shards[0].lock().touch(); // xlint::lock(cache.shard)\n\
             let store = self.store.read(); // xlint::lock(kvindex.store)\n\
             }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn if_let_scrutinee_guard_lives_through_the_body() {
        // Rust 2021: the scrutinee temporary lives to the end of the
        // `if let` — nesting inside the body must respect it…
        let fs = findings(
            "fn f() {\n\
             if let Some(v) = self.shards[0].lock().get(k) { // xlint::lock(cache.shard)\n\
             let store = self.store.read(); // xlint::lock(kvindex.store)\n\
             }\n\
             }\n",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        // …but it ends with the body: a later sibling acquisition of the
        // same lock is not nested.
        let fs = findings(
            "fn f() {\n\
             if let Some(v) = self.shards[0].lock().get(k) { // xlint::lock(cache.shard)\n\
             use_it(v);\n\
             }\n\
             self.shards[1].lock().touch(); // xlint::lock(cache.shard)\n\
             }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn same_rank_reacquisition_is_flagged() {
        let fs = findings(
            "fn f() {\n\
             let a = self.shards[0].lock(); // xlint::lock(cache.shard)\n\
             let b = self.shards[1].lock(); // xlint::lock(cache.shard)\n\
             }\n",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
    }

    fn undeclared(files: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile::parse(path, src, FileKind::Production))
            .collect();
        let mut out = Vec::new();
        check_declared(&WorkspaceModel::build(&files), &config(), &mut out);
        out.into_iter().map(|f| f.message).collect()
    }

    #[test]
    fn a_declared_lock_nobody_annotates_is_flagged_once_for_the_workspace() {
        let store = "fn f() { let s = self.store.read(); } // xlint::lock(kvindex.store)\n";
        let shard_in_tests = "#[cfg(test)]\nmod tests {\n\
             fn t() { let g = m.lock(); } // xlint::lock(cache.shard)\n}\n";
        // One lock annotated, the other not: one finding, naming it.
        let fs = undeclared(&[("crates/invindex/src/kvindex.rs", store)]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].contains("`cache.shard` (rank 20) is declared but no"));
        // An annotation in another in-scope file, even in a test region,
        // settles it; one outside the lock paths does not.
        let fs = undeclared(&[
            ("crates/invindex/src/kvindex.rs", store),
            ("crates/invindex/src/cache.rs", shard_in_tests),
        ]);
        assert!(fs.is_empty(), "{fs:?}");
        let fs = undeclared(&[
            ("crates/invindex/src/kvindex.rs", store),
            ("crates/slca/src/scan.rs", shard_in_tests),
        ]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        // No annotation anywhere: no hierarchy in use, nothing to say.
        assert!(undeclared(&[("crates/invindex/src/kvindex.rs", "fn f() {}\n")]).is_empty());
    }

    #[test]
    fn test_code_and_rwlock_with_args_are_ignored() {
        let fs = findings(
            "#[cfg(test)]\n\
             mod tests {\n\
             fn t() { let g = m.lock(); }\n\
             }\n\
             fn prod(f: &std::fs::File) { f.read(&mut buf); }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }
}
