//! The per-file source model rules run against.
//!
//! A [`SourceFile`] owns the token stream plus three per-line overlays:
//!
//! * **test lines** — lines inside `#[cfg(test)]` modules, `#[test]`
//!   functions, or files that live under `tests/`, `benches/` or
//!   `examples/`. Most rules skip them: test code is allowed to panic.
//! * **suppression pragmas** — `// xlint::allow(<rule>): <justification>`
//!   suppresses findings of `<rule>` on the pragma's own line and the
//!   line after it. The justification is *required*; a bare pragma is
//!   itself a finding (rule `pragma`).
//! * **lock annotations** — `// xlint::lock(<name>)` names the lock a
//!   `.lock()`/`.read()`/`.write()` acquisition site takes, tying it to
//!   the hierarchy declared in `obs::lockrank::rank`.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::HashMap;

/// Whether a file is production or test code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Linted in full (minus `#[cfg(test)]` / `#[test]` regions).
    Production,
    /// Only pragma hygiene is checked.
    Test,
}

/// A parsed suppression pragma.
#[derive(Debug, Clone)]
pub struct Allow {
    pub line: usize,
    pub rule: String,
    pub justification: String,
}

/// One analyzable source file.
pub struct SourceFile {
    /// Workspace-relative path used in diagnostics and path-scoped rules.
    pub path: String,
    pub kind: FileKind,
    pub tokens: Vec<Token>,
    /// 1-based line -> inside a test region.
    test_lines: Vec<bool>,
    /// All suppression pragmas, in file order.
    pub allows: Vec<Allow>,
    /// line -> lock name, from `xlint::lock(...)` annotations.
    lock_names: HashMap<usize, String>,
}

impl SourceFile {
    pub fn parse(path: &str, text: &str, kind: FileKind) -> SourceFile {
        let tokens = lex(text);
        let n = text.lines().count();
        let mut test_lines = vec![kind == FileKind::Test; n + 2];
        if kind == FileKind::Production {
            mark_test_regions(&tokens, &mut test_lines);
        }
        let (allows, lock_names) = collect_annotations(&tokens);
        SourceFile {
            path: path.to_string(),
            kind,
            tokens,
            test_lines,
            allows,
            lock_names,
        }
    }

    /// Is this 1-based line inside test code?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }

    /// Is a finding of `rule` at `line` suppressed by a pragma? A pragma
    /// covers its own line (trailing style) and the next line (line-above
    /// style). Only pragmas carrying a justification suppress anything.
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.allows.iter().any(|a| {
            a.rule == rule && !a.justification.is_empty() && (a.line == line || a.line + 1 == line)
        })
    }

    /// The declared lock name for an acquisition at `line`, from an
    /// annotation on the same line or the line above.
    pub fn lock_name_at(&self, line: usize) -> Option<&str> {
        self.lock_names
            .get(&line)
            .or_else(|| line.checked_sub(1).and_then(|l| self.lock_names.get(&l)))
            .map(String::as_str)
    }

    /// Every lock name an annotation in this file gives, test regions
    /// included.
    pub fn annotated_locks(&self) -> impl Iterator<Item = &str> {
        self.lock_names.values().map(String::as_str)
    }

    /// Non-comment tokens (what the rules pattern-match on).
    pub fn code_tokens(&self) -> Vec<&Token> {
        self.tokens.iter().filter(|t| !t.is_comment()).collect()
    }
}

/// Marks every line covered by a `#[test]`-attributed item or a
/// `#[cfg(test)]` module/function as test code.
///
/// The walk is token-based: on `#[...]` containing the identifier
/// `test`, the next `{` opens the item body; everything up to its
/// matching `}` is a test region. An attribute followed by `;` before
/// any `{` (e.g. `#[cfg(test)] use foo;`) marks only those lines.
fn mark_test_regions(tokens: &[Token], test_lines: &mut [bool]) {
    let toks: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            // collect the attribute
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_test = false;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].is_ident("test") {
                    has_test = true;
                }
                j += 1;
            }
            if !has_test {
                i = j + 1;
                continue;
            }
            // Skip any further attributes, then find the item body.
            let mut k = j + 1;
            while k + 1 < toks.len() && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
                let mut d = 0usize;
                while k < toks.len() {
                    if toks[k].is_punct('[') {
                        d += 1;
                    } else if toks[k].is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                k += 1;
            }
            let region_start = toks[i].line;
            let mut brace = 0usize;
            let mut end_line = None;
            while k < toks.len() {
                if brace == 0 && toks[k].is_punct(';') {
                    // itemless attribute target (`#[cfg(test)] use …;`)
                    end_line = Some(toks[k].line);
                    break;
                }
                if toks[k].is_punct('{') {
                    brace += 1;
                } else if toks[k].is_punct('}') {
                    brace -= 1;
                    if brace == 0 {
                        end_line = Some(toks[k].line);
                        break;
                    }
                }
                k += 1;
            }
            let end_line = end_line.unwrap_or_else(|| toks.last().map(|t| t.line).unwrap_or(1));
            for line in region_start..=end_line {
                if line < test_lines.len() {
                    test_lines[line] = true;
                }
            }
            i = k + 1;
        } else {
            i += 1;
        }
    }
}

/// Extracts `xlint::allow(...)` and `xlint::lock(...)` annotations
/// from comment tokens.
fn collect_annotations(tokens: &[Token]) -> (Vec<Allow>, HashMap<usize, String>) {
    let mut allows = Vec::new();
    let mut locks = HashMap::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let body = t.text.trim();
        if let Some(rest) = body.strip_prefix("xlint::allow(") {
            let Some(close) = rest.find(')') else {
                continue;
            };
            let rule = rest[..close].trim().to_string();
            let after = rest[close + 1..].trim_start();
            let justification = after
                .strip_prefix(':')
                .map(|j| j.trim().to_string())
                .unwrap_or_default();
            allows.push(Allow {
                line: t.line,
                rule,
                justification,
            });
        } else if let Some(rest) = body.strip_prefix("xlint::lock(") {
            if let Some(close) = rest.find(')') {
                locks.insert(t.line, rest[..close].trim().to_string());
            }
        }
    }
    (allows, locks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_lines_are_test_code() {
        let src = "fn prod() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() {}\n\
                   }\n\
                   fn prod2() {}\n";
        let f = SourceFile::parse("a.rs", src, FileKind::Production);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn test_fn_with_extra_attributes_is_covered() {
        let src =
            "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() {\n  body();\n}\nfn p() {}\n";
        let f = SourceFile::parse("a.rs", src, FileKind::Production);
        for line in 1..=5 {
            assert!(f.is_test_line(line), "line {line}");
        }
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn non_test_attributes_do_not_open_regions() {
        let src = "#[derive(Debug)]\nstruct S { a: u32 }\nfn f() {}\n";
        let f = SourceFile::parse("a.rs", src, FileKind::Production);
        assert!(!f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn pragmas_and_lock_annotations_parse() {
        let src = "// xlint::allow(no-panic-paths): checked two lines up\n\
                   let x = v[i]; // xlint::lock(cache.shard)\n\
                   // xlint::allow(lock-order)\n";
        let f = SourceFile::parse("a.rs", src, FileKind::Production);
        assert!(f.is_suppressed("no-panic-paths", 2));
        assert!(!f.is_suppressed("no-panic-paths", 4));
        assert_eq!(f.lock_name_at(2), Some("cache.shard"));
        // The bare pragma parses but suppresses nothing.
        let bare = &f.allows[1];
        assert_eq!(bare.rule, "lock-order");
        assert!(bare.justification.is_empty());
        assert!(!f.is_suppressed("lock-order", 4));
    }

    #[test]
    fn files_under_tests_are_entirely_test_code() {
        let f = SourceFile::parse("crates/x/tests/t.rs", "fn f() {}\n", FileKind::Test);
        assert!(f.is_test_line(1));
    }
}
