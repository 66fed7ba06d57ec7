//! `no-panic-paths`: storage and decode paths do not panic. A corrupt
//! page, a truncated WAL, or a bit-flipped postings frame must surface
//! as `KvError::Corrupt`, never as a panic that takes the whole engine
//! down mid-recovery.
//!
//! Clippy owns most of this: each file on those paths opens with
//! `#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used,
//! clippy::panic, clippy::unreachable, clippy::todo,
//! clippy::unimplemented))]`. Clippy has no lint for the two checks
//! left here:
//!
//! * hard `assert!` / `assert_eq!` / `assert_ne!` (the `debug_assert*`
//!   family is exempt: it compiles out of release builds), in every
//!   file whose inner attributes deny `clippy::panic` — the scope is
//!   that line, written once in the file it covers;
//! * data-dependent `[]` indexing, but only in decode-path files
//!   (`index_paths`): an index that came off disk must be bounds-checked
//!   with `.get()`. Structurally constant indices (integer literals,
//!   `UPPER_CASE` consts, and range punctuation) are allowed.

use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

pub const RULE: &str = "no-panic-paths";

/// Keywords after which a `[` opens an array literal, not an index.
const KEYWORDS: &[&str] = &[
    "in", "return", "break", "else", "match", "if", "while", "loop", "move", "ref", "mut", "as",
];

const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

pub fn check(file: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    let toks = file.code_tokens();
    let scoped = denies_clippy_panic(&toks);
    let indexed = Config::in_scope(&file.path, &config.index_paths);
    if !scoped && !indexed {
        return;
    }
    for i in 0..toks.len() {
        let t = toks[i];
        if file.is_test_line(t.line) {
            continue;
        }
        if scoped
            && matches!(t.kind, TokenKind::Ident)
            && ASSERT_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            super::emit(
                out,
                file,
                RULE,
                t.line,
                t.col,
                format!("`{}!` can panic on a storage/decode path", t.text),
                "return `KvError::Corrupt` (or use `debug_assert!` for invariants)".into(),
            );
        }
        if indexed && t.is_punct('[') && i > 0 {
            let prev = toks[i - 1];
            // A keyword before `[` means an array literal (`in [..]`,
            // `return [..]`), not an index expression.
            let is_index_expr = (matches!(prev.kind, TokenKind::Ident)
                && !KEYWORDS.contains(&prev.text.as_str()))
                || prev.is_punct(')')
                || prev.is_punct(']');
            // `vec![..]`-style macro bodies have `!` before `[`; `#[..]`
            // attributes have `#`. Neither matches above.
            if is_index_expr && !index_is_constant(&toks, i) {
                super::emit(
                    out,
                    file,
                    RULE,
                    t.line,
                    t.col,
                    "data-dependent `[]` indexing on a decode path".into(),
                    "use `.get(..)` and map a miss to `KvError::Corrupt`".into(),
                );
            }
        }
    }
}

/// Does an inner attribute (`#![..]`) of the file deny `clippy::panic`?
fn denies_clippy_panic(toks: &[&Token]) -> bool {
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].is_punct('#') && toks[i + 1].is_punct('!') && toks[i + 2].is_punct('[') {
            let body = &toks[i + 3..];
            let end = body
                .iter()
                .position(|t| t.is_punct(']'))
                .unwrap_or(body.len());
            let attr = &body[..end];
            let denies = attr.iter().any(|t| t.is_ident("deny"));
            let panic = attr.windows(4).any(|w| {
                w[0].is_ident("clippy")
                    && w[1].is_punct(':')
                    && w[2].is_punct(':')
                    && w[3].is_ident("panic")
            });
            if denies && panic {
                return true;
            }
            i += 3 + end;
        } else {
            i += 1;
        }
    }
    false
}

/// Is every token between `toks[open]` (a `[`) and its matching `]`
/// structurally constant? Allowed: integer/float literals, `UPPER_CASE`
/// identifiers (consts), and the punctuation of ranges and constant
/// arithmetic (`.` `+` `-` `=` `*` `/`).
fn index_is_constant(toks: &[&Token], open: usize) -> bool {
    let mut depth = 0usize;
    for t in &toks[open..] {
        if t.is_punct('[') {
            depth += 1;
            continue;
        }
        if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return true;
            }
            continue;
        }
        let ok = match &t.kind {
            TokenKind::Number => true,
            TokenKind::Ident => is_const_ident(&t.text),
            TokenKind::Punct(c) => matches!(c, '.' | '+' | '-' | '=' | '*' | '/'),
            _ => false,
        };
        if !ok {
            return false;
        }
    }
    true // unterminated bracket: the lexer ran off the file; don't flag
}

fn is_const_ident(s: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && s.chars().any(|c| c.is_ascii_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    const DENY: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]\n";

    fn findings(src: &str) -> Vec<(usize, String)> {
        let file = SourceFile::parse("crates/kvstore/src/wal.rs", src, FileKind::Production);
        let config = Config::workspace_defaults();
        let mut out = Vec::new();
        check(&file, &config, &mut out);
        out.into_iter().map(|f| (f.line, f.message)).collect()
    }

    #[test]
    fn hard_asserts_are_flagged_where_the_file_denies_clippy_panic() {
        let body = "fn f() {\n\
                    assert!(a > b);\n\
                    assert_eq!(a, b);\n\
                    debug_assert!(a > b);\n\
                    let s = \"assert!(x)\";\n\
                    }\n";
        let fs = findings(&format!("{DENY}{body}"));
        assert_eq!(fs.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![3, 4]);
        // Without the attribute the file is out of the assert scope;
        // a `warn` or a lint list without `clippy::panic` is not it.
        assert!(findings(body).is_empty());
        let warn = "#![cfg_attr(not(test), warn(clippy::panic))]\n";
        assert!(findings(&format!("{warn}{body}")).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let fs = findings(&format!(
            "{DENY}fn f() {{}}\n\
             #[cfg(test)]\n\
             mod tests {{\n\
             fn t() {{ assert!(x); buf[i]; }}\n\
             }}\n"
        ));
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn indexing_flags_variables_but_not_constants() {
        let fs = findings(
            "fn f() {\n\
             let a = buf[pos];\n\
             let b = buf[..PAGE_SIZE];\n\
             let c = buf[0];\n\
             let d = buf[HDR + 4..HDR + 8];\n\
             let e = buf[pos..pos + len];\n\
             let f = vec![0u8; n];\n\
             for name in [a, b] { g(name); }\n\
             }\n",
        );
        assert_eq!(
            fs.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![2, 6],
            "{fs:?}"
        );
    }

    #[test]
    fn suppression_pragma_with_justification_works() {
        let fs = findings(
            "fn f() {\n\
             // xlint::allow(no-panic-paths): index proven in-bounds by the loop guard\n\
             let a = buf[pos];\n\
             let b = buf[pos2];\n\
             }\n",
        );
        assert_eq!(fs.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn indexing_outside_index_paths_is_ignored() {
        let file = SourceFile::parse(
            "crates/slca/src/lib.rs",
            "fn f() { buf[i]; }\n",
            FileKind::Production,
        );
        let mut out = Vec::new();
        check(&file, &Config::workspace_defaults(), &mut out);
        assert!(out.is_empty());
    }
}
