//! `no-panic-paths`: storage and decode paths do not panic. A corrupt
//! page, a truncated WAL, or a bit-flipped postings frame must surface
//! as `KvError::Corrupt`, never as a panic that takes the whole engine
//! down mid-recovery.
//!
//! Clippy owns most of this: each file on those paths opens with
//! `#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used,
//! clippy::panic, clippy::unreachable, clippy::todo,
//! clippy::unimplemented))]`, and decode-path files add
//! `clippy::indexing_slicing` (and `clippy::arithmetic_side_effects`).
//! Clippy has no lint for the check left here: hard `assert!` /
//! `assert_eq!` / `assert_ne!` (the `debug_assert*` family is exempt:
//! it compiles out of release builds), in every file whose inner
//! attributes deny `clippy::panic` — the scope is that line, written
//! once in the file it covers.

use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

pub const RULE: &str = "no-panic-paths";

const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = file.code_tokens();
    if !denies_clippy_panic(&toks) {
        return;
    }
    for (t, next) in toks.iter().zip(toks.iter().skip(1)) {
        if matches!(t.kind, TokenKind::Ident)
            && ASSERT_MACROS.contains(&t.text.as_str())
            && next.is_punct('!')
            && !file.is_test_line(t.line)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    const DENY: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]\n";

    fn findings(src: &str) -> Vec<(usize, String)> {
        let file = SourceFile::parse("crates/kvstore/src/wal.rs", src, FileKind::Production);
        let mut out = Vec::new();
        check(&file, &mut out);
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
             fn t() {{ assert!(x); }}\n\
             }}\n"
        ));
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn suppression_pragma_with_justification_works() {
        let fs = findings(&format!(
            "{DENY}fn f() {{\n\
             // xlint::allow(no-panic-paths): an overflowing node must abort the writer\n\
             assert!(fits);\n\
             assert!(fits2);\n\
             }}\n"
        ));
        assert_eq!(fs.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![5]);
    }
}
