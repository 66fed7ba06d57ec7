//! `unsafe-audit`: a `// SAFETY:` comment must state an invariant.
//! Clippy's `undocumented_unsafe_blocks` (denied workspace-wide)
//! requires the comment above every `unsafe` block but accepts it
//! empty; this rule rejects the empty one. The comment's text is the
//! rest of its line plus the line comments directly below it, so an
//! invariant may start on the next line. Test code is checked too:
//! clippy requires the comment there as well.

use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

pub const RULE: &str = "unsafe-audit";

pub fn check(file: &SourceFile, _config: &Config, out: &mut Vec<Finding>) {
    let comments: Vec<_> = file
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::LineComment)
        .collect();
    for (i, t) in comments.iter().enumerate() {
        let Some(rest) = t.text.trim().strip_prefix("SAFETY:") else {
            continue;
        };
        let continued = comments
            .get(i + 1)
            .is_some_and(|next| next.line == t.line + 1 && !next.text.trim().is_empty());
        if rest.trim().is_empty() && !continued {
            super::emit(
                out,
                file,
                RULE,
                t.line,
                t.col,
                "`// SAFETY:` comment states no invariant".into(),
                "say what the `unsafe` block relies on, after `SAFETY:`".into(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn lines(src: &str, kind: FileKind) -> Vec<usize> {
        let f = SourceFile::parse("crates/xserve/src/signal.rs", src, kind);
        let mut out = Vec::new();
        check(&f, &Config::workspace_defaults(), &mut out);
        out.into_iter().map(|f| f.line).collect()
    }

    #[test]
    fn only_an_empty_safety_comment_is_a_finding() {
        let src = "fn a() {\n\
                       // SAFETY: act outlives the syscall\n\
                       unsafe { x() }\n\
                       // SAFETY:\n\
                       // the layout is the kernel ABI\n\
                       unsafe { y() }\n\
                       // SAFETY:\n\
                       unsafe { z() }\n\
                       let s = \"// SAFETY:\";\n\
                   }\n";
        assert_eq!(lines(src, FileKind::Production), vec![7]);
    }

    #[test]
    fn test_code_is_checked_too() {
        let src =
            "#[cfg(test)]\nmod tests {\n    // SAFETY:   \n    fn t() { unsafe { z() } }\n}\n";
        assert_eq!(lines(src, FileKind::Production), vec![3]);
        assert_eq!(lines(src, FileKind::Test), vec![3]);
    }
}
