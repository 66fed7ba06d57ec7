//! `checked-arithmetic-on-untrusted`: inside the no-panic decode scope,
//! raw `+` / `*` / `<<` (and their compound-assignment forms) on values
//! derived from disk or network bytes are forbidden — in a debug build
//! they panic on overflow, in release they wrap silently; either way a
//! crafted length field turns into a wrong slice bound. Use the
//! `checked_*` / `saturating_*` / `wrapping_*` method forms (which this
//! rule passes naturally: they contain no raw operator) and map
//! overflow to `KvError::Corrupt`.
//!
//! "Derived from untrusted bytes" is a per-function taint pass, not
//! type-checking: taint seeds are (a) the results of the configured
//! byte-reader functions (`read_varint` and friends) and (b) the
//! configured raw-buffer parameter names (`bytes`, `payload`, …) inside
//! functions whose name marks them as decode entry points (`decode_*`,
//! `parse_*`, …). Taint propagates through `let` bindings, plain and
//! compound assignments, and `as` casts, to a fixpoint. The pass is a
//! heuristic on purpose — where it over-approximates, a justified
//! `xlint::allow` pragma documents why the site cannot overflow.

use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::model;
use crate::source::SourceFile;
use std::collections::BTreeSet;

pub const RULE: &str = "checked-arithmetic-on-untrusted";

/// Identifiers never collected as operands or tainted bindings.
const KEYWORDS: &[&str] = &[
    "mut", "ref", "let", "if", "else", "while", "for", "in", "match", "return", "break",
    "continue", "as", "move", "loop", "fn", "self", "Self",
];

pub fn check(file: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    if !Config::in_scope(&file.path, &config.untrusted_paths) {
        return;
    }
    let toks = file.code_tokens();
    for fun in model::functions_of(&toks) {
        let Some((open, close)) = fun.body else {
            continue;
        };
        let marked = config
            .untrusted_fn_markers
            .iter()
            .any(|m| fun.name.contains(m.as_str()));
        let mut tainted: BTreeSet<String> = BTreeSet::new();
        if marked {
            for p in &fun.params {
                if config.untrusted_params.iter().any(|u| u == p) {
                    tainted.insert(p.clone());
                }
            }
        }
        propagate(&toks, open, close, config, &mut tainted);
        flag_ops(file, &toks, open, close, config, &tainted, out);
    }
}

/// Runs the `let`-binding and assignment taint transfer to a fixpoint.
fn propagate(
    toks: &[&Token],
    open: usize,
    close: usize,
    config: &Config,
    tainted: &mut BTreeSet<String>,
) {
    for _round in 0..8 {
        let before = tainted.len();
        let mut i = open + 1;
        while i < close {
            if toks[i].is_ident("let") {
                // Pattern idents up to `:` (type ascription) or `=`.
                let mut pat = Vec::new();
                let mut j = i + 1;
                let mut depth = 0usize;
                let mut collecting = true;
                while j < close {
                    let t = toks[j];
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth = depth.saturating_sub(1);
                    } else if depth == 0 && t.is_punct(':') {
                        collecting = false;
                    } else if depth == 0 && (t.is_punct('=') || t.is_punct(';')) {
                        break;
                    } else if collecting
                        && t.kind == TokenKind::Ident
                        && !KEYWORDS.contains(&t.text.as_str())
                    {
                        pat.push(t.text.clone());
                    }
                    j += 1;
                }
                if j < close
                    && toks[j].is_punct('=')
                    && rhs_tainted(toks, j + 1, close, config, tainted)
                {
                    tainted.extend(pat);
                }
                i = j + 1;
                continue;
            }
            // Plain or compound assignment: taint the target when the
            // right-hand side is tainted.
            if toks[i].is_punct('=') && is_assignment(toks, i) {
                if let Some(target) = assign_target(toks, i) {
                    if !tainted.contains(&target)
                        && rhs_tainted(toks, i + 1, close, config, tainted)
                    {
                        tainted.insert(target);
                    }
                }
            }
            i += 1;
        }
        if tainted.len() == before {
            break;
        }
    }
}

/// Is the `=` at `i` an assignment (not `==`, `<=`, `>=`, `!=`, `=>`,
/// or a `let` initializer — those are handled by the caller)?
fn is_assignment(toks: &[&Token], i: usize) -> bool {
    if i + 1 < toks.len() && (toks[i + 1].is_punct('=') || toks[i + 1].is_punct('>')) {
        return false;
    }
    if i == 0 {
        return false;
    }
    let prev = toks[i - 1];
    !(prev.is_punct('=') || prev.is_punct('<') || prev.is_punct('>') || prev.is_punct('!'))
        || is_compound_op(toks, i).is_some()
}

/// For `op=` / `<<=`, the operator character(s) preceding the `=`.
fn is_compound_op(toks: &[&Token], eq: usize) -> Option<char> {
    if eq == 0 {
        return None;
    }
    match toks[eq - 1].kind {
        TokenKind::Punct(c) if "+-*/%&|^".contains(c) => Some(c),
        TokenKind::Punct('<') if eq >= 2 && toks[eq - 2].is_punct('<') => Some('<'),
        TokenKind::Punct('>') if eq >= 2 && toks[eq - 2].is_punct('>') => Some('>'),
        _ => None,
    }
}

/// The identifier being assigned through an `=` at `i`: the nearest
/// ident walking left past deref `*`, compound-op chars and field `.`s.
fn assign_target(toks: &[&Token], eq: usize) -> Option<String> {
    let mut k = eq;
    while k > 0 {
        k -= 1;
        match &toks[k].kind {
            TokenKind::Punct(c) if "+-*/%&|^<>.".contains(*c) => continue,
            TokenKind::Ident if !KEYWORDS.contains(&toks[k].text.as_str()) => {
                return Some(toks[k].text.clone());
            }
            _ => return None,
        }
    }
    None
}

/// Does the expression starting at `start` (ending at `;` or `{` at
/// bracket depth 0, or `close`) mention a tainted ident or a configured
/// untrusted source function?
fn rhs_tainted(
    toks: &[&Token],
    start: usize,
    close: usize,
    config: &Config,
    tainted: &BTreeSet<String>,
) -> bool {
    let mut depth = 0usize;
    let mut k = start;
    while k < close {
        let t = toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{')) {
            break;
        } else if t.kind == TokenKind::Ident
            && (tainted.contains(&t.text) || config.untrusted_sources.contains(&t.text))
        {
            return true;
        }
        k += 1;
    }
    false
}

/// Emits a finding for every raw `+` / `*` / `<<` (and compound form)
/// whose operand neighbourhood mentions tainted data.
fn flag_ops(
    file: &SourceFile,
    toks: &[&Token],
    open: usize,
    close: usize,
    config: &Config,
    tainted: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let mut i = open + 1;
    while i < close {
        let t = toks[i];
        if file.is_test_line(t.line) {
            i += 1;
            continue;
        }
        let op: Option<(&'static str, usize)> = if t.is_punct('+') {
            Some(("+", i + 1))
        } else if t.is_punct('*') && is_multiplication(toks, i) {
            Some(("*", i + 1))
        } else if t.is_punct('<')
            && i + 1 < close
            && toks[i + 1].is_punct('<')
            && toks[i + 1].line == t.line
            && toks[i + 1].col == t.col + 1
        {
            Some(("<<", i + 2))
        } else {
            None
        };
        let Some((sym, mut rhs)) = op else {
            i += 1;
            continue;
        };
        // Compound form: skip the trailing `=` of `+=` / `*=` / `<<=`.
        if rhs < close && toks[rhs].is_punct('=') {
            rhs += 1;
        }
        if span_tainted_left(toks, open, i, config, tainted)
            || span_tainted_right(toks, rhs, close, config, tainted)
        {
            super::emit(
                out,
                file,
                RULE,
                t.line,
                t.col,
                format!("unchecked `{sym}` on a value derived from untrusted bytes"),
                "use a checked_/saturating_ form and map overflow to `KvError::Corrupt`".into(),
            );
        }
        // Advance past a recognised `<<` pair entirely.
        i = if sym == "<<" { i + 2 } else { i + 1 };
    }
}

/// Is the `*` at `i` a multiplication (prev token ends an expression)
/// rather than a deref or raw-pointer sigil?
fn is_multiplication(toks: &[&Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let prev = toks[i - 1];
    match &prev.kind {
        TokenKind::Number => true,
        TokenKind::Ident => !KEYWORDS.contains(&prev.text.as_str()),
        TokenKind::Punct(c) => matches!(c, ')' | ']'),
        _ => false,
    }
}

/// Walks left from the operator collecting operand identifiers until an
/// expression boundary; true if any is tainted.
fn span_tainted_left(
    toks: &[&Token],
    open: usize,
    op: usize,
    config: &Config,
    tainted: &BTreeSet<String>,
) -> bool {
    let mut depth = 0usize;
    let mut k = op;
    while k > open + 1 {
        k -= 1;
        let t = toks[k];
        match &t.kind {
            TokenKind::Punct(c) => match c {
                ')' | ']' => depth += 1,
                '(' | '[' => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                '.' | ':' | '?' | '!' => {}
                _ if depth > 0 => {}
                _ => return false,
            },
            TokenKind::Ident
                if tainted.contains(&t.text) || config.untrusted_sources.contains(&t.text) =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Walks right from the operator collecting operand identifiers until an
/// expression boundary; true if any is tainted.
fn span_tainted_right(
    toks: &[&Token],
    start: usize,
    close: usize,
    config: &Config,
    tainted: &BTreeSet<String>,
) -> bool {
    let mut depth = 0usize;
    let mut k = start;
    while k < close {
        let t = toks[k];
        match &t.kind {
            TokenKind::Punct(c) => match c {
                '(' | '[' => depth += 1,
                ')' | ']' => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                '.' | ':' | '?' | '!' => {}
                _ if depth > 0 => {}
                _ => return false,
            },
            TokenKind::Ident
                if tainted.contains(&t.text) || config.untrusted_sources.contains(&t.text) =>
            {
                return true;
            }
            _ => {}
        }
        k += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn findings(src: &str) -> Vec<(usize, String)> {
        let file = SourceFile::parse("crates/invindex/src/postings.rs", src, FileKind::Production);
        let config = Config::workspace_defaults();
        let mut out = Vec::new();
        check(&file, &config, &mut out);
        out.into_iter().map(|f| (f.line, f.message)).collect()
    }

    #[test]
    fn source_derived_values_flag_raw_ops_but_not_checked_forms() {
        let fs = findings(
            "fn next(p: &mut usize) -> Option<u64> {\n\
                 let d0 = read_varint(b, p)?;\n\
                 let v = base + d0;\n\
                 let w = base.checked_add(d0)?;\n\
                 let s = d0 << 3;\n\
                 let m = d0 * 2;\n\
                 Some(v)\n\
             }\n",
        );
        assert_eq!(
            fs.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![3, 5, 6],
            "{fs:?}"
        );
    }

    #[test]
    fn taint_flows_through_bindings_and_compound_assignment() {
        let fs = findings(
            "fn decode(p: &mut usize) -> u64 {\n\
                 let n = read_varint(b, p).unwrap_or(0);\n\
                 let copy = n as usize;\n\
                 let mut acc = 0u64;\n\
                 acc += copy as u64;\n\
                 acc\n\
             }\n",
        );
        assert_eq!(fs.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn marked_fn_params_are_tainted_but_unmarked_are_not() {
        let fs = findings(
            "fn parse_header(payload: &[u8]) -> usize {\n\
                 payload.len() * 4\n\
             }\n\
             fn build_frame(payload: &[u8]) -> usize {\n\
                 payload.len() * 4\n\
             }\n",
        );
        assert_eq!(fs.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn untainted_arithmetic_and_out_of_scope_files_are_clean() {
        let fs = findings(
            "fn fill(&mut self) {\n\
                 self.base += self.decoded.len();\n\
                 self.block += 1;\n\
             }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");

        let file = SourceFile::parse(
            "crates/slca/src/lib.rs",
            "fn f(p: &mut usize) { let d = read_varint(b, p); let v = d + 1; }\n",
            FileKind::Production,
        );
        let mut out = Vec::new();
        check(&file, &Config::workspace_defaults(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn pragma_suppresses_with_justification() {
        let fs = findings(
            "fn read_one(p: &mut usize) -> u64 {\n\
                 let d = read_varint(b, p).unwrap_or(0);\n\
                 // xlint::allow(checked-arithmetic-on-untrusted): d is masked to 7 bits above\n\
                 let v = d + 1;\n\
                 v\n\
             }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }
}
