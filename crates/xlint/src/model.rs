//! A lightweight workspace model: function definitions and a
//! name-level call graph over every parsed file.
//!
//! This is deliberately *not* name resolution. Functions are identified
//! by bare name, calls by `name(` / `.name(` token patterns, and a call
//! site is attributed to the innermost function body containing it.
//! That is exactly enough for the protocol rules: "does a successor
//! call appear after this trigger, here or in every caller" is a
//! question about call *names* in token order, and false sharing of a
//! name across crates only makes the rules more conservative.
//!
//! The model also lists every `pub`/`pub(..)` item declaration
//! ([`ItemDef`]) and every `impl` block ([`ImplBlock`]), again by bare
//! name, for the `unused-export` rule.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// Keywords that look like a call when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "impl", "where", "move", "in", "as",
    "let", "else", "unsafe",
];

/// One `fn` item in one file.
#[derive(Debug)]
pub struct FnDef {
    /// Index into the model's file list.
    pub file: usize,
    pub name: String,
    pub line: usize,
    /// Code-token index range of the body, `[open_brace, close_brace]`.
    /// `None` for bodyless declarations (trait methods, externs).
    pub body: Option<(usize, usize)>,
    /// Parameter names, in order.
    pub params: Vec<String>,
}

/// One `name(..)` or `.name(..)` call, attributed to its enclosing fn.
#[derive(Debug)]
pub struct CallSite {
    /// Index into the model's function list.
    pub caller: usize,
    pub callee: String,
    /// Code-token index of the callee name within its file.
    pub tok: usize,
    pub line: usize,
    pub col: usize,
}

/// Item keywords an export declaration can carry.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// A code-token index range `[start, end]` in one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the model's file list.
    pub file: usize,
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn contains(&self, file: usize, tok: usize) -> bool {
        self.file == file && self.start <= tok && tok <= self.end
    }
}

/// One `pub`/`pub(..)` `fn|struct|enum|trait|const|static|type` item.
#[derive(Debug)]
pub struct ItemDef {
    pub name: String,
    /// Position of the name token.
    pub line: usize,
    pub col: usize,
    /// `struct`/`enum`/`trait`/`type`: `impl` blocks naming it belong
    /// to it.
    pub is_type: bool,
    /// The whole item, `pub` to its last token.
    pub span: Span,
}

/// One `impl .. { .. }` block and the identifiers its header names.
#[derive(Debug)]
pub struct ImplBlock {
    pub header: Vec<String>,
    /// `impl` to the closing brace.
    pub span: Span,
}

/// The whole-workspace view the graph rules run against.
pub struct WorkspaceModel<'a> {
    pub files: &'a [SourceFile],
    pub functions: Vec<FnDef>,
    pub calls: Vec<CallSite>,
    pub items: Vec<ItemDef>,
    pub impls: Vec<ImplBlock>,
    /// `pub use ..;` statements.
    pub reexports: Vec<Span>,
}

impl<'a> WorkspaceModel<'a> {
    pub fn build(files: &'a [SourceFile]) -> WorkspaceModel<'a> {
        let mut functions = Vec::new();
        let mut calls = Vec::new();
        let mut exports = Exports::default();
        for (fi, file) in files.iter().enumerate() {
            let toks = file.code_tokens();
            let first = functions.len();
            extract_fns(fi, &toks, &mut functions);
            collect_calls(&toks, &functions[first..], first, &mut calls);
            extract_exports(fi, &toks, &mut exports);
        }
        WorkspaceModel {
            files,
            functions,
            calls,
            items: exports.items,
            impls: exports.impls,
            reexports: exports.reexports,
        }
    }

    /// Every call site whose callee name is `name`.
    pub fn callers_of(&self, name: &str) -> Vec<&CallSite> {
        self.calls.iter().filter(|c| c.callee == name).collect()
    }

    /// Call sites made from within function `fn_idx`, in token order.
    pub fn calls_in(&self, fn_idx: usize) -> Vec<&CallSite> {
        self.calls.iter().filter(|c| c.caller == fn_idx).collect()
    }
}

/// Per-file helper for rules that need function granularity without a
/// whole-workspace model (file index is always 0).
pub(crate) fn functions_of(toks: &[&Token]) -> Vec<FnDef> {
    let mut out = Vec::new();
    extract_fns(0, toks, &mut out);
    out
}

/// Finds every `fn name` item in the token stream and records its name,
/// parameter names, and body brace range. Nested fns are recorded too.
fn extract_fns(file: usize, toks: &[&Token], out: &mut Vec<FnDef>) {
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") || i + 1 >= toks.len() {
            i += 1;
            continue;
        }
        let name_tok = toks[i + 1];
        if name_tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        // Skip generics between the name and the parameter list.
        let mut j = i + 2;
        if j < toks.len() && toks[j].is_punct('<') {
            let mut depth = 0usize;
            while j < toks.len() {
                if toks[j].is_punct('<') {
                    depth += 1;
                } else if toks[j].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if j >= toks.len() || !toks[j].is_punct('(') {
            i += 1;
            continue;
        }
        // Parameter names: idents at paren depth 1 immediately followed
        // by `:` (skips `self`, types, and nested-pattern internals).
        let mut params = Vec::new();
        let mut depth = 0usize;
        while j < toks.len() {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            } else if depth == 1
                && toks[j].kind == TokenKind::Ident
                && j + 1 < toks.len()
                && toks[j + 1].is_punct(':')
                // `a::b` is a path segment, not a binding
                && !(j + 2 < toks.len() && toks[j + 2].is_punct(':'))
            {
                params.push(toks[j].text.clone());
            }
            j += 1;
        }
        // Find the body `{`, or `;` for a bodyless declaration. The
        // return type may contain braces only in impl-trait closures,
        // which this codebase does not use in signatures.
        let mut body = None;
        while j < toks.len() {
            if toks[j].is_punct(';') {
                break;
            }
            if toks[j].is_punct('{') {
                let open = j;
                let mut braces = 0usize;
                while j < toks.len() {
                    if toks[j].is_punct('{') {
                        braces += 1;
                    } else if toks[j].is_punct('}') {
                        braces -= 1;
                        if braces == 0 {
                            body = Some((open, j));
                            break;
                        }
                    }
                    j += 1;
                }
                break;
            }
            j += 1;
        }
        out.push(FnDef {
            file,
            name: name_tok.text.clone(),
            line: name_tok.line,
            body,
            params,
        });
        // Continue from just after the name so nested fns are found.
        i += 2;
    }
}

/// Records every `name(` / `.name(` pattern, attributed to the innermost
/// enclosing function body (smallest containing range).
fn collect_calls(toks: &[&Token], fns: &[FnDef], first: usize, out: &mut Vec<CallSite>) {
    for k in 0..toks.len() {
        let t = toks[k];
        if t.kind != TokenKind::Ident
            || NON_CALL_KEYWORDS.contains(&t.text.as_str())
            || k + 1 >= toks.len()
            || !toks[k + 1].is_punct('(')
        {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if k > 0 && toks[k - 1].is_ident("fn") {
            continue;
        }
        let mut owner: Option<(usize, usize)> = None; // (fn index, range width)
        for (fx, f) in fns.iter().enumerate() {
            if let Some((open, close)) = f.body {
                if open < k && k < close {
                    let width = close - open;
                    let narrower = match owner {
                        Some((_, w)) => width < w,
                        None => true,
                    };
                    if narrower {
                        owner = Some((first + fx, width));
                    }
                }
            }
        }
        if let Some((caller, _)) = owner {
            out.push(CallSite {
                caller,
                callee: t.text.clone(),
                tok: k,
                line: t.line,
                col: t.col,
            });
        }
    }
}

/// Index of the last token of the item whose keyword sits just before
/// `from`: the first `;` outside every bracket, or — unless the item
/// `ends_at_semicolon` only (`const`/`static`/`type`, whose initialisers
/// may hold blocks) — the `}` closing its first top-level brace.
fn item_end(toks: &[&Token], from: usize, ends_at_semicolon: bool) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(from) {
        match t.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']') => depth = depth.saturating_sub(1),
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 && !ends_at_semicolon {
                    return k;
                }
            }
            TokenKind::Punct(';') if depth == 0 => return k,
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

#[derive(Default)]
struct Exports {
    items: Vec<ItemDef>,
    impls: Vec<ImplBlock>,
    reexports: Vec<Span>,
}

/// Records every `pub [(..)] [const] <item keyword> Name` declaration,
/// every `pub use` statement and every `impl` block. Struct fields
/// (`pub name: T`) and `pub mod` carry no item keyword and drop out.
fn extract_exports(file: usize, toks: &[&Token], out: &mut Exports) {
    let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
    let span = |start: usize, end: usize| Span { file, start, end };
    for i in 0..toks.len() {
        // An `impl` in item position opens a block; `-> impl Trait` and
        // `x: impl Trait` follow other punctuation.
        let item_position = i == 0
            || toks[i - 1].is_ident("unsafe")
            || matches!(toks[i - 1].kind, TokenKind::Punct('}' | ';' | ']' | '{'));
        if toks[i].is_ident("impl") && item_position {
            let end = item_end(toks, i, false);
            if let Some(open) = (i..end).find(|&k| toks[k].is_punct('{')) {
                out.impls.push(ImplBlock {
                    header: toks[i + 1..open]
                        .iter()
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone())
                        .collect(),
                    span: span(i, end),
                });
            }
            continue;
        }
        if !toks[i].is_ident("pub") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            // `pub(crate)`, `pub(super)`, `pub(in path)`
            while j < toks.len() && !toks[j].is_punct(')') {
                j += 1;
            }
            j += 1;
        }
        if text(j) == "use" {
            out.reexports.push(span(i, item_end(toks, j, true)));
            continue;
        }
        if text(j) == "const" && text(j + 1) == "fn" {
            j += 1;
        }
        let keyword = text(j);
        if !ITEM_KEYWORDS.contains(&keyword) {
            continue;
        }
        j += 1;
        if keyword == "static" && text(j) == "mut" {
            j += 1;
        }
        let Some(name) = toks
            .get(j)
            .filter(|t| t.kind == TokenKind::Ident && t.text != "_")
        else {
            continue;
        };
        let ends_at_semicolon = matches!(keyword, "const" | "static" | "type");
        out.items.push(ItemDef {
            name: name.text.clone(),
            line: name.line,
            col: name.col,
            is_type: matches!(keyword, "struct" | "enum" | "trait" | "type"),
            span: span(i, item_end(toks, j, ends_at_semicolon)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    #[expect(
        clippy::type_complexity,
        reason = "a test helper's flat view of the model: (fn, callees) and (caller, callee) pairs"
    )]
    fn model_of(src: &str) -> (Vec<(String, Vec<String>)>, Vec<(String, String)>) {
        let file = SourceFile::parse("a.rs", src, FileKind::Production);
        let files = [file];
        let m = WorkspaceModel::build(&files);
        let fns = m
            .functions
            .iter()
            .map(|f| (f.name.clone(), f.params.clone()))
            .collect();
        let calls = m
            .calls
            .iter()
            .map(|c| (m.functions[c.caller].name.clone(), c.callee.clone()))
            .collect();
        (fns, calls)
    }

    #[test]
    fn functions_params_and_calls_are_extracted() {
        let (fns, calls) = model_of(
            "fn outer(a: u32, b: &[u8]) -> u32 {\n\
                 helper(a);\n\
                 b.iter().count() as u32\n\
             }\n\
             fn helper(x: u32) {}\n",
        );
        assert_eq!(fns[0].0, "outer");
        assert_eq!(fns[0].1, vec!["a", "b"]);
        assert_eq!(fns[1].0, "helper");
        assert!(calls.contains(&("outer".into(), "helper".into())));
        assert!(calls.contains(&("outer".into(), "iter".into())));
        assert!(calls.contains(&("outer".into(), "count".into())));
    }

    #[test]
    fn nested_fns_attribute_calls_to_the_innermost_body() {
        let (fns, calls) = model_of(
            "fn outer() {\n\
                 fn inner() { leaf(); }\n\
                 other();\n\
             }\n",
        );
        assert_eq!(fns.len(), 2);
        assert!(calls.contains(&("inner".into(), "leaf".into())));
        assert!(calls.contains(&("outer".into(), "other".into())));
        assert!(!calls.contains(&("outer".into(), "leaf".into())));
    }

    #[test]
    fn exported_items_and_impl_blocks_are_extracted() {
        let file = SourceFile::parse(
            "a.rs",
            "pub struct S { pub field: u32 }\n\
             pub(crate) const fn c() -> [u8; 2] { [0; 2] }\n\
             pub const K: [u8; 2] = { [0; 2] };\n\
             pub static mut G: u32 = 0;\n\
             pub use other::Thing;\n\
             fn private() {}\n\
             impl<'a> From<E> for S { fn from(e: E) -> S { S { field: 0 } } }\n",
            FileKind::Production,
        );
        let files = [file];
        let m = WorkspaceModel::build(&files);
        let toks = files[0].code_tokens();
        let items: Vec<(&str, bool, &str)> = m
            .items
            .iter()
            .map(|d| (d.name.as_str(), d.is_type, toks[d.span.end].text.as_str()))
            .collect();
        assert_eq!(
            items,
            vec![
                ("S", true, "}"),
                ("c", false, "}"),
                ("K", false, ";"),
                ("G", false, ";")
            ]
        );
        assert_eq!(m.impls.len(), 1);
        assert_eq!(m.impls[0].header, vec!["From", "E", "for", "S"]);
        assert_eq!(toks[m.impls[0].span.end].line, 7);
        assert_eq!(m.reexports.len(), 1);
        assert_eq!(toks[m.reexports[0].end].line, 5);
    }

    #[test]
    fn generics_and_bodyless_declarations_parse() {
        let (fns, _) = model_of(
            "trait T { fn decl(&self, n: usize); }\n\
             fn generic<A: Clone>(v: Vec<A>) -> Vec<A> { v }\n",
        );
        assert_eq!(fns[0].0, "decl");
        assert_eq!(fns[0].1, vec!["n"]);
        assert_eq!(fns[1].0, "generic");
        assert_eq!(fns[1].1, vec!["v"]);
    }
}
