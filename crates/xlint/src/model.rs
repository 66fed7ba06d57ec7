//! A lightweight workspace model for the cross-file rules: every
//! `pub`/`pub(..)` item declaration ([`ItemDef`]), every `impl` block
//! ([`ImplBlock`]) and every `pub use`, by bare name, for the
//! `unused-export` rule.
//!
//! This is deliberately *not* name resolution: false sharing of a name
//! across crates only makes the rule more conservative.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

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

/// The whole-workspace view the cross-file rules run against.
pub struct WorkspaceModel<'a> {
    pub files: &'a [SourceFile],
    pub items: Vec<ItemDef>,
    pub impls: Vec<ImplBlock>,
    /// `pub use ..;` statements.
    pub reexports: Vec<Span>,
}

impl<'a> WorkspaceModel<'a> {
    pub fn build(files: &'a [SourceFile]) -> WorkspaceModel<'a> {
        let mut exports = Exports::default();
        for (fi, file) in files.iter().enumerate() {
            extract_exports(fi, &file.code_tokens(), &mut exports);
        }
        WorkspaceModel {
            files,
            items: exports.items,
            impls: exports.impls,
            reexports: exports.reexports,
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
}
