//! A from-scratch, dependency-free XML parser: the scanner's
//! differential oracle.
//!
//! Supports the subset of XML 1.0 the workload needs: element trees with
//! attributes, character data, the five predefined entities plus numeric
//! character references, CDATA sections, comments, processing instructions
//! and the XML declaration. DTDs are recognized and skipped. Namespaces are
//! treated lexically (prefixes stay part of the tag name), which matches how
//! the paper's engine sees tags.
//!
//! No shipped code path parses with it: ingest and the live writer read
//! XML with [`crate::scan`]. [`parse_document`] stays as the simplest
//! statement of what the scanner must accept and build — the scan fuzz
//! sweep, the parser properties and the ingest differential compare the
//! two. It writes straight into a [`DocumentBuilder`]; errors carry the
//! byte offset they were detected at, like the scanner's.

use crate::tree::{Document, DocumentBuilder};
use std::fmt;

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    UnexpectedEof,
    /// `<` followed by something that is not a name or markup we support.
    InvalidMarkup,
    InvalidName,
    /// Closing tag does not match the open element.
    MismatchedClose {
        expected: String,
        found: String,
    },
    /// Text or a second root element outside the root.
    ContentOutsideRoot,
    /// No root element at all.
    EmptyDocument,
    UnterminatedComment,
    UnterminatedCdata,
    UnterminatedPi,
    UnterminatedDoctype,
    InvalidAttribute,
    DuplicateAttribute(String),
    InvalidEntity(String),
    /// `<` is not allowed in attribute values / character data handling.
    BareLt,
}

/// A parse error with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub kind: ParseErrorKind,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {:?}",
            self.offset, self.kind
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete XML document into a DOM.
// xlint::allow(unused-export): the scanner's differential oracle — scan_fuzz, parser_prop and the ingest and maintenance differentials compare against it
pub fn parse_document(input: &str) -> Result<Document, ParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        builder: DocumentBuilder::new(),
        open_tags: Vec::new(),
        seen_root: false,
    };
    p.run()?;
    if !p.seen_root {
        return Err(p.error(ParseErrorKind::EmptyDocument));
    }
    Ok(p.builder.finish())
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    builder: DocumentBuilder,
    open_tags: Vec<String>,
    seen_root: bool,
}

impl Parser<'_> {
    fn error(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            kind,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn run(&mut self) -> Result<(), ParseError> {
        loop {
            if self.open_tags.is_empty() {
                self.skip_whitespace();
            }
            match self.peek() {
                None => {
                    if self.open_tags.is_empty() {
                        return Ok(());
                    }
                    return Err(self.error(ParseErrorKind::UnexpectedEof));
                }
                Some(b'<') => self.markup()?,
                Some(_) => self.character_data()?,
            }
        }
    }

    fn markup(&mut self) -> Result<(), ParseError> {
        if self.starts_with("<!--") {
            self.comment()
        } else if self.starts_with("<![CDATA[") {
            self.cdata()
        } else if self.starts_with("<!DOCTYPE") {
            self.doctype()
        } else if self.starts_with("<?") {
            self.processing_instruction()
        } else if self.starts_with("</") {
            self.close_tag()
        } else {
            self.open_tag()
        }
    }

    fn comment(&mut self) -> Result<(), ParseError> {
        self.bump(4);
        match find_sub(&self.input[self.pos..], b"-->") {
            Some(end) => {
                self.bump(end + 3);
                Ok(())
            }
            None => Err(self.error(ParseErrorKind::UnterminatedComment)),
        }
    }

    fn cdata(&mut self) -> Result<(), ParseError> {
        if self.open_tags.is_empty() {
            return Err(self.error(ParseErrorKind::ContentOutsideRoot));
        }
        self.bump(9);
        match find_sub(&self.input[self.pos..], b"]]>") {
            Some(end) => {
                let text = std::str::from_utf8(&self.input[self.pos..self.pos + end])
                    .expect("input was valid UTF-8");
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    self.builder.text(trimmed);
                }
                self.bump(end + 3);
                Ok(())
            }
            None => Err(self.error(ParseErrorKind::UnterminatedCdata)),
        }
    }

    fn doctype(&mut self) -> Result<(), ParseError> {
        // Skip to the matching `>`, tolerating one bracketed internal subset.
        self.bump(9);
        let mut depth = 0usize;
        while let Some(b) = self.peek() {
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.bump(1);
                    return Ok(());
                }
                _ => {}
            }
            self.bump(1);
        }
        Err(self.error(ParseErrorKind::UnterminatedDoctype))
    }

    fn processing_instruction(&mut self) -> Result<(), ParseError> {
        self.bump(2);
        match find_sub(&self.input[self.pos..], b"?>") {
            Some(end) => {
                self.bump(end + 2);
                Ok(())
            }
            None => Err(self.error(ParseErrorKind::UnterminatedPi)),
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric()
                || b == b'_'
                || b == b'-'
                || b == b'.'
                || b == b':'
                || b >= 0x80;
            if !ok {
                break;
            }
            self.bump(1);
        }
        if self.pos == start {
            return Err(self.error(ParseErrorKind::InvalidName));
        }
        let first = self.input[start];
        if first.is_ascii_digit() || first == b'-' || first == b'.' {
            return Err(self.error(ParseErrorKind::InvalidName));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .expect("input was valid UTF-8")
            .to_string())
    }

    fn open_tag(&mut self) -> Result<(), ParseError> {
        if self.seen_root && self.open_tags.is_empty() {
            return Err(self.error(ParseErrorKind::ContentOutsideRoot));
        }
        self.bump(1); // '<'
        let tag = self.name()?;
        self.builder.open_element(&tag);
        self.seen_root = true;
        self.open_tags.push(tag);

        let mut seen_attrs: Vec<String> = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                None => return Err(self.error(ParseErrorKind::UnexpectedEof)),
                Some(b'>') => {
                    self.bump(1);
                    return Ok(());
                }
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(self.error(ParseErrorKind::InvalidMarkup));
                    }
                    self.bump(2);
                    self.builder.close_element();
                    self.open_tags.pop();
                    return Ok(());
                }
                Some(_) => {
                    let attr = self.name()?;
                    if seen_attrs.iter().any(|a| a == &attr) {
                        return Err(self.error(ParseErrorKind::DuplicateAttribute(attr)));
                    }
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return Err(self.error(ParseErrorKind::InvalidAttribute));
                    }
                    self.bump(1);
                    self.skip_whitespace();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.error(ParseErrorKind::InvalidAttribute)),
                    };
                    self.bump(1);
                    let vstart = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote {
                            break;
                        }
                        if b == b'<' {
                            return Err(self.error(ParseErrorKind::BareLt));
                        }
                        self.bump(1);
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.error(ParseErrorKind::UnexpectedEof));
                    }
                    let raw = std::str::from_utf8(&self.input[vstart..self.pos])
                        .expect("input was valid UTF-8");
                    let value = self.decode_entities(raw)?;
                    self.bump(1); // closing quote
                    self.builder.attribute(&attr, &value);
                    seen_attrs.push(attr);
                }
            }
        }
    }

    fn close_tag(&mut self) -> Result<(), ParseError> {
        self.bump(2); // '</'
        let tag = self.name()?;
        self.skip_whitespace();
        if self.peek() != Some(b'>') {
            return Err(self.error(ParseErrorKind::InvalidMarkup));
        }
        self.bump(1);
        match self.open_tags.pop() {
            Some(open) if open == tag => {
                self.builder.close_element();
                Ok(())
            }
            Some(open) => Err(self.error(ParseErrorKind::MismatchedClose {
                expected: open,
                found: tag,
            })),
            None => Err(self.error(ParseErrorKind::ContentOutsideRoot)),
        }
    }

    fn character_data(&mut self) -> Result<(), ParseError> {
        if self.open_tags.is_empty() {
            return Err(self.error(ParseErrorKind::ContentOutsideRoot));
        }
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            self.bump(1);
        }
        let raw = std::str::from_utf8(&self.input[start..self.pos]).expect("input was valid UTF-8");
        let decoded = self.decode_entities(raw)?;
        let trimmed = decoded.trim();
        if !trimmed.is_empty() {
            self.builder.text(trimmed);
        }
        Ok(())
    }

    /// Resolves `&amp; &lt; &gt; &quot; &apos; &#NN; &#xNN;`.
    fn decode_entities(&self, raw: &str) -> Result<String, ParseError> {
        if !raw.contains('&') {
            return Ok(raw.to_string());
        }
        let mut out = String::with_capacity(raw.len());
        let mut rest = raw;
        while let Some(amp) = rest.find('&') {
            out.push_str(&rest[..amp]);
            rest = &rest[amp..];
            let semi = rest
                .find(';')
                .ok_or_else(|| self.error(ParseErrorKind::InvalidEntity(rest.to_string())))?;
            let entity = &rest[1..semi];
            match entity {
                "amp" => out.push('&'),
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                    let cp = u32::from_str_radix(&entity[2..], 16).map_err(|_| {
                        self.error(ParseErrorKind::InvalidEntity(entity.to_string()))
                    })?;
                    out.push(char::from_u32(cp).ok_or_else(|| {
                        self.error(ParseErrorKind::InvalidEntity(entity.to_string()))
                    })?);
                }
                _ if entity.starts_with('#') => {
                    let cp: u32 = entity[1..].parse().map_err(|_| {
                        self.error(ParseErrorKind::InvalidEntity(entity.to_string()))
                    })?;
                    out.push(char::from_u32(cp).ok_or_else(|| {
                        self.error(ParseErrorKind::InvalidEntity(entity.to_string()))
                    })?);
                }
                _ => {
                    return Err(self.error(ParseErrorKind::InvalidEntity(entity.to_string())));
                }
            }
            rest = &rest[semi + 1..];
        }
        out.push_str(rest);
        Ok(out)
    }
}

/// Byte-level substring search (naive; inputs are parse-local).
fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    (0..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_document() {
        let doc = parse_document("<a/>").unwrap();
        assert_eq!(doc.len(), 1);
        assert_eq!(doc.tag_name(doc.root()), "a");
    }

    #[test]
    fn parses_nested_structure_with_text() {
        let doc = parse_document(
            "<bib><author><name>Mike Franklin</name><interest>stream processing</interest></author></bib>",
        )
        .unwrap();
        assert_eq!(doc.len(), 4);
        let root = doc.root();
        let author = doc.node(root).children[0];
        assert_eq!(doc.tag_name(author), "author");
        let name = doc.node(author).children[0];
        assert_eq!(doc.node(name).text, "Mike Franklin");
        assert_eq!(doc.node(name).dewey.to_string(), "0.0.0");
    }

    #[test]
    fn parses_attributes() {
        let doc = parse_document(r#"<a x="1" y='two &amp; three'/>"#).unwrap();
        let attrs = &doc.node(doc.root()).attributes;
        assert_eq!(attrs[0], ("x".to_string(), "1".to_string()));
        assert_eq!(attrs[1], ("y".to_string(), "two & three".to_string()));
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let err = parse_document(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn decodes_entities_in_text() {
        let doc = parse_document("<a>x &lt; y &amp;&amp; y &gt; z &#65;&#x42;</a>").unwrap();
        assert_eq!(doc.node(doc.root()).text, "x < y && y > z AB");
    }

    #[test]
    fn rejects_unknown_entity() {
        let err = parse_document("<a>&nope;</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InvalidEntity(_)));
    }

    #[test]
    fn skips_declaration_comments_doctype_and_pis() {
        let doc = parse_document(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE bib [<!ELEMENT bib ANY>]>\n<!-- a comment -->\n<bib><?pi data?><x/><!-- inner --></bib>",
        )
        .unwrap();
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn cdata_becomes_text() {
        let doc = parse_document("<a><![CDATA[raw <tags> & stuff]]></a>").unwrap();
        assert_eq!(doc.node(doc.root()).text, "raw <tags> & stuff");
    }

    #[test]
    fn mismatched_close_is_reported_with_its_offset() {
        let err = parse_document("<a><b></a>").unwrap_err();
        match err.kind {
            ParseErrorKind::MismatchedClose { expected, found } => {
                assert_eq!(expected, "b");
                assert_eq!(found, "a");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(err.offset, "<a><b></a>".len());
    }

    #[test]
    fn unexpected_eof_inside_element() {
        let err = parse_document("<a><b>").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_empty_and_rootless_input() {
        assert_eq!(
            parse_document("").unwrap_err().kind,
            ParseErrorKind::EmptyDocument
        );
        assert_eq!(
            parse_document("   \n  ").unwrap_err().kind,
            ParseErrorKind::EmptyDocument
        );
        assert_eq!(
            parse_document("<!-- only a comment -->").unwrap_err().kind,
            ParseErrorKind::EmptyDocument
        );
    }

    #[test]
    fn rejects_second_root_and_trailing_text() {
        assert_eq!(
            parse_document("<a/><b/>").unwrap_err().kind,
            ParseErrorKind::ContentOutsideRoot
        );
        assert_eq!(
            parse_document("<a/>junk").unwrap_err().kind,
            ParseErrorKind::ContentOutsideRoot
        );
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let doc = parse_document("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(doc.node(doc.root()).text, "");
        assert_eq!(doc.len(), 3);
    }

    #[test]
    fn unicode_names_and_text_survive() {
        let doc = parse_document("<livre><títul>café über</títul></livre>").unwrap();
        let t = doc.node(doc.root()).children[0];
        assert_eq!(doc.tag_name(t), "títul");
        assert_eq!(doc.node(t).text, "café über");
    }

    #[test]
    fn roundtrip_through_renderer() {
        let src = "<bib><author><name>A &amp; B</name><year>2003</year></author></bib>";
        let doc = parse_document(src).unwrap();
        let rendered = doc.to_xml();
        let doc2 = parse_document(&rendered).unwrap();
        assert_eq!(doc.len(), doc2.len());
        for ((_, a), (_, b)) in doc.nodes().zip(doc2.nodes()) {
            assert_eq!(a.dewey, b.dewey);
            assert_eq!(a.text, b.text);
        }
    }

    #[test]
    fn error_offsets_count_bytes_across_lines() {
        let err = parse_document("<a>\n\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(err.offset, "<a>\n\n  <b></c>".len());
    }
}
