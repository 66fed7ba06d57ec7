//! Streaming zero-copy structural scanner.
//!
//! The scanner walks a borrowed, complete XML buffer and emits *span
//! events* — byte ranges into the input — instead of materialising a DOM
//! or allocating per-event `String`s. It is the ingest half of the
//! structural-index pipeline: `invindex::stream` consumes the spans to
//! tokenize and label chunks in parallel, and `scan_with` is also usable
//! directly for validation passes (`check_document`).
//!
//! Contract with the reference parser ([`crate::parser`]):
//!
//! * **Acceptance parity.** `check_document(x).is_ok() ==
//!   parse_document(x).is_ok()` for every input below
//!   [`MAX_SCAN_DEPTH`]; the scanner replicates the parser's control
//!   flow construct by construct (same markup dispatch, same name
//!   grammar, same entity grammar, same well-formedness rules). The
//!   fuzz sweep in `tests/scan_fuzz.rs` exercises this.
//! * **Event parity.** For accepted input, start/text/end events arrive
//!   in exactly the order the parser would call its `XmlHandler`, with
//!   text spans still entity-encoded (decoding is the consumer's job,
//!   via [`decode_text`], so it can run in parallel workers).
//! * **Bounded memory.** The scanner holds only the open-element span
//!   stack and a per-tag attribute scratch list: at [`MAX_SCAN_DEPTH`]
//!   (8192) levels × 16-byte spans that is a ~128 KiB ceiling, the one
//!   intentional divergence from the parser (which recurses its open
//!   tags into heap `String`s without limit). Inputs deeper than the
//!   limit are rejected with [`ScanErrorKind::DepthLimitExceeded`].
//!
//! Delimiter search is SWAR (8-byte words, zero-byte trick) rather than
//! per-byte — the scanner's hot loop is "find the next `<`", which this
//! makes cache-speed without any SIMD intrinsics or dependencies.
//!
//! Errors are structured ([`ScanError`] with a byte offset), never
//! panics; the module is under the `no-panic-paths` lint scope.

use std::borrow::Cow;
use std::fmt;

/// Maximum element nesting the scanner accepts. Bounds the streaming
/// state: the open-tag stack is `MAX_SCAN_DEPTH × 16` bytes ≈ 128 KiB.
pub const MAX_SCAN_DEPTH: usize = 8192;

/// A byte range into the scanned input. Spans always start and end on
/// UTF-8 boundaries (every delimiter the scanner splits at is ASCII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// The spanned text. Returns `""` for a span that does not lie
    /// inside `input` (a span can only be used with the buffer it was
    /// scanned from).
    pub fn slice<'a>(&self, input: &'a str) -> &'a str {
        input.get(self.start..self.end).unwrap_or("")
    }
}

/// Why scanning failed. Mirrors [`crate::parser::ParseErrorKind`]
/// variant for variant (minus the allocated payloads — scan errors are
/// zero-copy too), plus [`DepthLimitExceeded`] for the bounded-memory
/// guarantee.
///
/// [`DepthLimitExceeded`]: ScanErrorKind::DepthLimitExceeded
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanErrorKind {
    UnexpectedEof,
    InvalidMarkup,
    InvalidName,
    MismatchedClose,
    ContentOutsideRoot,
    EmptyDocument,
    UnterminatedComment,
    UnterminatedCdata,
    UnterminatedPi,
    UnterminatedDoctype,
    InvalidAttribute,
    DuplicateAttribute,
    InvalidEntity,
    BareLt,
    DepthLimitExceeded,
}

/// A scan error with the byte offset it was detected at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanError {
    pub kind: ScanErrorKind,
    pub offset: usize,
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML scan error at byte {}: {:?}", self.offset, self.kind)
    }
}

impl std::error::Error for ScanError {}

/// Receiver of span events. Called in well-formed document order: the
/// scanner guarantees `start_tag`/`end_tag` balance exactly and `text`
/// only arrives inside an open element.
pub trait ScanSink {
    /// An element opened. `name` spans the tag name, `attrs` the raw
    /// attribute region (parse it lazily with [`AttrIter`]).
    fn start_tag(&mut self, name: Span, attrs: Span);
    /// The innermost open element closed (explicitly or `/>`).
    fn end_tag(&mut self);
    /// Character data (still entity-encoded; ASCII-trimmed) or a CDATA
    /// section (verbatim; trimmed). May still decode/trim to nothing —
    /// the consumer applies the final [`decode_text`]`.trim()`.
    fn text(&mut self, span: Span, cdata: bool);
}

/// Throughput accounting for one scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Bytes consumed (equals the input length on success).
    pub bytes: u64,
    /// Events delivered to the sink.
    pub events: u64,
}

struct NullSink;

impl ScanSink for NullSink {
    fn start_tag(&mut self, _name: Span, _attrs: Span) {}
    fn end_tag(&mut self) {}
    fn text(&mut self, _span: Span, _cdata: bool) {}
}

/// Scans a complete XML document into `sink`, enforcing the same
/// well-formedness rules as [`crate::parse_with`]. Metrics
/// (`xmldom_scan_bytes_total`, `xmldom_events_total`) are accumulated
/// locally and flushed once per scan.
pub fn scan_with<S: ScanSink>(input: &str, sink: &mut S) -> Result<ScanStats, ScanError> {
    let mut scanner = Scanner {
        input: input.as_bytes(),
        text: input,
        pos: 0,
        sink,
        open: Vec::new(),
        attr_scratch: Vec::new(),
        seen_root: false,
        events: 0,
    };
    let result = scanner.run();
    let stats = ScanStats {
        bytes: scanner.pos.min(input.len()) as u64,
        events: scanner.events,
    };
    obs::counter!("xmldom_scan_bytes_total").add(stats.bytes);
    obs::counter!("xmldom_events_total").add(stats.events);
    result?;
    if !scanner.seen_root {
        return Err(ScanError {
            kind: ScanErrorKind::EmptyDocument,
            offset: input.len(),
        });
    }
    Ok(stats)
}

/// Validates a document without materialising anything: runs the full
/// scanner (structure, names, attributes, entities) against a no-op
/// sink.
pub fn check_document(input: &str) -> Result<ScanStats, ScanError> {
    scan_with(input, &mut NullSink)
}

struct Scanner<'a, S: ScanSink> {
    input: &'a [u8],
    text: &'a str,
    pos: usize,
    sink: &'a mut S,
    /// Name spans of the open elements — the bounded streaming state.
    open: Vec<Span>,
    /// Attribute-name spans of the tag being scanned (duplicate check).
    attr_scratch: Vec<Span>,
    seen_root: bool,
    events: u64,
}

impl<'a, S: ScanSink> Scanner<'a, S> {
    fn err(&self, kind: ScanErrorKind) -> ScanError {
        ScanError {
            kind,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn rest(&self) -> &'a [u8] {
        self.input.get(self.pos..).unwrap_or(&[])
    }

    fn range(&self, start: usize, end: usize) -> &'a [u8] {
        self.input.get(start..end).unwrap_or(&[])
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.rest().starts_with(s)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn run(&mut self) -> Result<(), ScanError> {
        loop {
            if self.open.is_empty() {
                self.skip_whitespace();
            }
            match self.peek() {
                None => {
                    if self.open.is_empty() {
                        return Ok(());
                    }
                    return Err(self.err(ScanErrorKind::UnexpectedEof));
                }
                Some(b'<') => self.markup()?,
                Some(_) => self.character_data()?,
            }
        }
    }

    fn markup(&mut self) -> Result<(), ScanError> {
        if self.starts_with(b"<!--") {
            self.comment()
        } else if self.starts_with(b"<![CDATA[") {
            self.cdata()
        } else if self.starts_with(b"<!DOCTYPE") {
            self.doctype()
        } else if self.starts_with(b"<?") {
            self.processing_instruction()
        } else if self.starts_with(b"</") {
            self.close_tag()
        } else {
            self.open_tag()
        }
    }

    fn comment(&mut self) -> Result<(), ScanError> {
        self.pos += 4;
        match find_sub(self.rest(), b"-->") {
            Some(end) => {
                self.pos += end + 3;
                Ok(())
            }
            None => Err(self.err(ScanErrorKind::UnterminatedComment)),
        }
    }

    fn cdata(&mut self) -> Result<(), ScanError> {
        if self.open.is_empty() {
            return Err(self.err(ScanErrorKind::ContentOutsideRoot));
        }
        self.pos += 9;
        match find_sub(self.rest(), b"]]>") {
            Some(end) => {
                let span = self.trimmed(self.pos, self.pos + end);
                if !span.is_empty() {
                    self.sink.text(span, true);
                    self.events += 1;
                }
                self.pos += end + 3;
                Ok(())
            }
            None => Err(self.err(ScanErrorKind::UnterminatedCdata)),
        }
    }

    fn doctype(&mut self) -> Result<(), ScanError> {
        // Skip to the matching `>`, tolerating one bracketed internal
        // subset (same tolerance as the parser).
        self.pos += 9;
        let mut depth = 0usize;
        while let Some(b) = self.peek() {
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(self.err(ScanErrorKind::UnterminatedDoctype))
    }

    fn processing_instruction(&mut self) -> Result<(), ScanError> {
        self.pos += 2;
        match find_sub(self.rest(), b"?>") {
            Some(end) => {
                self.pos += end + 2;
                Ok(())
            }
            None => Err(self.err(ScanErrorKind::UnterminatedPi)),
        }
    }

    fn name_span(&mut self) -> Result<Span, ScanError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if !is_name_byte(b) {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(ScanErrorKind::InvalidName));
        }
        let first = self.input.get(start).copied().unwrap_or(0);
        if first.is_ascii_digit() || first == b'-' || first == b'.' {
            return Err(self.err(ScanErrorKind::InvalidName));
        }
        Ok(Span {
            start,
            end: self.pos,
        })
    }

    fn open_tag(&mut self) -> Result<(), ScanError> {
        if self.seen_root && self.open.is_empty() {
            return Err(self.err(ScanErrorKind::ContentOutsideRoot));
        }
        self.pos += 1; // '<'
        let name = self.name_span()?;
        self.seen_root = true;
        if self.open.len() >= MAX_SCAN_DEPTH {
            return Err(self.err(ScanErrorKind::DepthLimitExceeded));
        }
        self.open.push(name);

        let attrs_start = self.pos;
        self.attr_scratch.clear();
        loop {
            self.skip_whitespace();
            match self.peek() {
                None => return Err(self.err(ScanErrorKind::UnexpectedEof)),
                Some(b'>') => {
                    let attrs = Span {
                        start: attrs_start,
                        end: self.pos,
                    };
                    self.pos += 1;
                    self.sink.start_tag(name, attrs);
                    self.events += 1;
                    return Ok(());
                }
                Some(b'/') => {
                    if !self.starts_with(b"/>") {
                        return Err(self.err(ScanErrorKind::InvalidMarkup));
                    }
                    let attrs = Span {
                        start: attrs_start,
                        end: self.pos,
                    };
                    self.pos += 2;
                    self.sink.start_tag(name, attrs);
                    self.sink.end_tag();
                    self.events += 2;
                    self.open.pop();
                    return Ok(());
                }
                Some(_) => self.attribute()?,
            }
        }
    }

    fn attribute(&mut self) -> Result<(), ScanError> {
        let attr = self.name_span()?;
        let dup = self
            .attr_scratch
            .iter()
            .any(|s| self.range(s.start, s.end) == self.range(attr.start, attr.end));
        if dup {
            return Err(self.err(ScanErrorKind::DuplicateAttribute));
        }
        self.skip_whitespace();
        if self.peek() != Some(b'=') {
            return Err(self.err(ScanErrorKind::InvalidAttribute));
        }
        self.pos += 1;
        self.skip_whitespace();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err(ScanErrorKind::InvalidAttribute)),
        };
        self.pos += 1;
        let vstart = self.pos;
        // The value runs to the closing quote; `<` inside it is the
        // parser's BareLt error and EOF its UnexpectedEof.
        match find_byte2(self.rest(), quote, b'<') {
            Some(off) => {
                self.pos += off;
                if self.peek() == Some(b'<') {
                    return Err(self.err(ScanErrorKind::BareLt));
                }
            }
            None => {
                self.pos = self.input.len();
                return Err(self.err(ScanErrorKind::UnexpectedEof));
            }
        }
        self.validate_entities(vstart, self.pos)?;
        self.pos += 1; // closing quote
        self.attr_scratch.push(attr);
        Ok(())
    }

    fn close_tag(&mut self) -> Result<(), ScanError> {
        self.pos += 2; // '</'
        let name = self.name_span()?;
        self.skip_whitespace();
        if self.peek() != Some(b'>') {
            return Err(self.err(ScanErrorKind::InvalidMarkup));
        }
        self.pos += 1;
        match self.open.pop() {
            Some(open) if self.range(open.start, open.end) == self.range(name.start, name.end) => {
                self.sink.end_tag();
                self.events += 1;
                Ok(())
            }
            Some(_) => Err(self.err(ScanErrorKind::MismatchedClose)),
            None => Err(self.err(ScanErrorKind::ContentOutsideRoot)),
        }
    }

    fn character_data(&mut self) -> Result<(), ScanError> {
        if self.open.is_empty() {
            return Err(self.err(ScanErrorKind::ContentOutsideRoot));
        }
        let start = self.pos;
        let end = match find_byte(self.rest(), b'<') {
            Some(off) => start + off,
            None => self.input.len(),
        };
        self.pos = end;
        self.validate_entities(start, end)?;
        let span = self.trimmed(start, end);
        if !span.is_empty() {
            self.sink.text(span, false);
            self.events += 1;
        }
        Ok(())
    }

    /// ASCII-trims a byte range into a span. The consumer still applies
    /// the full Unicode `str::trim` after decoding (matching the
    /// parser); this pre-trim only sheds the common whitespace so
    /// whitespace-only runs never become events.
    fn trimmed(&self, mut start: usize, mut end: usize) -> Span {
        while start < end && matches!(self.input.get(start), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            start += 1;
        }
        while end > start && matches!(self.input.get(end - 1), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            end -= 1;
        }
        Span { start, end }
    }

    /// Validates every `&...;` reference in the range against the
    /// parser's entity grammar, without allocating.
    fn validate_entities(&self, start: usize, end: usize) -> Result<(), ScanError> {
        let mut i = start;
        while i < end {
            let Some(off) = find_byte(self.range(i, end), b'&') else {
                return Ok(());
            };
            let amp = i + off;
            let Some(semi_off) = find_byte(self.range(amp + 1, end), b';') else {
                return Err(ScanError {
                    kind: ScanErrorKind::InvalidEntity,
                    offset: amp,
                });
            };
            let semi = amp + 1 + semi_off;
            let entity = self.text.get(amp + 1..semi).unwrap_or("");
            if resolve_entity(entity).is_none() {
                return Err(ScanError {
                    kind: ScanErrorKind::InvalidEntity,
                    offset: amp,
                });
            }
            i = semi + 1;
        }
        Ok(())
    }
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' || b == b':' || b >= 0x80
}

/// Resolves one entity body (the text between `&` and `;`) to its
/// character: the five predefined names plus `#NN` / `#xNN` references.
/// Exactly the grammar of the reference parser.
fn resolve_entity(entity: &str) -> Option<char> {
    match entity {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            if let Some(hex) = entity
                .strip_prefix("#x")
                .or_else(|| entity.strip_prefix("#X"))
            {
                u32::from_str_radix(hex, 16).ok().and_then(char::from_u32)
            } else if let Some(dec) = entity.strip_prefix('#') {
                dec.parse::<u32>().ok().and_then(char::from_u32)
            } else {
                None
            }
        }
    }
}

/// Decodes the five predefined entities and numeric character
/// references, borrowing when the input contains no `&` at all. This is
/// the streaming counterpart of the parser's `decode_entities`; spans
/// handed out by the scanner are guaranteed to decode cleanly, so the
/// error arm only fires for text that never went through `scan_with`.
pub fn decode_text(raw: &str) -> Result<Cow<'_, str>, ScanError> {
    if !raw.as_bytes().contains(&b'&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    loop {
        let Some(amp) = rest.find('&') else {
            out.push_str(rest);
            return Ok(Cow::Owned(out));
        };
        out.push_str(rest.get(..amp).unwrap_or(""));
        rest = rest.get(amp..).unwrap_or("");
        let err = ScanError {
            kind: ScanErrorKind::InvalidEntity,
            offset: raw.len() - rest.len(),
        };
        let Some(semi) = rest.find(';') else {
            return Err(err);
        };
        let Some(ch) = rest.get(1..semi).and_then(resolve_entity) else {
            return Err(err);
        };
        out.push(ch);
        rest = rest.get(semi + 1..).unwrap_or("");
    }
}

/// Zero-copy iterator over the attributes of a scanned start tag.
///
/// Yields `(name, raw_value)` pairs; values are still entity-encoded
/// (decode with [`decode_text`]). The scanner has already validated the
/// region, so the iterator simply stops at anything unparseable.
pub struct AttrIter<'a> {
    input: &'a str,
    pos: usize,
    end: usize,
}

impl<'a> AttrIter<'a> {
    pub fn new(input: &'a str, attrs: Span) -> Self {
        AttrIter {
            input,
            pos: attrs.start.min(input.len()),
            end: attrs.end.min(input.len()),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes().get(self.pos..self.end).unwrap_or(&[])
    }

    fn skip_whitespace(&mut self) {
        while matches!(
            self.input.as_bytes().get(self.pos),
            Some(b' ' | b'\t' | b'\r' | b'\n')
        ) && self.pos < self.end
        {
            self.pos += 1;
        }
    }
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        self.skip_whitespace();
        if self.pos >= self.end {
            return None;
        }
        let nstart = self.pos;
        while self
            .input
            .as_bytes()
            .get(self.pos)
            .is_some_and(|&b| is_name_byte(b))
            && self.pos < self.end
        {
            self.pos += 1;
        }
        if self.pos == nstart {
            return None;
        }
        let name = self.input.get(nstart..self.pos)?;
        self.skip_whitespace();
        if self.input.as_bytes().get(self.pos) != Some(&b'=') {
            return None;
        }
        self.pos += 1;
        self.skip_whitespace();
        let quote = match self.input.as_bytes().get(self.pos) {
            Some(&q @ (b'"' | b'\'')) => q,
            _ => return None,
        };
        self.pos += 1;
        let vstart = self.pos;
        let off = find_byte(self.bytes(), quote)?;
        let value = self.input.get(vstart..vstart + off)?;
        self.pos = vstart + off + 1;
        Some((name, value))
    }
}

/// Streaming Dewey labeller: reproduces the labels
/// [`crate::DocumentBuilder`] would assign, holding only the current
/// root-to-node path and one child counter per open level.
#[derive(Debug, Default)]
// xlint::allow(unused-export): independent labeller — the ingest differential checks stream labels against it, no builder involved
pub struct DeweyTracker {
    /// Components of the current open element's label.
    path: Vec<u32>,
    /// Completed-children count per open level.
    counts: Vec<u32>,
}

impl DeweyTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enters an element; returns the components of its Dewey label.
    pub fn start_element(&mut self) -> &[u32] {
        let ordinal = self.counts.last().copied().unwrap_or(0);
        self.path.push(ordinal);
        self.counts.push(0);
        &self.path
    }

    /// Leaves the current element.
    pub fn end_element(&mut self) {
        self.path.pop();
        self.counts.pop();
        if let Some(c) = self.counts.last_mut() {
            *c += 1;
        }
    }

    /// Components of the current open element's label (empty between
    /// the root's close and the next document).
    pub fn current(&self) -> &[u32] {
        &self.path
    }

    /// Current open depth (the root counts as 1).
    pub fn depth(&self) -> usize {
        self.path.len()
    }
}

// ---------------------------------------------------------------------
// SWAR byte search: 8 bytes per step via the zero-byte trick
// (`(w - 0x01..01) & !w & 0x80..80` has a high bit per zero byte).
// ---------------------------------------------------------------------

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

#[inline]
fn splat(b: u8) -> u64 {
    LO * b as u64
}

#[inline]
fn zero_byte_mask(w: u64) -> u64 {
    w.wrapping_sub(LO) & !w & HI
}

/// Index of the first occurrence of `needle`, scanning 8 bytes a step.
pub(crate) fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let pat = splat(needle);
    let mut i = 0usize;
    let mut chunks = haystack.chunks_exact(8);
    for chunk in &mut chunks {
        if let Ok(arr) = <[u8; 8]>::try_from(chunk) {
            let m = zero_byte_mask(u64::from_le_bytes(arr) ^ pat);
            if m != 0 {
                return Some(i + (m.trailing_zeros() as usize) / 8);
            }
        }
        i += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|p| i + p)
}

/// Index of the first occurrence of either needle.
pub(crate) fn find_byte2(haystack: &[u8], a: u8, b: u8) -> Option<usize> {
    let pa = splat(a);
    let pb = splat(b);
    let mut i = 0usize;
    let mut chunks = haystack.chunks_exact(8);
    for chunk in &mut chunks {
        if let Ok(arr) = <[u8; 8]>::try_from(chunk) {
            let w = u64::from_le_bytes(arr);
            let m = zero_byte_mask(w ^ pa) | zero_byte_mask(w ^ pb);
            if m != 0 {
                return Some(i + (m.trailing_zeros() as usize) / 8);
            }
        }
        i += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&x| x == a || x == b)
        .map(|p| i + p)
}

/// Substring search: SWAR on the first byte, then a tail compare.
fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let (&first, tail) = needle.split_first()?;
    let mut base = 0usize;
    loop {
        let window = haystack.get(base..)?;
        let at = base + find_byte(window, first)?;
        let rest = haystack.get(at + 1..at + needle.len())?;
        if rest == tail {
            return Some(at);
        }
        base = at + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    /// Collects events as owned strings for assertions.
    #[derive(Default)]
    struct Events {
        log: Vec<String>,
    }

    struct Recorder<'a> {
        input: &'a str,
        events: Events,
    }

    impl ScanSink for Recorder<'_> {
        fn start_tag(&mut self, name: Span, attrs: Span) {
            self.events.log.push(format!(
                "start:{}|{}",
                name.slice(self.input),
                attrs.slice(self.input).trim()
            ));
        }
        fn end_tag(&mut self) {
            self.events.log.push("end".into());
        }
        fn text(&mut self, span: Span, cdata: bool) {
            self.events.log.push(format!(
                "{}:{}",
                if cdata { "cdata" } else { "text" },
                span.slice(self.input)
            ));
        }
    }

    fn events(input: &str) -> Vec<String> {
        let mut rec = Recorder {
            input,
            events: Events::default(),
        };
        scan_with(input, &mut rec).expect("scan");
        rec.events.log
    }

    #[test]
    fn emits_span_events_in_document_order() {
        let ev = events("<bib><author><name>Mike</name><x a=\"1\"/></author></bib>");
        assert_eq!(
            ev,
            [
                "start:bib|",
                "start:author|",
                "start:name|",
                "text:Mike",
                "end",
                "start:x|a=\"1\"",
                "end",
                "end",
                "end",
            ]
        );
    }

    #[test]
    fn text_spans_are_ascii_trimmed_and_raw() {
        let ev = events("<a>\n  x &amp; y  \n</a>");
        assert_eq!(ev, ["start:a|", "text:x &amp; y", "end"]);
    }

    #[test]
    fn cdata_spans_are_verbatim() {
        let ev = events("<a><![CDATA[ raw <tags> & stuff ]]></a>");
        assert_eq!(ev, ["start:a|", "cdata:raw <tags> & stuff", "end"]);
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let ev = events("<a>\n  <b/>\n</a>");
        assert_eq!(ev, ["start:a|", "start:b|", "end", "end"]);
    }

    #[test]
    fn markup_skips_match_parser() {
        let ev = events(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE bib [<!ELEMENT bib ANY>]>\n<!-- c -->\n<bib><?pi data?><x/></bib>",
        );
        assert_eq!(ev, ["start:bib|", "start:x|", "end", "end"]);
    }

    #[test]
    fn acceptance_parity_with_parser() {
        let cases = [
            "<a/>",
            "<a></a>",
            "<a x=\"1\" y='two &amp; three'/>",
            "<a>x &lt; y &#65;&#x42;</a>",
            "<livre><títul>café über</títul></livre>",
            "<a><![CDATA[x]]></a>",
            "<a>&nope;</a>",
            "<a x=\"1\" x=\"2\"/>",
            "<a><b></a>",
            "<a><b>",
            "",
            "   \n  ",
            "<!-- only a comment -->",
            "<a/><b/>",
            "<a/>junk",
            "<a b=\"un<closed\"/>",
            "<a b=unquoted/>",
            "<a b=\"x",
            "<a 1bad=\"x\"/>",
            "<a>&#xZZ;</a>",
            "<a>&#;</a>",
            "<a>& loose</a>",
            "<a><!-- unterminated",
            "<a><![CDATA[ unterminated",
            "<?pi unterminated",
            "<!DOCTYPE unterminated",
            "<a / >",
            "<a></a  >",
            "junk<a/>",
            "<a attr  =  'v'  ></a>",
        ];
        for case in cases {
            let dom = parse_document(case);
            let scan = check_document(case);
            assert_eq!(
                dom.is_ok(),
                scan.is_ok(),
                "acceptance diverges on {case:?}: dom={dom:?} scan={scan:?}"
            );
        }
    }

    #[test]
    fn error_kinds_mirror_parser_kinds() {
        use ScanErrorKind::*;
        for (input, kind) in [
            ("", EmptyDocument),
            ("<a><b>", UnexpectedEof),
            ("<a><b></a>", MismatchedClose),
            ("<a/><b/>", ContentOutsideRoot),
            ("<a>&nope;</a>", InvalidEntity),
            ("<a x=\"1\" x=\"2\"/>", DuplicateAttribute),
            ("<a b=unquoted/>", InvalidAttribute),
            ("<a b=\"un<closed\"/>", BareLt),
            ("<a b=\"x", UnexpectedEof),
            ("<a><!-- nope", UnterminatedComment),
        ] {
            let err = check_document(input).expect_err("must fail");
            assert_eq!(err.kind, kind, "on {input:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "<a>".repeat(MAX_SCAN_DEPTH + 1);
        let err = check_document(&deep).expect_err("too deep");
        assert_eq!(err.kind, ScanErrorKind::DepthLimitExceeded);
        let ok = format!("{}{}", "<a>".repeat(100), "</a>".repeat(100));
        assert!(check_document(&ok).is_ok());
    }

    #[test]
    fn dewey_tracker_matches_document_builder() {
        let input = "<bib><author><name>x</name><y/></author><author/></bib>";
        struct Tracked<'a> {
            tracker: DeweyTracker,
            labels: Vec<Vec<u32>>,
            _input: &'a str,
        }
        impl ScanSink for Tracked<'_> {
            fn start_tag(&mut self, _n: Span, _a: Span) {
                let label = self.tracker.start_element().to_vec();
                self.labels.push(label);
            }
            fn end_tag(&mut self) {
                self.tracker.end_element();
            }
            fn text(&mut self, _s: Span, _c: bool) {}
        }
        let mut sink = Tracked {
            tracker: DeweyTracker::new(),
            labels: Vec::new(),
            _input: input,
        };
        scan_with(input, &mut sink).expect("scan");
        let doc = parse_document(input).expect("parse");
        let expected: Vec<Vec<u32>> = doc
            .nodes()
            .map(|(_, n)| n.dewey.components().to_vec())
            .collect();
        assert_eq!(sink.labels, expected);
    }

    #[test]
    fn attr_iter_walks_scanned_region() {
        let input = "<a x=\"1\"  y = 'two &amp; three' z=\"\"/>";
        struct Grab {
            attrs: Option<Span>,
        }
        impl ScanSink for Grab {
            fn start_tag(&mut self, _n: Span, a: Span) {
                self.attrs = Some(a);
            }
            fn end_tag(&mut self) {}
            fn text(&mut self, _s: Span, _c: bool) {}
        }
        let mut g = Grab { attrs: None };
        scan_with(input, &mut g).expect("scan");
        let pairs: Vec<(String, String)> = AttrIter::new(input, g.attrs.expect("attrs"))
            .map(|(n, v)| (n.to_string(), decode_text(v).expect("decodes").into_owned()))
            .collect();
        assert_eq!(
            pairs,
            [
                ("x".into(), "1".into()),
                ("y".into(), "two & three".into()),
                ("z".into(), String::new()),
            ]
        );
    }

    #[test]
    fn decode_text_borrows_when_clean() {
        assert!(matches!(
            decode_text("plain text").expect("ok"),
            Cow::Borrowed(_)
        ));
        assert_eq!(decode_text("x &lt; &#65;&#x42;").expect("ok"), "x < AB");
        assert!(decode_text("&bogus;").is_err());
        assert!(decode_text("& alone").is_err());
    }

    #[test]
    fn swar_search_agrees_with_naive() {
        let hay = b"abcdefghij<klmno&pqrstuvwxyz<0123456789";
        for needle in [b'<', b'&', b'z', b'a', b'!'] {
            assert_eq!(
                find_byte(hay, needle),
                hay.iter().position(|&b| b == needle),
                "needle {}",
                needle as char
            );
        }
        assert_eq!(
            find_byte2(hay, b'&', b'<'),
            hay.iter().position(|&b| b == b'&' || b == b'<')
        );
        for (h, n, want) in [
            (&b"aa-->bb"[..], &b"-->"[..], Some(2)),
            (b"-- ->-->", b"-->", Some(5)),
            (b"no terminator", b"]]>", None),
            (b"--", b"-->", None),
        ] {
            assert_eq!(find_sub(h, n), want, "{h:?}");
        }
    }

    #[test]
    fn scan_stats_count_bytes_and_events() {
        let input = "<a><b>hi</b></a>";
        let stats = check_document(input).expect("ok");
        assert_eq!(stats.bytes, input.len() as u64);
        // start a, start b, text, end b, end a
        assert_eq!(stats.events, 5);
    }
}
