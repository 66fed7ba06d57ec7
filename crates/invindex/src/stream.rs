//! Streaming index construction over the zero-copy scanner.
//!
//! [`build_streaming`] is the corpus-scale ingest path: instead of
//! parsing a DOM and walking it (`Index::build`), it drives
//! [`xmldom::scan_with`] over the borrowed XML buffer and builds the
//! index from span events in four phases:
//!
//! 1. **Scan** (sequential): one pass collects, per element, its name
//!    and attribute-region spans plus its depth, and the spans of the
//!    text segments it owns. Nothing is decoded or copied — the phase
//!    is delimiter scanning plus two flat `Vec` pushes per element.
//! 2. **Tokenize** (parallel): the element array is cut into contiguous
//!    chunks at element boundaries, balanced by the byte weight each
//!    element contributes (tag + attributes + owned text). Workers
//!    decode entities, assemble each element's joined text, and count
//!    tokens against a *chunk-local* vocabulary, recording per-element
//!    token counts in first-encounter order (tag, then text, then
//!    attributes — the reference builder's traversal order).
//! 3. **Merge** (sequential, pipelined with 2): workers feed finished
//!    chunks through a channel bounded at `threads` entries and the
//!    merge consumes them strictly in range order, so only a bounded
//!    window of tokenized output is ever resident. Each chunk is
//!    replayed in document order through a [`DocumentBuilder`], which
//!    assigns exactly the Dewey labels and node types the DOM path
//!    would (the chunk boundary needs no special stitching: the
//!    builder's open-element stack *is* the prefix Dewey state carried
//!    across chunks). Chunk-local token ids are rebound to the global
//!    vocabulary lazily; because chunks are consumed in document order
//!    and per-element counts are in first-encounter order, the global
//!    interner sees first occurrences in exactly the sequential order —
//!    keyword ids, posting lists and therefore persisted store bytes
//!    are identical to the DOM path regardless of thread count.
//! 4. **Frequency tables** (parallel): `tf(k, T)` and `f^T_k` in one
//!    fused ancestor walk per posting via the shared [`crate::dfpass`],
//!    consuming the per-posting occurrence counts recorded by the merge.
//!
//! Peak memory is the input buffer plus the span arrays (dropped before
//! phase 4) plus the bounded chunk window plus the index under
//! construction — no DOM text/attribute duplication, and the scanner
//! itself keeps only its bounded open-tag stack
//! ([`xmldom::MAX_SCAN_DEPTH`]).
//!
//! Each phase reports its wall time to an `obs` histogram
//! (`invindex_ingest_{scan,tokenize,merge,df}_nanos`).

use crate::dfpass;
use crate::fxhash::FxMap;
use crate::index::Index;
use crate::postings::{Posting, PostingList};
use crate::stats::{KeywordId, KeywordTable, TypeStats};
use std::sync::Arc;
use std::time::Instant;
use xmldom::scan::{scan_with, AttrIter, ScanSink, Span};
use xmldom::{decode_text, for_each_token, DocumentBuilder, ScanError};

/// One element as collected by the scan phase.
#[derive(Debug, Clone, Copy)]
struct RawNode {
    name: Span,
    attrs: Span,
    /// 1-based depth (the root element has depth 1).
    depth: u32,
}

/// One text segment, attributed to the innermost open element.
#[derive(Debug, Clone, Copy)]
struct RawText {
    owner: u32,
    span: Span,
    cdata: bool,
}

#[derive(Default)]
struct Collector {
    nodes: Vec<RawNode>,
    texts: Vec<RawText>,
    stack: Vec<u32>,
}

impl ScanSink for Collector {
    fn start_tag(&mut self, name: Span, attrs: Span) {
        let id = self.nodes.len() as u32;
        self.nodes.push(RawNode {
            name,
            attrs,
            depth: self.stack.len() as u32 + 1,
        });
        self.stack.push(id);
    }

    fn end_tag(&mut self) {
        self.stack.pop();
    }

    fn text(&mut self, span: Span, cdata: bool) {
        if let Some(&owner) = self.stack.last() {
            self.texts.push(RawText { owner, span, cdata });
        }
    }
}

/// One tokenized element: token counts against the chunk-local
/// vocabulary (first-encounter order), decoded attributes, and the
/// joined text content.
struct NodeOut {
    counts: Vec<(u32, u64)>,
    attrs: Vec<(String, String)>,
    text: String,
}

/// One worker's output: its local vocabulary in first-encounter order
/// plus one [`NodeOut`] per element of its range.
struct ChunkOut {
    vocab: Vec<String>,
    nodes: Vec<NodeOut>,
}

/// Sequential merge state threaded through the chunk pipeline: replays
/// each chunk's structure into the shared [`DocumentBuilder`] and binds
/// chunk-local keyword ids to the global interner in first-encounter
/// order, so the result is independent of how the ranges were cut.
struct MergeState<'a> {
    nodes: &'a [RawNode],
    builder: DocumentBuilder,
    vocab: KeywordTable,
    lists: Vec<PostingList>,
    /// Per-posting occurrence counts, parallel to `lists` — the fused
    /// tf/df pass consumes them, keeping the hash-heavy frequency work
    /// out of this sequential loop.
    counts_flat: Vec<Vec<u64>>,
    n_nodes: Vec<u64>,
    open_depth: usize,
    global: usize,
}

impl<'a> MergeState<'a> {
    fn new(nodes: &'a [RawNode]) -> Self {
        MergeState {
            nodes,
            builder: DocumentBuilder::new(),
            vocab: KeywordTable::new(),
            lists: Vec::new(),
            counts_flat: Vec::new(),
            n_nodes: Vec::new(),
            open_depth: 0,
            global: 0,
        }
    }

    fn consume(&mut self, xml: &str, chunk: ChunkOut) {
        // Chunk-local keyword id -> global id, bound on first use so the
        // global interner still sees strings in document-order
        // first-encounter order.
        let mut memo: Vec<Option<KeywordId>> = vec![None; chunk.vocab.len()];
        for out in chunk.nodes {
            let raw = &self.nodes[self.global];
            self.global += 1;
            while self.open_depth >= raw.depth as usize {
                self.builder.close_element();
                self.open_depth -= 1;
            }
            let id = self.builder.open_element(raw.name.slice(xml));
            self.open_depth += 1;
            for (name, value) in out.attrs {
                self.builder.attribute_owned(name, value);
            }
            self.builder.text_owned(out.text);
            let node = self.builder.node(id);
            let node_type = node.node_type;
            let dewey = node.dewey.clone();
            if self.n_nodes.len() <= node_type.0 as usize {
                self.n_nodes.resize(node_type.0 as usize + 1, 0);
            }
            self.n_nodes[node_type.0 as usize] += 1;
            for &(local, c) in &out.counts {
                let k = match memo[local as usize] {
                    Some(k) => k,
                    None => {
                        let k = self.vocab.intern(&chunk.vocab[local as usize]);
                        memo[local as usize] = Some(k);
                        k
                    }
                };
                while self.lists.len() <= k.0 as usize {
                    self.lists.push(PostingList::new());
                    self.counts_flat.push(Vec::new());
                }
                self.lists[k.0 as usize].push(Posting::new(dewey.clone(), node_type));
                self.counts_flat[k.0 as usize].push(c);
            }
        }
    }
}

/// Builds the index directly from XML text via the streaming scanner,
/// using up to `threads` tokenizer workers (`<= 1` runs inline).
///
/// Produces an index identical to `Index::build(parse_document(xml))` —
/// including keyword ids and persisted bytes — for every document the
/// scanner accepts; malformed input returns the scanner's structured
/// error instead of a DOM parse error.
pub fn build_streaming(xml: &str, threads: usize) -> Result<Index, ScanError> {
    // ---- phase 1: scan -----------------------------------------------
    let t_scan = Instant::now();
    let mut collector = Collector::default();
    scan_with(xml, &mut collector)?;
    let nodes = collector.nodes;
    let mut texts = collector.texts;
    // Group each element's text segments (they are not contiguous in
    // document order: `<r><a>x</a>tail</r>` interleaves owners). The
    // stable sort keeps each owner's segments in document order.
    texts.sort_by_key(|t| t.owner);
    let mut text_start = vec![0usize; nodes.len() + 1];
    for t in &texts {
        text_start[t.owner as usize + 1] += 1;
    }
    for i in 1..text_start.len() {
        text_start[i] += text_start[i - 1];
    }
    obs::histogram!("invindex_ingest_scan_nanos").observe_duration(t_scan.elapsed());

    // ---- phases 2+3: tokenize (parallel) into merge (sequential) -----
    //
    // Chunks flow through a channel bounded at `threads` entries and are
    // merged strictly in range order, so at most ~2x`threads` chunks of
    // tokenized output are ever resident — the merge keeps up with the
    // workers instead of the whole corpus's token stream materialising
    // first.
    let t_pipe = Instant::now();
    // ~4 MB of source per chunk keeps the in-flight window small while
    // still amortising per-chunk vocabulary duplication.
    const CHUNK_TARGET_BYTES: usize = 4 << 20;
    let parts = (xml.len() / CHUNK_TARGET_BYTES + 1).max(threads.max(1));
    let ranges = chunk_ranges(&nodes, &texts, &text_start, parts);
    let mut merge = MergeState::new(&nodes);
    let mut merge_spent = std::time::Duration::ZERO;
    if threads <= 1 {
        for &(lo, hi) in &ranges {
            let chunk = tokenize_range(xml, &nodes, &texts, &text_start, lo, hi);
            let t_merge = Instant::now();
            merge.consume(xml, chunk);
            merge_spent += t_merge.elapsed();
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, ChunkOut)>(threads);
            let (ranges, next) = (&ranges, &next);
            let (nodes, texts, text_start) = (&nodes, &texts, &text_start);
            for _ in 0..threads.min(ranges.len()) {
                let tx = tx.clone();
                s.spawn(move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&(lo, hi)) = ranges.get(i) else {
                        break;
                    };
                    let chunk = tokenize_range(xml, nodes, texts, text_start, lo, hi);
                    if tx.send((i, chunk)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Merge in range order; out-of-order arrivals wait in
            // `pending` (bounded by the channel + worker count).
            let mut pending: std::collections::BTreeMap<usize, ChunkOut> =
                std::collections::BTreeMap::new();
            let mut expect = 0usize;
            for (i, chunk) in rx {
                pending.insert(i, chunk);
                while let Some(chunk) = pending.remove(&expect) {
                    expect += 1;
                    let t_merge = Instant::now();
                    merge.consume(xml, chunk);
                    merge_spent += t_merge.elapsed();
                }
            }
        });
    }
    let MergeState {
        mut builder,
        vocab,
        lists,
        counts_flat,
        mut n_nodes,
        mut open_depth,
        ..
    } = merge;
    while open_depth > 0 {
        builder.close_element();
        open_depth -= 1;
    }
    let doc = Arc::new(builder.finish());
    drop(texts);
    drop(nodes);
    drop(text_start);
    obs::histogram!("invindex_ingest_tokenize_nanos")
        .observe_duration(t_pipe.elapsed().saturating_sub(merge_spent));
    obs::histogram!("invindex_ingest_merge_nanos").observe_duration(merge_spent);

    // ---- phase 4: tf(k,T) and f^T_k (parallel) -----------------------
    let t_df = Instant::now();
    let (tf, df) = dfpass::compute_tf_df(&doc, &lists, &counts_flat, threads);
    let num_types = doc.node_types().len();
    n_nodes.resize(num_types, 0);
    let mut distinct = vec![0u64; num_types];
    for &(t, _) in df.keys() {
        distinct[t.0 as usize] += 1;
    }
    let stats = TypeStats::set_from_parts(n_nodes, distinct, tf, df);
    obs::histogram!("invindex_ingest_df_nanos").observe_duration(t_df.elapsed());

    Ok(Index::from_parts(doc, vocab, lists, stats))
}

/// Cuts `[0, nodes.len())` into at most `parts` contiguous ranges with
/// roughly equal byte weight (tag + attribute region + owned text), so
/// text-heavy regions don't serialise the tokenize phase.
fn chunk_ranges(
    nodes: &[RawNode],
    texts: &[RawText],
    text_start: &[usize],
    parts: usize,
) -> Vec<(usize, usize)> {
    if nodes.is_empty() {
        return Vec::new();
    }
    if parts <= 1 {
        return vec![(0, nodes.len())];
    }
    let weight = |i: usize| -> u64 {
        let n = &nodes[i];
        let owned: usize = texts
            .get(text_start[i]..text_start[i + 1])
            .unwrap_or(&[])
            .iter()
            .map(|t| t.span.len())
            .sum();
        (n.name.len() + n.attrs.len() + owned) as u64 + 8
    };
    let total: u64 = (0..nodes.len()).map(weight).sum();
    let target = total.div_ceil(parts as u64).max(1);
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = 0usize;
    let mut acc = 0u64;
    for i in 0..nodes.len() {
        acc += weight(i);
        if acc >= target && ranges.len() + 1 < parts {
            ranges.push((lo, i + 1));
            lo = i + 1;
            acc = 0;
        }
    }
    if lo < nodes.len() {
        ranges.push((lo, nodes.len()));
    }
    ranges
}

/// Tokenizes elements `[lo, hi)`: decodes attributes and text, counts
/// tokens in the reference builder's order (tag, text, attributes)
/// against a chunk-local first-encounter vocabulary.
fn tokenize_range(
    xml: &str,
    nodes: &[RawNode],
    texts: &[RawText],
    text_start: &[usize],
    lo: usize,
    hi: usize,
) -> ChunkOut {
    let mut vocab: Vec<String> = Vec::new();
    let mut seen: FxMap<String, u32> = FxMap::default();
    let mut out_nodes: Vec<NodeOut> = Vec::with_capacity(hi - lo);
    let mut node_seen: FxMap<u32, usize> = FxMap::default();
    let mut scratch = String::new();
    for (i, raw) in nodes.iter().enumerate().take(hi).skip(lo) {
        let mut counts: Vec<(u32, u64)> = Vec::new();
        node_seen.clear();
        // Tokens arrive as borrowed slices; only a first occurrence in
        // this chunk allocates (into the local vocabulary).
        let mut bump = |tok: &str, counts: &mut Vec<(u32, u64)>| {
            let local = match seen.get(tok) {
                Some(&l) => l,
                None => {
                    let l = vocab.len() as u32;
                    seen.insert(tok.to_string(), l);
                    vocab.push(tok.to_string());
                    l
                }
            };
            match node_seen.get(&local) {
                Some(&at) => counts[at].1 += 1,
                None => {
                    node_seen.insert(local, counts.len());
                    counts.push((local, 1));
                }
            }
        };

        let tag = raw.name.slice(xml);
        for_each_token(tag, &mut scratch, |tok| bump(tok, &mut counts));

        // Joined text: per segment, CDATA is trimmed verbatim while
        // character data is entity-decoded then trimmed; empty segments
        // drop and the rest join with a single space — exactly the
        // DocumentBuilder::text accumulation the parser performs.
        let mut text = String::new();
        for t in texts.get(text_start[i]..text_start[i + 1]).unwrap_or(&[]) {
            let raw_seg = t.span.slice(xml);
            let decoded;
            let seg = if t.cdata {
                raw_seg.trim()
            } else {
                decoded = decode_text(raw_seg).expect("scanner validated entities");
                decoded.trim()
            };
            if seg.is_empty() {
                continue;
            }
            if !text.is_empty() {
                text.push(' ');
            }
            text.push_str(seg);
        }
        for_each_token(&text, &mut scratch, |tok| bump(tok, &mut counts));

        let mut attrs: Vec<(String, String)> = Vec::new();
        for (name, raw_value) in AttrIter::new(xml, raw.attrs) {
            let value = decode_text(raw_value).expect("scanner validated entities");
            for_each_token(name, &mut scratch, |tok| bump(tok, &mut counts));
            for_each_token(&value, &mut scratch, |tok| bump(tok, &mut counts));
            attrs.push((name.to_string(), value.into_owned()));
        }

        out_nodes.push(NodeOut {
            counts,
            attrs,
            text,
        });
    }
    ChunkOut {
        vocab,
        nodes: out_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldom::fixtures::figure1;
    use xmldom::parse_document;

    fn assert_equivalent(xml: &str, threads: usize) {
        let doc = Arc::new(parse_document(xml).expect("parse"));
        let seq = Index::build(Arc::clone(&doc));
        let stream = build_streaming(xml, threads).expect("stream");
        assert_eq!(seq.vocabulary().len(), stream.vocabulary().len());
        for (k, text) in seq.vocabulary().iter() {
            assert_eq!(
                stream.vocabulary().get(text),
                Some(k),
                "{text} interned differently with {threads} threads"
            );
            assert_eq!(seq.list(text), stream.list(text), "lists differ for {text}");
            for t in doc.node_types().iter() {
                assert_eq!(seq.stats().tf(t, k), stream.stats().tf(t, k), "tf {text}");
                assert_eq!(seq.stats().df(t, k), stream.stats().df(t, k), "df {text}");
            }
        }
        for t in doc.node_types().iter() {
            assert_eq!(seq.stats().n_nodes(t), stream.stats().n_nodes(t));
            assert_eq!(
                seq.stats().distinct_keywords(t),
                stream.stats().distinct_keywords(t)
            );
        }
        // Same rendered document too (attributes, text joins, labels).
        assert_eq!(doc.to_xml(), stream.document().to_xml());
    }

    #[test]
    fn streaming_matches_dom_on_figure1() {
        let xml = figure1().to_xml();
        for threads in [1, 2, 3, 8] {
            assert_equivalent(&xml, threads);
        }
    }

    #[test]
    fn streaming_handles_mixed_content_and_entities() {
        let xml = "<r a=\"x &amp; y\"><p>one <b>two</b> three &#65;</p><![CDATA[ignored?]]>\
                   <q>  </q><p/>tail</r>";
        // Note: CDATA outside any element would be rejected; this one is
        // inside <r>, interleaved with element children.
        for threads in [1, 4] {
            assert_equivalent(xml, threads);
        }
    }

    #[test]
    fn streaming_rejects_malformed_input() {
        for bad in ["", "<a><b></a>", "<a>&nope;</a>", "plain text"] {
            assert!(build_streaming(bad, 2).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn chunking_is_thread_count_invariant() {
        // A document whose text mass is concentrated in one element, so
        // byte-balanced chunking actually produces uneven node ranges.
        let mut xml = String::from("<r>");
        for i in 0..50 {
            xml.push_str(&format!("<e>word{i}</e>"));
        }
        xml.push_str("<big>");
        xml.push_str(&"lorem ipsum dolor ".repeat(200));
        xml.push_str("</big></r>");
        for threads in [1, 2, 5, 8] {
            assert_equivalent(&xml, threads);
        }
    }
}
