//! Index persistence over any [`KvStore`] (the paper stores all indices in
//! Berkeley DB, §VII; we store them in the workspace B+-tree).
//!
//! There is one on-disk format. Its key space:
//!
//! * `M/version`                — format version (raw varint: it is the
//!   byte that says how everything else is framed, so it cannot itself
//!   be framed);
//! * `D/types`                  — the document but its records: the
//!   root element, the tag-name symbols, the `(parent type, tag)`
//!   node-type table, and the node and record counts;
//! * `D/<ordinal:u32 BE>`       — one record (a root child, one
//!   partition) as a hash-consed subtree DAG with its own string table,
//!   tags written as symbol ids, so a record is read, and rewritten,
//!   alone, and [`crate::KvBackedIndex`] opens on `D/types` with no
//!   re-parse;
//! * `V/<keyword>`              — keyword id (u32 LE);
//! * `L/<id:u32 BE>`            — posting list (blocked
//!   [`CompressedList`] encoding with a skip table);
//! * `S/N`, `S/G`               — `N_T` / `G_T` vectors (varints);
//! * `S/T`, `S/D`               — `tf(k,T)` / `f^T_k` tables, packed
//!   into one delta-encoded blob each.
//!
//! **Every** value except `M/version` is framed as
//! `varint(len(payload)) ‖ crc32(payload):u32 LE ‖ payload`, so a flipped
//! byte in any stored value is detected at decode time, not interpreted.
//! Corruption of any entry yields [`KvError::Corrupt`], never a panic.
//! How a value is framed and encoded is known to this module and
//! [`crate::postings`] alone; `read_version` is the one place a store
//! written by another build is recognised, and it refuses it.
//!
//! Node-type and keyword ids are deterministic for a given document (both
//! interners assign ids in parse order, and the document expansion
//! replays exactly that order), so the lists and statistics
//! [`crate::KvBackedIndex`] — the one reader of this format — serves
//! from a store equal those of a rebuilt index.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing
    )
)]

use crate::index::Index;
use crate::postings::{read_varint, write_varint, CompressedList, PostingList};
use crate::stats::{KeywordId, KeywordTable, TypeStats};
use kvstore::{crc32, KvError, KvStore, Result};
use std::collections::HashMap;
use xmldom::{
    Document, DocumentBuilder, Node, NodeId, NodeTypeId, NodeTypeTable, Symbol, SymbolTable,
};

/// The on-disk format: compressed posting lists (blocked front-coded
/// Dewey deltas behind a skip table), the document as a header and one
/// DAG-deduplicated chunk per record, and packed stat tables, every
/// value class framed and checksummed.
pub const FORMAT_VERSION: u64 = 5;

/// Writes the index into `store`.
pub fn persist(index: &Index, store: &mut dyn KvStore) -> Result<()> {
    let mut buf = Vec::new();
    write_varint(&mut buf, FORMAT_VERSION);
    store.put(b"M/version", &buf)?;

    encode_document(index.document(), |key, value| store.put(key, value))?;

    for (k, text) in index.vocabulary().iter() {
        let (key, value) = vocab_entry(k, text);
        store.put(&key, &value)?;
    }

    for (key, value) in list_entries(index.lists()) {
        store.put(&key, &value)?;
    }

    for (key, value) in stats_entries(index.stats()) {
        store.put(key, &value)?;
    }
    store.sync()
}

/// The `V/` entry of keyword `k`.
pub(crate) fn vocab_entry(k: KeywordId, text: &str) -> (Vec<u8>, Vec<u8>) {
    let key = [b"V/".as_slice(), text.as_bytes()].concat();
    (key, frame_value(&k.0.to_le_bytes()))
}

/// The `S/` entries of `stats`: `S/N`, `S/G`, `S/T` and `S/D`.
pub(crate) fn stats_entries(stats: &TypeStats) -> [(&'static [u8], Vec<u8>); 4] {
    // The stat tables are hash maps; pack their entries in sorted (t, k)
    // order so the stored bytes are a pure function of the index
    // contents (`ingest_differential.rs` relies on persisted
    // byte-identity). Each table is one delta-encoded blob: a per-entry
    // layout spends ~18 bytes of key + frame on a value that is usually
    // one byte, and the stat tables dominate store size on real corpora.
    // The trade-off (DESIGN.md §4i): the CRC covers the whole table, so
    // stat damage is table-granular rather than per-keyword.
    let mut tf: Vec<_> = stats.iter_tf().collect();
    tf.sort_unstable_by_key(|&(t, k, _)| (t.0, k.0));
    let mut df: Vec<_> = stats.iter_df().collect();
    df.sort_unstable_by_key(|&(t, k, _)| (t.0, k.0));
    [
        (b"S/N", varint_vec_value(stats.n_nodes_vec())),
        (b"S/G", varint_vec_value(stats.distinct_keywords_vec())),
        (b"S/T", frame_value(&encode_packed_stats(&tf))),
        (b"S/D", frame_value(&encode_packed_stats(&df))),
    ]
}

/// A framed vector of varints (`S/N`, `S/G`).
fn varint_vec_value(values: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    for &v in values {
        write_varint(&mut buf, v);
    }
    frame_value(&buf)
}

/// The `L/` entries of `lists` (indexed by keyword id), encoded one at a
/// time: [`persist`] writes them into its store, and
/// [`crate::KvBackedIndex::from_built`] into the `MemKv` it reads from.
pub(crate) fn list_entries(lists: &[PostingList]) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> + '_ {
    (0u32..)
        .zip(lists)
        .map(|(id, list)| (list_key(id), encode_list_value(list)))
}

/// Reads the format version and refuses anything but [`FORMAT_VERSION`]:
/// the store is outside input, and a store written by another build is
/// reported, never interpreted.
pub(crate) fn read_version(store: &dyn KvStore) -> Result<u64> {
    let vbuf = store
        .get(b"M/version")?
        .ok_or_else(|| KvError::corrupt("missing index version"))?;
    let mut pos = 0;
    let version =
        read_varint(&vbuf, &mut pos).ok_or_else(|| KvError::corrupt("bad version encoding"))?;
    if version != FORMAT_VERSION {
        return Err(KvError::corrupt(format!(
            "unsupported index format version {version} (this build reads version \
             {FORMAT_VERSION} only); re-index the corpus with `xrefine-cli index`"
        )));
    }
    Ok(version)
}

/// Rebuilds the keyword table from the `V/` entries. Vocabulary damage
/// is always fatal: keyword ids must be gapless, so a single undecodable
/// id makes every later id ambiguous.
pub(crate) fn load_vocab(store: &dyn KvStore) -> Result<KeywordTable> {
    let mut vocab = KeywordTable::new();
    let mut texts: Vec<(u32, String)> = Vec::new();
    for (key, value) in store.scan_prefix(b"V/")? {
        let text = String::from_utf8(key.get(2..).unwrap_or_default().to_vec())
            .map_err(|_| KvError::corrupt("non-UTF-8 keyword"))?;
        let raw = unframe_value(&value, &format!("keyword id for {text:?}"))?;
        let id = u32::from_le_bytes(
            raw.try_into()
                .map_err(|_| KvError::corrupt(format!("bad keyword id for {text:?}")))?,
        );
        texts.push((id, text));
    }
    texts.sort_by_key(|(id, _)| *id);
    for (expected, (id, text)) in texts.iter().enumerate() {
        if *id as usize != expected {
            return Err(KvError::corrupt("keyword id gap"));
        }
        vocab.intern(text);
    }
    Ok(vocab)
}

/// Rebuilds the frequency statistics from the `S/` entries. Each table
/// is one CRC-framed blob with no per-keyword owner, so any damage is
/// an error.
pub(crate) fn load_stats(store: &dyn KvStore) -> Result<TypeStats> {
    let framed = |name: &str| -> Result<Vec<u8>> {
        store
            .get(name.as_bytes())?
            .ok_or_else(|| KvError::corrupt(format!("missing {name}")))
    };
    let n_nodes = decode_varint_vec(unframe_value(&framed("S/N")?, "S/N")?)?;
    let distinct = decode_varint_vec(unframe_value(&framed("S/G")?, "S/G")?)?;
    let tf = decode_packed_stats(unframe_value(&framed("S/T")?, "S/T")?)?;
    let df = decode_packed_stats(unframe_value(&framed("S/D")?, "S/D")?)?;
    Ok(TypeStats::set_from_parts(n_nodes, distinct, tf, df))
}

/// Prefix of every posting-list key.
const LIST_PREFIX: &[u8] = b"L/";

/// The `L/` key of a keyword id.
pub(crate) fn list_key(id: u32) -> Vec<u8> {
    let mut key = Vec::with_capacity(6);
    key.extend_from_slice(LIST_PREFIX);
    key.extend_from_slice(&id.to_be_bytes());
    key
}

/// The keyword id an `L/` key names; `None` for any other key.
pub(crate) fn list_id(key: &[u8]) -> Option<u32> {
    let id = key.strip_prefix(LIST_PREFIX)?.try_into().ok()?;
    Some(u32::from_be_bytes(id))
}

/// Frames `payload` as `varint(len) ‖ crc32 ‖ payload`.
pub(crate) fn frame_value(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len().saturating_add(9));
    frame_into(&mut out, payload);
    out
}

/// [`frame_value`] into a reused buffer.
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.clear();
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Validates a frame written by [`frame_value`] and returns its payload.
pub(crate) fn unframe_value<'a>(value: &'a [u8], what: &str) -> Result<&'a [u8]> {
    let mut pos = 0;
    let len = read_varint(value, &mut pos)
        .ok_or_else(|| KvError::corrupt(format!("{what}: bad frame length header")))?
        as usize;
    let rest = value.get(pos..).unwrap_or(&[]);
    if len.checked_add(4) != Some(rest.len()) {
        return Err(KvError::corrupt(format!(
            "{what}: frame length mismatch: header {len}, got {}",
            rest.len().saturating_sub(4)
        )));
    }
    let Some((crc_bytes, payload)) = rest.split_first_chunk::<4>() else {
        return Err(KvError::corrupt(format!(
            "{what}: frame too short for its checksum"
        )));
    };
    let stored = u32::from_le_bytes(*crc_bytes);
    let actual = crc32(payload);
    if stored != actual {
        return Err(KvError::corrupt(format!(
            "{what}: checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(payload)
}

/// Encodes one posting list as a stored value. Public so the
/// compression test battery can corrupt framed values directly.
pub fn encode_list_value(list: &PostingList) -> Vec<u8> {
    let compressed = list.encode_compressed();
    obs::counter!("compress_encoded_bytes_total").add(compressed.len() as u64);
    frame_value(&compressed)
}

/// Decodes one stored list value whole, validating the frame. Public so
/// the compression test battery can assert corrupt frames surface
/// [`KvError::Corrupt`]; the reader reads values block by block
/// ([`crate::StoredList::read`]).
// xlint::allow(unused-export): the compression battery's whole-value decoder, the oracle the block-lazy reader is held to
pub fn decode_list_value(value: &[u8]) -> Result<PostingList> {
    CompressedList::parse(unframe_value(value, "posting list")?)?.decode_all()
}

// ----- document codec: `D/types` and one DAG chunk per record --------
//
// The document is stored as a header and one chunk per record (root
// child). `D/types` holds everything but the records:
//
//   varint n_symbols ‖ (varint len ‖ bytes)*              tag names
//   varint n_types ‖ (varint parent+1, 0 for none ‖ varint tag)*
//   varint n_attrs ‖ (name ‖ value)* ‖ text               the root element
//   varint nodes ‖ varint records
//
// Type 0 is the root's, its tag the root's tag, and every symbol is
// some type's tag. `D/<ordinal:u32 BE>`
// holds one record. Repeated subtrees (DBLP-style corpora are full of
// them: every `<paper><title>…</title></paper>` shares its shape, many
// share whole contents) are hash-consed into one tuple each, and every
// text and attribute string is interned once in the chunk's table:
//
//   varint mark                           the node types the root and
//                                         the records before it use
//   varint n_strings ‖ (varint len ‖ bytes)*
//   varint n_tuples
//   per tuple, in construction (post-) order:
//     varint tag_symbol ‖ varint n_attrs ‖ (name_sid ‖ value_sid)*
//     ‖ varint text_sid ‖ varint n_children ‖ child tuple ids
//   varint nodes
//
// The record's root is the last tuple: no subtree of a record equals the
// whole of it. Child ids always reference earlier tuples, so the
// structure is acyclic by construction on both ends. `nodes` bounds
// expansion: a forged payload whose DAG expands past it (a "DAG bomb")
// is rejected after at most `nodes` emitted nodes. Tags are symbol ids of
// `D/types`, and a record's node types are found by replaying it under
// the header's tables, which must already hold them. Types and symbols
// get their ids in first-open order, so the mark is what a commit that
// drops this record and every later one truncates the type table to,
// and the symbols to its types' tags ([`tables_before`]): it reads no
// chunk it keeps.
//
// The encoder is one post-order pass over dense tables (one tuple lookup
// per node, as in Böttcher et al.'s minimal-DAG construction): a node's
// tuple id sits in a vector indexed by `NodeId`, and the string table
// borrows its keys from the document. A tuple is formed in one reused
// `u32` buffer in exactly its payload order, looked up by slice, and on
// a miss written to the payload and kept as the one allocation it costs.
// The tables and buffers are cleared between chunks, never freed. Both
// maps keep std's keyed hasher: the strings come from update fragments,
// which a client chooses, so the unkeyed `fxhash` maps are not for them.

/// The key of the document header.
pub(crate) const TYPES_KEY: &[u8] = b"D/types";

/// Prefix of every document key.
const DOC_PREFIX: &[u8] = b"D/";

/// The `D/` key of record `ordinal`'s chunk.
pub(crate) fn chunk_key(ordinal: u32) -> [u8; 6] {
    let [a, b, c, d] = ordinal.to_be_bytes();
    [b'D', b'/', a, b, c, d]
}

/// The record ordinal a chunk key names; `None` for any other key,
/// `D/types` included.
pub(crate) fn chunk_ordinal(key: &[u8]) -> Option<u32> {
    let ordinal = key.strip_prefix(DOC_PREFIX)?.try_into().ok()?;
    Some(u32::from_be_bytes(ordinal))
}

/// What `D/types` holds: the document but its records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DocHeader {
    pub(crate) symbols: SymbolTable,
    pub(crate) node_types: NodeTypeTable,
    pub(crate) root_attributes: Vec<(String, String)>,
    pub(crate) root_text: String,
    /// Element nodes, the root included.
    pub(crate) nodes: u64,
    /// Root children.
    pub(crate) records: u32,
}

impl DocHeader {
    /// `doc`'s header.
    pub(crate) fn of(doc: &Document) -> DocHeader {
        let root = doc.node(doc.root());
        DocHeader {
            symbols: doc.symbols().clone(),
            node_types: doc.node_types().clone(),
            root_attributes: root.attributes.clone(),
            root_text: root.text.clone(),
            nodes: doc.len() as u64,
            records: root.children.len() as u32,
        }
    }
}

/// The mark of the first record: the root alone uses type 0.
const FIRST_MARK: u32 = 1;

/// The tables of a document cut before the record whose chunk holds
/// `mark`: the node types the root and the records before it use, and
/// the symbols those types' tags are.
pub(crate) fn tables_before(header: &DocHeader, mark: u32) -> (SymbolTable, NodeTypeTable) {
    let mut node_types = header.node_types.clone();
    node_types.truncate(mark as usize);
    let used = node_types
        .iter()
        .map(|t| (node_types.tag(t).0 as usize).saturating_add(1))
        .max();
    let mut symbols = header.symbols.clone();
    symbols.truncate(used.unwrap_or(0));
    (symbols, node_types)
}

/// Writes `doc` as `D/types` and one chunk per record, handing each key
/// and framed value to `put`. Public so the allocation-budget test can
/// encode `D/` alone.
pub fn encode_document(
    doc: &Document,
    mut put: impl FnMut(&[u8], &[u8]) -> Result<()>,
) -> Result<()> {
    let mut enc = ChunkEncoder::new(doc);
    let root = doc.node(doc.root());
    enc.header(
        doc.symbols(),
        doc.node_types(),
        root,
        doc.len() as u64,
        root.children.len() as u32,
    );
    put(TYPES_KEY, &enc.out)?;
    enc.records(FIRST_MARK, put)
}

/// The tables and buffers of one document's encode, reused chunk after
/// chunk.
pub(crate) struct ChunkEncoder<'d> {
    doc: &'d Document,
    /// String id of each string of the chunk, keyed by the document's
    /// own bytes.
    string_ids: HashMap<&'d str, u32>,
    /// The chunk's string table payload, in first-seen order.
    strings: Vec<u8>,
    /// Tuple id of each node closed so far.
    node_tuple: Vec<u32>,
    /// Tuple id of each distinct tuple of the chunk, keyed by its fields.
    tuple_ids: HashMap<Box<[u32]>, u32>,
    /// The chunk's tuples, in construction order.
    tuples: Vec<u8>,
    /// The tuple being formed, in payload order.
    scratch: Vec<u32>,
    /// The walk's open elements.
    open: Vec<NodeId>,
    /// The payload being framed.
    payload: Vec<u8>,
    /// The framed value last written.
    out: Vec<u8>,
}

impl<'d> ChunkEncoder<'d> {
    /// An encoder whose tables and buffers fit `doc`'s largest chunk
    /// and its header, so no chunk grows them.
    pub(crate) fn new(doc: &'d Document) -> Self {
        let most = ChunkBounds::of(doc);
        let header = doc
            .symbols()
            .len()
            .saturating_mul(32)
            .saturating_add(doc.node_types().len().saturating_mul(20))
            .saturating_add(ChunkBounds::node(doc.node(doc.root())).string_bytes)
            .saturating_add(64);
        let payload = most
            .string_bytes
            .saturating_add(most.tuple_bytes)
            .saturating_add(64)
            .max(header);
        ChunkEncoder {
            doc,
            string_ids: HashMap::with_capacity(most.strings),
            strings: Vec::with_capacity(most.string_bytes),
            node_tuple: vec![0; doc.len()],
            tuple_ids: HashMap::with_capacity(most.nodes),
            tuples: Vec::with_capacity(most.tuple_bytes),
            scratch: Vec::with_capacity(most.width),
            open: Vec::with_capacity(most.depth),
            payload: Vec::with_capacity(payload),
            out: Vec::with_capacity(payload.saturating_add(16)),
        }
    }

    /// Frames the `D/types` value of a document with these tables and
    /// this root, `nodes` elements and `records` root children into
    /// [`Self::out`].
    pub(crate) fn header(
        &mut self,
        symbols: &SymbolTable,
        node_types: &NodeTypeTable,
        root: &Node,
        nodes: u64,
        records: u32,
    ) -> &[u8] {
        let p = &mut self.payload;
        p.clear();
        write_varint(p, symbols.len() as u64);
        for s in (0..symbols.len() as u32).map(Symbol) {
            write_bytes(p, symbols.resolve(s).as_bytes());
        }
        write_varint(p, node_types.len() as u64);
        for t in node_types.iter() {
            let parent = node_types.parent(t).map_or(0, |p| u64::from(p.0) + 1);
            write_varint(p, parent);
            write_varint(p, u64::from(node_types.tag(t).0));
        }
        write_varint(p, root.attributes.len() as u64);
        for (name, value) in &root.attributes {
            write_bytes(p, name.as_bytes());
            write_bytes(p, value.as_bytes());
        }
        write_bytes(p, root.text.as_bytes());
        write_varint(p, nodes);
        write_varint(p, u64::from(records));
        frame_into(&mut self.out, &self.payload);
        &self.out
    }

    /// Encodes each root child of the document, the first at mark
    /// `start`, and hands its key and framed value to `put`.
    pub(crate) fn records(
        &mut self,
        start: u32,
        mut put: impl FnMut(&[u8], &[u8]) -> Result<()>,
    ) -> Result<()> {
        let doc = self.doc;
        let records = &doc.node(doc.root()).children;
        let (mut dedup_hits, mut bytes) = (0u64, 0u64);
        let mut mark = start;
        for (i, &record) in records.iter().enumerate() {
            let end = records
                .get(i.saturating_add(1))
                .map_or(doc.len(), |c| c.0 as usize);
            let (nodes, end_mark) = self.chunk(record, end, mark);
            let distinct = self.tuple_ids.len() as u64;
            dedup_hits = dedup_hits.saturating_add(nodes.saturating_sub(distinct));
            bytes = bytes.saturating_add(self.payload.len() as u64);
            let ordinal = doc
                .node(record)
                .dewey
                .components()
                .last()
                .copied()
                .unwrap_or_default();
            put(&chunk_key(ordinal), &self.out)?;
            mark = end_mark;
        }
        // Every node either made a new tuple or hit an earlier one.
        obs::counter!("compress_dedup_hits_total").add(dedup_hits);
        obs::counter!("compress_encoded_bytes_total").add(bytes);
        Ok(())
    }

    /// Frames the chunk of the record whose nodes are `record..end` into
    /// [`Self::out`]; returns its node count and the mark it ends at.
    fn chunk(&mut self, record: NodeId, end: usize, start: u32) -> (u64, u32) {
        self.string_ids.clear();
        self.strings.clear();
        self.tuple_ids.clear();
        self.tuples.clear();
        let mut mark = start;
        // Arena order is pre-order, so a node's parent is open when it
        // comes up; a node is closed — its tuple formed — once the walk
        // leaves its subtree, which is post-order.
        let mut open = std::mem::take(&mut self.open);
        let first = record.0 as usize;
        for id in (first..end).map(|i| NodeId(i as u32)) {
            let node = self.doc.node(id);
            mark = mark.max(node.node_type.0.saturating_add(1));
            while let Some(&top) = open.last() {
                if Some(top) == node.parent {
                    break;
                }
                open.pop();
                self.close(top);
            }
            open.push(id);
        }
        while let Some(top) = open.pop() {
            self.close(top);
        }
        self.open = open;
        let nodes = end.saturating_sub(first) as u64;
        let p = &mut self.payload;
        p.clear();
        write_varint(p, u64::from(start));
        write_varint(p, self.string_ids.len() as u64);
        p.extend_from_slice(&self.strings);
        write_varint(p, self.tuple_ids.len() as u64);
        p.extend_from_slice(&self.tuples);
        write_varint(p, nodes);
        frame_into(&mut self.out, &self.payload);
        (nodes, mark)
    }

    fn intern(&mut self, s: &'d str) -> u32 {
        let next = self.string_ids.len() as u32;
        *self.string_ids.entry(s).or_insert_with(|| {
            write_bytes(&mut self.strings, s.as_bytes());
            next
        })
    }

    /// Forms `id`'s tuple and records its tuple id, a new one unless an
    /// equal subtree of the chunk was closed before.
    #[expect(
        clippy::indexing_slicing,
        reason = "`node_tuple` has a slot for every node, and post-order closes each child \
                  before its parent reads the child's slot"
    )]
    fn close(&mut self, id: NodeId) {
        let doc = self.doc;
        let node = doc.node(id);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.push(node.tag.0);
        scratch.push(node.attributes.len() as u32);
        for (name, value) in &node.attributes {
            scratch.push(self.intern(name));
            scratch.push(self.intern(value));
        }
        scratch.push(self.intern(&node.text));
        scratch.push(node.children.len() as u32);
        scratch.extend(node.children.iter().map(|c| self.node_tuple[c.0 as usize]));
        let tid = match self.tuple_ids.get(scratch.as_slice()) {
            Some(&tid) => tid,
            None => {
                let tid = self.tuple_ids.len() as u32;
                for &field in &scratch {
                    write_varint(&mut self.tuples, u64::from(field));
                }
                self.tuple_ids.insert(scratch.as_slice().into(), tid);
                tid
            }
        };
        self.node_tuple[id.0 as usize] = tid;
        self.scratch = scratch;
    }
}

/// Upper bounds on what one chunk's encode holds, as the maxima over a
/// document's records.
#[derive(Default)]
struct ChunkBounds {
    nodes: usize,
    /// Strings interned: a text per node, a name and a value per
    /// attribute.
    strings: usize,
    /// String table bytes, each string with a length varint.
    string_bytes: usize,
    /// Tuple bytes: at most five per `u32` field.
    tuple_bytes: usize,
    /// The widest tuple, in fields.
    width: usize,
    /// The deepest nesting.
    depth: usize,
}

impl ChunkBounds {
    /// What one node adds.
    fn node(node: &Node) -> ChunkBounds {
        let attrs = node.attributes.len();
        let bytes = node
            .attributes
            .iter()
            .map(|(n, v)| n.len().saturating_add(v.len()));
        let width = attrs
            .saturating_mul(2)
            .saturating_add(node.children.len())
            .saturating_add(4);
        ChunkBounds {
            nodes: 1,
            strings: attrs.saturating_mul(2).saturating_add(1),
            string_bytes: bytes
                .fold(node.text.len(), usize::saturating_add)
                .saturating_add(attrs.saturating_mul(20).saturating_add(10)),
            tuple_bytes: width.saturating_mul(5),
            width,
            depth: 0,
        }
    }

    /// The maxima over `doc`'s records.
    fn of(doc: &Document) -> ChunkBounds {
        let mut most = ChunkBounds::default();
        let mut record = ChunkBounds::default();
        for (_, node) in doc.nodes().skip(1) {
            let depth = node.dewey.len();
            if depth == 2 {
                most = most.max(&record);
                record = ChunkBounds::default();
            }
            let n = ChunkBounds::node(node);
            record.nodes = record.nodes.saturating_add(1);
            record.strings = record.strings.saturating_add(n.strings);
            record.string_bytes = record.string_bytes.saturating_add(n.string_bytes);
            record.tuple_bytes = record.tuple_bytes.saturating_add(n.tuple_bytes);
            record.width = record.width.max(n.width);
            record.depth = record.depth.max(depth);
        }
        most.max(&record)
    }

    fn max(&self, other: &ChunkBounds) -> ChunkBounds {
        ChunkBounds {
            nodes: self.nodes.max(other.nodes),
            strings: self.strings.max(other.strings),
            string_bytes: self.string_bytes.max(other.string_bytes),
            tuple_bytes: self.tuple_bytes.max(other.tuple_bytes),
            width: self.width.max(other.width),
            depth: self.depth.max(other.depth),
        }
    }
}

/// Reads and checks the format version, then decodes `D/types`: the
/// first read of every kv-backed open, so the version is checked once on
/// the way in and a foreign store is refused before any of it is
/// interpreted.
pub(crate) fn load_header(store: &dyn KvStore) -> Result<DocHeader> {
    read_version(store)?;
    read_header(store)
}

/// Decodes `D/types`.
fn read_header(store: &dyn KvStore) -> Result<DocHeader> {
    let blob = store
        .get(TYPES_KEY)?
        .ok_or_else(|| KvError::corrupt("store has no document header (D/types)"))?;
    decode_header(unframe_value(&blob, "D/types")?)
}

/// Decodes a `D/types` payload.
fn decode_header(bytes: &[u8]) -> Result<DocHeader> {
    let corrupt = |what: &str| KvError::corrupt(format!("D/types: {what}"));
    let mut pos = 0usize;
    let mut next = |what: &str| read_varint(bytes, &mut pos).ok_or_else(|| corrupt(what));
    let n_symbols = next("missing symbol count")?;
    if n_symbols as usize > bytes.len() {
        return Err(corrupt("symbol count exceeds payload size"));
    }
    let mut symbols = SymbolTable::new();
    for i in 0..n_symbols {
        let name = read_str(bytes, &mut pos).ok_or_else(|| corrupt("bad tag name"))?;
        if u64::from(symbols.intern(name).0) != i {
            return Err(corrupt("a tag name repeats"));
        }
    }
    let mut next = |what: &str| read_varint(bytes, &mut pos).ok_or_else(|| corrupt(what));
    let n_types = next("missing type count")?;
    if n_types == 0 || n_types as usize > bytes.len() {
        return Err(corrupt("type count is zero or exceeds payload size"));
    }
    let mut node_types = NodeTypeTable::new();
    for i in 0..n_types {
        let parent = match next("missing parent type")? {
            0 => None,
            p if p <= i => Some(NodeTypeId(p.saturating_sub(1) as u32)),
            _ => return Err(corrupt("a parent type does not come before its child")),
        };
        if parent.is_none() != (i == 0) {
            return Err(corrupt("the root type, and only it, has no parent"));
        }
        let tag = next("missing type tag")?;
        if tag >= n_symbols {
            return Err(corrupt("type tag out of range"));
        }
        if u64::from(node_types.intern(parent, Symbol(tag as u32)).0) != i {
            return Err(corrupt("a node type repeats"));
        }
    }
    let tags = node_types
        .iter()
        .map(|t| u64::from(node_types.tag(t).0) + 1);
    if tags.max() != Some(n_symbols) {
        return Err(corrupt("a tag name is no type's tag"));
    }
    let n_attrs = next("missing root attribute count")?;
    if n_attrs as usize > bytes.len() {
        return Err(corrupt("root attribute count exceeds payload size"));
    }
    let mut root_attributes = Vec::with_capacity(n_attrs as usize);
    for _ in 0..n_attrs {
        let name = read_str(bytes, &mut pos).ok_or_else(|| corrupt("bad root attribute"))?;
        let value = read_str(bytes, &mut pos).ok_or_else(|| corrupt("bad root attribute"))?;
        root_attributes.push((name.to_string(), value.to_string()));
    }
    let root_text = read_str(bytes, &mut pos)
        .ok_or_else(|| corrupt("bad root text"))?
        .to_string();
    let mut next = |what: &str| read_varint(bytes, &mut pos).ok_or_else(|| corrupt(what));
    let nodes = next("missing node count")?;
    let records = u32::try_from(next("missing record count")?)
        .map_err(|_| corrupt("record count overflow"))?;
    if nodes <= u64::from(records) {
        return Err(corrupt("fewer nodes than the root and its records"));
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(DocHeader {
        symbols,
        node_types,
        root_attributes,
        root_text,
        nodes,
        records,
    })
}

/// One hash-consed subtree, as the decoder reads it: interned field ids
/// plus child tuple ids.
struct DagTuple {
    tag: u32,
    attrs: Vec<(u32, u32)>,
    text: u32,
    children: Vec<u32>,
}

/// One record's chunk, parsed but not expanded.
struct Chunk<'a> {
    mark: u32,
    strings: Vec<&'a str>,
    tuples: Vec<DagTuple>,
    nodes: u64,
}

/// Parses the chunk payload of entry `entry`, checking its structure:
/// every id in range, children before their parents, no trailing bytes.
fn parse_chunk<'a>(bytes: &'a [u8], entry: &str) -> Result<Chunk<'a>> {
    let corrupt = |what: &str| KvError::corrupt(format!("{entry}: record dag: {what}"));
    let mut pos = 0usize;
    let mut next = |what: &str| read_varint(bytes, &mut pos).ok_or_else(|| corrupt(what));
    let mark = u32::try_from(next("missing mark")?).map_err(|_| corrupt("mark overflow"))?;
    let n_strings = next("missing string count")?;
    if n_strings as usize > bytes.len() {
        return Err(corrupt("string count exceeds payload size"));
    }
    let mut strings: Vec<&str> = Vec::with_capacity(n_strings as usize);
    for _ in 0..n_strings {
        strings.push(read_str(bytes, &mut pos).ok_or_else(|| corrupt("bad string"))?);
    }
    let mut next = |what: &str| read_varint(bytes, &mut pos).ok_or_else(|| corrupt(what));
    let sid = |id: u64| -> Result<u32> {
        match u32::try_from(id) {
            Ok(id) if id < n_strings as u32 => Ok(id),
            _ => Err(corrupt("string id out of range")),
        }
    };
    let n_tuples = next("missing tuple count")?;
    if n_tuples == 0 || n_tuples as usize > bytes.len() {
        return Err(corrupt("tuple count is zero or exceeds payload size"));
    }
    let mut tuples: Vec<DagTuple> = Vec::with_capacity(n_tuples as usize);
    for i in 0..n_tuples {
        let tag = u32::try_from(next("missing tag id")?).map_err(|_| corrupt("tag id overflow"))?;
        let n_attrs = next("missing attr count")?;
        if n_attrs as usize > bytes.len() {
            return Err(corrupt("attr count exceeds payload size"));
        }
        let mut attrs = Vec::with_capacity(n_attrs as usize);
        for _ in 0..n_attrs {
            let name = sid(next("missing attr name")?)?;
            attrs.push((name, sid(next("missing attr value")?)?));
        }
        let text = sid(next("missing text id")?)?;
        let n_children = next("missing child count")?;
        if n_children as usize > bytes.len() {
            return Err(corrupt("child count exceeds payload size"));
        }
        let mut children = Vec::with_capacity(n_children as usize);
        for _ in 0..n_children {
            let c = next("missing child id")?;
            if c >= i {
                return Err(corrupt("child id references a later tuple"));
            }
            children.push(c as u32);
        }
        tuples.push(DagTuple {
            tag,
            attrs,
            text,
            children,
        });
    }
    let nodes = next("missing node count")?;
    if nodes == 0 || nodes > u64::from(u32::MAX) {
        return Err(corrupt("node count is zero or overflows"));
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(Chunk {
        mark,
        strings,
        tuples,
        nodes,
    })
}

/// Replays chunks, record by record, into a window of the document that
/// starts at one record ([`DocumentBuilder::resume`] under the header's
/// tables).
struct Replay<'h> {
    header: &'h DocHeader,
    builder: DocumentBuilder,
    /// The mark the next record must start at; `None` before the first
    /// record of a window that does not start at record 0.
    mark: Option<u32>,
}

impl<'h> Replay<'h> {
    fn new(header: &'h DocHeader, first: u32) -> Self {
        let builder = DocumentBuilder::resume(
            header.symbols.clone(),
            header.node_types.clone(),
            header.root_attributes.clone(),
            header.root_text.clone(),
            first,
        );
        Replay {
            header,
            builder,
            mark: (first == 0).then_some(FIRST_MARK),
        }
    }

    /// Expands `chunk`, entry `entry`, as the next root child; returns the
    /// mark it ends at.
    fn record(&mut self, chunk: &Chunk<'_>, entry: &str) -> Result<u32> {
        let corrupt = |what: &str| KvError::corrupt(format!("{entry}: record dag: {what}"));
        let start = *self.mark.get_or_insert(chunk.mark);
        let types = self.header.node_types.len() as u32;
        if chunk.mark != start || start > types {
            return Err(corrupt("its mark disagrees with the records before it"));
        }
        let symbols = &self.header.symbols;
        let builder = &mut self.builder;
        let mut mark = start;
        let mut emitted = 0u64;
        let mut enter = |builder: &mut DocumentBuilder, tid: u32| -> Result<()> {
            if emitted >= chunk.nodes {
                return Err(corrupt("dag expands past its declared node count"));
            }
            emitted = emitted.saturating_add(1);
            let t = chunk
                .tuples
                .get(tid as usize)
                .ok_or_else(|| corrupt("tuple id out of range"))?;
            if t.tag as usize >= symbols.len() {
                return Err(corrupt("tag id out of range"));
            }
            let tag = Symbol(t.tag);
            let id = builder.open_element(symbols.resolve(tag));
            mark = mark.max(builder.node(id).node_type.0.saturating_add(1));
            let sid = |id: u32| chunk.strings.get(id as usize).copied().unwrap_or_default();
            for &(n, v) in &t.attrs {
                builder.attribute(sid(n), sid(v));
            }
            builder.text(sid(t.text));
            Ok(())
        };
        // Pre-order expansion with an explicit (tuple, child-cursor) stack.
        let root = chunk.tuples.len().saturating_sub(1) as u32;
        enter(builder, root)?;
        let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
        while let Some((tid, cursor)) = stack.pop() {
            let t = chunk
                .tuples
                .get(tid as usize)
                .ok_or_else(|| corrupt("tuple id out of range"))?;
            match t.children.get(cursor) {
                Some(&child) => {
                    stack.push((tid, cursor.saturating_add(1)));
                    enter(builder, child)?;
                    stack.push((child, 0));
                }
                None => builder.close_element(),
            }
        }
        if emitted != chunk.nodes {
            return Err(corrupt("dag expands short of its declared node count"));
        }
        // The builder gives a type the header's table lacks the next id.
        if mark > types {
            return Err(corrupt("a tag path is missing from D/types"));
        }
        self.mark = Some(mark);
        Ok(mark)
    }

    /// Closes the root.
    fn finish(mut self) -> Document {
        self.builder.close_element();
        self.builder.finish()
    }
}

/// Records read from the store and replayed into one window.
pub(crate) struct ReadRecords {
    /// The root and the records read.
    pub(crate) doc: Document,
    /// The mark of the first record read; the type count when none is.
    pub(crate) mark: u32,
    /// The records' stored chunk values, in order.
    pub(crate) stored: Vec<Vec<u8>>,
}

/// Reads the chunks of records `range` from `store` and replays them into
/// one window of the document.
pub(crate) fn read_records(
    store: &dyn KvStore,
    header: &DocHeader,
    range: std::ops::Range<u32>,
) -> Result<ReadRecords> {
    if range.end > header.records {
        return Err(KvError::corrupt(format!(
            "record {} read past the {} D/types holds",
            range.end, header.records
        )));
    }
    let mut replay = Replay::new(header, range.start);
    let mut first_mark = None;
    let mut stored = Vec::with_capacity(range.len());
    for ordinal in range {
        let entry = format!("D/{ordinal}");
        let value = store
            .get(&chunk_key(ordinal))?
            .ok_or_else(|| KvError::corrupt(format!("{entry}: missing")))?;
        let chunk = parse_chunk(unframe_value(&value, &entry)?, &entry)?;
        first_mark.get_or_insert(chunk.mark);
        replay.record(&chunk, &entry)?;
        drop(chunk);
        stored.push(value);
    }
    Ok(ReadRecords {
        doc: replay.finish(),
        mark: first_mark.unwrap_or(header.node_types.len() as u32),
        stored,
    })
}

/// The whole document: every record's chunk, replayed in order under
/// `D/types`.
pub(crate) fn read_document(store: &dyn KvStore, header: &DocHeader) -> Result<Document> {
    let doc = read_records(store, header, 0..header.records)?.doc;
    if doc.len() as u64 != header.nodes {
        return Err(KvError::corrupt(format!(
            "D/types: {} nodes, but the records hold {}",
            header.nodes,
            doc.len()
        )));
    }
    Ok(doc)
}

// ----- integrity checking (the `scrub` path) -------------------------

/// Integrity findings for one key-space section of a persisted index.
#[derive(Debug, Clone)]
pub struct SectionReport {
    pub name: &'static str,
    /// Entries examined.
    pub entries: u64,
    /// Damaged entries: (entry description, what is wrong with it).
    pub damaged: Vec<(String, String)>,
}

impl SectionReport {
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty()
    }
}

/// The result of a full offline integrity walk over a persisted index.
#[derive(Debug, Clone)]
pub struct IntegrityReport {
    /// The format version, when `M/version` was readable and is the one
    /// this build supports.
    pub version: Option<u64>,
    pub sections: Vec<SectionReport>,
}

impl IntegrityReport {
    pub fn is_clean(&self) -> bool {
        self.version.is_some() && self.sections.iter().all(SectionReport::is_clean)
    }

    pub fn total_entries(&self) -> u64 {
        self.sections.iter().map(|s| s.entries).sum()
    }

    pub fn total_damaged(&self) -> usize {
        self.sections.iter().map(|s| s.damaged.len()).sum()
    }
}

/// Walks every entry of a persisted index, validating frames, checksums
/// and decodability, and reports per-section damage without stopping at
/// the first hit. Storage-level read failures are reported as damage of
/// the section being walked, so one rotten page does not hide the state
/// of the rest of the store.
pub fn verify_store(store: &dyn KvStore) -> IntegrityReport {
    let mut sections = Vec::new();
    let version = match read_version(store) {
        Ok(v) => {
            sections.push(SectionReport {
                name: "meta",
                entries: 1,
                damaged: Vec::new(),
            });
            Some(v)
        }
        Err(e) => {
            sections.push(SectionReport {
                name: "meta",
                entries: 1,
                damaged: vec![("M/version".into(), e.to_string())],
            });
            None
        }
    };
    // An unreadable or foreign version does not stop the walk: the rest
    // of the store is checked against the one format this build knows,
    // so the damage report is best-effort rather than absent.

    sections.push(verify_document(store));

    // Vocabulary: per-entry decode, then the global gapless-ids check.
    let mut vocab_section = SectionReport {
        name: "vocabulary",
        entries: 0,
        damaged: Vec::new(),
    };
    let mut ids: Vec<u32> = Vec::new();
    let mut names: HashMap<u32, String> = HashMap::new();
    match store.scan_prefix(b"V/") {
        Ok(entries) => {
            for (key, value) in entries {
                vocab_section.entries = vocab_section.entries.saturating_add(1);
                let text = String::from_utf8_lossy(key.get(2..).unwrap_or_default()).into_owned();
                let entry = format!("V/{text}");
                match unframe_value(&value, &entry).and_then(|raw| {
                    raw.try_into()
                        .map(u32::from_le_bytes)
                        .map_err(|_| KvError::corrupt("keyword id is not 4 bytes"))
                }) {
                    Ok(id) => {
                        ids.push(id);
                        names.insert(id, text);
                    }
                    Err(e) => vocab_section.damaged.push((entry, e.to_string())),
                }
            }
            ids.sort_unstable();
            for (expected, id) in ids.iter().enumerate() {
                if *id as usize != expected {
                    vocab_section
                        .damaged
                        .push(("V/".into(), format!("keyword id gap at {expected}")));
                    break;
                }
            }
        }
        Err(e) => vocab_section.damaged.push(("<scan>".into(), e.to_string())),
    }
    sections.push(vocab_section);

    // Posting lists: the skip table is validated first, then every
    // block is decoded independently so damage is attributed per block,
    // not just per list.
    let mut list_section = SectionReport {
        name: "lists",
        entries: 0,
        damaged: Vec::new(),
    };
    match store.scan_prefix(LIST_PREFIX) {
        Ok(entries) => {
            for (key, value) in entries {
                list_section.entries = list_section.entries.saturating_add(1);
                let entry = match list_id(&key) {
                    Some(id) => match names.get(&id) {
                        Some(text) => format!("L/{id} ({text:?})"),
                        None => format!("L/{id}"),
                    },
                    None => format!("L/{:?}", key.strip_prefix(LIST_PREFIX).unwrap_or(&key)),
                };
                match unframe_value(&value, "posting list")
                    .and_then(|payload| CompressedList::parse(payload).map(|c| c.check_blocks()))
                {
                    Ok(damaged_blocks) => {
                        for (block, detail) in damaged_blocks {
                            list_section
                                .damaged
                                .push((format!("{entry} block {block}"), detail));
                        }
                    }
                    Err(e) => list_section.damaged.push((entry, e.to_string())),
                }
            }
        }
        Err(e) => list_section.damaged.push(("<scan>".into(), e.to_string())),
    }
    sections.push(list_section);

    // Statistics: the global vectors, then one packed, delta-encoded
    // blob per table.
    let mut stat_section = SectionReport {
        name: "stats",
        entries: 0,
        damaged: Vec::new(),
    };
    type Check = fn(&[u8]) -> Result<()>;
    let vector: Check = |raw| decode_varint_vec(raw).map(|_| ());
    let table: Check = |raw| decode_packed_stats(raw).map(|_| ());
    for (key, name, check) in [
        ("S/N", "S/N", vector),
        ("S/G", "S/G", vector),
        ("S/T", "tf (packed)", table),
        ("S/D", "df (packed)", table),
    ] {
        stat_section.entries = stat_section.entries.saturating_add(1);
        match store.get(key.as_bytes()) {
            Ok(Some(value)) => {
                if let Err(e) = unframe_value(&value, name).and_then(check) {
                    stat_section.damaged.push((name.into(), e.to_string()));
                }
            }
            Ok(None) => stat_section.damaged.push((name.into(), "missing".into())),
            Err(e) => stat_section.damaged.push((name.into(), e.to_string())),
        }
    }
    sections.push(stat_section);

    IntegrityReport { version, sections }
}

/// The document section: `D/types`, then each chunk alone, each damaged
/// entry named by its key (`D/types`, `D/<ordinal>`). Each chunk is
/// replayed under `D/types` on its own, so damage in one does not hide
/// the others; its mark is held to where the record before it ends,
/// and the chunks to the records and nodes `D/types` counts.
fn verify_document(store: &dyn KvStore) -> SectionReport {
    let mut section = SectionReport {
        name: "document",
        entries: 0,
        damaged: Vec::new(),
    };
    let mut damage = |entry: String, detail: String| section.damaged.push((entry, detail));
    let header = read_header(store)
        .map_err(|e| damage("D/types".into(), e.to_string()))
        .ok();
    let entries = match store.scan_prefix(DOC_PREFIX) {
        Ok(entries) => entries,
        Err(e) => {
            damage("<scan>".into(), e.to_string());
            Vec::new()
        }
    };
    let mut chunks = 0u32;
    // Whether every chunk replayed, with the nodes they hold and the
    // mark the last one ends at.
    let mut sound = true;
    let mut nodes = 1u64;
    let mut end: Option<(u32, u32)> = None;
    for (key, value) in &entries {
        if key.as_slice() == TYPES_KEY {
            continue;
        }
        let Some(ordinal) = chunk_ordinal(key) else {
            damage(
                String::from_utf8_lossy(key).into_owned(),
                "not a document key".into(),
            );
            continue;
        };
        let entry = format!("D/{ordinal}");
        let checked = unframe_value(value, &entry)
            .and_then(|payload| parse_chunk(payload, &entry))
            .and_then(|chunk| {
                let Some(header) = &header else {
                    return Ok(None);
                };
                if ordinal >= header.records {
                    return Err(KvError::corrupt(format!(
                        "past the {} records D/types holds",
                        header.records
                    )));
                }
                if let Some((before, mark)) = end {
                    if before.checked_add(1) == Some(ordinal) && mark != chunk.mark {
                        return Err(KvError::corrupt(
                            "its mark disagrees with where the record before it ends",
                        ));
                    }
                }
                let mark = Replay::new(header, ordinal).record(&chunk, &entry)?;
                Ok(Some((chunk.nodes, mark)))
            });
        chunks = chunks.saturating_add(1);
        match checked {
            Ok(Some((n, mark))) => {
                nodes = nodes.saturating_add(n);
                end = Some((ordinal, mark));
            }
            Ok(None) => {}
            Err(e) => {
                sound = false;
                end = None;
                damage(entry, e.to_string());
            }
        }
    }
    if let Some(header) = &header {
        if chunks < header.records {
            sound = false;
            let present: Vec<u32> = entries
                .iter()
                .filter_map(|(k, _)| chunk_ordinal(k))
                .collect();
            for ordinal in (0..header.records).filter(|o| present.binary_search(o).is_err()) {
                damage(format!("D/{ordinal}"), "missing".into());
            }
        }
        let types = header.node_types.len() as u32;
        let last = end.map_or(FIRST_MARK, |(_, mark)| mark);
        if sound && (nodes != header.nodes || last != types) {
            damage(
                "D/types".into(),
                format!(
                    "{} nodes and {types} node types, but the records hold {nodes} nodes and \
                     use {last} types",
                    header.nodes
                ),
            );
        }
    }
    section.entries = u64::from(chunks).saturating_add(1);
    section
}

// ----- helpers -------------------------------------------------------

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn read_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let len = read_varint(bytes, pos)? as usize;
    let end = pos.checked_add(len)?;
    let s = std::str::from_utf8(bytes.get(*pos..end)?).ok()?;
    *pos = end;
    Some(s)
}

/// Packed stat table. Rows must be sorted by `(t, k)`; they are
/// grouped by type with both the type and keyword axes delta-encoded:
///
/// ```text
/// varint n_groups
/// per group:  varint t_delta   (first group: t; later: t - prev_t - 1)
///             varint n_rows    (>= 1)
///             per row: varint k_delta (first row: k; later: k - prev_k - 1)
///                      varint value
/// ```
#[expect(
    clippy::arithmetic_side_effects,
    reason = "encode side: `rows` is sorted by (type, keyword) without repeats, so a later group's \
              type and a later row's keyword exceed their predecessor's"
)]
fn encode_packed_stats(rows: &[(NodeTypeId, KeywordId, u64)]) -> Vec<u8> {
    let mut groups: Vec<(u32, Vec<(u32, u64)>)> = Vec::new();
    for &(t, k, v) in rows {
        match groups.last_mut() {
            Some((gt, g)) if *gt == t.0 => g.push((k.0, v)),
            _ => groups.push((t.0, vec![(k.0, v)])),
        }
    }
    let mut out = Vec::new();
    write_varint(&mut out, groups.len() as u64);
    let mut prev_t: Option<u32> = None;
    for (t, g) in groups {
        match prev_t {
            None => write_varint(&mut out, u64::from(t)),
            Some(p) => write_varint(&mut out, u64::from(t - p - 1)),
        }
        prev_t = Some(t);
        write_varint(&mut out, g.len() as u64);
        let mut prev_k: Option<u32> = None;
        for (k, v) in g {
            match prev_k {
                None => write_varint(&mut out, u64::from(k)),
                Some(p) => write_varint(&mut out, u64::from(k - p - 1)),
            }
            prev_k = Some(k);
            write_varint(&mut out, v);
        }
    }
    out
}

/// Decodes a packed stat table (see [`encode_packed_stats`]).
fn decode_packed_stats(payload: &[u8]) -> Result<HashMap<(NodeTypeId, KeywordId), u64>> {
    let bad = |what: &str| KvError::corrupt(format!("packed stat table: {what}"));
    let mut pos = 0usize;
    let mut next =
        |what: &str| -> Result<u64> { read_varint(payload, &mut pos).ok_or_else(|| bad(what)) };
    let n_groups = next("group count")?;
    let mut table = HashMap::new();
    let mut prev_t: Option<u64> = None;
    for _ in 0..n_groups {
        let delta = next("type delta")?;
        let t = match prev_t {
            None => delta,
            Some(p) => p
                .checked_add(delta)
                .and_then(|x| x.checked_add(1))
                .ok_or_else(|| bad("type overflow"))?,
        };
        if t > u64::from(u32::MAX) {
            return Err(bad("type overflow"));
        }
        prev_t = Some(t);
        let n_rows = next("row count")?;
        if n_rows == 0 {
            return Err(bad("empty type group"));
        }
        let mut prev_k: Option<u64> = None;
        for _ in 0..n_rows {
            let delta = next("keyword delta")?;
            let k = match prev_k {
                None => delta,
                Some(p) => p
                    .checked_add(delta)
                    .and_then(|x| x.checked_add(1))
                    .ok_or_else(|| bad("keyword overflow"))?,
            };
            if k > u64::from(u32::MAX) {
                return Err(bad("keyword overflow"));
            }
            prev_k = Some(k);
            let v = next("value")?;
            table.insert((NodeTypeId(t as u32), KeywordId(k as u32)), v);
        }
    }
    if pos != payload.len() {
        return Err(bad("trailing bytes"));
    }
    Ok(table)
}

fn decode_varint_vec(bytes: &[u8]) -> Result<Vec<u64>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        out.push(
            read_varint(bytes, &mut pos).ok_or_else(|| KvError::corrupt("bad varint vector"))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvBackedIndex;
    use kvstore::MemKv;
    use std::sync::Arc;
    use xmldom::fixtures::figure1;

    /// What the one reader of the format makes of `store`.
    fn open(store: MemKv) -> Result<KvBackedIndex> {
        KvBackedIndex::open(Box::new(store))
    }

    /// A copy of `store` with `key` set to `value`.
    fn with_value(store: &MemKv, key: &[u8], value: &[u8]) -> MemKv {
        let mut copy = MemKv::new();
        for (k, v) in store.scan_prefix(b"").unwrap() {
            copy.put(&k, &v).unwrap();
        }
        copy.put(key, value).unwrap();
        copy
    }

    #[test]
    fn persist_open_roundtrip_preserves_everything() {
        let doc = Arc::new(figure1());
        let built = Index::build(Arc::clone(&doc));
        let mut store = MemKv::new();
        persist(&built, &mut store).unwrap();
        let opened = open(store).unwrap();

        assert_eq!(opened.read_document().unwrap(), *doc);
        assert_eq!(built.vocabulary().len(), opened.vocabulary().len());
        for (k, text) in built.vocabulary().iter() {
            assert_eq!(opened.vocabulary().get(text), Some(k));
            assert_eq!(
                opened
                    .list_handle(text)
                    .unwrap()
                    .run_postings()
                    .flatten()
                    .cloned()
                    .collect::<Vec<_>>(),
                built.list(text).unwrap().as_slice()
            );
        }
        for t in doc.node_types().iter() {
            assert_eq!(built.stats().n_nodes(t), opened.stats().n_nodes(t));
            assert_eq!(
                built.stats().distinct_keywords(t),
                opened.stats().distinct_keywords(t)
            );
            for (k, _) in built.vocabulary().iter() {
                assert_eq!(built.stats().tf(t, k), opened.stats().tf(t, k));
                assert_eq!(built.stats().df(t, k), opened.stats().df(t, k));
            }
        }
    }

    #[test]
    fn list_id_inverts_list_key_and_rejects_other_keys() {
        for id in [0, 1, 0x0102_0304, u32::MAX] {
            assert_eq!(list_id(&list_key(id)), Some(id));
        }
        let mut long = list_key(7);
        long.push(0);
        for key in [
            &b"V/\0\0\0\x07"[..],
            b"L\0\0\0\0\x07",
            b"L/\0\0\x07",
            &long,
            b"",
            b"L/",
        ] {
            assert_eq!(list_id(key), None, "{key:?}");
        }
    }

    #[test]
    fn corrupted_list_payload_is_an_error_not_a_panic() {
        let doc = Arc::new(figure1());
        let built = Index::build(Arc::clone(&doc));
        let mut store = MemKv::new();
        persist(&built, &mut store).unwrap();
        // Lists decode lazily: the damage surfaces on the first touch.
        let first_touch = |store: MemKv| {
            open(store)
                .and_then(|idx| idx.list_handle_by_id(KeywordId(0)))
                .expect_err("damaged list was served")
        };

        // Flip one payload byte behind the checksum.
        let key = list_key(0);
        let mut value = store.get(&key).unwrap().unwrap();
        *value.last_mut().unwrap() ^= 0xFF;
        let e = first_touch(with_value(&store, &key, &value));
        assert!(e.is_corrupt() && e.to_string().contains("checksum"), "{e}");

        // Truncate a frame: length header no longer matches.
        let mut value = store.get(&key).unwrap().unwrap();
        value.pop();
        let e = first_touch(with_value(&store, &key, &value));
        assert!(e.is_corrupt() && e.to_string().contains("length"), "{e}");
    }

    #[test]
    fn every_value_class_is_framed() {
        let doc = Arc::new(figure1());
        let built = Index::build(Arc::clone(&doc));
        let mut store = MemKv::new();
        persist(&built, &mut store).unwrap();
        // Flipping a byte in a *stat* or *vocabulary* value must be
        // detected, not silently reinterpreted: both load at open.
        for prefix in [b"V/".as_slice(), b"S/".as_slice()] {
            for (key, value) in store.scan_prefix(prefix).unwrap() {
                for pos in 0..value.len() {
                    let mut damaged = value.clone();
                    damaged[pos] ^= 0xFF;
                    assert!(
                        open(with_value(&store, &key, &damaged)).is_err(),
                        "flip at {pos} of {:?} went undetected",
                        String::from_utf8_lossy(&key)
                    );
                }
            }
        }
    }

    #[test]
    fn packed_stat_tables_roundtrip_and_fail_whole_on_damage() {
        let doc = Arc::new(figure1());
        let built = Index::build(Arc::clone(&doc));
        let mut store = MemKv::new();
        persist(&built, &mut store).unwrap();

        // Exactly two stat-table keys, no per-entry residue.
        let packed = store.scan_prefix(b"S/T").unwrap();
        assert_eq!(packed.len(), 1, "one packed tf key");
        assert_eq!(store.scan_prefix(b"S/D").unwrap().len(), 1);

        // Round-trip: every tf/df cell matches the built index.
        let stats = load_stats(&store).unwrap();
        for t in doc.node_types().iter() {
            for (k, _) in built.vocabulary().iter() {
                assert_eq!(stats.tf(t, k), built.stats().tf(t, k));
                assert_eq!(stats.df(t, k), built.stats().df(t, k));
            }
        }

        // A flipped byte in the packed table is fatal for the whole
        // table — no per-keyword owner exists any more.
        let (key, value) = packed.into_iter().next().unwrap();
        let mut bad = value.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        store.put(&key, &bad).unwrap();
        match load_stats(&store) {
            Err(e) => assert!(e.is_corrupt(), "unexpected error class: {e}"),
            Ok(_) => panic!("damaged packed table accepted"),
        }
    }

    #[test]
    fn verify_store_reports_damage_per_section() {
        let doc = Arc::new(figure1());
        let built = Index::build(Arc::clone(&doc));
        let mut store = MemKv::new();
        persist(&built, &mut store).unwrap();
        let clean = verify_store(&store);
        assert!(clean.is_clean(), "{clean:?}");
        assert_eq!(clean.version, Some(FORMAT_VERSION));
        assert!(clean.total_entries() > 4);

        // Damage one list and one stat entry.
        let key = list_key(0);
        let mut value = store.get(&key).unwrap().unwrap();
        *value.last_mut().unwrap() ^= 0xFF;
        store.put(&key, &value).unwrap();
        let mut sbad = store.get(b"S/T").unwrap().unwrap();
        *sbad.last_mut().unwrap() ^= 0xFF;
        store.put(b"S/T", &sbad).unwrap();

        let report = verify_store(&store);
        assert!(!report.is_clean());
        assert_eq!(report.total_damaged(), 2);
        let damaged_sections: Vec<&str> = report
            .sections
            .iter()
            .filter(|s| !s.is_clean())
            .map(|s| s.name)
            .collect();
        assert_eq!(damaged_sections, ["lists", "stats"]);
    }

    #[test]
    fn document_chunks_roundtrip_exactly() {
        let doc = Arc::new(figure1());
        let built = Index::build(Arc::clone(&doc));
        let mut store = MemKv::new();
        persist(&built, &mut store).unwrap();
        let header = load_header(&store).unwrap();
        assert_eq!(header, DocHeader::of(&doc));
        assert_eq!(read_document(&store, &header).unwrap(), *doc);
        // Every label's chunk holds it, with its type and subtree.
        let opened = open(store).unwrap();
        for (id, node) in doc.nodes() {
            let part = opened.document_at(&node.dewey).unwrap().unwrap();
            let at = part.node_by_dewey(&node.dewey).unwrap();
            assert_eq!(part.node(at).node_type, node.node_type);
            assert_eq!(part.subtree_to_xml(at), doc.subtree_to_xml(id));
        }
        for label in ["1", "0.2", "0.9.9"] {
            assert!(opened
                .document_at(&label.parse().unwrap())
                .unwrap()
                .is_none());
        }
    }

    /// `doc`'s chunk of record `ordinal`, unframed.
    fn chunk_payload(doc: &Document, ordinal: u32) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_document(doc, |key, value| {
            if key == chunk_key(ordinal) {
                payload = unframe_value(value, "chunk").unwrap().to_vec();
            }
            Ok(())
        })
        .unwrap();
        payload
    }

    #[test]
    fn a_chunk_dedups_repeated_subtrees() {
        // 50 identical papers in one record: its DAG stores the paper once.
        let mut xml = String::from("<bib><shelf>");
        for _ in 0..50 {
            xml.push_str("<paper><title>xml keyword</title><year>2009</year></paper>");
        }
        xml.push_str("</shelf></bib>");
        let doc = xmldom::parse_document(&xml).unwrap();
        let chunk = chunk_payload(&doc, 0);
        assert!(
            chunk.len() * 5 < xml.len(),
            "chunk {} vs xml {}: expected >5x shrink on repeated subtrees",
            chunk.len(),
            xml.len()
        );
        let mut store = MemKv::new();
        encode_document(&doc, |key, value| store.put(key, value)).unwrap();
        let back = read_document(&store, &read_header(&store).unwrap()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn a_damaged_chunk_or_header_is_an_error_not_a_panic() {
        let doc = figure1();
        let header = DocHeader::of(&doc);
        let decode = |payload: &[u8]| {
            parse_chunk(payload, "D/0")
                .and_then(|chunk| Replay::new(&header, 0).record(&chunk, "D/0"))
        };
        let chunk = chunk_payload(&doc, 0);
        assert!(decode(&chunk).is_ok());
        // truncations at every prefix must error, never panic
        for cut in 0..chunk.len() {
            assert!(decode(&chunk[..cut]).is_err(), "cut {cut}");
        }
        // every single-byte flip must error or replay (the store frame
        // CRC is what guarantees detection; here we only require no panic
        // and no expansion blow-up)
        for i in 0..chunk.len() {
            let mut bad = chunk.clone();
            bad[i] ^= 0xFF;
            let _ = decode(&bad);
        }
        // a DAG bomb — node count understating the expansion — is cut off
        // (record 0 has fewer than 128 nodes, so the count is the final
        // single byte)
        let mut bomb = chunk.clone();
        *bomb.last_mut().unwrap() = 1;
        let err = decode(&bomb).unwrap_err();
        assert!(err.to_string().contains("expands past"), "{err}");

        let mut store = MemKv::new();
        encode_document(&doc, |key, value| store.put(key, value)).unwrap();
        let framed = store.get(TYPES_KEY).unwrap().unwrap();
        let types = unframe_value(&framed, "D/types").unwrap();
        assert_eq!(decode_header(types).unwrap(), header);
        for cut in 0..types.len() {
            assert!(decode_header(&types[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..types.len() {
            let mut bad = types.to_vec();
            bad[i] ^= 0xFF;
            let _ = decode_header(&bad);
        }
    }

    #[test]
    fn verify_store_names_the_damaged_document_key() {
        let built = Index::build(Arc::new(figure1()));
        let mut store = MemKv::new();
        persist(&built, &mut store).unwrap();
        let damaged = |store: &MemKv| -> Vec<String> {
            let report = verify_store(store);
            let doc = report
                .sections
                .iter()
                .find(|s| s.name == "document")
                .unwrap();
            let others = report.total_damaged() - doc.damaged.len();
            assert_eq!(others, 0, "{report:?}");
            doc.damaged.iter().map(|(entry, _)| entry.clone()).collect()
        };
        assert!(damaged(&store).is_empty());

        let flip = |key: &[u8]| {
            let mut value = store.get(key).unwrap().unwrap();
            *value.last_mut().unwrap() ^= 0xFF;
            with_value(&store, key, &value)
        };
        assert_eq!(damaged(&flip(&chunk_key(1))), ["D/1"]);
        assert_eq!(damaged(&flip(TYPES_KEY)), ["D/types"]);
        let mut gap = flip(&chunk_key(0));
        gap.delete(&chunk_key(1)).unwrap();
        assert_eq!(damaged(&gap), ["D/0", "D/1"]);
    }

    #[test]
    fn open_rejects_an_empty_store() {
        assert!(open(MemKv::new()).is_err());
    }

    #[test]
    fn persist_works_on_disk_store_too() {
        use kvstore::DiskKv;
        let dir = std::env::temp_dir().join(format!("invindex_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.db");
        let _ = std::fs::remove_file(&path);

        let doc = Arc::new(figure1());
        let built = Index::build(Arc::clone(&doc));
        {
            let mut store = DiskKv::open(&path).unwrap();
            persist(&built, &mut store).unwrap();
        }
        let opened = KvBackedIndex::open(Box::new(DiskKv::open(&path).unwrap())).unwrap();
        for (_, text) in built.vocabulary().iter() {
            assert_eq!(
                opened
                    .list_handle(text)
                    .unwrap()
                    .run_postings()
                    .flatten()
                    .cloned()
                    .collect::<Vec<_>>(),
                built.list(text).unwrap().as_slice()
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
