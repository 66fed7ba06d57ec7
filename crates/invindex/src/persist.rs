//! Index persistence over any [`KvStore`] (the paper stores all indices in
//! Berkeley DB, §VII; we store them in the workspace B+-tree).
//!
//! There is one on-disk format. Its key space:
//!
//! * `M/version`                — format version (raw varint: it is the
//!   byte that says how everything else is framed, so it cannot itself
//!   be framed);
//! * `D/doc`                    — the source document as a hash-consed
//!   subtree DAG with an interned string table, so
//!   [`crate::KvBackedIndex`] can open with no re-parse;
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

use crate::index::Index;
use crate::postings::{read_varint, write_varint, CompressedList, PostingList};
use crate::stats::{KeywordId, KeywordTable, TypeStats};
use kvstore::{crc32, KvError, KvStore, Result};
use std::collections::HashMap;
use xmldom::{Document, DocumentBuilder, NodeId, NodeTypeId};

/// The on-disk format: compressed posting lists (blocked front-coded
/// Dewey deltas behind a skip table), a DAG-deduplicated document and
/// packed stat tables, every value class framed and checksummed.
pub const FORMAT_VERSION: u64 = 4;

/// Writes the index into `store`.
pub fn persist(index: &Index, store: &mut dyn KvStore) -> Result<()> {
    let mut buf = Vec::new();
    write_varint(&mut buf, FORMAT_VERSION);
    store.put(b"M/version", &buf)?;

    store.put(b"D/doc", &frame_value(&encode_document(index.document())))?;

    for (k, text) in index.vocabulary().iter() {
        let mut key = Vec::with_capacity(2 + text.len());
        key.extend_from_slice(b"V/");
        key.extend_from_slice(text.as_bytes());
        store.put(&key, &frame_value(&k.0.to_le_bytes()))?;
    }

    for (key, value) in list_entries(index.lists()) {
        store.put(&key, &value)?;
    }

    let mut nbuf = Vec::new();
    for &n in index.stats().n_nodes_vec() {
        write_varint(&mut nbuf, n);
    }
    store.put(b"S/N", &frame_value(&nbuf))?;

    let mut gbuf = Vec::new();
    for &g in index.stats().distinct_keywords_vec() {
        write_varint(&mut gbuf, g);
    }
    store.put(b"S/G", &frame_value(&gbuf))?;

    // The stat tables are hash maps; pack their entries in sorted (t, k)
    // order so the stored bytes are a pure function of the index
    // contents (`ingest_differential.rs` relies on persisted
    // byte-identity). Each table is one delta-encoded blob: a per-entry
    // layout spends ~18 bytes of key + frame on a value that is usually
    // one byte, and the stat tables dominate store size on real corpora.
    // The trade-off (DESIGN.md §4i): the CRC covers the whole table, so
    // stat damage is table-granular rather than per-keyword.
    let mut tf: Vec<_> = index.stats().iter_tf().collect();
    tf.sort_unstable_by_key(|&(t, k, _)| (t.0, k.0));
    let mut df: Vec<_> = index.stats().iter_df().collect();
    df.sort_unstable_by_key(|&(t, k, _)| (t.0, k.0));
    store.put(b"S/T", &frame_value(&encode_packed_stats(&tf)))?;
    store.put(b"S/D", &frame_value(&encode_packed_stats(&df)))?;
    store.sync()
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

/// Checks the format version, then decodes the embedded `D/doc`
/// document — the first read of every kv-backed open, so the version is
/// checked once on the way in and a foreign store is refused before any
/// of it is interpreted.
pub(crate) fn load_document(store: &dyn KvStore) -> Result<Document> {
    read_version(store)?;
    let blob = store
        .get(b"D/doc")?
        .ok_or_else(|| KvError::corrupt("store has no embedded document (D/doc)"))?;
    decode_document(unframe_value(&blob, "D/doc")?)
}

/// Rebuilds the keyword table from the `V/` entries. Vocabulary damage
/// is always fatal: keyword ids must be gapless, so a single undecodable
/// id makes every later id ambiguous.
pub(crate) fn load_vocab(store: &dyn KvStore) -> Result<KeywordTable> {
    let mut vocab = KeywordTable::new();
    let mut texts: Vec<(u32, String)> = Vec::new();
    for (key, value) in store.scan_prefix(b"V/")? {
        let text = String::from_utf8(key[2..].to_vec())
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
    let mut out = Vec::with_capacity(payload.len() + 9);
    write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
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

/// Decodes one stored list value, validating the frame. Public so the
/// compression test battery can assert corrupt frames surface
/// [`KvError::Corrupt`].
pub fn decode_list_value(value: &[u8]) -> Result<PostingList> {
    CompressedList::parse(unframe_value(value, "posting list")?)?.decode_all()
}

// ----- DAG document codec ---------------------------------------------
//
// Repeated subtrees (DBLP-style corpora are full of them: every
// `<paper><title>…</title></paper>` shares its shape, many share whole
// contents) are hash-consed into one tuple each, and every string — tag
// names above all — is interned once in a shared table. The payload is
//
//   varint n_strings ‖ (varint len ‖ bytes)*            string table
//   varint n_dag
//   per tuple, in construction (post-) order:
//     varint tag_sid ‖ varint n_attrs ‖ (name_sid ‖ value_sid)*
//     ‖ varint text_sid ‖ varint n_children ‖ child dag-ids
//   varint root_id ‖ varint total_nodes
//
// Child dag-ids always reference earlier tuples, so the structure is
// acyclic by construction on both ends. `total_nodes` bounds expansion:
// a forged payload whose DAG expands past it (a "DAG bomb") is rejected
// after at most `total_nodes` emitted nodes.

/// One hash-consed subtree: interned field ids plus child tuple ids.
#[derive(PartialEq, Eq, Hash)]
struct DagTuple {
    tag: u32,
    attrs: Vec<(u32, u32)>,
    text: u32,
    children: Vec<u32>,
}

/// Serializes the document as a hash-consed subtree DAG.
pub(crate) fn encode_document(doc: &Document) -> Vec<u8> {
    let mut strings: Vec<String> = Vec::new();
    let mut string_ids: HashMap<String, u32> = HashMap::new();
    let mut intern_str = |s: &str| -> u32 {
        if let Some(&id) = string_ids.get(s) {
            return id;
        }
        let id = strings.len() as u32;
        strings.push(s.to_string());
        string_ids.insert(s.to_string(), id);
        id
    };

    // Iterative post-order: children's tuple ids are known before the
    // parent's tuple is formed.
    enum Frame {
        Enter(NodeId),
        Exit(NodeId),
    }
    let mut tuples: Vec<DagTuple> = Vec::new();
    let mut tuple_ids: HashMap<DagTuple, u32> = HashMap::new();
    let mut node_tuple: HashMap<NodeId, u32> = HashMap::new();
    let mut stack = vec![Frame::Enter(doc.root())];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Enter(id) => {
                stack.push(Frame::Exit(id));
                for &child in doc.node(id).children.iter().rev() {
                    stack.push(Frame::Enter(child));
                }
            }
            Frame::Exit(id) => {
                let node = doc.node(id);
                let tag = intern_str(doc.tag_name(id));
                let attrs = node
                    .attributes
                    .iter()
                    .map(|(n, v)| (intern_str(n), intern_str(v)))
                    .collect();
                let text = intern_str(&node.text);
                let children = node
                    .children
                    .iter()
                    // xlint::allow(no-panic-paths): encode side — post-order guarantees every child was assigned a tuple id before its parent exits
                    .map(|c| node_tuple[c])
                    .collect::<Vec<_>>();
                let tuple = DagTuple {
                    tag,
                    attrs,
                    text,
                    children,
                };
                let tid = match tuple_ids.get(&tuple) {
                    Some(&tid) => {
                        obs::counter!("compress_dedup_hits_total").inc();
                        tid
                    }
                    None => {
                        let tid = tuples.len() as u32;
                        tuples.push(DagTuple {
                            tag: tuple.tag,
                            attrs: tuple.attrs.clone(),
                            text: tuple.text,
                            children: tuple.children.clone(),
                        });
                        tuple_ids.insert(tuple, tid);
                        tid
                    }
                };
                node_tuple.insert(id, tid);
            }
        }
    }

    let mut out = Vec::new();
    write_varint(&mut out, strings.len() as u64);
    for s in &strings {
        write_bytes(&mut out, s.as_bytes());
    }
    write_varint(&mut out, tuples.len() as u64);
    for t in &tuples {
        write_varint(&mut out, u64::from(t.tag));
        write_varint(&mut out, t.attrs.len() as u64);
        for &(n, v) in &t.attrs {
            write_varint(&mut out, u64::from(n));
            write_varint(&mut out, u64::from(v));
        }
        write_varint(&mut out, u64::from(t.text));
        write_varint(&mut out, t.children.len() as u64);
        for &c in &t.children {
            write_varint(&mut out, u64::from(c));
        }
    }
    // xlint::allow(no-panic-paths): encode side — the traversal above visited the root last, so its tuple id is present
    write_varint(&mut out, u64::from(node_tuple[&doc.root()]));
    write_varint(&mut out, doc.len() as u64);
    obs::counter!("compress_encoded_bytes_total").add(out.len() as u64);
    out
}

/// Rebuilds the document from its DAG payload, replaying pre-order
/// through [`DocumentBuilder`] so interner id assignment matches a parse
/// of the source exactly.
pub(crate) fn decode_document(bytes: &[u8]) -> Result<Document> {
    let corrupt = |what: &str| KvError::corrupt(format!("document dag: {what}"));
    let mut pos = 0usize;

    let n_strings = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing string count"))?;
    if n_strings as usize > bytes.len() {
        return Err(corrupt("string count exceeds payload size"));
    }
    let mut strings: Vec<String> = Vec::with_capacity(n_strings as usize);
    for _ in 0..n_strings {
        strings.push(read_string(bytes, &mut pos).ok_or_else(|| corrupt("bad string"))?);
    }
    let sid = |id: u64| -> Result<&str> {
        strings
            .get(id as usize)
            .map(String::as_str)
            .ok_or_else(|| corrupt("string id out of range"))
    };

    let n_dag = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing tuple count"))?;
    if n_dag as usize > bytes.len() {
        return Err(corrupt("tuple count exceeds payload size"));
    }
    let mut tuples: Vec<DagTuple> = Vec::with_capacity(n_dag as usize);
    for i in 0..n_dag {
        let tag = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing tag id"))?;
        let n_attrs = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing attr count"))?;
        if n_attrs as usize > bytes.len() {
            return Err(corrupt("attr count exceeds payload size"));
        }
        let mut attrs = Vec::with_capacity(n_attrs as usize);
        for _ in 0..n_attrs {
            let n = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing attr name"))?;
            let v = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing attr value"))?;
            attrs.push((
                u32::try_from(n).map_err(|_| corrupt("attr name id overflow"))?,
                u32::try_from(v).map_err(|_| corrupt("attr value id overflow"))?,
            ));
        }
        let text = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing text id"))?;
        let n_children =
            read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing child count"))?;
        if n_children as usize > bytes.len() {
            return Err(corrupt("child count exceeds payload size"));
        }
        let mut children = Vec::with_capacity(n_children as usize);
        for _ in 0..n_children {
            let c = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing child id"))?;
            if c >= i {
                return Err(corrupt("child id references a later tuple"));
            }
            children.push(u32::try_from(c).map_err(|_| corrupt("child id overflow"))?);
        }
        tuples.push(DagTuple {
            tag: u32::try_from(tag).map_err(|_| corrupt("tag id overflow"))?,
            attrs,
            text: u32::try_from(text).map_err(|_| corrupt("text id overflow"))?,
            children,
        });
    }

    let root_id = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing root id"))?;
    if root_id >= n_dag {
        return Err(corrupt("root id out of range"));
    }
    let total_nodes = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("missing node count"))?;
    if total_nodes == 0 {
        return Err(corrupt("empty document"));
    }
    if total_nodes > u64::from(u32::MAX) {
        return Err(corrupt("node count overflow"));
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes"));
    }

    // Pre-order expansion with an explicit (tuple, child-cursor) stack,
    // capped at `total_nodes` emitted elements.
    let mut builder = DocumentBuilder::new();
    let mut emitted = 0u64;
    let mut stack: Vec<(u32, usize)> = Vec::new();
    let enter = |builder: &mut DocumentBuilder,
                 tuples: &[DagTuple],
                 tid: u32,
                 emitted: &mut u64|
     -> Result<()> {
        if *emitted >= total_nodes {
            return Err(corrupt("dag expands past its declared node count"));
        }
        *emitted += 1;
        let t = tuples
            .get(tid as usize)
            .ok_or_else(|| corrupt("tuple id out of range"))?;
        builder.open_element(sid(u64::from(t.tag))?);
        for &(n, v) in &t.attrs {
            builder.attribute(sid(u64::from(n))?, sid(u64::from(v))?);
        }
        let text = sid(u64::from(t.text))?;
        if !text.is_empty() {
            builder.text(text);
        }
        Ok(())
    };
    enter(&mut builder, &tuples, root_id as u32, &mut emitted)?;
    stack.push((root_id as u32, 0));
    while let Some((tid, cursor)) = stack.pop() {
        let t = tuples
            .get(tid as usize)
            .ok_or_else(|| corrupt("tuple id out of range"))?;
        match t.children.get(cursor) {
            Some(&child) => {
                stack.push((tid, cursor + 1));
                enter(&mut builder, &tuples, child, &mut emitted)?;
                stack.push((child, 0));
            }
            None => builder.close_element(),
        }
    }
    if emitted != total_nodes {
        return Err(corrupt("dag expands short of its declared node count"));
    }
    Ok(builder.finish())
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

    let mut doc_section = SectionReport {
        name: "document",
        entries: 1,
        damaged: Vec::new(),
    };
    if let Err(e) = load_document(store) {
        doc_section.damaged.push(("D/doc".into(), e.to_string()));
    }
    sections.push(doc_section);

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
                vocab_section.entries += 1;
                let text = String::from_utf8_lossy(&key[2..]).into_owned();
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
                list_section.entries += 1;
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
        stat_section.entries += 1;
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

// ----- helpers -------------------------------------------------------

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn read_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = read_varint(bytes, pos)? as usize;
    let end = pos.checked_add(len)?;
    let raw = bytes.get(*pos..end)?;
    let s = String::from_utf8(raw.to_vec()).ok()?;
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

        assert_eq!(opened.document().to_xml(), doc.to_xml());
        assert_eq!(built.vocabulary().len(), opened.vocabulary().len());
        for (k, text) in built.vocabulary().iter() {
            assert_eq!(opened.vocabulary().get(text), Some(k));
            assert_eq!(
                opened.list_handle(text).unwrap().postings(),
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
    fn document_blob_roundtrips_exactly() {
        let doc = Arc::new(figure1());
        let built = Index::build(Arc::clone(&doc));
        let mut store = MemKv::new();
        persist(&built, &mut store).unwrap();
        let replayed = load_document(&store).unwrap();
        assert_eq!(replayed.len(), doc.len());
        for ((_, a), (_, b)) in doc.nodes().zip(replayed.nodes()) {
            assert_eq!(a.dewey, b.dewey);
            assert_eq!(a.node_type, b.node_type);
            assert_eq!(a.text, b.text);
            assert_eq!(a.attributes, b.attributes);
        }
        assert_eq!(doc.to_xml(), replayed.to_xml());
    }

    #[test]
    fn dag_document_dedups_repeated_subtrees() {
        // 50 identical records: the DAG stores the record subtree once.
        let mut xml = String::from("<bib>");
        for _ in 0..50 {
            xml.push_str("<paper><title>xml keyword</title><year>2009</year></paper>");
        }
        xml.push_str("</bib>");
        let doc = xmldom::parse_document(&xml).unwrap();
        let dag = encode_document(&doc);
        assert!(
            dag.len() * 5 < xml.len(),
            "dag {} vs xml {}: expected >5x shrink on repeated records",
            dag.len(),
            xml.len()
        );
        let back = decode_document(&dag).unwrap();
        assert_eq!(back.to_xml(), doc.to_xml());
        for ((_, a), (_, b)) in doc.nodes().zip(back.nodes()) {
            assert_eq!(a.dewey, b.dewey);
            assert_eq!(a.node_type, b.node_type);
        }
    }

    #[test]
    fn dag_document_rejects_structural_damage() {
        let doc = figure1();
        let dag = encode_document(&doc);
        // truncations at every prefix must error, never panic
        for cut in 0..dag.len() {
            assert!(decode_document(&dag[..cut]).is_err(), "cut {cut}");
        }
        // every single-byte flip must error or produce a well-formed doc
        // (the store frame CRC is what guarantees detection; here we only
        // require no panic and no expansion blow-up)
        for i in 0..dag.len() {
            let mut bad = dag.clone();
            bad[i] ^= 0xFF;
            let _ = decode_document(&bad);
        }
        // a DAG bomb — node count understating the expansion — is cut off
        let mut bomb = dag.clone();
        let n = doc.len() as u64;
        // rewrite the trailing total_nodes varint to 1 (figure1 has < 128
        // nodes, so the count is the final single byte)
        assert_eq!(*bomb.last().unwrap() as u64, n);
        *bomb.last_mut().unwrap() = 1;
        let err = decode_document(&bomb).unwrap_err();
        assert!(err.to_string().contains("expands past"), "{err}");
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
                opened.list_handle(text).unwrap().postings(),
                built.list(text).unwrap().as_slice()
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
