//! Online index maintenance: WAL-backed document insert/delete with
//! snapshot reader handoff.
//!
//! [`MaintIndex`] owns a [`kvstore::DurableKv`] and, beside it, the
//! [`KvBackedIndex`] over the last committed state, which
//! [`MaintIndex::snapshot`] hands out. The corpus is a root element whose
//! direct children are the *records*, and the writer holds none of it:
//! its model is the reader's `D/types` (the tables, the root, the counts)
//! and one stored chunk per record (see [`crate::persist`]); a
//! maintenance transaction ([`MaintIndex::commit`] over a slice of
//! [`MaintOp`]s) appends and/or removes records, commits the resulting
//! store delta as **one atomic WAL transaction group**, and makes a
//! fresh generation current. `MaintIndex` is a plain value: `commit`
//! and `compact` take `&mut self`, and it holds no lock of its own.
//!
//! # Commit protocol
//!
//! A commit first applies the ops to the current records' slots: an
//! added fragment is checked by the scanner that
//! [`build_streaming`](crate::build_streaming) runs and kept as it came
//! (it is never parsed into a DOM or re-rendered), and a slot out of
//! range is refused. What the ops leave is always the current records in
//! their order, less those removed, followed by the fragments added. So
//! the commit keeps the records before the first slot the ops change —
//! the first `keep` — and drops every record from that slot on; those of
//! the dropped records that survive are rendered and appended again,
//! followed by the added fragments. An add drops nothing, a remove of the
//! last slot drops one record, and a remove of slot 0 drops and appends
//! the whole corpus.
//!
//! Only the records dropped and appended are indexed, and only their
//! chunks are read or written. The dropped records' chunks are read from
//! the commit's store snapshot and rendered; their postings are the tail
//! of each list they touch from the label `[0, keep]` on, their
//! occurrence counts come from re-tokenizing the renderings through the
//! streaming builder's scan and tokenize phases, and their frequencies
//! are taken away by the builder's own frequency walk. Keywords, tag
//! names and node types only they held were first seen there, so they
//! are the last ids of their tables and are truncated (the tag and type
//! tables to the first dropped chunk's mark); a store whose vocabulary
//! breaks that, or whose statistics would be taken below zero, is refused
//! as corrupt before anything is written. The appended records are the
//! next chunk of a streaming build, merged into a document builder
//! resumed after the kept records from the truncated tables
//! ([`DocumentBuilder::resume`]), so a new keyword, tag or type gets the
//! id a build from scratch gives it. Each touched list is re-encoded from
//! its stored postings minus or plus its tail, read from the commit's
//! store snapshot (not the list cache); the appended records' chunks,
//! `D/types`, `V/`, `S/` and `M/maint` are encoded from the new tables, a
//! value equal to the stored one is not shipped, and the chunks of the
//! ordinals past the new last record are deleted. An add reads no chunk;
//! a remove of the last slot reads the one it drops.
//!
//! The batch is the changed keys' puts in key order, then the deletes in
//! key order: op for op the one a diff of the live store against a
//! from-scratch build of the new corpus would ship. So after every commit
//! the durable store is byte-identical to a build of the same corpus
//! (`tests/maint_differential.rs` for the final state,
//! `tests/maint_delta.rs` after every commit), and crash recovery is
//! exactly [`kvstore::DurableKv`]'s committed-prefix replay. A commit's
//! work still grows with the corpus in two ways: the stat tables are
//! rewritten whole, and a remove re-indexes every record after its slot.
//!
//! # Making a generation current
//!
//! ```text
//! commit:  stage (drop and append records) → apply_batch (WAL)
//!            ── nothing below can fail ──
//!            → cache.publish(gen+1, changed ids)
//!                 (stale inserts refused, then stale entries dropped)
//!            → new KvBackedIndex at gen+1: the staged D/types,
//!              vocabulary and statistics over durable.snapshot() (O(1))
//!            → seq advances
//! ```
//!
//! The new reader is assembled from the commit's own parts rather than
//! decoded back from the store, so once the WAL append returns, the
//! writer's state moves with it: a durable batch is never reported as a
//! failure, and the next commit reads what the store holds.
//!
//! The epoch pointer readers pin is `LiveEngine`'s (xrefine): it holds
//! this index behind its writer lock and, still holding it, builds an
//! engine over [`MaintIndex::snapshot`] and swaps its pointer. Readers
//! holding an earlier reader keep serving from its pinned
//! [`kvstore::Snapshot`] — they are never blocked and never see mixed
//! state: the store copies its overlay on the first write after handing
//! a snapshot out. Their re-decodes of invalidated lists are admitted to
//! the cache only if their generation is still current (see
//! [`crate::cache`]).
//!
//! # Compaction
//!
//! [`MaintIndex::compact`] folds the WAL overlay into the base store via
//! [`kvstore::DurableKv::checkpoint`] (write `.db.new`, fsync, rename
//! over `.db`, fsync dir, then reset the WAL) and makes the store's
//! next snapshot — the new base, an empty overlay — a new generation,
//! reusing the current reader's `D/types`, vocabulary and statistics,
//! with **no cache invalidation**: the merged bytes are identical, so
//! entries stamped by older generations keep hitting. That a checkpoint
//! renames a file is `kvstore`'s business alone; earlier readers still
//! read the old inode through the handle their snapshot pinned.

use crate::cache::ListCache;
use crate::dfpass;
use crate::fxhash::FxMap;
use crate::kvindex::KvBackedIndex;
use crate::persist::{self, ChunkEncoder, DocHeader};
use crate::postings::{read_varint, write_varint, PostingList};
use crate::reader::StoredList;
use crate::stats::{KeywordId, KeywordTable, Sign, TypeStats};
use crate::stream;
use kvstore::{BatchOp, DurableKv, KvError, KvStore, Result, StdVfs, Vfs};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xmldom::{check_document, Dewey, Document, DocumentBuilder, NodeTypeId, MAX_SCAN_DEPTH};

/// The store key holding maintenance metadata (the committed transaction
/// sequence number), framed like every other persisted value.
pub const MAINT_KEY: &[u8] = b"M/maint";

/// One staged corpus mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintOp {
    /// Append a record (an XML fragment that scans as one element) to
    /// the corpus.
    Add { fragment: String },
    /// Remove the record at this root-child ordinal (0-based, evaluated
    /// against the corpus state *within* the transaction, in op order).
    Remove { slot: usize },
}

/// What a committed maintenance transaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintReport {
    /// Maintenance sequence number of this commit (1-based, monotonic
    /// across compactions and restarts).
    pub seq: u64,
    /// Generation the commit published (process-local, restarts at 0).
    pub generation: u64,
    /// Records in the corpus after the commit.
    pub records: usize,
    /// Store keys the WAL transaction touched.
    pub batch_ops: usize,
    /// Records added / removed by the transaction.
    pub added: usize,
    pub removed: usize,
}

/// A live, updatable index: a durable store plus the reader over its
/// last committed state. A plain value with one owner: `commit` and
/// `compact` take `&mut self`, so the type system serializes writers
/// (`LiveEngine` holds it behind its one `maint.writer` lock), and a
/// reader handed out keeps answering from its own snapshot whatever
/// commits after it.
pub struct MaintIndex {
    durable: DurableKv,
    /// The reader over the last committed state: its `D/types` and the
    /// store's chunks are the corpus, and its generation the current one.
    reader: Arc<KvBackedIndex>,
    seq: u64,
}

impl MaintIndex {
    /// Opens (or creates the WAL beside) a durable store at `base` for
    /// online maintenance, replaying any committed-but-uncheckpointed
    /// transactions.
    pub fn open(base: &Path) -> Result<Self> {
        Self::open_with_vfs(StdVfs::arc(), base)
    }

    /// [`Self::open`] through an explicit [`Vfs`] (fault injection,
    /// crash-recovery testing).
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, base: &Path) -> Result<Self> {
        let durable = DurableKv::open_with_vfs(vfs, base)?;
        let reader = Arc::new(KvBackedIndex::open_snapshot(durable.snapshot())?);
        let seq = match durable.snapshot().get(MAINT_KEY)? {
            Some(value) => decode_maint_meta(&value)?,
            None => 0,
        };
        obs::gauge!("maint_overlay_entries").set(durable.overlay_len() as i64);
        Ok(MaintIndex {
            durable,
            reader,
            seq,
        })
    }

    /// The reader over the last committed state: one `Arc` clone. The
    /// returned reader stays valid (served from its pinned snapshot)
    /// across any number of later commits.
    pub fn snapshot(&self) -> Arc<KvBackedIndex> {
        Arc::clone(&self.reader)
    }

    /// Commits `ops` as one atomic WAL transaction and makes the new
    /// generation current. On an error the store and the current reader
    /// are unchanged: every step that can fail runs before the WAL
    /// append, and nothing after it can fail.
    pub fn commit(&mut self, ops: &[MaintOp]) -> Result<MaintReport> {
        let started = Instant::now();
        let report = self.commit_ops(ops);
        match &report {
            Ok(r) => {
                obs::counter!("maint_txns_total").inc();
                obs::counter!("maint_batch_ops_total").add(r.batch_ops as u64);
                if r.added > 0 {
                    obs::counter!("maint_records_added_total").add(r.added as u64);
                }
                if r.removed > 0 {
                    obs::counter!("maint_records_removed_total").add(r.removed as u64);
                }
                obs::counter!("maint_epochs_total").inc();
                obs::histogram!("maint_commit_nanos").observe_duration(started.elapsed());
            }
            Err(_) => {
                obs::counter!("maint_txn_failures_total").inc();
            }
        }
        report
    }

    fn commit_ops(&mut self, ops: &[MaintOp]) -> Result<MaintReport> {
        // 1. Apply the ops to the current records' slots.
        let (records, added, removed) = apply_ops(ops, self.record_count())?;

        // 2. Stage the store delta and the next generation's parts.
        let seq = self.seq + 1;
        let staged = self.stage(&records, seq, &self.durable.snapshot())?;

        // 3. Ship the delta. The append is the last step that can fail.
        let changed_lists = changed_list_ids(&staged.batch);
        self.durable.apply_batch(&staged.batch)?;

        // 4. The batch is durable: make its generation current from the
        //    staged parts, which are what the store now holds.
        self.advance(staged.header, staged.vocab, staged.stats, &changed_lists);
        self.seq = seq;
        obs::gauge!("maint_overlay_entries").set(self.durable.overlay_len() as i64);
        Ok(MaintReport {
            seq,
            generation: self.reader.generation(),
            records: records.len(),
            batch_ops: staged.batch.len(),
            added,
            removed,
        })
    }

    /// Stages the commit that leaves `records`: the WAL batch that turns
    /// `store` (the commit's snapshot) into a build of those records, and
    /// the document header, vocabulary and statistics of the next
    /// generation. The records from the first slot the ops change on are
    /// dropped; the survivors among them are appended again after the kept
    /// ones, then the fragments.
    fn stage(&self, records: &[Record<'_>], seq: u64, store: &dyn KvStore) -> Result<Staged> {
        let header = self.reader.header();
        let old_vocab = self.reader.vocabulary();
        let mut stats = self.reader.stats().clone();
        // The lists the commit touches, by keyword id: each one's postings
        // as the commit leaves it, and its stored value.
        let mut touched: BTreeMap<KeywordId, TouchedList> = BTreeMap::new();

        // The records before the first slot the ops change are kept. Every
        // later one is dropped: its chunk is read and rendered, and the
        // rendering tokenized as a build would scan it; those that survive
        // are merged from the same tokens.
        let keep = records
            .iter()
            .enumerate()
            .take_while(|&(slot, r)| *r == Record::Current(slot))
            .count();
        let dropped_chunks = persist::read_records(store, header, keep as u32..header.records)?;
        let old = &dropped_chunks.doc;
        let slots = &old.node(old.root()).children;
        let rendered: Vec<String> = slots.iter().map(|&r| old.subtree_to_xml(r)).collect();
        let dropped_records = rendered
            .iter()
            .map(|xml| stream::TokenizedRecord::new(xml))
            .collect::<std::result::Result<Vec<_>, _>>()
            .map_err(|e| KvError::corrupt(format!("a stored record does not scan: {e}")))?;

        // 1. Take the dropped records' postings and frequencies away. The
        //    occurrences behind each dropped posting are read from the
        //    tokenized records, in document order.
        let mut dropped: FxMap<KeywordId, Vec<u64>> = FxMap::default();
        for (&record, tokenized) in slots.iter().zip(&dropped_records) {
            let ids = tokenized
                .keywords()
                .iter()
                .map(|word| {
                    old_vocab.get(word).ok_or_else(|| {
                        KvError::corrupt(format!(
                            "a stored record holds {word:?}, which the vocabulary lacks"
                        ))
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            for (local, c) in tokenized.occurrences() {
                dropped.entry(ids[local as usize]).or_default().push(c);
            }
            for id in old.descendants_or_self(record) {
                stats.adjust_n_nodes(old.node(id).node_type, 1, Sign::Minus)?;
            }
        }
        let first_dropped = Dewey::root().child(keep as u32);
        for (k, counts) in dropped {
            let stored = stored_list(store, k)?;
            let mut kept = persist::decode_list_value(&stored)?;
            let at = kept.as_slice().partition_point(|p| p.dewey < first_dropped);
            let gone = kept.split_off(at);
            if gone.len() != counts.len() {
                return Err(KvError::corrupt(format!(
                    "list {} holds {} postings in the dropped records, which hold {}",
                    k.0,
                    gone.len(),
                    counts.len()
                )));
            }
            let prev = kept.as_slice().last();
            let types = &header.node_types;
            dfpass::adjust_stats(
                &mut stats,
                types,
                k,
                prev,
                gone.as_slice(),
                &counts,
                Sign::Minus,
            )?;
            touched.insert(
                k,
                TouchedList {
                    postings: kept,
                    stored: Some(stored),
                },
            );
        }
        // Keywords only the dropped records held were first seen there, so
        // their ids are the vocabulary's last.
        let gone = touched.values().filter(|t| t.postings.is_empty()).count();
        let kept_words = old_vocab.len() - gone;
        if touched
            .iter()
            .any(|(k, t)| t.postings.is_empty() != (k.0 as usize >= kept_words))
        {
            return Err(KvError::corrupt(
                "the keywords only the dropped records hold are not the vocabulary's last ids",
            ));
        }
        let mut vocab = old_vocab.clone();
        vocab.truncate(kept_words);

        // 2. Append, after the kept records, the dropped ones that survive
        //    and then the added fragments, as the next chunks of a
        //    streaming build. `apply_ops` leaves every current record
        //    ahead of the added ones, in slot order.
        let mut survives = vec![false; dropped_records.len()];
        let mut tail = Vec::with_capacity(records.len() - keep);
        for record in &records[keep..] {
            match *record {
                Record::Current(slot) => survives[slot - keep] = true,
                Record::Added(fragment) => {
                    tail.push(stream::TokenizedRecord::new(fragment).map_err(|e| {
                        KvError::corrupt(format!("a checked fragment does not scan: {e}"))
                    })?)
                }
            }
        }
        let survivors = dropped_records.into_iter().zip(survives);
        let mut appending: Vec<_> = survivors.filter_map(|(r, s)| s.then_some(r)).collect();
        appending.append(&mut tail);
        // Tag names and node types only the dropped records used were
        // first seen there: the tables keep what the kept records use, up
        // to the mark of the first dropped record.
        let mark = dropped_chunks.mark;
        let (symbols, node_types) = persist::tables_before(header, mark);
        let builder = DocumentBuilder::resume(
            symbols,
            node_types,
            header.root_attributes.clone(),
            header.root_text.clone(),
            keep as u32,
        );
        let appended = stream::append_records(builder, vocab, appending);
        // The root and the appended records.
        let doc = appended.doc;
        stats.set_type_count(doc.node_types().len())?;
        for (t, &n) in (0u32..).zip(&appended.n_nodes) {
            stats.adjust_n_nodes(NodeTypeId(t), n, Sign::Plus)?;
        }
        for ((k, list), counts) in (0u32..).zip(appended.lists).zip(&appended.counts) {
            if list.is_empty() {
                continue;
            }
            let k = KeywordId(k);
            let entry = match touched.entry(k) {
                Entry::Occupied(e) => e.into_mut(),
                // A kept keyword the drop did not touch, or a new one.
                Entry::Vacant(e) if (k.0 as usize) < kept_words => {
                    let stored = stored_list(store, k)?;
                    e.insert(TouchedList {
                        postings: persist::decode_list_value(&stored)?,
                        stored: Some(stored),
                    })
                }
                Entry::Vacant(e) => e.insert(TouchedList {
                    postings: PostingList::new(),
                    stored: None,
                }),
            };
            let prev = entry.postings.as_slice().last();
            let types = doc.node_types();
            dfpass::adjust_stats(
                &mut stats,
                types,
                k,
                prev,
                list.as_slice(),
                counts,
                Sign::Plus,
            )?;
            entry.postings.append(list);
        }
        let vocab = appended.vocab;

        // 3. Every key the commit changes, with its new value (`None`
        //    deletes it).
        let mut changes: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for (k, text) in old_vocab.iter().skip(kept_words) {
            changes.insert(persist::vocab_entry(k, text).0, None);
        }
        for (k, text) in vocab.iter().skip(kept_words) {
            let (key, value) = persist::vocab_entry(k, text);
            if old_vocab.get(text) == Some(k) {
                changes.remove(&key);
            } else {
                changes.insert(key, Some(value));
            }
        }
        for (k, list) in touched {
            let value =
                (!list.postings.is_empty()).then(|| persist::encode_list_value(&list.postings));
            if value != list.stored {
                changes.insert(persist::list_key(k.0), value);
            }
        }
        // The appended records' chunks, each put unless the record its
        // ordinal held was dropped with the same bytes; the ordinals past
        // the new last record go. Both windows hold their root besides
        // their records.
        let kept_nodes = header.nodes.checked_sub(old.len() as u64 - 1);
        let next = DocHeader {
            symbols: doc.symbols().clone(),
            node_types: doc.node_types().clone(),
            root_attributes: header.root_attributes.clone(),
            root_text: header.root_text.clone(),
            nodes: kept_nodes.ok_or_else(|| {
                KvError::corrupt("D/types counts fewer nodes than the dropped records hold")
            })? + (doc.len() as u64 - 1),
            records: records.len() as u32,
        };
        let mut encoder = ChunkEncoder::new(&doc);
        let root = doc.node(doc.root());
        let types_value = (encoder.header(
            &next.symbols,
            &next.node_types,
            root,
            next.nodes,
            next.records,
        ))
        .to_vec();
        encoder.records(mark, |key, value| {
            let held = persist::chunk_ordinal(key)
                .and_then(|ordinal| ordinal.checked_sub(keep as u32))
                .and_then(|i| dropped_chunks.stored.get(i as usize));
            if held.map(Vec::as_slice) != Some(value) {
                changes.insert(key.to_vec(), Some(value.to_vec()));
            }
            Ok(())
        })?;
        for ordinal in next.records..header.records {
            changes.insert(persist::chunk_key(ordinal).to_vec(), None);
        }
        let whole = [
            (persist::TYPES_KEY, types_value),
            (MAINT_KEY, encode_maint_meta(seq)),
        ];
        for (key, value) in whole.into_iter().chain(persist::stats_entries(&stats)) {
            if store.get(key)?.as_ref() != Some(&value) {
                changes.insert(key.to_vec(), Some(value));
            }
        }

        // 4. The batch: the puts in key order, then the deletes in key
        //    order.
        let mut batch = Vec::with_capacity(changes.len());
        let mut deletes = Vec::new();
        for (key, value) in changes {
            match value {
                Some(value) => batch.push(BatchOp::Put(key, value)),
                None => deletes.push(BatchOp::Delete(key)),
            }
        }
        batch.append(&mut deletes);
        Ok(Staged {
            batch,
            header: next,
            vocab,
            stats,
        })
    }

    /// Makes `header`, `vocab` and `stats` over the store's current
    /// snapshot the reader of the next generation, and publishes that
    /// generation to the cache with the `changed` lists dropped
    /// ([`ListCache::publish`]).
    fn advance(
        &mut self,
        header: DocHeader,
        vocab: KeywordTable,
        stats: TypeStats,
        changed: &[u32],
    ) {
        let gen = self.reader.generation() + 1;
        let cache = Arc::clone(self.reader.cache());
        cache.publish(gen, changed);
        let store = self.durable.snapshot();
        self.reader = Arc::new(KvBackedIndex::from_parts(
            header, vocab, stats, gen, store, cache,
        ));
    }

    /// Folds the WAL overlay into the base store and makes the compacted
    /// state a new generation over the same document header, vocabulary
    /// and statistics (no cache invalidation: the merged bytes are
    /// identical). Returns whether anything was folded.
    pub fn compact(&mut self) -> Result<bool> {
        if self.durable.overlay_len() == 0 {
            return Ok(false);
        }
        self.durable.checkpoint()?;
        let r = &self.reader;
        let header = r.header().clone();
        self.advance(header, r.vocabulary().clone(), r.stats().clone(), &[]);
        obs::counter!("maint_compactions_total").inc();
        obs::counter!("maint_epochs_total").inc();
        obs::gauge!("maint_overlay_entries").set(0);
        Ok(true)
    }

    /// Committed maintenance transactions so far (monotonic across
    /// compactions and restarts).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Records currently in the corpus.
    pub fn record_count(&self) -> usize {
        self.reader.record_count()
    }

    /// Canonical record fragments, in slot order, rendered from the
    /// document assembled from every record's chunk. Fallible: the
    /// chunks are read from the store.
    pub fn records(&self) -> Result<Vec<String>> {
        Ok(render_records(&self.reader.read_document()?))
    }

    /// The full corpus as one XML document (what a from-scratch build
    /// of the current state would ingest), assembled from every record's
    /// chunk. When a chunk cannot be read (an I/O error, or damage) it is
    /// the empty string, which no XML parse accepts.
    pub fn full_xml(&self) -> String {
        let doc = self.reader.read_document();
        doc.map_or_else(
            |_| String::new(),
            |doc| compose_corpus(&doc, &render_records(&doc)),
        )
    }

    /// Entries (puts and deletes) accumulated in the WAL overlay since
    /// the last compaction.
    pub fn overlay_len(&self) -> usize {
        self.durable.overlay_len()
    }

    /// The shared list cache (one instance across all generations).
    pub fn cache(&self) -> &Arc<ListCache<StoredList>> {
        self.reader.cache()
    }
}

/// A record a transaction leaves, by where it comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record<'a> {
    /// The current record in this slot.
    Current(usize),
    /// A fragment the transaction adds.
    Added(&'a str),
}

/// A commit ready to append: its WAL batch, and the document header,
/// vocabulary and statistics the store holds once the batch is durable.
struct Staged {
    batch: Vec<BatchOp>,
    header: DocHeader,
    vocab: KeywordTable,
    stats: TypeStats,
}

/// A posting list a commit rewrites: its postings after the
/// commit, and the value stored for its keyword id before it.
struct TouchedList {
    postings: PostingList,
    stored: Option<Vec<u8>>,
}

/// The records `ops` leave, applied in order to the `current` records,
/// and how many records they add and remove. Refuses a fragment that
/// does not scan and a slot out of range, at the first op that has one.
fn apply_ops(ops: &[MaintOp], current: usize) -> Result<(Vec<Record<'_>>, usize, usize)> {
    let mut records: Vec<Record<'_>> = (0..current).map(Record::Current).collect();
    let (mut added, mut removed) = (0usize, 0usize);
    for op in ops {
        match op {
            MaintOp::Add { fragment } => {
                check_fragment(fragment)?;
                records.push(Record::Added(fragment));
                added += 1;
            }
            MaintOp::Remove { slot } => {
                if *slot >= records.len() {
                    return Err(KvError::Refused(format!(
                        "maintenance remove slot {slot} out of range \
                         ({} records at that point in the transaction)",
                        records.len()
                    )));
                }
                records.remove(*slot);
                removed += 1;
            }
        }
    }
    Ok((records, added, removed))
}

/// The stored value of keyword `k`'s posting list, which must exist.
fn stored_list(store: &dyn KvStore, k: KeywordId) -> Result<Vec<u8>> {
    store
        .get(&persist::list_key(k.0))?
        .ok_or_else(|| KvError::corrupt(format!("keyword id {} has no stored list", k.0)))
}

/// Renders `doc`'s root children back to canonical XML fragments.
fn render_records(doc: &Document) -> Vec<String> {
    let root = doc.node(doc.root());
    root.children
        .iter()
        .map(|&c| doc.subtree_to_xml(c))
        .collect()
}

/// Refuses a fragment that does not scan, or one already `MAX_SCAN_DEPTH`
/// deep: under the corpus root it sits a level deeper than scans allow.
fn check_fragment(fragment: &str) -> Result<()> {
    match check_document(fragment) {
        Ok(scan) if scan.max_depth < MAX_SCAN_DEPTH => Ok(()),
        Ok(scan) => Err(KvError::Refused(format!(
            "maintenance fragment nests {} elements deep; a record may nest {}",
            scan.max_depth,
            MAX_SCAN_DEPTH - 1
        ))),
        Err(e) => Err(KvError::Refused(format!(
            "maintenance fragment does not parse: {e}"
        ))),
    }
}

/// Recomposes a corpus from `doc`'s root envelope (tag, attributes,
/// direct text) and `records`.
fn compose_corpus(doc: &Document, records: &[String]) -> String {
    let root_tag = doc.tag_name(doc.root());
    let root = doc.node(doc.root());
    let mut xml = String::with_capacity(64 + records.iter().map(String::len).sum::<usize>());
    doc.start_tag_into(doc.root(), &mut xml);
    xml.push('>');
    if !root.text.is_empty() {
        xml.push('\n');
        xmldom::tree::escape_into(&root.text, &mut xml);
    }
    xml.push('\n');
    for r in records {
        xml.push_str(r);
    }
    xml.push_str("</");
    xml.push_str(root_tag);
    xml.push('>');
    xml
}

/// Keyword ids of the posting lists a batch touches (the entries the
/// cache must drop at publish).
fn changed_list_ids(batch: &[BatchOp]) -> Vec<u32> {
    batch
        .iter()
        .filter_map(|op| match op {
            BatchOp::Put(key, _) | BatchOp::Delete(key) => persist::list_id(key),
        })
        .collect()
}

/// `M/maint` value: persist-framed `varint(seq)`. The record count is
/// `D/types`'.
fn encode_maint_meta(seq: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8);
    write_varint(&mut payload, seq);
    persist::frame_value(&payload)
}

/// Decodes an `M/maint` value into the committed sequence number. Public
/// so the CLI `scrub` path can report maintenance state.
pub fn decode_maint_meta(value: &[u8]) -> Result<u64> {
    let raw = persist::unframe_value(value, "M/maint")?;
    let mut pos = 0;
    let seq = read_varint(raw, &mut pos)
        .ok_or_else(|| KvError::corrupt("M/maint: bad sequence varint"))?;
    if pos != raw.len() {
        return Err(KvError::corrupt("M/maint: trailing bytes"));
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::build_streaming;
    use kvstore::{DiskKv, Fault, FaultVfs, MemKv, VfsFile};
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use xmldom::parse_document;

    const CORPUS: &str = "<bib>\
        <paper><title>xml keyword search</title><year>2003</year></paper>\
        <paper><title>query refinement</title><year>2009</year></paper>\
        </bib>";

    /// Builds a store for CORPUS at `base` (vfs-backed).
    fn seed_store(vfs: &Arc<dyn Vfs>, base: &Path) -> PathBuf {
        let built = build_streaming(CORPUS, 1).unwrap();
        let db = base.with_extension("db");
        let mut disk = DiskKv::open_with_vfs(vfs, &db).unwrap();
        persist::persist(&built, &mut disk).unwrap();
        disk.sync().unwrap();
        base.to_path_buf()
    }

    fn add(fragment: &str) -> MaintOp {
        MaintOp::Add {
            fragment: fragment.to_string(),
        }
    }

    fn fresh() -> (FaultVfs, PathBuf) {
        let vfs = FaultVfs::new();
        let base = PathBuf::from("/maint/store.db");
        seed_store(&vfs.as_dyn(), &base);
        (vfs, base)
    }

    #[test]
    fn add_and_remove_round_trip_through_commits() {
        let (vfs, base) = fresh();
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        assert_eq!(maint.record_count(), 2);
        assert_eq!(maint.seq(), 0);

        let r = maint
            .commit(&[add("<paper><title>stack algorithms</title></paper>")])
            .unwrap();
        assert_eq!((r.seq, r.records, r.added, r.removed), (1, 3, 1, 0));
        assert!(r.batch_ops > 0);

        let snap = maint.snapshot();
        assert!(!snap.list_handle("stack").unwrap().is_empty());
        assert_eq!(snap.generation(), 1);

        let r = maint.commit(&[MaintOp::Remove { slot: 2 }]).unwrap();
        assert_eq!((r.seq, r.records, r.removed), (2, 2, 1));
        let snap = maint.snapshot();
        assert!(snap.list_handle("stack").unwrap().is_empty());
    }

    #[test]
    fn committed_store_is_byte_identical_to_a_fresh_build() {
        let (vfs, base) = fresh();
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        maint
            .commit(&[
                add("<paper><title>stack algorithms</title><year>2004</year></paper>"),
                MaintOp::Remove { slot: 0 },
            ])
            .unwrap();

        // The DOM builder, not the one the commit ran: an independent
        // reference for what the store must contain.
        let final_doc = parse_document(&maint.full_xml()).unwrap();
        let rebuilt = crate::index::Index::build(Arc::new(final_doc));
        let scratch_path = Path::new("/maint/scratch.db");
        let mut scratch = DiskKv::open_with_vfs(&vfs.as_dyn(), scratch_path).unwrap();
        persist::persist(&rebuilt, &mut scratch).unwrap();

        let reopened = DurableKv::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        let mut live: BTreeMap<Vec<u8>, Vec<u8>> = reopened
            .snapshot()
            .scan_range(b"", None)
            .unwrap()
            .into_iter()
            .collect();
        assert!(live.remove(MAINT_KEY).is_some());
        let fresh: BTreeMap<Vec<u8>, Vec<u8>> =
            scratch.scan_range(b"", None).unwrap().into_iter().collect();
        assert_eq!(live, fresh, "maintained store diverged from rebuild");
    }

    fn mem(entries: &[(&str, &str)]) -> MemKv {
        entries
            .iter()
            .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
            .collect()
    }

    #[test]
    fn applying_the_diff_turns_the_live_store_into_the_target() {
        let live = mem(&[("a", "1"), ("b", "2"), ("c", "3"), ("e", "5"), ("g", "7")]);
        let target = mem(&[("b", "2"), ("c", "33"), ("d", "4"), ("e", "5"), ("f", "6")]);
        let batch = diff_stores(&live, &target).unwrap();

        let ops: Vec<(&[u8], Option<&[u8]>)> = batch
            .iter()
            .map(|op| match op {
                BatchOp::Put(k, v) => (k.as_slice(), Some(v.as_slice())),
                BatchOp::Delete(k) => (k.as_slice(), None),
            })
            .collect();
        let expected: [(&[u8], Option<&[u8]>); 5] = [
            (b"c", Some(b"33")),
            (b"d", Some(b"4")),
            (b"f", Some(b"6")),
            (b"a", None),
            (b"g", None),
        ];
        assert_eq!(
            ops, expected,
            "puts in key order, then deletes in key order"
        );

        let mut applied = live;
        for op in batch {
            match op {
                BatchOp::Put(k, v) => applied.put(&k, &v).unwrap(),
                BatchOp::Delete(k) => assert!(applied.delete(&k).unwrap()),
            }
        }
        assert_eq!(
            applied.scan_range(b"", None).unwrap(),
            target.scan_range(b"", None).unwrap()
        );
        assert!(diff_stores(&target, &target).unwrap().is_empty());
        assert_eq!(diff_stores(&MemKv::new(), &target).unwrap().len(), 5);
        assert_eq!(diff_stores(&target, &MemKv::new()).unwrap().len(), 5);
    }

    #[test]
    fn old_snapshot_keeps_answering_across_commits_and_compaction() {
        let (vfs, base) = fresh();
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        let old = maint.snapshot();
        let old_refinement = old.list_handle("refinement").unwrap().len();
        assert!(old_refinement > 0);

        // drops the "query refinement" paper
        maint.commit(&[MaintOp::Remove { slot: 1 }]).unwrap();
        assert!(maint.compact().unwrap());

        // New epoch: the keyword is gone.
        let new = maint.snapshot();
        assert!(new.list_handle("refinement").unwrap().is_empty());
        // Old epoch: still pinned to its generation, still answering.
        assert_eq!(old.list_handle("refinement").unwrap().len(), old_refinement);
    }

    #[test]
    fn reopen_after_commits_restores_seq_and_records() {
        let (vfs, base) = fresh();
        {
            let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
            maint
                .commit(&[add("<paper><title>third</title></paper>")])
                .unwrap();
        }
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        assert_eq!(maint.seq(), 1);
        assert_eq!(maint.record_count(), 3);
        // seq survives a compaction + reopen too.
        assert!(maint.compact().unwrap());
        drop(maint);
        let maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        assert_eq!(maint.seq(), 1);
        assert_eq!(maint.record_count(), 3);
        assert_eq!(maint.overlay_len(), 0, "compaction folded the overlay");
    }

    #[test]
    fn failed_ops_leave_store_and_epoch_untouched() {
        let (vfs, base) = fresh();
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        let before = maint.snapshot();
        for ops in [
            add("<unclosed>"),
            add("<paper/><paper/>"),
            MaintOp::Remove { slot: 7 },
        ] {
            let err = maint.commit(&[ops]).unwrap_err();
            assert!(matches!(err, KvError::Refused(_)), "{err}");
            assert!(!err.to_string().contains("corrupt"), "{err}");
        }
        assert_eq!(maint.seq(), 0);
        assert!(Arc::ptr_eq(&before, &maint.snapshot()));
    }

    #[test]
    fn statistics_a_drop_would_take_below_zero_refuse_the_commit_as_corrupt() {
        // A store whose `S/T` and `S/D` lack "refinement", which only the
        // last record holds: dropping that record takes them below zero.
        let vfs = FaultVfs::new();
        let base = PathBuf::from("/maint/store.db");
        let built = build_streaming(CORPUS, 1).unwrap();
        let k = built.vocabulary().get("refinement").unwrap();
        let mut stats = built.stats().clone();
        let held: Vec<_> = stats
            .iter_tf()
            .filter(|&(_, held, _)| held == k)
            .map(|(t, _, tf)| (t, tf, stats.df(t, k)))
            .collect();
        for (t, tf, df) in held {
            stats.adjust(t, k, tf, df, Sign::Minus).unwrap();
        }
        let mut disk = DiskKv::open_with_vfs(&vfs.as_dyn(), &base).unwrap();
        persist::persist(&built, &mut disk).unwrap();
        for (key, value) in persist::stats_entries(&stats) {
            disk.put(key, &value).unwrap();
        }
        disk.sync().unwrap();
        drop(disk);

        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        let before = maint.snapshot();
        let err = maint.commit(&[MaintOp::Remove { slot: 1 }]).unwrap_err();
        assert!(!matches!(err, KvError::Refused(_)), "{err}");
        assert!(err.to_string().contains("disagree"), "{err}");
        assert_eq!(maint.seq(), 0);
        assert_eq!(maint.overlay_len(), 0);
        assert!(Arc::ptr_eq(&before, &maint.snapshot()));
    }

    /// Every key and value of the store at `base`, `M/maint` included.
    fn dump(vfs: &FaultVfs, base: &Path) -> BTreeMap<Vec<u8>, Vec<u8>> {
        let durable = DurableKv::open_with_vfs(vfs.as_dyn(), base).unwrap();
        let view = durable.snapshot();
        view.scan_range(b"", None).unwrap().into_iter().collect()
    }

    /// Fragments written the ways a DOM round trip would rewrite: markup
    /// the builder drops, references it decodes, quotes, mixed content
    /// and whitespace it normalises.
    const RAW_FRAGMENTS: [&str; 4] = [
        "<?xml version='1.0'?>\n<!DOCTYPE paper [<!ELEMENT paper ANY>]>\n\
         <!-- a comment --><paper key='p&amp;1'><title>xml &amp; keyword \
         &#83;earch</title><?pi data?><year>2010</year></paper>",
        "<paper><title><![CDATA[ a <raw> & query ]]></title>mixed <i>content</i> \
         and more text<note a=\"x\" b='y \"z\"'/></paper>",
        "  <paper>\n  <title>  spaced   text  </title>\n</paper>\n ",
        "<paper><title>caf&#xE9; &lt;b&gt;</title><year>&#50;&#48;&#49;&#49;</year></paper>",
    ];

    fn raw_fragment_ops(fragment: impl Fn(&str) -> String) -> [Vec<MaintOp>; 3] {
        let add = |i: usize| MaintOp::Add {
            fragment: fragment(RAW_FRAGMENTS[i]),
        };
        [
            vec![add(0), add(1)],
            vec![MaintOp::Remove { slot: 0 }, add(2)],
            vec![add(3)],
        ]
    }

    #[test]
    fn raw_fragments_leave_the_store_a_dom_round_trip_would() {
        let (vfs, base) = fresh();
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        for ops in raw_fragment_ops(str::to_string) {
            maint.commit(&ops).unwrap();
        }

        // The same ops with each fragment parsed and re-rendered first.
        let (dom_vfs, dom_base) = fresh();
        let mut dom_maint = MaintIndex::open_with_vfs(dom_vfs.as_dyn(), &dom_base).unwrap();
        for ops in raw_fragment_ops(|f| parse_document(f).unwrap().to_xml()) {
            dom_maint.commit(&ops).unwrap();
        }
        let live = dump(&vfs, &base);
        assert_eq!(
            live,
            dump(&dom_vfs, &dom_base),
            "raw and re-rendered diverge"
        );

        // And a build from scratch of the corpus the commits left.
        let built = build_streaming(&maint.full_xml(), 1).unwrap();
        let mut scratch = MemKv::new();
        persist::persist(&built, &mut scratch).unwrap();
        scratch.put(MAINT_KEY, &encode_maint_meta(3)).unwrap();
        let fresh: BTreeMap<Vec<u8>, Vec<u8>> =
            scratch.scan_range(b"", None).unwrap().into_iter().collect();
        assert_eq!(live, fresh, "maintained store diverged from rebuild");
        let keys = maint.snapshot();
        for word in ["search", "raw", "mixed", "spaced", "café", "2011"] {
            assert!(!keys.list_handle(word).unwrap().is_empty(), "{word}");
        }
    }

    fn nested(depth: usize) -> String {
        format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth))
    }

    #[test]
    fn a_fragment_too_deep_for_the_corpus_root_is_refused() {
        let (vfs, base) = fresh();
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        // Exactly the scanner's limit on its own, one level over it under
        // the root; and one far past it.
        let at_limit = nested(MAX_SCAN_DEPTH);
        assert!(check_document(&at_limit).is_ok());
        for fragment in [at_limit, nested(9_300)] {
            let err = maint.commit(&[MaintOp::Add { fragment }]).unwrap_err();
            assert!(matches!(err, KvError::Refused(_)), "{err}");
        }
        assert_eq!(maint.seq(), 0);
    }

    #[test]
    fn a_deep_fragment_commits_and_renders_in_linear_space() {
        let (vfs, base) = fresh();
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        let deep = nested(8_000);
        assert_eq!(deep.len(), 56_000);
        maint.commit(&[MaintOp::Add { fragment: deep }]).unwrap();
        // The next commit renders the deep record back out.
        maint
            .commit(&[add("<paper><title>after the deep one</title></paper>")])
            .unwrap();
        assert_eq!(maint.record_count(), 4);
        let maint = Arc::new(maint);
        let render = Arc::clone(&maint);
        // A thread with the default stack, like a server connection's.
        let xml = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || render.full_xml())
            .unwrap()
            .join()
            .expect("rendering a deep record must not overflow the stack");
        assert!(xml.len() < 2 << 20, "{} bytes", xml.len());
        assert_eq!(xml, maint.full_xml());
    }

    #[test]
    fn a_commit_on_a_full_disk_fails_and_publishes_nothing() {
        let (vfs, base) = fresh();
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        maint
            .commit(&[add("<paper><title>committed</title></paper>")])
            .unwrap();
        let before = maint.snapshot();
        vfs.set_fault(vfs.op_count(), Fault::NoSpace);
        let refused = add("<paper><title>refused</title></paper>");
        let err = maint.commit(std::slice::from_ref(&refused)).unwrap_err();
        assert!(
            matches!(&err, KvError::Io(e) if e.kind() == std::io::ErrorKind::StorageFull),
            "{err}"
        );
        // A compaction needs space too.
        assert!(maint.compact().is_err());
        assert!(Arc::ptr_eq(&before, &maint.snapshot()));
        assert_eq!((maint.seq(), maint.snapshot().generation()), (1, 1));

        vfs.clear_fault();
        drop(maint);
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        assert_eq!((maint.seq(), maint.record_count()), (1, 3));
        let snap = maint.snapshot();
        assert!(!snap.list_handle("committed").unwrap().is_empty());
        assert!(snap.list_handle("refused").unwrap().is_empty());
        // With space back, the refused commit goes through.
        assert_eq!(maint.commit(&[refused]).unwrap().records, 4);
    }

    /// Read faults for [`ReadFaultVfs`]: the first `.wal` fsync after
    /// `armed` is set sets `failing`, and every `.db` read fails while
    /// it stays set.
    #[derive(Default)]
    struct ReadFaults {
        armed: AtomicBool,
        failing: AtomicBool,
    }

    struct ReadFaultVfs {
        inner: Arc<dyn Vfs>,
        faults: Arc<ReadFaults>,
    }

    struct ReadFaultFile {
        inner: Box<dyn VfsFile>,
        extension: Option<String>,
        faults: Arc<ReadFaults>,
    }

    impl Vfs for ReadFaultVfs {
        fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
            Ok(Box::new(ReadFaultFile {
                inner: self.inner.open(path)?,
                extension: path.extension().map(|e| e.to_string_lossy().into_owned()),
                faults: Arc::clone(&self.faults),
            }))
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
        fn remove(&self, path: &Path) -> Result<()> {
            self.inner.remove(path)
        }
        fn replace(&self, from: &Path, to: &Path) -> Result<()> {
            self.inner.replace(from, to)
        }
        fn sync_parent_dir(&self, path: &Path) -> Result<()> {
            self.inner.sync_parent_dir(path)
        }
    }

    impl VfsFile for ReadFaultFile {
        fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            if self.extension.as_deref() == Some("db") && self.faults.failing.load(Ordering::SeqCst)
            {
                return Err(KvError::Io(std::io::Error::other("injected read error")));
            }
            self.inner.read_exact_at(offset, buf)
        }
        fn write_all_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.inner.write_all_at(offset, data)
        }
        fn set_len(&self, len: u64) -> Result<()> {
            self.inner.set_len(len)
        }
        fn len(&self) -> Result<u64> {
            self.inner.len()
        }
        fn sync_data(&self) -> Result<()> {
            self.inner.sync_data()?;
            if self.extension.as_deref() == Some("wal")
                && self.faults.armed.swap(false, Ordering::SeqCst)
            {
                self.faults.failing.store(true, Ordering::SeqCst);
            }
            Ok(())
        }
    }

    /// Once the WAL append is durable the commit has happened, whatever
    /// fails next: it reports success, `seq` advances with the batch,
    /// and the next commit diffs against what the store holds, so both
    /// records survive a reopen.
    #[test]
    fn nothing_after_the_wal_append_can_fail_a_commit() {
        let (vfs, base) = fresh();
        let faults = Arc::new(ReadFaults::default());
        let faulty = Arc::new(ReadFaultVfs {
            inner: vfs.as_dyn(),
            faults: Arc::clone(&faults),
        });
        let mut maint = MaintIndex::open_with_vfs(faulty, &base).unwrap();
        faults.armed.store(true, Ordering::SeqCst);
        let first = maint.commit(&[add("<paper><title>first durable</title></paper>")]);
        let fired = faults.failing.swap(false, Ordering::SeqCst);
        assert!(fired, "the commit's WAL fsync turned the read faults on");
        assert_eq!(first.unwrap().seq, 1);
        let second = maint
            .commit(&[add("<paper><title>second durable</title></paper>")])
            .unwrap();
        assert_eq!(second.seq, 2);

        drop(maint);
        let maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        assert_eq!((maint.seq(), maint.record_count()), (2, 4));
        let snap = maint.snapshot();
        for word in ["first", "second"] {
            assert!(!snap.list_handle(word).unwrap().is_empty(), "{word}");
        }
    }

    /// The reference batch: the minimal one turning the live store's contents into `target`'s: the
    /// puts in key order, then the deletes in key order. Both scans come in
    /// ascending key order, so one merge walk pairs them, and each value put
    /// is moved out of the target's scan, never copied.
    fn diff_stores(live: &dyn KvStore, target: &dyn KvStore) -> Result<Vec<BatchOp>> {
        let mut current = live.scan_range(b"", None)?.into_iter().peekable();
        let mut ops = Vec::new();
        let mut deletes = Vec::new();
        for (key, value) in target.scan_range(b"", None)? {
            while let Some((gone, _)) = current.next_if(|(k, _)| *k < key) {
                deletes.push(BatchOp::Delete(gone));
            }
            match current.next_if(|(k, _)| *k == key) {
                Some((_, held)) if held == value => {}
                _ => ops.push(BatchOp::Put(key, value)),
            }
        }
        deletes.extend(current.map(|(gone, _)| BatchOp::Delete(gone)));
        ops.append(&mut deletes);
        Ok(ops)
    }

    /// The batch a rebuild would ship for `records`: the live store
    /// diffed against a from-scratch build of the recomposed corpus.
    fn rebuilt_batch(maint: &MaintIndex, records: &[Record<'_>], seq: u64) -> Vec<BatchOp> {
        let doc = maint.reader.read_document().unwrap();
        let slots = &doc.node(doc.root()).children;
        let texts: Vec<String> = records
            .iter()
            .map(|record| match *record {
                Record::Current(slot) => doc.subtree_to_xml(slots[slot]),
                Record::Added(fragment) => fragment.to_string(),
            })
            .collect();
        let built = build_streaming(&compose_corpus(&doc, &texts), 1).unwrap();
        let mut target = MemKv::new();
        persist::persist(&built, &mut target).unwrap();
        let meta = encode_maint_meta(seq);
        target.put(MAINT_KEY, &meta).unwrap();
        diff_stores(&maint.durable.snapshot(), &target).unwrap()
    }

    /// A transaction over `n` records, drawn from `r`: adds (of fragments
    /// that bring new words, tags and attributes, or none), removes of
    /// the last slots, an add removed again, and removes from the middle
    /// and the front.
    fn shaped(r: u64, n: usize) -> Vec<MaintOp> {
        const WORDS: [&str; 8] = [
            "xml",
            "query",
            "novel",
            "stack",
            "unseen",
            "refinement",
            "2003",
            "odd",
        ];
        let fragment = |i: u64| {
            let (a, b) = (WORDS[i as usize % 8], WORDS[(i / 8) as usize % 8]);
            match i % 3 {
                0 => format!("<paper><title>{a} {b}</title><year>2009</year></paper>"),
                1 => format!("<paper k=\"{b}\"><note>{a}{i}</note></paper>"),
                _ => format!("<paper><title>{a}</title></paper>"),
            }
        };
        let remove = |slot: usize| MaintOp::Remove { slot };
        let anywhere = (r / 7) as usize % n.max(1);
        match (r % 7, n) {
            (1, _) => (0..2).map(|i| add(&fragment(r / 7 + i))).collect(),
            (2, 1..) => vec![remove(n - 1)],
            (3, 2..) => vec![remove(n - 1), remove(n - 2), add(&fragment(r / 7))],
            (4, _) => vec![add(&fragment(r / 7)), remove(n)],
            (5, 2..) => vec![remove(anywhere), add(&fragment(r / 7))],
            (6, 2..) => vec![add(&fragment(r / 7)), remove(0), remove(anywhere)],
            _ => vec![add(&fragment(r / 7))],
        }
    }

    #[test]
    fn the_commit_batch_is_the_rebuild_diff_op_for_op() {
        let (vfs, base) = fresh();
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        let mut r = 0x9E37_79B9_7F4A_7C15u64;
        for t in 0..64 {
            r ^= r << 13;
            r ^= r >> 7;
            r ^= r << 17;
            let ops = shaped(r, maint.record_count());
            let (records, _, _) = apply_ops(&ops, maint.record_count()).unwrap();
            let seq = maint.seq() + 1;
            let staged = maint
                .stage(&records, seq, &maint.durable.snapshot())
                .unwrap();
            let rebuilt = rebuilt_batch(&maint, &records, seq);
            assert_eq!(staged.batch, rebuilt, "txn {t}: {ops:?}");
            maint.commit(&ops).unwrap();
            if t % 8 == 7 {
                maint.compact().unwrap();
            }
        }
    }

    /// A view of a store that records the keys it is asked for.
    struct Counting<'s> {
        inner: &'s dyn KvStore,
        gets: std::sync::Mutex<Vec<Vec<u8>>>,
    }

    impl KvStore for Counting<'_> {
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            self.gets.lock().unwrap().push(key.to_vec());
            self.inner.get(key)
        }
        fn put(&mut self, _: &[u8], _: &[u8]) -> Result<()> {
            unreachable!("a commit stages against a read-only view")
        }
        fn delete(&mut self, _: &[u8]) -> Result<bool> {
            unreachable!("a commit stages against a read-only view")
        }
        fn contains(&self, key: &[u8]) -> Result<bool> {
            self.gets.lock().unwrap().push(key.to_vec());
            self.inner.contains(key)
        }
        fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
            self.gets.lock().unwrap().push(start.to_vec());
            self.inner.scan_range(start, end)
        }
        fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
            self.gets.lock().unwrap().push(prefix.to_vec());
            self.inner.scan_prefix(prefix)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn sync(&mut self) -> Result<()> {
            Ok(())
        }
    }

    /// Stages `ops` against a counting view of the store, then commits
    /// them: the staged batch's `D/<ordinal>` puts and deletes, and the
    /// `D/` keys the stage read.
    fn stage_counted(maint: &mut MaintIndex, ops: &[MaintOp]) -> [Vec<u32>; 3] {
        let (records, _, _) = apply_ops(ops, maint.record_count()).unwrap();
        let snapshot = maint.durable.snapshot();
        let view = Counting {
            inner: &snapshot,
            gets: Default::default(),
        };
        let staged = maint.stage(&records, maint.seq() + 1, &view).unwrap();
        let chunk = |key: &Vec<u8>| persist::chunk_ordinal(key);
        let (mut puts, mut deletes) = (Vec::new(), Vec::new());
        for op in &staged.batch {
            match op {
                BatchOp::Put(key, _) => puts.extend(chunk(key)),
                BatchOp::Delete(key) => deletes.extend(chunk(key)),
            }
        }
        let gets = view.gets.into_inner().unwrap();
        assert!(
            gets.iter().all(|k| !k.is_empty() && !b"D/".starts_with(k)),
            "a scan that reaches D/: {gets:?}"
        );
        let read = gets.iter().filter_map(chunk).collect();
        maint.commit(ops).unwrap();
        [puts, deletes, read]
    }

    #[test]
    fn an_add_and_a_remove_of_the_last_slot_touch_one_chunk() {
        let corpus = datagen::generate_dblp(&datagen::DblpConfig {
            authors: 300,
            seed: 0xD8B1,
            ..Default::default()
        });
        let vfs = FaultVfs::new();
        let base = PathBuf::from("/maint/corpus_s.db");
        let built = build_streaming(&corpus.to_xml(), 1).unwrap();
        let mut disk = DiskKv::open_with_vfs(&vfs.as_dyn(), &base).unwrap();
        persist::persist(&built, &mut disk).unwrap();
        drop(disk);
        let mut maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        assert_eq!(maint.record_count(), 300);

        // An add puts the new last record's chunk and reads none.
        let record = add("<author><name>Ada Lovelace</name><hobby>engines</hobby></author>");
        let [puts, deletes, read] = stage_counted(&mut maint, &[record]);
        assert_eq!((puts, deletes, read), (vec![300], vec![], vec![]), "add");

        // A remove of the last slot deletes its chunk, and reads that one
        // alone: it keeps every other.
        let last = MaintOp::Remove { slot: 300 };
        let [puts, deletes, read] = stage_counted(&mut maint, &[last]);
        assert_eq!(
            (puts, deletes, read),
            (vec![], vec![300], vec![300]),
            "remove"
        );
        assert_eq!(maint.record_count(), 300);
    }

    #[test]
    fn maint_meta_codec_round_trips_and_rejects_garbage() {
        let enc = encode_maint_meta(42);
        assert_eq!(decode_maint_meta(&enc).unwrap(), 42);
        let mut bad = enc.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        assert!(decode_maint_meta(&bad).is_err());
    }
}
