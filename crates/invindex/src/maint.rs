//! Online index maintenance: WAL-backed document insert/delete with
//! snapshot reader handoff.
//!
//! [`MaintIndex`] owns a [`kvstore::DurableKv`] and, beside it, the
//! [`KvBackedIndex`] over the last published state, which
//! [`MaintIndex::snapshot`] hands out. The corpus model is that reader's
//! document: a root element whose direct children are the *records*; a
//! maintenance transaction ([`MaintIndex::commit`] over a slice of
//! [`MaintOp`]s) appends and/or removes records, commits the resulting
//! store delta as **one atomic WAL transaction group**, and publishes a
//! fresh generation.
//!
//! # Commit protocol (rebuild-diff)
//!
//! A commit renders the current records from the document, applies the
//! ops to them, rebuilds the full index of the recomposed corpus in
//! memory with [`build_streaming`] — the same builder `xrefine-cli
//! index` runs, single-threaded because the build happens under the
//! writer lock — persists it to a scratch store, and diffs that against
//! the live store; only the differing keys ship as the WAL batch. This
//! is deliberately the *strongest* maintenance discipline: after every
//! commit the durable store is byte-identical to a from-scratch rebuild
//! of the same corpus (the differential oracle in
//! `tests/maint_differential.rs` holds by construction), and crash
//! recovery is exactly [`kvstore::DurableKv`]'s committed-prefix replay.
//! The cost is a rebuild per transaction — acceptable for the paper's
//! corpus scale, and an explicit trade the DESIGN.md section records.
//!
//! # Publishing a generation
//!
//! ```text
//! commit:  writer lock → apply_batch (WAL)
//!            → durable.snapshot() (O(1)) → new KvBackedIndex at gen+1
//!            → cache.set_current_gen(gen+1)   (stale inserts now refused)
//!            → cache.invalidate(changed ids)  (stale entries dropped)
//!            → writer state holds the new reader
//! ```
//!
//! The epoch pointer readers pin is `LiveEngine`'s (xrefine): it takes
//! [`MaintIndex::snapshot`] after the writer lock is released and
//! republishes its engine over it. Readers holding an earlier reader
//! keep serving from its pinned [`kvstore::Snapshot`] — they are never
//! blocked and never see mixed state: the store copies its overlay on
//! the first write after handing a snapshot out. Their re-decodes of
//! invalidated lists are admitted to the cache only if their generation
//! is still current (see [`crate::cache`]).
//!
//! # Compaction
//!
//! [`MaintIndex::compact`] folds the WAL overlay into the base store via
//! [`kvstore::DurableKv::checkpoint`] (write `.db.new`, fsync, rename
//! over `.db`, fsync dir, then reset the WAL) and publishes the store's
//! next snapshot — the new base, an empty overlay — as a new generation
//! with **no cache invalidation**: the merged bytes are identical, so
//! entries stamped by older generations keep hitting. That a checkpoint
//! renames a file is `kvstore`'s business alone; earlier readers still
//! read the old inode through the handle their snapshot pinned.

use crate::cache::ListCache;
use crate::kvindex::{KvBackedIndex, DEFAULT_CACHE_BUDGET};
use crate::persist;
use crate::postings::{read_varint, write_varint};
use crate::stream::build_streaming;
use kvstore::{BatchOp, DurableKv, KvError, KvStore, MemKv, Result, StdVfs, Vfs};
use obs::lockrank::rank;
use obs::sync::Mutex;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xmldom::{parse_document, Document};

/// The store key holding maintenance metadata (committed transaction
/// sequence number and record count), framed like every other persisted
/// value.
pub const MAINT_KEY: &[u8] = b"M/maint";

/// One staged corpus mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintOp {
    /// Append a record (an XML fragment that parses as one element) to
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

/// The single-writer state behind the writer mutex.
struct Writer {
    durable: DurableKv,
    /// The reader over the last published state: its document is the
    /// corpus and its generation the current one.
    reader: Arc<KvBackedIndex>,
    seq: u64,
}

/// A live, updatable index: a durable store plus the reader over its
/// last published state. All methods take `&self`; commits are
/// serialized by the writer mutex, and a reader handed out keeps
/// answering from its own snapshot whatever commits after it.
pub struct MaintIndex {
    writer: Mutex<Writer>,
    cache: Arc<ListCache>,
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
        let doc = Arc::new(persist::load_document(&durable)?);
        let records = record_count(&doc);
        let seq = match durable.get(MAINT_KEY)? {
            Some(value) => {
                let (seq, count) = decode_maint_meta(&value)?;
                if count != records as u64 {
                    return Err(KvError::corrupt(format!(
                        "maintenance metadata claims {count} records but the \
                         embedded document has {records}"
                    )));
                }
                seq
            }
            None => 0,
        };
        let cache = Arc::new(ListCache::new(DEFAULT_CACHE_BUDGET));
        let reader = Arc::new(KvBackedIndex::open_snapshot_with_document(
            doc,
            0,
            durable.snapshot(),
            Arc::clone(&cache),
        )?);
        obs::gauge!("maint_overlay_entries").set(durable.overlay_len() as i64);
        Ok(MaintIndex {
            writer: Mutex::new(
                rank::MAINT_WRITER,
                Writer {
                    durable,
                    reader,
                    seq,
                },
            ),
            cache,
        })
    }

    /// The reader over the last published state. One mutex, one `Arc`
    /// clone; the returned reader stays valid (served from its pinned
    /// snapshot) across any number of later commits. Blocks while a
    /// commit is in flight — the query path never calls it: readers pin
    /// `LiveEngine`'s engine, which takes this after each commit.
    pub fn snapshot(&self) -> Arc<KvBackedIndex> {
        Arc::clone(&self.writer.lock().reader) // xlint::lock(maint.writer)
    }

    /// Commits `ops` as one atomic WAL transaction and publishes the
    /// new generation. On any error the store and the published reader
    /// are unchanged (a failed WAL append is rolled back by recovery).
    pub fn commit(&self, ops: &[MaintOp]) -> Result<MaintReport> {
        let started = Instant::now();
        let report = {
            let mut w = self.writer.lock(); // xlint::lock(maint.writer)
            self.commit_locked(&mut w, ops)
        };
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

    fn commit_locked(&self, w: &mut Writer, ops: &[MaintOp]) -> Result<MaintReport> {
        // 1. Apply the ops to the current records, rendered from the
        //    document.
        let mut records = render_records(w.reader.document());
        let (mut added, mut removed) = (0usize, 0usize);
        for op in ops {
            match op {
                MaintOp::Add { fragment } => {
                    let frag_doc = parse_document(fragment).map_err(|e| {
                        KvError::corrupt(format!("maintenance fragment does not parse: {e}"))
                    })?;
                    records.push(frag_doc.to_xml());
                    added += 1;
                }
                MaintOp::Remove { slot } => {
                    if *slot >= records.len() {
                        return Err(KvError::corrupt(format!(
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

        // 2. Rebuild the post-transaction index in memory.
        let xml = compose_corpus(w.reader.document(), &records);
        let built = build_streaming(&xml, 1)
            .map_err(|e| KvError::corrupt(format!("reconstructed corpus does not parse: {e}")))?;
        let doc = Arc::clone(built.document());
        let mut target = MemKv::new();
        persist::persist(&built, &mut target)?;
        let seq = w.seq + 1;
        let count = record_count(&doc);
        target.put(MAINT_KEY, &encode_maint_meta(seq, count as u64))?;

        // 3. Diff against the live store; ship only the delta.
        let batch = diff_stores(&w.durable, &target)?;
        let changed_lists = changed_list_ids(&batch);
        w.durable.apply_batch(&batch)?;

        // 4. Publish the new generation.
        self.publish(w, doc, &changed_lists)?;
        w.seq = seq;
        obs::gauge!("maint_overlay_entries").set(w.durable.overlay_len() as i64);
        Ok(MaintReport {
            seq,
            generation: w.reader.generation(),
            records: count,
            batch_ops: batch.len(),
            added,
            removed,
        })
    }

    /// Opens a reader over the store's next snapshot as generation
    /// `gen + 1`, retargets the cache, and makes the reader the writer's
    /// current one. Ordering matters: the generation bump is published
    /// to the cache *before* invalidation, so a stale reader that races
    /// the sweep cannot re-seed an entry we just dropped (its insert
    /// carries the old generation and is refused under the cache mutex).
    fn publish(&self, w: &mut Writer, doc: Arc<Document>, changed_lists: &[u32]) -> Result<()> {
        let gen = w.reader.generation() + 1;
        let reader = Arc::new(KvBackedIndex::open_snapshot_with_document(
            doc,
            gen,
            w.durable.snapshot(),
            Arc::clone(&self.cache),
        )?);
        self.cache.set_current_gen(gen);
        for &id in changed_lists {
            self.cache.invalidate(id);
        }
        w.reader = reader;
        Ok(())
    }

    /// Folds the WAL overlay into the base store and publishes the
    /// compacted state as a new generation (no cache invalidation: the
    /// merged bytes are identical). Returns whether anything was folded.
    pub fn compact(&self) -> Result<bool> {
        let mut w = self.writer.lock(); // xlint::lock(maint.writer)
        if w.durable.overlay_len() == 0 {
            return Ok(false);
        }
        w.durable.checkpoint()?;
        let doc = Arc::clone(w.reader.document());
        self.publish(&mut w, doc, &[])?;
        obs::counter!("maint_compactions_total").inc();
        obs::counter!("maint_epochs_total").inc();
        obs::gauge!("maint_overlay_entries").set(0);
        Ok(true)
    }

    /// Committed maintenance transactions so far (monotonic across
    /// compactions and restarts).
    pub fn seq(&self) -> u64 {
        self.writer.lock().seq // xlint::lock(maint.writer)
    }

    /// Records currently in the corpus.
    pub fn record_count(&self) -> usize {
        record_count(&self.document())
    }

    /// Canonical record fragments, in slot order.
    pub fn records(&self) -> Vec<String> {
        render_records(&self.document())
    }

    /// The full corpus as one XML document (what a from-scratch build
    /// of the current state would ingest).
    pub fn full_xml(&self) -> String {
        let doc = self.document();
        compose_corpus(&doc, &render_records(&doc))
    }

    /// Entries (puts and deletes) accumulated in the WAL overlay since
    /// the last compaction.
    pub fn overlay_len(&self) -> usize {
        self.writer.lock().durable.overlay_len() // xlint::lock(maint.writer)
    }

    /// The shared list cache (one instance across all generations).
    pub fn cache(&self) -> &Arc<ListCache> {
        &self.cache
    }

    /// The current corpus document.
    fn document(&self) -> Arc<Document> {
        Arc::clone(self.writer.lock().reader.document()) // xlint::lock(maint.writer)
    }
}

/// Records in `doc`: its root's children.
fn record_count(doc: &Document) -> usize {
    doc.node(doc.root()).children.len()
}

/// Renders `doc`'s root children back to canonical XML fragments.
fn render_records(doc: &Document) -> Vec<String> {
    let root = doc.node(doc.root());
    root.children
        .iter()
        .map(|&c| doc.subtree_to_xml(c))
        .collect()
}

/// Recomposes a corpus from `doc`'s root envelope (tag, attributes,
/// direct text) and `records`.
fn compose_corpus(doc: &Document, records: &[String]) -> String {
    let root_tag = doc.tag_name(doc.root());
    let root = doc.node(doc.root());
    let mut xml = String::with_capacity(64 + records.iter().map(String::len).sum::<usize>());
    xml.push('<');
    xml.push_str(root_tag);
    for (k, v) in &root.attributes {
        xml.push(' ');
        xml.push_str(k);
        xml.push_str("=\"");
        xmldom::tree::escape_into(v, &mut xml);
        xml.push('"');
    }
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

/// Minimal batch turning the live store's contents into `target`'s.
fn diff_stores(live: &dyn KvStore, target: &dyn KvStore) -> Result<Vec<BatchOp>> {
    let mut ops = Vec::new();
    let current: BTreeMap<Vec<u8>, Vec<u8>> = live.scan_range(b"", None)?.into_iter().collect();
    let desired: BTreeMap<Vec<u8>, Vec<u8>> = target.scan_range(b"", None)?.into_iter().collect();
    for (key, value) in &desired {
        if current.get(key) != Some(value) {
            ops.push(BatchOp::Put(key.clone(), value.clone()));
        }
    }
    for key in current.keys() {
        if !desired.contains_key(key) {
            ops.push(BatchOp::Delete(key.clone()));
        }
    }
    Ok(ops)
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

/// `M/maint` value: persist-framed `varint(seq) ‖ varint(record_count)`.
fn encode_maint_meta(seq: u64, records: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8);
    write_varint(&mut payload, seq);
    write_varint(&mut payload, records);
    persist::frame_value(&payload)
}

/// Decodes an `M/maint` value into (seq, record_count). Public to the
/// crate so the CLI `scrub` path can report maintenance state.
pub fn decode_maint_meta(value: &[u8]) -> Result<(u64, u64)> {
    let raw = persist::unframe_value(value, "M/maint")?;
    let mut pos = 0;
    let seq = read_varint(raw, &mut pos)
        .ok_or_else(|| KvError::corrupt("M/maint: bad sequence varint"))?;
    let records = read_varint(raw, &mut pos)
        .ok_or_else(|| KvError::corrupt("M/maint: bad record-count varint"))?;
    if pos != raw.len() {
        return Err(KvError::corrupt("M/maint: trailing bytes"));
    }
    Ok((seq, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::{DiskKv, FaultVfs};
    use std::path::PathBuf;

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
        let maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
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
        let maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
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
            .scan_range(b"", None)
            .unwrap()
            .into_iter()
            .collect();
        assert!(live.remove(MAINT_KEY).is_some());
        let fresh: BTreeMap<Vec<u8>, Vec<u8>> =
            scratch.scan_range(b"", None).unwrap().into_iter().collect();
        assert_eq!(live, fresh, "maintained store diverged from rebuild");
    }

    #[test]
    fn old_snapshot_keeps_answering_across_commits_and_compaction() {
        let (vfs, base) = fresh();
        let maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
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
            let maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
            maint
                .commit(&[add("<paper><title>third</title></paper>")])
                .unwrap();
        }
        let maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
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
        let maint = MaintIndex::open_with_vfs(vfs.as_dyn(), &base).unwrap();
        let before = maint.snapshot();
        assert!(maint.commit(&[add("<unclosed>")]).is_err());
        assert!(maint.commit(&[MaintOp::Remove { slot: 7 }]).is_err());
        assert_eq!(maint.seq(), 0);
        assert!(Arc::ptr_eq(&before, &maint.snapshot()));
    }

    #[test]
    fn maint_meta_codec_round_trips_and_rejects_garbage() {
        let enc = encode_maint_meta(42, 7);
        assert_eq!(decode_maint_meta(&enc).unwrap(), (42, 7));
        let mut bad = enc.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        assert!(decode_maint_meta(&bad).is_err());
    }
}
