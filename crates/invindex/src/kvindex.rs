//! The one [`IndexReader`]: every engine answers through [`KvBackedIndex`].
//!
//! [`KvBackedIndex`] opens a persisted index (see [`crate::persist`])
//! and serves queries without rehydrating the posting lists. An index
//! built in memory is served the same way: [`KvBackedIndex::from_built`]
//! encodes its lists into a [`kvstore::MemKv`] with the store format's
//! encoder, so every list a query reads is CRC-checked, block-decoded and
//! cached exactly as under a store on disk. Vocabulary and statistics
//! load eagerly (they are small and every query touches them), lists
//! materialize lazily on first touch and live in an LRU cache with a
//! configurable byte budget. Cold start is therefore
//! `O(vocabulary + stats)` instead of `O(index size)`, and steady-state
//! memory is bounded by the budget plus whatever outstanding
//! [`ListHandle`]s still pin.
//!
//! Concurrency: the reader is `Send + Sync` and designed to be shared
//! across serving threads behind one `Arc`. A cache hit takes the one
//! cache mutex (see [`crate::cache`]) and never touches the store; a miss
//! reads the reader's pinned [`kvstore::Snapshot`] directly — the
//! snapshot is immutable, so misses take **no lock at all** and decoding
//! happens outside every lock. Writers never block readers: a committing
//! [`crate::maint::MaintIndex`] publishes a reader over a *new* snapshot
//! (epoch handoff) while existing readers keep serving the one they
//! pinned at open.
//!
//! Cache policy lives in [`crate::cache`]: cost of an entry is its
//! *stored* (encoded) size; eviction never invalidates handles already
//! given out (entries are `Arc`-shared); a list larger than the
//! budget is returned uncached and simply re-decoded on its next touch —
//! degraded speed, never degraded answers. Entries are stamped with the
//! generation that decoded them, so readers of different epochs can
//! share one cache without ever serving a stale list.

use crate::cache::{CacheStats, ListCache};
use crate::cooccur::CoOccurrence;
use crate::index::Index;
use crate::persist;
use crate::reader::{IndexReader, ListHandle};
use crate::stats::{KeywordId, KeywordTable, TypeStats};
use kvstore::{KvError, KvStore, MemKv, Result, Snapshot};
use std::sync::Arc;
use xmldom::{Document, NodeTypeId};

/// Default list-cache budget: 64 MiB of encoded list bytes.
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// An [`IndexReader`] over a persisted index: posting lists decode
/// lazily from kvstore pages on first touch.
pub struct KvBackedIndex {
    doc: Arc<Document>,
    vocab: KeywordTable,
    stats: TypeStats,
    cooccur: CoOccurrence,
    /// The immutable store view this reader pinned at open.
    store: Snapshot,
    cache: Arc<ListCache>,
    /// The generation this reader was published as; list-cache lookups
    /// and inserts carry it so epochs never cross-contaminate.
    gen: u64,
}

impl KvBackedIndex {
    /// Serves a freshly built index: its posting lists are encoded into a
    /// [`MemKv`] by the encoder [`persist::persist`] uses, and its
    /// document, vocabulary and statistics move across as they are. The
    /// reader is generation 0 with the default cache budget.
    pub fn from_built(index: Index) -> Self {
        let (doc, vocab, lists, stats) = index.into_parts();
        let store: MemKv = persist::list_entries(&lists).collect();
        KvBackedIndex {
            doc,
            vocab,
            stats,
            cooccur: CoOccurrence::new(),
            store: Snapshot::new(Arc::new(store)),
            cache: Arc::new(ListCache::new(DEFAULT_CACHE_BUDGET)),
            gen: 0,
        }
    }

    /// Opens a persisted store that nothing writes to any more (the
    /// static serving path): [`Self::open_snapshot`] over `store` alone.
    pub fn open(store: Box<dyn KvStore>) -> Result<Self> {
        Self::open_snapshot(Snapshot::new(Arc::from(store)))
    }

    /// Opens a reader over `store` as generation 0, rebuilding the
    /// document from its embedded `D/doc` record, with the default
    /// cache budget.
    pub fn open_snapshot(store: Snapshot) -> Result<Self> {
        let doc = Arc::new(persist::load_document(&store)?);
        Self::open_snapshot_with_document(
            doc,
            0,
            store,
            Arc::new(ListCache::new(DEFAULT_CACHE_BUDGET)),
        )
    }

    /// Opens a reader over an already-pinned [`Snapshot`] and the
    /// document embedded in that store, published as generation `gen`
    /// and sharing `cache` with readers of other generations. This is
    /// the epoch-handoff constructor [`crate::maint::MaintIndex`] uses
    /// to publish each commit.
    pub fn open_snapshot_with_document(
        doc: Arc<Document>,
        gen: u64,
        store: Snapshot,
        cache: Arc<ListCache>,
    ) -> Result<Self> {
        let vocab = persist::load_vocab(&store)?;
        let stats = persist::load_stats(&store)?;
        if stats.n_nodes_vec().len() != doc.node_types().len() {
            return Err(KvError::corrupt(
                "document does not match persisted index (type count)",
            ));
        }
        Ok(KvBackedIndex {
            doc,
            vocab,
            stats,
            cooccur: CoOccurrence::new(),
            store,
            cache,
            gen,
        })
    }

    /// Sets the list-cache byte budget (encoded bytes). A budget of 0
    /// disables caching entirely — every touch re-decodes. Allocates a
    /// private cache: builder-style callers are single-reader, not
    /// epoch-sharing.
    pub fn with_cache_budget(mut self, bytes: usize) -> Self {
        self.cache = Arc::new(ListCache::new(bytes));
        self.cache.set_current_gen(self.gen);
        self
    }

    /// The store generation this reader pinned at open.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Every key/value pair of the pinned snapshot, in key order. Pure
    /// reads against the immutable snapshot (no locks, no writes); the
    /// maintenance torture and differential suites use it to compare
    /// whole store states.
    // xlint::allow(unused-export): whole-store observer for the maintenance torture/differential oracles
    pub fn store_dump(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.store.scan_range(b"", None)
    }
}

impl IndexReader for KvBackedIndex {
    fn document(&self) -> &Arc<Document> {
        &self.doc
    }

    fn vocabulary(&self) -> &KeywordTable {
        &self.vocab
    }

    fn stats(&self) -> &TypeStats {
        &self.stats
    }

    fn list_handle_by_id(&self, k: KeywordId) -> Result<ListHandle> {
        if k.0 as usize >= self.vocab.len() {
            return Ok(ListHandle::empty());
        }
        // Hit path: the cache lock, no store access. Lookups carry the
        // pinned generation so a newer epoch's entry never serves here.
        if let Some(list) = self.cache.get_at(k.0, self.gen) {
            obs::trace::event(
                "list_load",
                &[
                    ("keyword_id", &k.0),
                    ("len", &list.len()),
                    ("cache", &"hit"),
                ],
            );
            obs::trace::count("cache.hits", 1);
            return Ok(ListHandle::new(list));
        }
        obs::trace::count("cache.misses", 1);
        // Miss path: the pinned snapshot is immutable, so the read takes
        // no lock at all and decoding happens outside every lock.
        let value = self.store.get(&persist::list_key(k.0))?;
        let Some(value) = value else {
            return Err(KvError::corrupt(format!(
                "posting list {} missing from store",
                k.0
            )));
        };
        let list = Arc::new(persist::decode_list_value(&value)?);
        obs::trace::event(
            "list_load",
            &[
                ("keyword_id", &k.0),
                ("len", &list.len()),
                ("stored_bytes", &value.len()),
                ("cache", &"miss"),
            ],
        );
        self.cache
            .insert_at(k.0, Arc::clone(&list), value.len(), self.gen);
        Ok(ListHandle::new(list))
    }

    fn co_occur(&self, t: NodeTypeId, ki: KeywordId, kj: KeywordId) -> u64 {
        self.cooccur.co_occur(self, t, ki, kj)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::persist;
    use crate::reader::typed_ancestors_in;
    use xmldom::fixtures::figure1;

    fn persisted() -> (Arc<Document>, Index, MemKv) {
        let doc = Arc::new(figure1());
        let built = Index::build(Arc::clone(&doc));
        let mut store = MemKv::new();
        persist(&built, &mut store).unwrap();
        (doc, built, store)
    }

    fn handle_of(idx: &KvBackedIndex, kw: &str) -> ListHandle {
        idx.list_handle(kw).unwrap()
    }

    #[test]
    fn reader_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KvBackedIndex>();
    }

    #[test]
    fn opens_from_embedded_document_and_serves_lists() {
        let (doc, built, store) = persisted();
        let idx = KvBackedIndex::open(Box::new(store)).unwrap();
        assert_eq!(idx.document().len(), doc.len());
        assert_eq!(idx.vocabulary().len(), built.vocabulary().len());
        for kw in ["xml", "john", "database", "hobby"] {
            let h = handle_of(&idx, kw);
            assert_eq!(
                h.postings(),
                built.list(kw).unwrap().as_slice(),
                "list mismatch for {kw}"
            );
        }
        // unknown keyword -> canonical empty handle, no store touch error
        assert!(handle_of(&idx, "publication").is_empty());
    }

    #[test]
    fn lists_load_lazily_and_hit_the_cache_on_retouch() {
        let (_, _, store) = persisted();
        let idx = KvBackedIndex::open(Box::new(store)).unwrap();
        assert_eq!(idx.cache.stats().lists_decoded, 0, "open decodes nothing");
        let _ = handle_of(&idx, "xml");
        let s = idx.cache.stats();
        assert_eq!((s.misses, s.lists_decoded, s.hits), (1, 1, 0));
        let _ = handle_of(&idx, "xml");
        let s = idx.cache.stats();
        assert_eq!((s.misses, s.lists_decoded, s.hits), (1, 1, 1));
    }

    #[test]
    fn byte_budget_is_respected_under_eviction() {
        let (_, built, store) = persisted();
        // Budget sized to roughly two typical lists: inserting many
        // distinct lists must evict, used bytes never exceed it, and an
        // evicted list answers correctly on reload (second round).
        let budget = 2 * persist::encode_list_value(built.list("xml").unwrap()).len() + 8;
        let idx = KvBackedIndex::open(Box::new(store))
            .unwrap()
            .with_cache_budget(budget);
        for round in 0..2 {
            for (_, text) in built.vocabulary().iter() {
                let h = handle_of(&idx, text);
                assert_eq!(
                    h.postings(),
                    built.list(text).unwrap().as_slice(),
                    "round {round}: wrong answer for {text}"
                );
                assert!(
                    idx.cache.stats().cached_bytes <= budget,
                    "cache exceeded budget"
                );
            }
        }
        assert!(
            idx.cache.stats().evictions > 0,
            "expected evictions under a small budget"
        );
    }

    #[test]
    fn retouch_promotes_the_entry() {
        let (_, built, store) = persisted();
        let vocab: Vec<String> = built
            .vocabulary()
            .iter()
            .map(|(_, t)| t.to_string())
            .collect();
        // budget that fits ~3 small lists
        let cost = |kw: &str| persist::encode_list_value(built.list(kw).unwrap()).len();
        let budget = cost(&vocab[0]) + cost(&vocab[1]) + cost(&vocab[2]) + 2;
        let idx = KvBackedIndex::open(Box::new(store))
            .unwrap()
            .with_cache_budget(budget);

        let _ = handle_of(&idx, &vocab[0]);
        let _ = handle_of(&idx, &vocab[1]);
        // re-touch vocab[0]: it becomes MRU, so filling the cache evicts
        // vocab[1] first, and vocab[0] stays resident.
        let _ = handle_of(&idx, &vocab[0]);
        let hits_before = idx.cache.stats().hits;
        for w in vocab.iter().skip(2) {
            let _ = handle_of(&idx, w);
            if idx.cache.stats().evictions > 0 {
                break;
            }
        }
        assert!(idx.cache.stats().evictions > 0);
        let _ = handle_of(&idx, &vocab[0]);
        assert!(
            idx.cache.stats().hits > hits_before,
            "re-touched entry should have survived eviction"
        );
    }

    #[test]
    fn cache_smaller_than_one_list_still_answers_correctly() {
        let (_, built, store) = persisted();
        let idx = KvBackedIndex::open(Box::new(store))
            .unwrap()
            .with_cache_budget(0);
        for round in 0..2 {
            for (_, text) in built.vocabulary().iter() {
                let h = idx.list_handle(text).unwrap();
                assert_eq!(
                    h.postings(),
                    built.list(text).unwrap().as_slice(),
                    "round {round}: wrong answer for {text}"
                );
            }
        }
        let s = idx.cache.stats();
        assert_eq!(s.cached_bytes, 0, "nothing fits a zero budget");
        assert_eq!(s.hits, 0);
        assert_eq!(
            s.lists_decoded,
            2 * built.vocabulary().len() as u64,
            "every touch re-decodes"
        );
    }

    #[test]
    fn corrupt_list_surfaces_as_error_on_first_touch() {
        let (_, _, mut store) = persisted();
        let key = persist::list_key(0);
        let mut value = store.get(&key).unwrap().unwrap();
        *value.last_mut().unwrap() ^= 0xFF;
        store.put(&key, &value).unwrap();
        let idx = KvBackedIndex::open(Box::new(store)).unwrap();
        match idx.list_handle_by_id(KeywordId(0)) {
            Err(e) if e.is_corrupt() => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn damaged_packed_stats_fail_the_open() {
        // Each stat table is one CRC-framed blob, so a flipped byte there
        // has no per-keyword owner: the open fails corrupt instead of
        // degrading.
        let (_, _, mut store) = persisted();
        let mut bad = store.get(b"S/T").unwrap().expect("packed tf table");
        *bad.last_mut().unwrap() ^= 0xFF;
        store.put(b"S/T", &bad).unwrap();
        match KvBackedIndex::open(Box::new(store)) {
            Err(e) => assert!(e.is_corrupt(), "unexpected error class: {e}"),
            Ok(_) => panic!("damaged packed stats opened"),
        }
    }

    /// `f^T_{ki,kj}` computed from the build's lists alone: the sorted
    /// intersection of the two keywords' distinct `t`-typed ancestors.
    fn oracle_co_occur(built: &Index, t: NodeTypeId, ki: &str, kj: &str) -> u64 {
        let ancestors =
            |kw: &str| typed_ancestors_in(built.document(), built.list(kw).unwrap().as_slice(), t);
        let (a, b) = (ancestors(ki), ancestors(kj));
        a.iter().filter(|d| b.binary_search(d).is_ok()).count() as u64
    }

    #[test]
    fn co_occurrence_matches_the_oracle_intersection() {
        let (_, built, store) = persisted();
        let idx = KvBackedIndex::open(Box::new(store)).unwrap();
        let v = built.vocabulary();
        let words = ["xml", "john", "database", "2003", "hobby"];
        for t in built.document().node_types().iter() {
            for ki in words {
                for kj in words {
                    assert_eq!(
                        idx.co_occur(t, v.get(ki).unwrap(), v.get(kj).unwrap()),
                        oracle_co_occur(&built, t, ki, kj),
                        "f^{t:?}({ki}, {kj})"
                    );
                }
            }
        }
    }

    /// A store whose first read of one key fails with an I/O error;
    /// every other read, and every later one, reaches `inner`.
    struct FailsOnce {
        inner: MemKv,
        key: Vec<u8>,
        failed: std::sync::atomic::AtomicBool,
    }

    impl KvStore for FailsOnce {
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            use std::sync::atomic::Ordering;
            if key == self.key && !self.failed.swap(true, Ordering::SeqCst) {
                return Err(KvError::Io(std::io::Error::other("transient read failure")));
            }
            self.inner.get(key)
        }
        fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
            self.inner.put(key, value)
        }
        fn delete(&mut self, key: &[u8]) -> Result<bool> {
            self.inner.delete(key)
        }
        fn contains(&self, key: &[u8]) -> Result<bool> {
            self.inner.contains(key)
        }
        fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
            self.inner.scan_range(start, end)
        }
        fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
            self.inner.scan_prefix(prefix)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn sync(&mut self) -> Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn a_failed_list_read_is_not_memoised_as_zero_co_occurrence() {
        let (doc, built, store) = persisted();
        let v = built.vocabulary();
        let (xml, john) = (v.get("xml").unwrap(), v.get("john").unwrap());
        let author = doc
            .node_types()
            .iter()
            .find(|&t| doc.node_types().display(t, doc.symbols()) == "bib/author")
            .unwrap();
        let truth = oracle_co_occur(&built, author, "xml", "john");
        assert_eq!(truth, 1);
        let idx = KvBackedIndex::open(Box::new(FailsOnce {
            inner: store,
            key: persist::list_key(john.0),
            failed: Default::default(),
        }))
        .unwrap();
        assert_eq!(
            idx.co_occur(author, xml, john),
            0,
            "the failed read degrades"
        );
        assert_eq!(idx.co_occur(author, xml, john), truth, "and is retried");
    }

    #[test]
    fn from_built_serves_every_list_through_the_cache() {
        let (_, built, _) = persisted();
        let oracle = Index::build(Arc::clone(built.document()));
        let idx = KvBackedIndex::from_built(built);
        assert_eq!(
            idx.cache.stats().lists_decoded,
            0,
            "taking over decodes nothing"
        );
        for (_, text) in oracle.vocabulary().iter() {
            assert_eq!(
                idx.list_handle(text).unwrap().postings(),
                oracle.list(text).unwrap().as_slice(),
                "list mismatch for {text}"
            );
        }
        let s = idx.cache.stats();
        assert_eq!(s.lists_decoded, oracle.vocabulary().len() as u64);
        assert_eq!(idx.vocabulary().len(), oracle.vocabulary().len());
    }

    #[test]
    fn concurrent_readers_share_one_index() {
        let (_, built, store) = persisted();
        let idx = Arc::new(KvBackedIndex::open(Box::new(store)).unwrap());
        let vocab: Vec<String> = built
            .vocabulary()
            .iter()
            .map(|(_, t)| t.to_string())
            .collect();
        std::thread::scope(|s| {
            for t in 0..8 {
                let idx = Arc::clone(&idx);
                let vocab = &vocab;
                let built = &built;
                s.spawn(move || {
                    for round in 0..4 {
                        for kw in vocab {
                            let h = idx.list_handle(kw).unwrap();
                            assert_eq!(
                                h.postings(),
                                built.list(kw).unwrap().as_slice(),
                                "thread {t} round {round}: wrong answer for {kw}"
                            );
                        }
                    }
                });
            }
        });
        let s = idx.cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 4 * vocab.len() as u64);
    }
}
