//! The one index reader: every engine answers through [`KvBackedIndex`].
//!
//! [`KvBackedIndex`] opens a persisted index (see [`crate::persist`])
//! and serves queries without rehydrating the posting lists or the
//! document. An index built in memory is served the same way:
//! [`KvBackedIndex::from_built`] encodes its lists and its document into a
//! [`kvstore::MemKv`] with the store format's encoders, so every list a
//! query reads is CRC-checked, block-decoded and cached exactly as under
//! a store on disk, and every node is read from its record's chunk.
//! The reader holds no corpus: of the document it keeps `D/types` (the
//! node-type table, the tag symbols, the root and the counts), which is
//! all the query path reads; [`KvBackedIndex::document_at`] decodes the
//! one record a label falls in, for rendering and narrowing. Vocabulary
//! and statistics load eagerly (they are small and every query touches
//! them), lists materialize lazily on first touch and live in an LRU
//! cache with a configurable byte budget. A list is read as a [`StoredList`]: its
//! frame CRC is checked and its skip table parsed, and each block decodes
//! the first time a cursor touches it and stays with the list. Cold start
//! is therefore `O(vocabulary + stats)` instead of `O(index size)`, and a
//! query decodes only the blocks it reads. Resident memory is the
//! budget's stored bytes, plus the blocks the cached lists have decoded,
//! plus whatever outstanding [`ListHandle`]s still pin.
//!
//! Concurrency: the reader is `Send + Sync` and designed to be shared
//! across serving threads behind one `Arc`. A cache hit takes the one
//! cache mutex (see [`crate::cache`]) and never touches the store; a miss
//! reads the reader's pinned [`kvstore::Snapshot`] directly — the
//! snapshot is immutable, so misses take **no lock at all** and decoding
//! happens outside every lock. Writers never block readers: a committing
//! [`crate::maint::MaintIndex`] lays the document header, vocabulary and
//! statistics of its own build over the store's *new* snapshot (epoch
//! handoff), decoding nothing, while existing readers keep serving the
//! one they pinned at open.
//!
//! Cache policy lives in [`crate::cache`]: an entry is a [`StoredList`],
//! and its cost is its *stored* (encoded) size, whatever it has decoded;
//! eviction never invalidates handles already given out (entries are
//! `Arc`-shared); a list larger than the budget is returned uncached and
//! simply re-read on its next touch — degraded speed, never degraded
//! answers. Entries are stamped with the generation that read them, so
//! readers of different epochs can share one cache without ever serving
//! a stale list.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::cache::{CacheStats, ListCache};
use crate::cooccur::CoOccurrence;
use crate::index::Index;
use crate::persist::{self, DocHeader};
use crate::reader::{ListHandle, StoredList};
use crate::stats::{KeywordId, KeywordTable, TypeStats};
use kvstore::{KvError, KvStore, MemKv, Result, Snapshot};
use std::sync::Arc;
use xmldom::{Dewey, Document, NodeTypeId, NodeTypeTable, SymbolTable};

/// Default list-cache budget: 64 MiB of encoded list bytes.
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// The index reader the query layers consume: vocabulary lookup,
/// frequency statistics, co-occurrence counts and posting-list
/// acquisition over a stored index, whose posting lists are read from
/// kvstore pages on first touch and decode block by block as cursors
/// reach them. List acquisition is fallible;
/// statistics access is not, because they load up front.
pub struct KvBackedIndex {
    /// `D/types`: the document but its records.
    header: DocHeader,
    vocab: KeywordTable,
    stats: TypeStats,
    cooccur: CoOccurrence,
    /// The immutable store view this reader pinned at open.
    store: Snapshot,
    cache: Arc<ListCache<StoredList>>,
    /// The generation this reader was published as; list-cache lookups
    /// and inserts carry it so epochs never cross-contaminate.
    gen: u64,
}

impl KvBackedIndex {
    /// Serves a freshly built index: its posting lists and its document
    /// are encoded into a [`MemKv`] by the encoders [`persist::persist`]
    /// uses, and its vocabulary and statistics move across as they are.
    /// The reader is generation 0 with the default cache budget.
    pub fn from_built(index: Index) -> Self {
        let (doc, vocab, lists, stats) = index.into_parts();
        let mut store: MemKv = persist::list_entries(&lists).collect();
        let encoded = persist::encode_document(&doc, |key, value| store.put(key, value));
        // A `MemKv` put cannot fail.
        debug_assert!(encoded.is_ok());
        Self::from_parts(
            DocHeader::of(&doc),
            vocab,
            stats,
            0,
            Snapshot::new(Arc::new(store)),
            Arc::new(ListCache::new(DEFAULT_CACHE_BUDGET)),
        )
    }

    /// Opens a persisted store that nothing writes to any more (the
    /// static serving path): [`Self::open_snapshot`] over `store` alone.
    pub fn open(store: Box<dyn KvStore>) -> Result<Self> {
        Self::open_snapshot(Snapshot::new(Arc::from(store)))
    }

    /// Opens a reader over `store` as generation 0, with the default
    /// cache budget. Reads `M/version`, `D/types`, `V/` and `S/`, and no
    /// record's chunk.
    pub fn open_snapshot(store: Snapshot) -> Result<Self> {
        let header = persist::load_header(&store)?;
        let vocab = persist::load_vocab(&store)?;
        let stats = persist::load_stats(&store)?;
        if stats.n_nodes_vec().len() != header.node_types.len() {
            return Err(KvError::corrupt(
                "document does not match persisted index (type count)",
            ));
        }
        let cache = Arc::new(ListCache::new(DEFAULT_CACHE_BUDGET));
        Ok(Self::from_parts(header, vocab, stats, 0, store, cache))
    }

    /// A reader over `store`, whose document header, vocabulary and
    /// statistics the caller already holds, published as generation `gen` and
    /// sharing `cache` with readers of other generations. Decodes
    /// nothing, so it cannot fail: [`crate::maint::MaintIndex`] builds
    /// each generation's reader with it after the commit is durable.
    pub(crate) fn from_parts(
        header: DocHeader,
        vocab: KeywordTable,
        stats: TypeStats,
        gen: u64,
        store: Snapshot,
        cache: Arc<ListCache<StoredList>>,
    ) -> Self {
        KvBackedIndex {
            header,
            vocab,
            stats,
            cooccur: CoOccurrence::new(),
            store,
            cache,
            gen,
        }
    }

    /// Sets the list-cache byte budget (encoded bytes). A budget of 0
    /// disables caching entirely — every touch re-decodes. Allocates a
    /// private cache: builder-style callers are single-reader, not
    /// epoch-sharing.
    pub fn with_cache_budget(mut self, bytes: usize) -> Self {
        self.cache = Arc::new(ListCache::new(bytes));
        self.cache.publish(self.gen, &[]);
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

    /// The node-type table: every tag path of the document.
    pub fn node_types(&self) -> &NodeTypeTable {
        &self.header.node_types
    }

    /// The tag names the node types name.
    pub fn symbols(&self) -> &SymbolTable {
        &self.header.symbols
    }

    /// Element nodes in the document, the root included.
    pub fn node_count(&self) -> usize {
        self.header.nodes as usize
    }

    /// Records in the document: its root's children.
    pub fn record_count(&self) -> usize {
        self.header.records as usize
    }

    /// `D/types` as this reader holds it.
    pub(crate) fn header(&self) -> &DocHeader {
        &self.header
    }

    /// The part of the document `label` falls in, decoded from the
    /// store: the root and the one record holding `label`, whose nodes
    /// carry their labels and node types in the whole document; for the
    /// root's own label, the whole document. `None` when `label` names no
    /// record. Fallible: the chunk is read from the pinned snapshot.
    pub fn document_at(&self, label: &Dewey) -> Result<Option<Document>> {
        match label.components() {
            [0] => self.read_document().map(Some),
            [0, ordinal, ..] if *ordinal < self.header.records => {
                let range = *ordinal..ordinal.saturating_add(1);
                Ok(Some(
                    persist::read_records(&self.store, &self.header, range)?.doc,
                ))
            }
            _ => Ok(None),
        }
    }

    /// The whole document, assembled from every record's chunk.
    pub fn read_document(&self) -> Result<Document> {
        persist::read_document(&self.store, &self.header)
    }

    /// The keyword vocabulary.
    pub fn vocabulary(&self) -> &KeywordTable {
        &self.vocab
    }

    /// Per-node-type frequency statistics.
    pub fn stats(&self) -> &TypeStats {
        &self.stats
    }

    /// True when the keyword occurs in the document.
    pub fn contains_keyword(&self, keyword: &str) -> bool {
        self.vocab.get(keyword).is_some()
    }

    /// Acquires the posting list for a keyword; unknown keywords yield
    /// the empty handle.
    pub fn list_handle(&self, keyword: &str) -> Result<ListHandle> {
        match self.vocab.get(keyword) {
            Some(k) => self.list_handle_by_id(k),
            None => Ok(ListHandle::empty()),
        }
    }

    /// Acquires the posting list for a keyword id. Fallible: the store
    /// can hit I/O errors or corrupt pages.
    pub fn list_handle_by_id(&self, k: KeywordId) -> Result<ListHandle> {
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
            return Ok(ListHandle::stored(list));
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
        let list = Arc::new(StoredList::read(value)?);
        let cost = list.stored_bytes();
        obs::trace::event(
            "list_load",
            &[
                ("keyword_id", &k.0),
                ("len", &list.len()),
                ("stored_bytes", &cost),
                ("cache", &"miss"),
            ],
        );
        self.cache.insert_at(k.0, Arc::clone(&list), cost, self.gen);
        Ok(ListHandle::stored(list))
    }

    /// Joint containment count `|{t-typed nodes containing ki and kj}|`
    /// (Formula 8's numerator). Storage errors degrade to `0` — the
    /// count only weights ranking, never correctness.
    pub fn co_occur(&self, t: NodeTypeId, ki: KeywordId, kj: KeywordId) -> u64 {
        self.cooccur.co_occur(self, t, ki, kj)
    }

    /// The list cache, shared by every reader a `MaintIndex` publishes.
    pub(crate) fn cache(&self) -> &Arc<ListCache<StoredList>> {
        &self.cache
    }

    /// List-cache counters, for serving drivers to report cache
    /// effectiveness. Always `Some`: the `Option` stays only because
    /// `bench_e2e` reads it with `.map_or(..)`.
    pub fn cache_stats(&self) -> Option<CacheStats> {
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
        assert_eq!(idx.node_count(), doc.len());
        assert_eq!(idx.node_types(), doc.node_types());
        assert_eq!(idx.symbols(), doc.symbols());
        assert_eq!(idx.vocabulary().len(), built.vocabulary().len());
        for kw in ["xml", "john", "database", "hobby"] {
            let h = handle_of(&idx, kw);
            assert_eq!(
                h.run_postings().flatten().cloned().collect::<Vec<_>>(),
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
                    h.run_postings().flatten().cloned().collect::<Vec<_>>(),
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
                    h.run_postings().flatten().cloned().collect::<Vec<_>>(),
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
        let ancestors = |kw: &str| {
            typed_ancestors_in(
                built.document().node_types(),
                built.list(kw).unwrap().as_slice(),
                t,
            )
        };
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
                idx.list_handle(text)
                    .unwrap()
                    .run_postings()
                    .flatten()
                    .cloned()
                    .collect::<Vec<_>>(),
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
                                h.run_postings().flatten().cloned().collect::<Vec<_>>(),
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
