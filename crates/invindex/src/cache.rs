//! The LRU posting-list cache behind [`crate::KvBackedIndex`].
//!
//! Every list touch of every query probes it. [`ListCache`] is one LRU
//! with one byte budget behind one mutex (`cache.lru`): a hit holds the
//! lock for a map probe, an LRU promotion and a counter — 0.1–0.25 µs
//! measured, and a request touches about seven lists, so a serving
//! thread holds it for under 2 µs of a warm request that takes ≈ 0.37 ms
//! (`bench_e2e` `serve_warm` median, 2 vCPU guest). Decoding a
//! missed list happens outside the lock. One lock is enough at that hold
//! time, and one budget means a hot list is cacheable whenever it fits
//! the budget at all — a budget split over several locks would refuse
//! every list longer than one share.
//!
//! Policy:
//!
//! * cost of an entry is its *stored* (encoded) size — the quantity the
//!   budget protects is decode work and resident bytes, both proportional
//!   to it;
//! * eviction never invalidates handles already given out (entries are
//!   `Arc`-shared);
//! * a list larger than the budget is returned uncached and re-decoded
//!   on its next touch — degraded speed, never degraded answers.
//!
//! # Generations
//!
//! Since the index became updatable the cache is shared between reader
//! snapshots of *different* store generations. Every entry is stamped
//! with the generation that decoded it; a reader pinned at generation
//! `g` only accepts entries stamped `<= g` ([`ListCache::get_at`]) and
//! its decodes are only admitted while `g` is still the current
//! generation ([`ListCache::insert_at`] checks under the mutex, so a
//! stale reader racing a publish cannot re-seed an entry the writer just
//! invalidated). A committing writer bumps the current generation
//! *first*, then invalidates the keyword ids it changed — unchanged
//! entries keep serving every generation.

use crate::postings::PostingList;
use obs::lockrank::rank;
use obs::sync::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A snapshot of the list-cache counters, taken under one hold of the
/// cache mutex.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to touch the store.
    pub misses: u64,
    /// Lists decoded from stored pages (misses that found the key).
    pub lists_decoded: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Encoded bytes currently held by the cache.
    pub cached_bytes: usize,
}

struct CacheEntry {
    list: Arc<PostingList>,
    cost: usize,
    tick: u64,
    /// Store generation whose bytes this list was decoded from.
    gen: u64,
}

/// An LRU over decoded posting lists, keyed by keyword id, bounded by
/// the summed encoded size of the entries.
struct Lru {
    budget: usize,
    tick: u64,
    map: HashMap<u32, CacheEntry>,
    /// tick -> keyword id; the smallest tick is the eviction victim.
    lru: BTreeMap<u64, u32>,
    /// The counters, and in `cached_bytes` the summed cost of `map`.
    stats: CacheStats,
}

impl Lru {
    fn new(budget: usize) -> Self {
        Lru {
            budget,
            tick: 0,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks up `id`, promoting it to most-recently-used on a hit. An
    /// entry stamped with a generation newer than `reader_gen` is a
    /// miss for this reader — but the entry stays resident, because the
    /// newer snapshot that decoded it is still serving.
    fn get(&mut self, id: u32, reader_gen: u64) -> Option<Arc<PostingList>> {
        match self.map.get_mut(&id) {
            Some(entry) if entry.gen <= reader_gen => {
                self.stats.hits += 1;
                self.lru.remove(&entry.tick);
                self.tick += 1;
                entry.tick = self.tick;
                self.lru.insert(entry.tick, id);
                Some(Arc::clone(&entry.list))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly decoded list stamped with `gen`. Oversize lists
    /// (cost > budget) are not cached at all; otherwise LRU entries are
    /// evicted until the budget holds.
    fn insert(&mut self, id: u32, list: Arc<PostingList>, cost: usize, gen: u64) {
        self.stats.lists_decoded += 1;
        if cost > self.budget {
            return;
        }
        if let Some(old) = self.map.remove(&id) {
            self.lru.remove(&old.tick);
            self.stats.cached_bytes -= old.cost;
        }
        while self.stats.cached_bytes + cost > self.budget {
            let (&tick, &victim) = self.lru.iter().next().expect("used > 0 implies entries");
            self.lru.remove(&tick);
            let evicted = self.map.remove(&victim).expect("lru and map agree");
            self.stats.cached_bytes -= evicted.cost;
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.lru.insert(self.tick, id);
        self.map.insert(
            id,
            CacheEntry {
                list,
                cost,
                tick: self.tick,
                gen,
            },
        );
        self.stats.cached_bytes += cost;
    }

    /// Drops `id` if resident, returning its cost.
    fn invalidate(&mut self, id: u32) -> Option<usize> {
        let entry = self.map.remove(&id)?;
        self.lru.remove(&entry.tick);
        self.stats.cached_bytes -= entry.cost;
        Some(entry.cost)
    }

    /// Panics if the bookkeeping disagrees with itself.
    fn check_invariants(&self) {
        let used = self.stats.cached_bytes;
        assert!(used <= self.budget, "used exceeds the budget");
        assert_eq!(self.map.len(), self.lru.len(), "map/lru size mismatch");
        let mut summed = 0usize;
        for (&tick, &id) in &self.lru {
            let entry = self.map.get(&id).expect("lru id missing from map");
            assert_eq!(entry.tick, tick, "lru tick disagrees with entry tick");
            summed += entry.cost;
        }
        assert_eq!(summed, used, "used differs from summed entry costs");
    }
}

/// The list cache: one [`Lru`] behind the `cache.lru` mutex. All methods
/// take `&self`.
pub struct ListCache {
    lru: Mutex<Lru>,
    /// The latest published store generation. Bumped by a committing
    /// writer *before* it invalidates the entries it changed; checked
    /// under the mutex on insert so the bump is visible to any reader
    /// that locks the cache after the writer's invalidation pass.
    current_gen: AtomicU64,
}

impl ListCache {
    /// A cache holding at most `budget` encoded bytes; a budget of 0
    /// disables caching entirely.
    pub fn new(budget: usize) -> Self {
        ListCache {
            lru: Mutex::new(rank::CACHE_LRU, Lru::new(budget)),
            current_gen: AtomicU64::new(0),
        }
    }

    /// Looks up `id` at the current generation, promoting it to
    /// most-recently-used.
    pub fn get(&self, id: u32) -> Option<Arc<PostingList>> {
        self.get_at(id, self.current_gen())
    }

    /// Inserts a freshly decoded list of stored size `cost`, stamped
    /// with the current generation.
    pub fn insert(&self, id: u32, list: Arc<PostingList>, cost: usize) {
        self.insert_at(id, list, cost, self.current_gen());
    }

    /// Looks up `id` on behalf of a reader pinned at `reader_gen`.
    /// Entries stamped with a newer generation miss (without being
    /// evicted — the newer snapshot still wants them).
    pub fn get_at(&self, id: u32, reader_gen: u64) -> Option<Arc<PostingList>> {
        let got = self.lru.lock().get(id, reader_gen); // xlint::lock(cache.lru)
        if got.is_some() {
            obs::counter!("invindex_cache_hits_total").inc();
        } else {
            obs::counter!("invindex_cache_misses_total").inc();
        }
        got
    }

    /// Inserts a list decoded by a reader pinned at `gen`. The insert is
    /// admitted only while `gen` is still the current generation; the
    /// check runs under the mutex, so a stale reader that lost a race
    /// with a publish cannot re-seed an entry the writer already
    /// invalidated. A rejected insert still counts as a decode.
    pub fn insert_at(&self, id: u32, list: Arc<PostingList>, cost: usize, gen: u64) {
        // Block scope: the metric updates below must happen outside the
        // cache lock (registration takes the registry mutex).
        let (before, after) = {
            let mut lru = self.lru.lock(); // xlint::lock(cache.lru)
            let before = lru.stats;
            if gen == self.current_gen.load(Ordering::SeqCst) {
                lru.insert(id, list, cost, gen);
            } else {
                lru.stats.lists_decoded += 1;
            }
            (before, lru.stats)
        };
        obs::counter!("invindex_cache_lists_decoded_total").inc();
        if after.evictions > before.evictions {
            obs::counter!("invindex_cache_evictions_total").add(after.evictions - before.evictions);
        }
        obs::gauge!("invindex_cache_resident_bytes")
            .add(after.cached_bytes as i64 - before.cached_bytes as i64);
    }

    /// Drops the entry for `id` if resident. Returns whether an entry
    /// was dropped.
    pub fn invalidate(&self, id: u32) -> bool {
        let freed = self.lru.lock().invalidate(id); // xlint::lock(cache.lru)
        match freed {
            Some(cost) => {
                obs::counter!("invindex_cache_invalidations_total").inc();
                obs::gauge!("invindex_cache_resident_bytes").add(-(cost as i64));
                true
            }
            None => false,
        }
    }

    /// Publishes `gen` as the current generation. Called by the writer
    /// *before* it invalidates the ids the new generation changed.
    pub fn set_current_gen(&self, gen: u64) {
        self.current_gen.store(gen, Ordering::SeqCst);
    }

    /// The latest published store generation.
    pub fn current_gen(&self) -> u64 {
        self.current_gen.load(Ordering::SeqCst)
    }

    /// The counters and the resident bytes, one consistent cut.
    pub fn stats(&self) -> CacheStats {
        self.lru.lock().stats // xlint::lock(cache.lru)
    }

    /// Asserts the internal bookkeeping (`used` = Σ entry costs ≤
    /// budget, `lru` and `map` agree). For tests.
    pub fn check_invariants(&self) {
        self.lru.lock().check_invariants(); // xlint::lock(cache.lru)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_of(len: usize) -> Arc<PostingList> {
        let postings = (0..len)
            .map(|i| {
                crate::postings::Posting::new(
                    xmldom::Dewey::new(vec![0, i as u32]).unwrap(),
                    xmldom::NodeTypeId(0),
                )
            })
            .collect();
        Arc::new(PostingList::from_sorted(postings))
    }

    #[test]
    fn eviction_takes_the_least_recently_used_entry_of_the_whole_cache() {
        let cache = ListCache::new(150);
        cache.insert(0, list_of(1), 60);
        cache.insert(1, list_of(1), 60);
        assert!(cache.get(0).is_some()); // id 1 is now the oldest
        cache.insert(8, list_of(1), 60);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.cached_bytes, 120);
        assert!(cache.get(1).is_none());
        assert!(cache.get(0).is_some());
        assert!(cache.get(8).is_some());
        cache.check_invariants();
    }

    #[test]
    fn a_list_is_cached_exactly_when_it_fits_the_budget() {
        let cache = ListCache::new(100);
        cache.insert(0, list_of(1), 100);
        assert!(cache.get(0).is_some(), "cost == budget is resident");
        cache.insert(1, list_of(1), 101);
        assert!(cache.get(1).is_none(), "cost > budget is never cached");
        assert!(cache.get(0).is_some(), "and evicts nothing");
        let s = cache.stats();
        assert_eq!((s.lists_decoded, s.evictions, s.cached_bytes), (2, 0, 100));
        let off = ListCache::new(0);
        off.insert(0, list_of(1), 1);
        assert!(off.get(0).is_none(), "budget 0 disables caching");
    }

    #[test]
    fn newer_generation_entry_misses_for_pinned_reader_without_eviction() {
        let cache = ListCache::new(1 << 20);
        cache.set_current_gen(3);
        cache.insert(7, list_of(1), 10); // stamped gen 3
                                         // A reader pinned at gen 2 must not see it; the entry survives.
        assert!(cache.get_at(7, 2).is_none());
        assert!(cache.get_at(7, 3).is_some());
        assert!(cache.get_at(7, 9).is_some(), "old entries serve new gens");
        assert_eq!(cache.stats().cached_bytes, 10);
        cache.check_invariants();
    }

    #[test]
    fn stale_generation_insert_is_rejected_but_counts_the_decode() {
        let cache = ListCache::new(1 << 20);
        cache.set_current_gen(5);
        cache.insert_at(7, list_of(1), 10, 4); // decoded under gen 4: stale
        assert!(cache.get_at(7, 5).is_none());
        let s = cache.stats();
        assert_eq!(s.lists_decoded, 1, "rejected insert still decoded");
        assert_eq!(s.cached_bytes, 0);
        cache.insert_at(7, list_of(1), 10, 5);
        assert!(cache.get_at(7, 5).is_some());
        cache.check_invariants();
    }

    #[test]
    fn invalidate_drops_one_entry_and_frees_its_bytes() {
        let cache = ListCache::new(1 << 20);
        cache.insert(1, list_of(1), 30);
        cache.insert(2, list_of(1), 40);
        assert!(cache.invalidate(1));
        assert!(!cache.invalidate(1), "second invalidation is a no-op");
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        assert_eq!(cache.stats().cached_bytes, 40);
        cache.check_invariants();
    }

    #[test]
    fn stats_count_every_lookup_and_decode() {
        let cache = ListCache::new(1 << 20);
        for id in 0..12u32 {
            assert!(cache.get(id).is_none());
            cache.insert(id, list_of(1), 10);
        }
        for id in 0..12u32 {
            assert!(cache.get(id).is_some());
        }
        let s = cache.stats();
        assert_eq!(s.misses, 12);
        assert_eq!(s.hits, 12);
        assert_eq!(s.lists_decoded, 12);
        assert_eq!(s.cached_bytes, 120);
    }
}
