//! The sharded LRU posting-list cache behind [`crate::KvBackedIndex`].
//!
//! The cache is the hot path of the concurrent query engine: every list
//! touch probes it, and under N serving threads a single cache-wide lock
//! would serialize them all. [`ShardedListCache`] therefore splits the
//! byte budget across `S` independently locked shards, selected by
//! keyword-id modulo — two threads only contend when they touch keywords
//! in the same shard, and a hit never takes more than one shard mutex.
//!
//! Policy (per shard, identical to the former monolithic cache):
//!
//! * cost of an entry is its *stored* (encoded) size — the quantity the
//!   budget protects is decode work and resident bytes, both proportional
//!   to it;
//! * eviction never invalidates handles already given out (entries are
//!   `Arc`-shared);
//! * a list larger than its shard's budget is returned uncached and
//!   re-decoded on its next touch — degraded speed, never degraded
//!   answers.
//!
//! Per-shard budgets sum exactly to the global budget (the remainder of
//! the division lands on the first shards), so `ShardedListCache::new(b,
//! s)` holds at most `b` encoded bytes no matter the shard count.
//!
//! # Generations
//!
//! Since the index became updatable the cache is shared between reader
//! snapshots of *different* store generations. Every entry is stamped
//! with the generation that decoded it; a reader pinned at generation
//! `g` only accepts entries stamped `<= g` ([`ShardedListCache::get_at`])
//! and its decodes are only admitted while `g` is still the current
//! generation ([`ShardedListCache::insert_at`] checks under the shard
//! mutex, so a stale reader racing a publish cannot re-seed an entry the
//! writer just invalidated). A committing writer bumps the current
//! generation *first*, then invalidates the keyword ids it changed —
//! unchanged entries keep serving every generation.

use crate::postings::PostingList;
use obs::sync::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default shard count: enough to make contention between a handful of
/// serving threads unlikely, small enough that per-shard budgets stay
/// useful.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// A snapshot of the list-cache counters, aggregated over all shards.
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

/// One shard: an LRU over decoded posting lists, keyed by keyword id,
/// bounded by the summed encoded size of the entries.
struct Shard {
    budget: usize,
    used: usize,
    tick: u64,
    map: HashMap<u32, CacheEntry>,
    /// tick -> keyword id; the smallest tick is the eviction victim.
    lru: BTreeMap<u64, u32>,
    hits: u64,
    misses: u64,
    lists_decoded: u64,
    evictions: u64,
}

impl Shard {
    fn new(budget: usize) -> Self {
        Shard {
            budget,
            used: 0,
            tick: 0,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            hits: 0,
            misses: 0,
            lists_decoded: 0,
            evictions: 0,
        }
    }

    /// Looks up `id`, promoting it to most-recently-used on a hit. An
    /// entry stamped with a generation newer than `reader_gen` is a
    /// miss for this reader — but the entry stays resident, because the
    /// newer snapshot that decoded it is still serving.
    fn get(&mut self, id: u32, reader_gen: u64) -> Option<Arc<PostingList>> {
        match self.map.get_mut(&id) {
            Some(entry) if entry.gen <= reader_gen => {
                self.hits += 1;
                self.lru.remove(&entry.tick);
                self.tick += 1;
                entry.tick = self.tick;
                self.lru.insert(entry.tick, id);
                Some(Arc::clone(&entry.list))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly decoded list stamped with `gen`. Oversize lists
    /// (cost > budget) are not cached at all; otherwise LRU entries are
    /// evicted until the budget holds.
    fn insert(&mut self, id: u32, list: Arc<PostingList>, cost: usize, gen: u64) {
        self.lists_decoded += 1;
        if cost > self.budget {
            return;
        }
        if let Some(old) = self.map.remove(&id) {
            self.lru.remove(&old.tick);
            self.used -= old.cost;
        }
        while self.used + cost > self.budget {
            let (&tick, &victim) = self.lru.iter().next().expect("used > 0 implies entries");
            self.lru.remove(&tick);
            let evicted = self.map.remove(&victim).expect("lru and map agree");
            self.used -= evicted.cost;
            self.evictions += 1;
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
        self.used += cost;
    }

    /// Drops `id` if resident, returning its cost.
    fn invalidate(&mut self, id: u32) -> Option<usize> {
        let entry = self.map.remove(&id)?;
        self.lru.remove(&entry.tick);
        self.used -= entry.cost;
        Some(entry.cost)
    }

    fn add_to(&self, total: &mut CacheStats) {
        total.hits += self.hits;
        total.misses += self.misses;
        total.lists_decoded += self.lists_decoded;
        total.evictions += self.evictions;
        total.cached_bytes += self.used;
    }

    /// Panics if the shard's bookkeeping disagrees with itself.
    fn check_invariants(&self) {
        assert!(self.used <= self.budget, "used exceeds shard budget");
        assert_eq!(self.map.len(), self.lru.len(), "map/lru size mismatch");
        let mut summed = 0usize;
        for (&tick, &id) in &self.lru {
            let entry = self.map.get(&id).expect("lru id missing from map");
            assert_eq!(entry.tick, tick, "lru tick disagrees with entry tick");
            summed += entry.cost;
        }
        assert_eq!(summed, self.used, "used differs from summed entry costs");
    }
}

/// The sharded, independently locked list cache. All methods take
/// `&self`; a lookup or insert locks exactly one shard.
pub struct ShardedListCache {
    shards: Vec<Mutex<Shard>>,
    /// The latest published store generation. Bumped by a committing
    /// writer *before* it invalidates the entries it changed; checked
    /// under the shard mutex on insert so the bump is visible to any
    /// reader that locks a shard after the writer's invalidation pass.
    current_gen: AtomicU64,
}

impl ShardedListCache {
    /// A cache of `shards` shards whose per-shard budgets sum to
    /// `budget` bytes. `shards` is clamped to at least 1; a budget of 0
    /// disables caching entirely.
    pub fn new(budget: usize, shards: usize) -> Self {
        let n = shards.max(1);
        let base = budget / n;
        let remainder = budget % n;
        let shards = (0..n)
            .map(|i| Mutex::new(Shard::new(base + usize::from(i < remainder))))
            .collect();
        ShardedListCache {
            shards,
            current_gen: AtomicU64::new(0),
        }
    }

    fn shard(&self, id: u32) -> &Mutex<Shard> {
        &self.shards[id as usize % self.shards.len()]
    }

    /// Looks up `id` at the current generation, promoting it to
    /// most-recently-used in its shard.
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
        let got = {
            let _rank = obs::lockrank::acquire(obs::lockrank::rank::CACHE_SHARD, "cache.shard");
            self.shard(id).lock().get(id, reader_gen) // xlint::lock(cache.shard)
        };
        if got.is_some() {
            obs::counter!("invindex_cache_hits_total").inc();
        } else {
            obs::counter!("invindex_cache_misses_total").inc();
        }
        got
    }

    /// Inserts a list decoded by a reader pinned at `gen`. The insert is
    /// admitted only while `gen` is still the current generation; the
    /// check runs under the shard mutex, so a stale reader that lost a
    /// race with a publish cannot re-seed an entry the writer already
    /// invalidated. A rejected insert still counts as a decode.
    pub fn insert_at(&self, id: u32, list: Arc<PostingList>, cost: usize, gen: u64) {
        // Block scope: the metric updates below must happen outside the
        // shard lock (registration takes the registry mutex).
        let (used_delta, evicted) = {
            let _rank = obs::lockrank::acquire(obs::lockrank::rank::CACHE_SHARD, "cache.shard");
            let mut shard = self.shard(id).lock(); // xlint::lock(cache.shard)
            if gen != self.current_gen.load(Ordering::SeqCst) {
                shard.lists_decoded += 1;
                (0, 0)
            } else {
                let (used_before, evictions_before) = (shard.used, shard.evictions);
                shard.insert(id, list, cost, gen);
                let evicted = shard.evictions - evictions_before;
                (shard.used as i64 - used_before as i64, evicted)
            }
        };
        obs::counter!("invindex_cache_lists_decoded_total").inc();
        if evicted > 0 {
            obs::counter!("invindex_cache_evictions_total").add(evicted);
        }
        obs::gauge!("invindex_cache_resident_bytes").add(used_delta);
    }

    /// Drops the entry for `id` if resident. Returns whether an entry
    /// was dropped.
    pub fn invalidate(&self, id: u32) -> bool {
        let freed = {
            let _rank = obs::lockrank::acquire(obs::lockrank::rank::CACHE_SHARD, "cache.shard");
            self.shard(id).lock().invalidate(id) // xlint::lock(cache.shard)
        };
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

    /// Aggregated counters across all shards. The snapshot is *per
    /// shard* consistent; concurrent traffic may move counters between
    /// the shard reads.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let _rank = obs::lockrank::acquire(obs::lockrank::rank::CACHE_SHARD, "cache.shard");
            shard.lock().add_to(&mut total); // xlint::lock(cache.shard)
        }
        total
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Asserts every shard's internal bookkeeping (`used` = Σ entry
    /// costs ≤ budget, `lru` and `map` agree). For tests.
    pub fn check_invariants(&self) {
        for shard in &self.shards {
            let _rank = obs::lockrank::acquire(obs::lockrank::rank::CACHE_SHARD, "cache.shard");
            shard.lock().check_invariants(); // xlint::lock(cache.shard)
        }
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
    fn per_shard_budgets_sum_to_global() {
        for (budget, shards) in [(0, 1), (1, 8), (64, 8), (1023, 8), (1 << 20, 7)] {
            let cache = ShardedListCache::new(budget, shards);
            let per_shard: usize = cache.shards.iter().map(|s| s.lock().budget).sum();
            assert_eq!(per_shard, budget, "budget {budget} over {shards} shards");
        }
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let cache = ShardedListCache::new(100, 0);
        assert_eq!(cache.shard_count(), 1);
        cache.insert(0, list_of(1), 10);
        assert!(cache.get(0).is_some());
    }

    #[test]
    fn keys_route_by_modulo_and_do_not_collide_across_shards() {
        let cache = ShardedListCache::new(8 * 100, 8);
        // ids 0..8 land in distinct shards; each shard holds its entry.
        for id in 0..8u32 {
            cache.insert(id, list_of(1), 50);
        }
        for id in 0..8u32 {
            assert!(cache.get(id).is_some(), "id {id} missing");
        }
        let s = cache.stats();
        assert_eq!(s.cached_bytes, 8 * 50);
        assert_eq!(s.evictions, 0);
        cache.check_invariants();
    }

    #[test]
    fn eviction_is_per_shard() {
        // Shard budget = 100: two 60-cost entries in the same shard evict,
        // entries in other shards are untouched.
        let cache = ShardedListCache::new(8 * 100, 8);
        cache.insert(0, list_of(1), 60);
        cache.insert(1, list_of(1), 60); // different shard: no eviction
        cache.insert(8, list_of(1), 60); // shard of id 0: evicts id 0
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(cache.get(0).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(8).is_some());
        cache.check_invariants();
    }

    #[test]
    fn newer_generation_entry_misses_for_pinned_reader_without_eviction() {
        let cache = ShardedListCache::new(1 << 20, 4);
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
        let cache = ShardedListCache::new(1 << 20, 4);
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
        let cache = ShardedListCache::new(1 << 20, 4);
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
    fn stats_aggregate_over_shards() {
        let cache = ShardedListCache::new(1 << 20, 4);
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
