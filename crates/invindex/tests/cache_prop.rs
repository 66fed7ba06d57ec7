//! Randomized invariant checking for [`ShardedListCache`].
//!
//! A shadow model (an independent, naive reimplementation of the
//! per-shard LRU policy) predicts every hit/miss and the exact resident
//! set; after every operation the cache's own bookkeeping must agree
//! with itself (`check_invariants`) and with an operation log
//! (hits + misses = gets, decodes = inserts, bytes ≤ budget). A final
//! multi-threaded hammer checks the same reconciliation under real
//! contention, where only order-insensitive properties are predictable.

use invindex::{Posting, PostingList, ShardedListCache};
use std::sync::Arc;
use xmldom::{Dewey, NodeTypeId};

/// Deterministic splitmix64 — the tests must actually *run* their random
/// workloads, seeded and reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn list_of(id: u32) -> Arc<PostingList> {
    let postings = vec![Posting::new(
        Dewey::new(vec![0, id]).unwrap(),
        NodeTypeId(0),
    )];
    Arc::new(PostingList::from_sorted(postings))
}

/// The naive model: per shard, `(id, cost)` pairs in LRU order (front =
/// next victim). Mirrors the cache's budget split (remainder bytes land
/// on the first shards).
struct Model {
    shards: Vec<Vec<(u32, usize)>>,
    budgets: Vec<usize>,
}

impl Model {
    fn new(budget: usize, n: usize) -> Self {
        let base = budget / n;
        let rem = budget % n;
        Model {
            shards: vec![Vec::new(); n],
            budgets: (0..n).map(|i| base + usize::from(i < rem)).collect(),
        }
    }

    fn get(&mut self, id: u32) -> bool {
        let shard = &mut self.shards[id as usize % self.budgets.len()];
        match shard.iter().position(|&(i, _)| i == id) {
            Some(pos) => {
                let entry = shard.remove(pos);
                shard.push(entry);
                true
            }
            None => false,
        }
    }

    /// Returns the number of evictions the insert causes.
    fn insert(&mut self, id: u32, cost: usize) -> u64 {
        let s = id as usize % self.budgets.len();
        let budget = self.budgets[s];
        let shard = &mut self.shards[s];
        if cost > budget {
            return 0;
        }
        if let Some(pos) = shard.iter().position(|&(i, _)| i == id) {
            shard.remove(pos);
        }
        let mut evicted = 0;
        let used = |sh: &Vec<(u32, usize)>| sh.iter().map(|&(_, c)| c).sum::<usize>();
        while used(shard) + cost > budget {
            shard.remove(0);
            evicted += 1;
        }
        shard.push((id, cost));
        evicted
    }

    fn bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.iter().map(|&(_, c)| c))
            .sum()
    }
}

#[test]
fn randomized_workload_matches_the_naive_model() {
    for (seed, budget, n_shards, universe) in [
        (1u64, 400usize, 4usize, 24u64),
        (2, 1000, 8, 64),
        (3, 64, 1, 16),
        (4, 0, 8, 16), // zero budget: nothing is ever resident
        (5, 10_000, 3, 100),
    ] {
        let cache = ShardedListCache::new(budget, n_shards);
        let mut model = Model::new(budget, n_shards);
        let mut rng = Rng(seed);
        let (mut gets, mut inserts, mut evictions) = (0u64, 0u64, 0u64);
        let (mut hits, mut misses) = (0u64, 0u64);

        for step in 0..4000 {
            let id = rng.below(universe) as u32;
            if rng.below(100) < 55 {
                gets += 1;
                let got = cache.get(id);
                let expected = model.get(id);
                assert_eq!(
                    got.is_some(),
                    expected,
                    "seed {seed} step {step}: get({id}) disagreed with the model"
                );
                if expected {
                    hits += 1;
                } else {
                    misses += 1;
                }
            } else {
                inserts += 1;
                // costs span "fits easily" through "oversize for a shard"
                let cost = (rng.below(budget.max(1) as u64 / 2 + 40)) as usize + 1;
                cache.insert(id, list_of(id), cost);
                evictions += model.insert(id, cost);
            }
            if step % 64 == 0 {
                cache.check_invariants();
            }
        }
        cache.check_invariants();

        // op-log reconciliation: every counter is fully explained by the
        // operations issued and the model's predictions
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, gets, "seed {seed}: gets unaccounted");
        assert_eq!((s.hits, s.misses), (hits, misses), "seed {seed}");
        assert_eq!(s.lists_decoded, inserts, "seed {seed}: inserts unaccounted");
        assert_eq!(s.evictions, evictions, "seed {seed}: evictions diverged");
        assert_eq!(s.cached_bytes, model.bytes(), "seed {seed}: resident bytes");
        assert!(s.cached_bytes <= budget, "seed {seed}: budget exceeded");
    }
}

#[test]
fn handles_stay_valid_after_their_entry_is_evicted() {
    // one shard, budget of exactly one entry: the second insert evicts
    // the first, whose Arc must keep the decoded list alive
    let cache = ShardedListCache::new(100, 1);
    cache.insert(1, list_of(1), 100);
    let held = cache.get(1).expect("resident");
    cache.insert(2, list_of(2), 100);
    assert!(cache.get(1).is_none(), "1 must be evicted");
    assert_eq!(held.as_slice().len(), 1, "evicted handle still readable");
    assert_eq!(held.as_slice()[0].dewey, Dewey::new(vec![0, 1]).unwrap());
}

#[test]
fn concurrent_hammer_reconciles_with_the_op_log() {
    let cache = ShardedListCache::new(2000, 8);
    const THREADS: u64 = 8;
    const OPS: u64 = 3000;
    let mut per_thread: Vec<(u64, u64)> = Vec::new(); // (gets, inserts)
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let cache = &cache;
            handles.push(s.spawn(move || {
                let mut rng = Rng(0xfeed + t);
                let (mut gets, mut inserts) = (0u64, 0u64);
                for _ in 0..OPS {
                    let id = rng.below(96) as u32;
                    if rng.below(100) < 60 {
                        gets += 1;
                        if let Some(list) = cache.get(id) {
                            // the cached value must be the one keyed here
                            assert_eq!(list.as_slice()[0].dewey.components()[1], id);
                        }
                    } else {
                        inserts += 1;
                        let cost = rng.below(400) as usize + 1;
                        cache.insert(id, list_of(id), cost);
                    }
                }
                (gets, inserts)
            }));
        }
        for h in handles {
            per_thread.push(h.join().expect("hammer thread panicked"));
        }
    });

    cache.check_invariants();
    let s = cache.stats();
    let gets: u64 = per_thread.iter().map(|&(g, _)| g).sum();
    let inserts: u64 = per_thread.iter().map(|&(_, i)| i).sum();
    assert_eq!(s.hits + s.misses, gets, "gets unaccounted under contention");
    assert_eq!(s.lists_decoded, inserts, "inserts unaccounted");
    assert!(s.cached_bytes <= 2000, "budget exceeded under contention");
}
