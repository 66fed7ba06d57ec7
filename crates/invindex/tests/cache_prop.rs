//! Randomized invariant checking for [`ListCache`].
//!
//! A reference model (an independent, naive `VecDeque` in LRU order)
//! predicts every hit/miss, every eviction victim and the exact resident
//! set; after every operation the cache's own bookkeeping must agree
//! with itself (`check_invariants`) and with an operation log
//! (hits + misses = gets, decodes = inserts, bytes ≤ budget). A final
//! multi-threaded hammer checks the same reconciliation under real
//! contention, where only order-insensitive properties are predictable.

use invindex::{ListCache, Posting, PostingList};
use std::collections::VecDeque;
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

/// The reference model: `(id, cost)` pairs in LRU order (front = next
/// victim) under one budget.
struct Model {
    lru: VecDeque<(u32, usize)>,
    budget: usize,
}

impl Model {
    fn get(&mut self, id: u32) -> bool {
        match self.lru.iter().position(|&(i, _)| i == id) {
            Some(pos) => {
                let entry = self.lru.remove(pos).expect("position is in range");
                self.lru.push_back(entry);
                true
            }
            None => false,
        }
    }

    /// Returns the ids the insert evicts, oldest first.
    fn insert(&mut self, id: u32, cost: usize) -> Vec<u32> {
        if cost > self.budget {
            return Vec::new();
        }
        if let Some(pos) = self.lru.iter().position(|&(i, _)| i == id) {
            self.lru.remove(pos);
        }
        let mut victims = Vec::new();
        while self.bytes() + cost > self.budget {
            let (victim, _) = self.lru.pop_front().expect("bytes > 0 implies entries");
            victims.push(victim);
        }
        self.lru.push_back((id, cost));
        victims
    }

    fn bytes(&self) -> usize {
        self.lru.iter().map(|&(_, c)| c).sum()
    }
}

/// The cache under test plus the log of every lookup made of it, so the
/// probes the test adds are reconciled with the counters like any other.
struct Logged {
    cache: ListCache,
    hits: u64,
    misses: u64,
}

impl Logged {
    fn get(&mut self, id: u32) -> bool {
        let hit = self.cache.get(id).is_some();
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }
}

/// True of one LRU only: the resident set and every eviction victim are
/// the model's *exactly*, and an insert that fits the budget is resident
/// the moment it returns (a budget split over several LRUs refuses every
/// cost above one share and evicts a share's oldest, not the oldest).
#[test]
fn randomized_workload_matches_the_one_lru_model() {
    for (seed, budget, universe) in [
        (1u64, 400usize, 24u64),
        (2, 1000, 64),
        (3, 64, 16),
        (4, 0, 16), // zero budget: nothing is ever resident
        (5, 10_000, 100),
    ] {
        let mut logged = Logged {
            cache: ListCache::new(budget),
            hits: 0,
            misses: 0,
        };
        let mut model = Model {
            lru: VecDeque::new(),
            budget,
        };
        let mut rng = Rng(seed);
        let (mut inserts, mut evictions) = (0u64, 0u64);

        for step in 0..4000 {
            let id = rng.below(universe) as u32;
            if rng.below(100) < 55 {
                assert_eq!(
                    logged.get(id),
                    model.get(id),
                    "seed {seed} step {step}: get({id}) disagreed with the model"
                );
            } else {
                inserts += 1;
                // costs span "fits easily" through "larger than the budget"
                let cost = (rng.below(budget as u64 + 40)) as usize + 1;
                logged.cache.insert(id, list_of(id), cost);
                let victims = model.insert(id, cost);
                evictions += victims.len() as u64;
                // A miss leaves the LRU order alone, so probing the
                // victims is free; an entry that fits is already the
                // newest, so the hit that proves it resident moves nothing
                // (an oversize insert leaves an older entry of the id be).
                for victim in victims {
                    assert!(
                        !logged.get(victim),
                        "seed {seed} step {step}: the model evicted {victim}, the cache kept it"
                    );
                }
                let resident = logged.get(id);
                assert_eq!(resident, model.get(id), "seed {seed} step {step}");
                assert!(
                    resident || cost > budget,
                    "seed {seed} step {step}: insert({id}, {cost}) fits {budget} and is not resident"
                );
            }
            if step % 64 == 0 {
                logged.cache.check_invariants();
                // The whole resident set. Hitting the residents oldest
                // first re-promotes each in turn and so restores the
                // order it started from.
                for id in 0..universe as u32 {
                    if !model.lru.iter().any(|&(i, _)| i == id) {
                        assert!(!logged.get(id), "seed {seed} step {step}: {id} resident");
                    }
                }
                for (id, _) in model.lru.clone() {
                    assert!(logged.get(id), "seed {seed} step {step}: {id} missing");
                }
            }
        }
        logged.cache.check_invariants();

        // op-log reconciliation: every counter is fully explained by the
        // operations issued and the model's predictions
        let s = logged.cache.stats();
        assert_eq!(
            (s.hits, s.misses),
            (logged.hits, logged.misses),
            "seed {seed}"
        );
        assert_eq!(s.lists_decoded, inserts, "seed {seed}: inserts unaccounted");
        assert_eq!(s.evictions, evictions, "seed {seed}: evictions diverged");
        assert_eq!(s.cached_bytes, model.bytes(), "seed {seed}: resident bytes");
        assert!(s.cached_bytes <= budget, "seed {seed}: budget exceeded");
    }
}

#[test]
fn handles_stay_valid_after_their_entry_is_evicted() {
    // budget of exactly one entry: the second insert evicts the first,
    // whose Arc must keep the decoded list alive
    let cache = ListCache::new(100);
    cache.insert(1, list_of(1), 100);
    let held = cache.get(1).expect("resident");
    cache.insert(2, list_of(2), 100);
    assert!(cache.get(1).is_none(), "1 must be evicted");
    assert_eq!(held.as_slice().len(), 1, "evicted handle still readable");
    assert_eq!(held.as_slice()[0].dewey, Dewey::new(vec![0, 1]).unwrap());
}

#[test]
fn concurrent_hammer_reconciles_with_the_op_log() {
    let cache = ListCache::new(2000);
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
