//! Deadlock regression tests for the maintenance lock hierarchy.
//!
//! The static half of the lock-order story is xlint's `lock-order` rule;
//! this is the runtime half: `obs::lockrank` keeps a thread-local stack
//! of held ranks and `debug_assert`s that acquisitions are strictly
//! increasing. Eight threads hammer the real list cache (whose mutex
//! carries `cache.lru` into the runtime checker) under a `maint.writer`
//! mutex, then swap an `engine.epoch` pointer nested inside the writer —
//! the order a committing `LiveEngine` update uses. The inverted orders
//! must panic, in debug builds only.

use invindex::{ListCache, Posting, PostingList};
use obs::lockrank::{self, rank};
use obs::sync::Mutex;
use std::sync::{Arc, Barrier};
use std::thread;
use xmldom::{Dewey, NodeTypeId};

fn list(n: u32) -> Arc<PostingList> {
    let mut l = PostingList::new();
    l.push(Posting::new(
        Dewey::new(vec![0, n]).expect("non-empty dewey"),
        NodeTypeId(1),
    ));
    Arc::new(l)
}

/// Writer, then cache beneath it, then the epoch still beneath the
/// writer (the production update order) from eight threads at once:
/// every acquisition is strictly increasing, so the checker stays quiet
/// and nothing deadlocks.
#[test]
fn eight_threads_nest_writer_cache_then_epoch_cleanly() {
    const THREADS: usize = 8;
    const ROUNDS: u32 = 200;
    let writer = Arc::new(Mutex::new(rank::MAINT_WRITER, 0u64));
    let epoch = Arc::new(Mutex::new(rank::ENGINE_EPOCH, 0u64));
    let cache = Arc::new(ListCache::new(1 << 16));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let writer = Arc::clone(&writer);
            let epoch = Arc::clone(&epoch);
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    let id = (t as u32) * ROUNDS + round;
                    // The update path's shape: `LiveEngine::update`
                    // holds the writer mutex while `MaintIndex::commit`
                    // invalidates/seeds cache entries (`cache.lru`, taken
                    // and released inside each call), then swaps the
                    // engine pointer before it releases the writer.
                    let mut writer_guard = writer.lock();
                    if cache.get(id).is_none() {
                        cache.insert(id, list(id), 64);
                    }
                    cache.invalidate(id.wrapping_add(1));
                    *writer_guard += 1;
                    *epoch.lock() += 1;
                }
                cache.check_invariants();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }
    let total = u64::from(ROUNDS) * THREADS as u64;
    assert_eq!((*writer.lock(), *epoch.lock()), (total, total));
    assert!(
        lockrank::held_ranks().is_empty(),
        "main thread should hold no ranks"
    );
}

/// The inverted nesting — the cache lock held, then the epoch pointer —
/// is exactly the shape that deadlocks against the clean order above.
/// The runtime checker must refuse it before any scheduler interleaving
/// gets a say.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "lock-rank violation")]
fn cache_then_epoch_nesting_panics_in_debug() {
    let cache = ListCache::new(1 << 12);
    // Entering the cache via `insert` is fine on its own; the violation
    // is taking the epoch mutex while a same-thread cache guard would
    // still be live.
    cache.insert(1, list(1), 64);
    let epoch = Mutex::new(rank::ENGINE_EPOCH, 0u64);
    let _cache_rank = lockrank::acquire(rank::CACHE_LRU);
    let _epoch_guard = epoch.lock();
}

/// Same inversion one level up: the epoch pointer must never be held
/// when the writer mutex is requested (a reader pinning an engine
/// cannot block a committer into a cycle).
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "lock-rank violation")]
fn epoch_then_writer_nesting_panics_in_debug() {
    let epoch = Mutex::new(rank::ENGINE_EPOCH, 0u64);
    let writer = Mutex::new(rank::MAINT_WRITER, 0u64);
    let _epoch_guard = epoch.lock();
    let _writer_guard = writer.lock();
}

/// In release builds the checker compiles down to nothing: the guard is
/// a ZST and inverted acquisition is (dangerously) silent — that's the
/// zero-overhead contract, and why debug CI runs the tests above.
#[cfg(not(debug_assertions))]
#[test]
fn release_checker_is_zero_cost_and_silent() {
    assert_eq!(std::mem::size_of::<lockrank::RankGuard>(), 0);
    let _cache = lockrank::acquire(rank::CACHE_LRU);
    let _epoch = lockrank::acquire(rank::ENGINE_EPOCH);
    assert!(lockrank::held_ranks().is_empty());
}
