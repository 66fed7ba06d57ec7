#![cfg(xcheck)]
//! Model check of the list cache's generation guard, run on the code
//! that ships: `RUSTFLAGS="--cfg xcheck" cargo test -p invindex --test
//! xcheck_list_cache`.
//!
//! A reader that decoded a list at the generation it loaded inserts it
//! with `insert_at`, racing a committing writer whose
//! `ListCache::publish` bumps the generation and invalidates the list.
//! However the two interleave, once the invalidation has run `get` must
//! not serve the list decoded at the old generation. This checks both
//! the admission guard in `insert_at` and the order of the two steps in
//! `publish`. The race shows at lock granularity: the generation lives
//! under the cache mutex, so the reader's read of it, its insert, the
//! writer's bump and its invalidation are four yield points.

use invindex::postings::PostingList;
use invindex::ListCache;
use std::sync::Arc;

const ID: u32 = 7;

struct State {
    cache: ListCache<PostingList>,
    /// What the reader decodes at generation 0 and at generation 1.
    decoded: [Arc<PostingList>; 2],
}

/// Runs every metric call site the threads reach once, so each handle
/// is registered before exploration: a registration takes the registry
/// lock, a yield only the first schedule would contain.
fn warm_metric_handles() {
    let cache = ListCache::new(1);
    cache.insert(0, Arc::new(PostingList::new()), 1);
    cache.insert(1, Arc::new(PostingList::new()), 1); // evicts id 0
    cache.get(0);
    cache.get(1);
    cache.invalidate(1);
}

fn setup() -> State {
    warm_metric_handles();
    State {
        cache: ListCache::new(1 << 20),
        decoded: [Arc::new(PostingList::new()), Arc::new(PostingList::new())],
    }
}

/// A reader that missed: it decodes at the generation it sees, then
/// offers the list to the cache.
fn reader(s: &State) {
    let gen = s.cache.current_gen();
    let list = Arc::clone(&s.decoded[gen as usize]);
    s.cache.insert_at(ID, list, 10, gen);
}

/// A committing writer: publish generation 1, which changed the list,
/// through the method `MaintIndex` calls.
fn writer(s: &State) {
    s.cache.publish(1, &[ID]);
}

#[test]
fn an_insert_racing_an_invalidation_never_leaves_a_stale_entry() {
    let explore = || {
        xcheck::explore(
            &xcheck::Config::default(),
            setup,
            &[reader, writer],
            |s| match s.cache.get(ID) {
                Some(list) if Arc::ptr_eq(&list, &s.decoded[0]) => Err(format!(
                    "stale cache entry: the list decoded at generation 0 is served at \
                     generation {}",
                    s.cache.current_gen()
                )),
                _ => Ok(()),
            },
        )
    };
    let out = explore();
    assert!(out.passed(), "violation: {:?}", out.violation);
    assert!(out.schedules > 1, "the race must branch: {}", out.schedules);
    assert_eq!(
        explore().schedules,
        out.schedules,
        "exploration is deterministic"
    );
}
