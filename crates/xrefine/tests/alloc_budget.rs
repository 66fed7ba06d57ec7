//! Allocation budget of Algorithm 2, as a scale-free gate: heap
//! allocations inside `partition_refine` may grow with the SLCA
//! *results* a query has, but not with the partitions it scans. The same
//! refinement-needing query runs on a 200-author and an 800-author
//! corpus; the extra allocations per extra partition must stay below
//! one. (Before candidates were interned and admitted RQs evaluated
//! once, every partition cost tens of allocations: keyword-set clones,
//! canonical strings, a mask, a slice vector, an SLCA call per member.)
//!
//! Two things that do follow the corpus are kept out of the count,
//! because they are not the scan's. The pluggable SLCA method returns
//! owned labels, one allocation per candidate it considers: counting is
//! suspended inside it. The resident index memoises co-occurrence
//! projections the first time the ranker asks for a keyword pair: the
//! measured run is the second over its index.
//!
//! The test owns this binary: the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use datagen::{generate_dblp, DblpConfig};
use invindex::Index;
use xrefine::{
    partition_refine, EngineConfig, PartitionOptions, Query, RefineSession, XRefineEngine,
};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting the allocations of a thread that asked for it.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        // SAFETY: as for `alloc` and `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Scan-eager SLCA, its own allocations uncounted.
fn uncounted_slca(lists: &[invindex::ListHandle]) -> Vec<xmldom::Dewey> {
    let was = COUNTING.replace(false);
    let found = slca::slca_scan_eager(lists);
    COUNTING.set(was);
    found
}

fn partitions_scanned() -> u64 {
    obs::global()
        .snapshot()
        .counters
        .get("xrefine_partitions_scanned_total")
        .copied()
        .unwrap_or(0)
}

/// `(allocations inside partition_refine, partitions scanned, results)`.
fn measure(authors: usize, keywords: &[&str]) -> (u64, u64, usize) {
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors,
        ..Default::default()
    }));
    let index = Index::build(Arc::clone(&doc));
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    let query = Query::from_keywords(keywords.iter().copied());
    let rules = engine.rules_for(&query);
    let warm_up = RefineSession::new(&index, query.clone(), rules.clone()).unwrap();
    let session = RefineSession::new(&index, query, rules).unwrap();
    let options = PartitionOptions {
        k: 3,
        slca: uncounted_slca,
        ..Default::default()
    };
    partition_refine(&warm_up, &options);

    let partitions_before = partitions_scanned();
    ALLOCATIONS.set(0);
    COUNTING.set(true);
    let out = partition_refine(&session, &options);
    COUNTING.set(false);
    let allocations = ALLOCATIONS.get();
    let partitions = partitions_scanned() - partitions_before;

    assert!(!out.original_ok, "{keywords:?} must need refinement");
    assert!(!out.refinements.is_empty());
    let results = out.refinements.iter().map(|r| r.slcas.len()).sum();
    (allocations, partitions, results)
}

#[test]
fn allocations_do_not_grow_with_partitions_scanned() {
    let keywords = ["databse", "xml", "keyword"];
    let (allocs_200, partitions_200, results_200) = measure(200, &keywords);
    let (allocs_800, partitions_800, results_800) = measure(800, &keywords);
    println!(
        "200 authors: {allocs_200} allocations, {partitions_200} partitions, {results_200} results\n\
         800 authors: {allocs_800} allocations, {partitions_800} partitions, {results_800} results"
    );
    assert!(
        partitions_800 >= partitions_200 + 200,
        "the larger corpus must add partitions to scan"
    );
    let per_partition =
        (allocs_800 as f64 - allocs_200 as f64) / (partitions_800 - partitions_200) as f64;
    assert!(
        per_partition < 1.0,
        "{per_partition:.2} extra allocations per extra partition scanned"
    );
}
