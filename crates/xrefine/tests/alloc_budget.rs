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
//! suspended inside it. The reader memoises co-occurrence
//! projections the first time the ranker asks for a keyword pair: the
//! measured run is the second over its index.
//!
//! The second gate is on the dynamic program. A `DpMemo` miss runs the
//! recurrence on interned keys in working memory the session keeps, so
//! what it allocates is the memo entry and the arena rows of candidates
//! not seen before — not, as before, a `BTreeSet<String>` and an
//! operation history per state (hundreds of allocations a call). The
//! miss path cannot be bracketed from outside the crate, so the gate is
//! on an over-count: *every* allocation of the run (cursors, trials, the
//! list, ranking, results) charged to the DP calls it made, on a query
//! wide enough to make many.
//!
//! The tests own this binary: the counting allocator is process-wide,
//! and they take `SERIAL` because the `obs` counters they difference
//! are too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

use datagen::{generate_dblp, DblpConfig};
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

static SERIAL: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    obs::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// What one measured `partition_refine` did.
struct Measured {
    allocations: u64,
    partitions: u64,
    dp_calls: u64,
    results: usize,
}

fn measure(authors: usize, keywords: &[&str]) -> Measured {
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors,
        ..Default::default()
    }));
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    let query = Query::from_keywords(keywords.iter().copied());
    let rules = engine.rules_for(&query);
    let warm_up = RefineSession::new(engine.index(), query.clone(), rules.clone()).unwrap();
    let session = RefineSession::new(engine.index(), query, rules).unwrap();
    let options = PartitionOptions {
        k: 3,
        slca: uncounted_slca,
        ..Default::default()
    };
    partition_refine(&warm_up, &options);

    let partitions_before = counter("xrefine_partitions_scanned_total");
    let dp_calls_before = counter("xrefine_dp_calls_total");
    ALLOCATIONS.set(0);
    COUNTING.set(true);
    let out = partition_refine(&session, &options);
    COUNTING.set(false);
    let allocations = ALLOCATIONS.get();

    assert!(!out.original_ok, "{keywords:?} must need refinement");
    assert!(!out.refinements.is_empty());
    Measured {
        allocations,
        partitions: counter("xrefine_partitions_scanned_total") - partitions_before,
        dp_calls: counter("xrefine_dp_calls_total") - dp_calls_before,
        results: out.refinements.iter().map(|r| r.slcas.len()).sum(),
    }
}

#[test]
fn allocations_do_not_grow_with_partitions_scanned() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let keywords = ["databse", "xml", "keyword"];
    let small = measure(200, &keywords);
    let large = measure(800, &keywords);
    for (authors, m) in [(200, &small), (800, &large)] {
        println!(
            "{authors} authors: {} allocations, {} partitions, {} results",
            m.allocations, m.partitions, m.results
        );
    }
    assert!(
        large.partitions >= small.partitions + 200,
        "the larger corpus must add partitions to scan"
    );
    let per_partition = (large.allocations as f64 - small.allocations as f64)
        / (large.partitions - small.partitions) as f64;
    assert!(
        per_partition < 1.0,
        "{per_partition:.2} extra allocations per extra partition scanned"
    );
}

#[test]
fn a_dp_call_costs_tens_of_allocations_not_hundreds() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let keywords = ["databse", "xml", "key", "word", "serch", "retrieval"];
    let m = measure(400, &keywords);
    let per_call = m.allocations as f64 / m.dp_calls as f64;
    println!(
        "{keywords:?}: {} allocations in the whole run, {} DP calls, {per_call:.1} per call",
        m.allocations, m.dp_calls
    );
    assert!(
        m.dp_calls >= 20,
        "the query must exercise the DP: {}",
        m.dp_calls
    );
    assert!(
        per_call <= 40.0,
        "{per_call:.1} allocations per DP call, everything the run allocates included"
    );
}
