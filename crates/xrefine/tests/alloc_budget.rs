//! Allocation budget of Algorithm 2, as a scale-free gate: heap
//! allocations inside `partition_refine` may grow with the SLCA
//! *results* a query has, but not with the partitions its lists reach.
//! The same refinement-needing query runs on a 200-author and an
//! 800-author corpus; the extra allocations per extra partition reached
//! must stay below one. (Before candidates were interned and admitted
//! RQs evaluated once, every partition cost tens of allocations:
//! keyword-set clones, canonical strings, a mask, a slice vector, an
//! SLCA call per member.) The partitions are those the `KS` lists reach,
//! read from their run tables — what a walk over every partition visits.
//! The walk itself now visits only the few where a trial can happen, so
//! the partitions it visits would make no denominator: the query below
//! visits one at either size.
//!
//! Two things that do follow the corpus are kept out of the count,
//! because they are not the scan's. The pluggable SLCA method returns
//! owned labels, one allocation per candidate it considers: counting is
//! suspended inside it. The reader memoises co-occurrence
//! projections the first time the ranker asks for a keyword pair: the
//! measured run is the second over its index.
//!
//! The gate on the dynamic program's own allocations brackets the
//! `DpMemo` miss path, so it is a unit test inside the crate
//! (`partition.rs`, `a_dp_call_costs_tens_of_allocations_not_hundreds`).
//!
//! The test owns this binary: the counting allocator is process-wide.

use std::collections::BTreeSet;
use std::sync::Arc;

use datagen::{generate_dblp, DblpConfig};
use invindex::{ListHandle, HEAD_AT_ROOT};
use xcheck::alloc::{allocations, uncounted, Counting};
use xrefine::{
    partition_refine, EngineConfig, PartitionOptions, Query, RefineSession, XRefineEngine,
};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Scan-eager SLCA, its own allocations uncounted.
fn uncounted_slca(lists: &[ListHandle]) -> Vec<xmldom::Dewey> {
    uncounted(|| slca::slca_scan_eager(lists))
}

/// The partitions the lists reach, from their run tables.
fn partitions_reached(lists: &[ListHandle]) -> u64 {
    let mut partitions = BTreeSet::new();
    for list in lists {
        let mut runs = list.partition_runs();
        runs.seek(HEAD_AT_ROOT + 1);
        while let Some((head, _)) = runs.current() {
            partitions.insert(head);
            runs.seek(head + 1);
        }
    }
    partitions.len() as u64
}

/// What one measured `partition_refine` did.
struct Measured {
    allocations: u64,
    partitions: u64,
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

    let (out, allocations) = allocations(|| partition_refine(&session, &options));

    assert!(!out.original_ok, "{keywords:?} must need refinement");
    assert!(!out.refinements.is_empty());
    Measured {
        allocations,
        partitions: partitions_reached(&session.lists),
        results: out.refinements.iter().map(|r| r.slcas.len()).sum(),
    }
}

#[test]
fn allocations_do_not_grow_with_partitions_scanned() {
    let keywords = ["databse", "xml", "keyword"];
    let small = measure(200, &keywords);
    let large = measure(800, &keywords);
    for (authors, m) in [(200, &small), (800, &large)] {
        println!(
            "{authors} authors: {} allocations, {} partitions reached, {} results",
            m.allocations, m.partitions, m.results
        );
    }
    assert!(
        large.partitions >= small.partitions + 200,
        "the larger corpus must add partitions for the lists to reach"
    );
    let per_partition = (large.allocations as f64 - small.allocations as f64)
        / (large.partitions - small.partitions) as f64;
    assert!(
        per_partition < 1.0,
        "{per_partition:.2} extra allocations per extra partition reached"
    );
}
