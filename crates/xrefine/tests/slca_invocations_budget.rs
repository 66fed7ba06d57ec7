//! Results are materialised for the K refinements returned, not for the
//! 2K list members: the process-wide `slca_invocations_total` around one
//! refinement-needing query reads the admission trials plus at most K.
//!
//! One test, its own binary: the counter is process-wide.

use invindex::{Index, KvBackedIndex};
use lexicon::RuleSet;
use std::sync::Arc;
use xmldom::parse_document;
use xrefine::{partition_refine, PartitionOptions, Query, RefineSession};

fn slca_invocations() -> u64 {
    obs::global()
        .snapshot()
        .counters
        .get("slca_invocations_total")
        .copied()
        .unwrap_or(0)
}

#[test]
fn a_query_costs_its_trials_plus_at_most_k_materialisations() {
    // Q = {ant, bee, cow}, no rules: the candidates are Q's subsets, at
    // deletion cost 2 per dropped keyword. K = 2, so the list holds four.
    //   0.0 {ant}       -> {ant} (4)       tried, admitted
    //   0.1 {bee}       -> {bee} (4)       tried, admitted
    //   0.2 {cow}       -> {cow} (4)       tried, admitted
    //   0.3 {ant, bee}  -> {ant, bee} (2)  tried, admitted: the list is full
    //   0.4 {ant, cow}  -> {ant, cow} (2)  tried, admitted, {cow} evicted;
    //                      {cow} (4) offered again is pruned untried
    //   0.5 {bee}, 0.6 {ant}: members already, nothing is tried
    let partitions = ["ant", "bee", "cow", "ant bee", "ant cow", "bee", "ant"];
    let authors: String = partitions
        .iter()
        .map(|words| format!("<author><title>{words}</title></author>"))
        .collect();
    let doc = Arc::new(parse_document(&format!("<bib>{authors}</bib>")).unwrap());
    let index = KvBackedIndex::from_built(Index::build(doc));
    let query = Query::from_keywords(["ant", "bee", "cow"]);
    let session = RefineSession::new(&index, query, RuleSet::new()).unwrap();
    let options = PartitionOptions {
        k: 2,
        ..Default::default()
    };

    let before = slca_invocations();
    let out = partition_refine(&session, &options);
    let calls = slca_invocations() - before;

    assert!(!out.original_ok);
    assert_eq!(out.refinements.len(), 2);
    assert!(out.refinements.iter().all(|r| !r.slcas.is_empty()));
    // Five trials, and one call for each of the two refinements returned
    // — not one for each of the four list members (5 + 4, as it was while
    // every member was materialised before ranking).
    assert_eq!(calls, 5 + 2);
}
