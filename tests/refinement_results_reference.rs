//! Result-set oracle: the `slcas` of every refinement Algorithms 2 and 3
//! return are the candidate's complete meaningful SLCA set — the
//! brute-force SLCA over the full lists of its keywords, filtered, minus
//! the root label. This is the test that licenses `partition_refine`'s
//! deferred evaluation (one SLCA call per admitted candidate instead of
//! one per partition it occurs in).
//!
//! One test reads the process-wide `slca_invocations_total`, so every
//! test of this file that runs an SLCA takes `SERIAL` first.

use std::sync::{Arc, Mutex};
use xrefine_repro::datagen::{generate_dblp, generate_workload, DblpConfig, WorkloadConfig};
use xrefine_repro::invindex::{Index, Posting};
use xrefine_repro::lexicon::RuleSet;
use xrefine_repro::prelude::*;
use xrefine_repro::slca::slca_brute_force;
use xrefine_repro::xrefine::{
    partition_refine, sle_refine, PartitionOptions, RefineSession, SleOptions,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The complete result set of `keywords` under the session's filter.
fn reference_slcas(index: &Index, session: &RefineSession<'_>, keywords: &[String]) -> Vec<Dewey> {
    let lists: Vec<&[Posting]> = keywords
        .iter()
        .map(|w| index.list(w).map(|l| l.as_slice()).unwrap_or(&[]))
        .collect();
    let mut expected = session.filter.filter(slca_brute_force(&lists));
    expected.retain(|d| d.len() > 1);
    expected.sort();
    expected.dedup();
    expected
}

/// Runs both algorithms through `engine` and returns a description of
/// every refinement whose results differ from the reference over the
/// build `index`.
fn mismatches(
    engine: &XRefineEngine,
    index: &Index,
    query: &Query,
    rules: &RuleSet,
    k: usize,
) -> Vec<String> {
    let session = |q: &Query| RefineSession::new(engine.index(), q.clone(), rules.clone()).unwrap();
    let partition = {
        let s = session(query);
        partition_refine(
            &s,
            &PartitionOptions {
                k,
                ..Default::default()
            },
        )
    };
    let sle = {
        let s = session(query);
        sle_refine(
            &s,
            &SleOptions {
                k,
                ..Default::default()
            },
        )
    };
    let s = session(query);
    let mut wrong = Vec::new();
    for (algorithm, out) in [("partition", partition), ("sle", sle)] {
        for r in &out.refinements {
            let expected = reference_slcas(index, &s, &r.candidate.keywords);
            assert!(
                !r.slcas.is_empty(),
                "{query} k={k}: {algorithm} returned an empty result set"
            );
            if r.slcas != expected {
                wrong.push(format!(
                    "{algorithm} k={k} {query} -> {}: {} result(s), reference has {}",
                    r.candidate,
                    r.slcas.len(),
                    expected.len()
                ));
            }
        }
    }
    wrong
}

#[test]
fn every_refinement_carries_its_complete_result_set() {
    let _serial = serial();
    let mut wrong = Vec::new();
    let mut refined = 0usize;
    for (seed, authors) in [(0xD8B1u64, 25usize), (7, 60), (42, 120), (2009, 200)] {
        let doc = Arc::new(generate_dblp(&DblpConfig {
            authors,
            seed,
            ..Default::default()
        }));
        let index = Index::build(Arc::clone(&doc));
        let engine = XRefineEngine::from_document(Arc::clone(&doc), EngineConfig::default());
        // `per_kind` of each of the seven query classes.
        let workload = generate_workload(
            &doc,
            &WorkloadConfig {
                per_kind: 4,
                seed,
                ..Default::default()
            },
        );
        let kinds: std::collections::HashSet<_> = workload.iter().map(|q| q.kind).collect();
        assert_eq!(kinds.len(), 7, "seed {seed}: a query class is missing");
        for q in &workload {
            let query = Query::from_keywords(q.keywords.iter().cloned());
            let rules = engine.rules_for(&query);
            for k in [1, 3] {
                let found = mismatches(&engine, &index, &query, &rules, k);
                refined += 1;
                wrong.extend(
                    found
                        .into_iter()
                        .map(|m| format!("seed {seed} authors {authors}: {m}")),
                );
            }
        }
    }
    assert!(refined >= 4 * 7 * 4 * 2);
    assert!(
        wrong.is_empty(),
        "{} refinement(s) with an incomplete or wrong result set:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

fn slca_invocations() -> u64 {
    xrefine_repro::obs::global()
        .snapshot()
        .counters
        .get("slca_invocations_total")
        .copied()
        .unwrap_or(0)
}

/// `<bib>` of `<author>` partitions, each holding the given words in one
/// `<title>` (the author subtrees are the search-for nodes).
fn bib(root_text: &str, partitions: &[&str]) -> String {
    let authors: String = partitions
        .iter()
        .map(|words| format!("<author><title>{words}</title></author>"))
        .collect();
    format!("<bib>{root_text}{authors}</bib>")
}

#[test]
fn an_evicted_candidate_is_never_materialised() {
    let _serial = serial();
    // Q = {ant, bee, cow}, no rules: the candidates are Q's subsets, at
    // deletion cost 2 per dropped keyword. K = 1, so the list holds two.
    //   0.0 {ant}       -> {ant} (4) admitted
    //   0.1 {bee}       -> {bee} (4) admitted, list full
    //   0.2 {ant, bee}  -> {ant, bee} (2) admitted, {bee} evicted
    //   0.3 {ant, cow}  -> {ant, cow} (2) admitted, {ant} evicted
    //   0.4 {bee}, 0.5 {ant}: everything they offer is pruned
    let xml = bib("", &["ant", "bee", "ant bee", "ant cow", "bee", "ant"]);
    let doc = Arc::new(parse_document(&xml).unwrap());
    let index = Index::build(Arc::clone(&doc));
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    let query = Query::from_keywords(["ant", "bee", "cow"]);
    let session = RefineSession::new(engine.index(), query, RuleSet::new()).unwrap();

    let before = slca_invocations();
    let out = partition_refine(&session, &PartitionOptions::default());
    let calls = slca_invocations() - before;

    // Four admission trials and one materialisation — K = 1 returns one
    // of the two survivors, and results exist only for what is returned —
    // and none for {ant} and {bee}: neither where they were members
    // (0.2, 0.3) nor after they were evicted (0.4, 0.5).
    assert_eq!(calls, 4 + 1);
    assert!(!out.original_ok);
    let best = out.best().unwrap();
    assert_eq!(best.candidate.dissimilarity, 2.0);
    assert_eq!(
        best.slcas,
        reference_slcas(&index, &session, &best.candidate.keywords)
    );
    assert_eq!(best.slcas.len(), 1);
}

#[test]
fn a_keyword_on_the_document_root_adds_no_result() {
    let _serial = serial();
    // "ant" also matches in the root's own text: that posting belongs to
    // no partition, is consumed on its own, and the root is no result.
    let xml = bib("ant", &["ant bee", "bee", "ant", "bee ant"]);
    let doc = Arc::new(parse_document(&xml).unwrap());
    let index = Index::build(Arc::clone(&doc));
    assert_eq!(
        index.list("ant").unwrap().as_slice()[0].dewey,
        Dewey::root()
    );
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    let query = Query::from_keywords(["ant", "bee"]);
    for k in [1, 3] {
        let wrong = mismatches(&engine, &index, &query, &RuleSet::new(), k);
        assert!(wrong.is_empty(), "{wrong:?}");
    }
    let session = RefineSession::new(engine.index(), query, RuleSet::new()).unwrap();
    let out = partition_refine(&session, &PartitionOptions::default());
    assert!(out.original_ok);
    let slcas: Vec<String> = out
        .best()
        .unwrap()
        .slcas
        .iter()
        .map(|d| d.to_string())
        .collect();
    assert_eq!(slcas, ["0.0.0", "0.3.0"]);
}
