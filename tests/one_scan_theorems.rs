//! Theorems 1 and 2 (§VI): the stack-refine and partition algorithms
//! complete within ONE scan of the involved keyword inverted lists. The
//! instrumented cursors count every sequential advance; the budget is the
//! total length of the `KS` lists.

use std::sync::Arc;
use xrefine_repro::datagen::{
    generate_dblp, generate_workload, DblpConfig, PerturbKind, WorkloadConfig,
};
use xrefine_repro::prelude::*;
use xrefine_repro::xrefine::{
    partition_refine, sle_refine, stack_refine, PartitionOptions, RefineSession, SleOptions,
};

fn setup() -> (Arc<xrefine_repro::xmldom::Document>, Vec<Vec<String>>) {
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors: 60,
        ..Default::default()
    }));
    let queries: Vec<Vec<String>> = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 3,
            ..Default::default()
        },
    )
    .into_iter()
    .map(|q| q.keywords)
    .collect();
    (doc, queries)
}

fn session<'a>(engine: &'a XRefineEngine, keywords: &[String]) -> RefineSession<'a> {
    let q = Query::from_keywords(keywords.iter().cloned());
    let rules = engine.rules_for(&q);
    RefineSession::new(engine.index(), q, rules).expect("a healthy store answers")
}

#[test]
fn theorem1_stack_refine_is_one_scan() {
    let (doc, queries) = setup();
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    for keywords in &queries {
        let s = session(&engine, keywords);
        let budget = s.total_list_len() as u64;
        let out = stack_refine(&s);
        assert!(
            out.advances <= budget,
            "{keywords:?}: {} advances > budget {budget}",
            out.advances
        );
        assert_eq!(out.random_accesses, 0, "{keywords:?}");
    }
}

#[test]
fn theorem2_partition_is_one_scan() {
    let (doc, queries) = setup();
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    for keywords in &queries {
        let s = session(&engine, keywords);
        let budget = s.total_list_len() as u64;
        let out = partition_refine(
            &s,
            &PartitionOptions {
                k: 3,
                ..Default::default()
            },
        );
        assert!(
            out.advances <= budget,
            "{keywords:?}: {} advances > budget {budget}",
            out.advances
        );
        assert_eq!(out.random_accesses, 0, "{keywords:?}");
    }
}

#[test]
fn sle_probes_instead_of_merging() {
    // SLE's distinguishing access pattern: it walks chosen anchor lists
    // sequentially and reaches the other lists by *random-access probes*
    // (stack-refine and partition perform zero random accesses).
    let (doc, queries) = setup();
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    let mut probed = 0u64;
    for keywords in &queries {
        let s = session(&engine, keywords);
        let out = sle_refine(
            &s,
            &SleOptions {
                k: 3,
                ..Default::default()
            },
        );
        probed += out.random_accesses;
        // step 1 never walks more postings than one scan of the lists;
        // only step 2's SLCA rescans can exceed the budget, and they are
        // bounded by (#candidates) x budget.
        let budget = s.total_list_len() as u64;
        let cap = budget * (2 * 3 + 2) + budget;
        assert!(
            out.advances <= cap,
            "{keywords:?}: {} > {cap}",
            out.advances
        );
    }
    assert!(probed > 0, "SLE never used a random access");
}

#[test]
fn all_three_algorithms_agree_on_optimal_dissimilarity() {
    let (doc, queries) = setup();
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    let mut agreements = 0usize;
    let mut total = 0usize;
    for keywords in queries.iter().take(12) {
        let a = stack_refine(&session(&engine, keywords));
        let b = partition_refine(
            &session(&engine, keywords),
            &PartitionOptions {
                k: 2,
                ..Default::default()
            },
        );
        let c = sle_refine(
            &session(&engine, keywords),
            &SleOptions {
                k: 2,
                ..Default::default()
            },
        );
        let ds = |o: &RefineOutcome| {
            o.refinements
                .iter()
                .map(|r| r.candidate.dissimilarity)
                .fold(f64::INFINITY, f64::min)
        };
        // stack-refine returns the exact optimum (it evaluates every
        // meaningful node); partition/SLE work from approximate Top-2K
        // candidate lists (§VI-B), so they can only be equal or worse —
        // never better.
        let (da, db, dc) = (ds(&a), ds(&b), ds(&c));
        assert!(
            da <= db,
            "partition beat stack on {keywords:?}: {da} vs {db}"
        );
        assert!(da <= dc, "sle beat stack on {keywords:?}: {da} vs {dc}");
        if da == db && db == dc {
            agreements += 1;
        }
        total += 1;
    }
    // The approximation must still find the true optimum on the vast
    // majority of queries.
    assert!(
        agreements * 10 >= total * 8,
        "only {agreements}/{total} queries agreed on the optimal dissimilarity"
    );
}

#[test]
fn needs_refinement_matches_perturbation_ground_truth() {
    // Valid queries should mostly pass untouched; perturbed ones whose
    // broken keyword vanished from the vocabulary must need refinement.
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors: 60,
        ..Default::default()
    }));
    let workload = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 5,
            ..Default::default()
        },
    );
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    for wq in &workload {
        let out = engine
            .answer_query(Query::from_keywords(wq.keywords.iter().cloned()))
            .expect("query answered");
        if matches!(wq.kind, PerturbKind::Typo | PerturbKind::Synonym) {
            assert!(
                !out.original_ok,
                "query {:?} with kind {:?} should need refinement",
                wq.keywords, wq.kind
            );
        }
    }
}
