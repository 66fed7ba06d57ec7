//! End-to-end integration: generated corpora → XML text → parser → index
//! → persistence → refinement → ground-truth recovery.

use std::sync::Arc;
use xrefine_repro::datagen::{
    generate_baseball, generate_dblp, generate_workload, BaseballConfig, DblpConfig, PerturbKind,
    WorkloadConfig,
};
use xrefine_repro::evalkit::grade;
use xrefine_repro::invindex::{persist, Index, KvBackedIndex};
use xrefine_repro::kvstore::MemKv;
use xrefine_repro::prelude::*;

#[test]
fn full_pipeline_through_xml_text() {
    // Generate, render to text, re-parse (exercising the parser at
    // scale), index, and answer.
    let doc = generate_dblp(&DblpConfig {
        authors: 40,
        ..Default::default()
    });
    let xml = doc.to_xml();
    let engine = XRefineEngine::from_xml(&xml, EngineConfig::default()).unwrap();
    assert_eq!(engine.index().node_count(), doc.len());
    let out = engine.answer("xml data").unwrap();
    assert!(!out.refinements.is_empty() || out.original_ok);
}

#[test]
fn refinement_recovers_ground_truth_on_most_queries() {
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors: 80,
        ..Default::default()
    }));
    let workload = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 6,
            ..Default::default()
        },
    );
    let engine = XRefineEngine::from_document(
        doc,
        EngineConfig {
            algorithm: Algorithm::Partition,
            k: 4,
            ..Default::default()
        },
    );

    let mut graded = 0usize;
    let mut recovered = 0usize;
    for wq in workload
        .iter()
        .filter(|q| q.kind != PerturbKind::None && q.kind != PerturbKind::ExtraTerm)
    {
        let out = engine
            .answer_query(Query::from_keywords(wq.keywords.iter().cloned()))
            .expect("query answered");
        graded += 1;
        // ground truth recovered if some Top-4 RQ grades >= 2 (fairly or
        // highly relevant per the oracle)
        if out
            .refinements
            .iter()
            .any(|r| grade(wq, &r.candidate.keywords) >= 2.0)
        {
            recovered += 1;
        }
    }
    assert!(graded >= 20, "workload too small: {graded}");
    let rate = recovered as f64 / graded as f64;
    assert!(
        rate >= 0.7,
        "only {recovered}/{graded} perturbed queries recovered their intent"
    );
}

#[test]
fn baseball_corpus_end_to_end() {
    let doc = Arc::new(generate_baseball(&BaseballConfig::default()));
    let engine = XRefineEngine::from_document(
        Arc::clone(&doc),
        EngineConfig {
            algorithm: Algorithm::ShortListEager,
            k: 2,
            ..Default::default()
        },
    );
    // straightforward query
    let out = engine.answer("pitcher wins").unwrap();
    assert!(out.original_ok, "pitchers have wins");
    // typo repaired
    let out = engine.answer("picther games").unwrap();
    assert!(!out.original_ok);
    let best = out.best().expect("refined");
    assert!(best.candidate.keywords.contains(&"pitcher".to_string()));
    assert!(!best.slcas.is_empty());
}

#[test]
fn persisted_index_supports_the_same_queries() {
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors: 25,
        ..Default::default()
    }));
    let built = Index::build(Arc::clone(&doc));
    let mut store = MemKv::new();
    persist::persist(&built, &mut store).unwrap();
    let opened = KvBackedIndex::open(Box::new(store)).unwrap();

    // identical lists and stats imply identical SLCA/refinement behaviour
    assert_eq!(opened.read_document().unwrap().to_xml(), doc.to_xml());
    for (k, text) in built.vocabulary().iter() {
        assert_eq!(
            (opened.list_handle(text).unwrap().run_postings().flatten())
                .cloned()
                .collect::<Vec<_>>(),
            built.list(text).unwrap().as_slice(),
            "{text}"
        );
        for t in doc.node_types().iter() {
            assert_eq!(opened.stats().tf(t, k), built.stats().tf(t, k));
            assert_eq!(opened.stats().df(t, k), built.stats().df(t, k));
        }
    }
}

#[test]
fn deep_pathological_documents_do_not_break_anything() {
    // A degenerate chain document (depth 200).
    let mut xml = String::new();
    for i in 0..200 {
        xml.push_str(&format!("<n{i}>"));
    }
    xml.push_str("needle haystack");
    for i in (0..200).rev() {
        xml.push_str(&format!("</n{i}>"));
    }
    let engine = XRefineEngine::from_xml(&xml, EngineConfig::default()).unwrap();
    let out = engine.answer("needle haystack").unwrap();
    // the two keywords sit on the single deepest node; whether that is
    // "meaningful" depends on search-for inference, but nothing panics
    // and any produced result must be the deep node, not the root
    if let Some(best) = out.best() {
        for d in &best.slcas {
            assert!(d.len() > 1);
        }
    }
}
