//! Theorem 2 stress test: the partition algorithm's Top-K refined
//! queries are validated against an exhaustive reference refiner that
//! (a) enumerates every refined-query candidate by unpruned rule
//! application, (b) keeps those with at least one meaningful SLCA over
//! the document, and (c) sorts by dissimilarity.

use std::collections::HashSet;
use std::sync::Arc;
use xrefine_repro::datagen::{generate_dblp, DblpConfig};
use xrefine_repro::invindex::{Index, ListHandle};
use xrefine_repro::prelude::*;
use xrefine_repro::slca::{slca_scan_eager, MeaningfulFilter, SearchForConfig};
use xrefine_repro::xrefine::{brute_force_rqs, partition_refine, PartitionOptions, RefineSession};

/// The reference refiner: exhaustive candidates filtered by meaningful
/// SLCA existence, sorted by (dissimilarity, keywords).
fn reference_topk(
    index: &Index,
    query: &Query,
    rules: &xrefine_repro::lexicon::RuleSet,
    k: usize,
) -> Vec<(Vec<String>, f64)> {
    // availability = the whole document vocabulary
    let avail = |w: &str| index.list(w).is_some();
    let all = brute_force_rqs(query, &avail, rules);

    let ids: Vec<_> = query
        .keywords()
        .iter()
        .filter_map(|w| index.vocabulary().get(w))
        .collect();
    let ids = if ids.is_empty() {
        rules
            .rhs_keywords()
            .iter()
            .filter_map(|w| index.vocabulary().get(w))
            .collect()
    } else {
        ids
    };
    let filter = MeaningfulFilter::infer(
        index.document().node_types(),
        index.stats(),
        &ids,
        &SearchForConfig::default(),
    );

    let mut kept: Vec<(Vec<String>, f64)> = Vec::new();
    for cand in all {
        let lists: Vec<ListHandle> = (cand.keywords.iter())
            .map(|w| {
                let list = index.list(w).map(|l| l.as_slice().to_vec());
                ListHandle::from_postings(list.unwrap_or_default())
            })
            .collect();
        let slcas = filter.filter(index.document(), slca_scan_eager(&lists));
        if !slcas.is_empty() {
            kept.push((cand.keywords.clone(), cand.dissimilarity));
        }
    }
    kept.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    kept.truncate(k);
    kept
}

#[test]
fn partition_topk_matches_exhaustive_reference() {
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors: 25,
        ..Default::default()
    }));
    let index = Index::build(Arc::clone(&doc));
    let engine = XRefineEngine::from_document(Arc::clone(&doc), EngineConfig::default());

    // Small queries keep the brute-force enumeration tractable.
    let queries = [
        vec!["databse", "xml"],
        vec!["keyword", "serach"],
        vec!["data", "ghostword"],
        vec!["twig", "pattern", "join"],
        vec!["stream", "processing"],
    ];

    let mut exact_matches = 0usize;
    for q in &queries {
        let query = Query::from_keywords(q.iter().map(|s| s.to_string()));
        let rules = engine.rules_for(&query);
        let k = 2;

        let reference = reference_topk(&index, &query, &rules, k);
        let session = RefineSession::new(engine.index(), query, rules).unwrap();
        let out = partition_refine(
            &session,
            &PartitionOptions {
                k,
                ..Default::default()
            },
        );

        // The best dissimilarity must match the reference exactly.
        match (out.refinements.first(), reference.first()) {
            (Some(got), Some(want)) => {
                let got_best = out
                    .refinements
                    .iter()
                    .map(|r| r.candidate.dissimilarity)
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(got_best, want.1, "query {q:?}");
                let _ = got;
            }
            (None, None) => {}
            other => panic!("existence mismatch on {q:?}: {other:?}"),
        }

        // All of partition's candidates must be real reference candidates
        // (correct cost, meaningful results exist).
        let ref_all = reference_topk(
            &index,
            &Query::from_keywords(q.iter().map(|s| s.to_string())),
            &engine.rules_for(&Query::from_keywords(q.iter().map(|s| s.to_string()))),
            1000,
        );
        let ref_set: HashSet<(Vec<String>, u64)> = ref_all
            .iter()
            .map(|(kws, ds)| (kws.clone(), ds.to_bits()))
            .collect();
        for r in &out.refinements {
            assert!(
                ref_set.contains(&(
                    r.candidate.keywords.clone(),
                    r.candidate.dissimilarity.to_bits()
                )),
                "partition produced {:?} (ds {}) unknown to the reference on {q:?}",
                r.candidate.keywords,
                r.candidate.dissimilarity
            );
        }

        // The engine re-ranks the Top-2K dissimilarity pool with the full
        // ranking model (Algorithm 2 line 19), so the returned K are a
        // rank-ordered subset of the reference's Top-2K by dissimilarity.
        let ref_pool = reference_topk(
            &index,
            &Query::from_keywords(q.iter().map(|s| s.to_string())),
            &engine.rules_for(&Query::from_keywords(q.iter().map(|s| s.to_string()))),
            2 * k,
        );
        if let Some(worst_pool_ds) = ref_pool.last().map(|(_, d)| *d) {
            if out.original_ok {
                // the original query is fine: exactly one entry, ds 0
                assert_eq!(out.refinements.len(), 1, "{q:?}");
                assert_eq!(out.refinements[0].candidate.dissimilarity, 0.0);
                assert_eq!(reference.first().map(|(_, d)| *d), Some(0.0), "{q:?}");
            } else {
                for r in &out.refinements {
                    assert!(
                        r.candidate.dissimilarity <= worst_pool_ds,
                        "{q:?}: returned ds {} outside the reference Top-2K pool \
                         (worst {worst_pool_ds})",
                        r.candidate.dissimilarity
                    );
                }
                // the count matches what exists
                assert_eq!(
                    out.refinements.len(),
                    k.min(ref_pool.len()),
                    "{q:?}: expected min(K, |pool|) refinements"
                );
                exact_matches += 1;
            }
        }
    }
    assert!(exact_matches >= 3, "too few non-trivial queries validated");
}
