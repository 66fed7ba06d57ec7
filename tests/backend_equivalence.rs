//! Backend equivalence: every engine answers through `KvBackedIndex`, so
//! the oracle here is the build itself, whose lists never pass through
//! the store format. Every `ListHandle` a query's session acquires must
//! equal the build's list — postings and partition runs — and each
//! algorithm, rerun over the same session holding the build's lists,
//! must give the engine's answer, over a generated workload. Also pins
//! the laziness contract: the first query against a fresh reader decodes
//! no more lists than its key set `KS` (query keywords plus
//! rule-generated keywords) requires.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;
use xrefine_repro::datagen::{generate_dblp, generate_workload, DblpConfig, WorkloadConfig};
use xrefine_repro::invindex::{ListHandle, Posting, PostingList};
use xrefine_repro::prelude::*;
use xrefine_repro::xrefine::{
    partition_refine, sle_refine, stack_refine, PartitionOptions, RefineSession, SleOptions,
};

fn corpus() -> (Arc<Document>, Vec<Vec<String>>) {
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors: 40,
        ..Default::default()
    }));
    let queries: Vec<Vec<String>> = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 2,
            ..Default::default()
        },
    )
    .into_iter()
    .map(|q| q.keywords)
    .collect();
    (doc, queries)
}

/// Multiway-SLCA, a slice algorithm, plugged in as an `SlcaMethod`: the
/// handles' postings copied into vectors.
fn multiway(lists: &[ListHandle]) -> Vec<Dewey> {
    let copied: Vec<Vec<Posting>> = (lists.iter())
        .map(|l| l.run_postings().flatten().cloned().collect())
        .collect();
    xrefine_repro::slca::slca_multiway(&copied)
}

/// The build's list for `keyword` as a handle: never encoded or decoded.
fn built_handle(built: &Index, keyword: &str) -> ListHandle {
    built
        .list(keyword)
        .map(|l| ListHandle::new(Arc::new(l.clone())))
        .unwrap_or_default()
}

/// The partition runs visible through `h`: each run's head and range.
fn runs(h: &ListHandle) -> Vec<(u64, Range<usize>)> {
    let mut cursor = h.partition_runs();
    let mut out = Vec::new();
    while let Some((head, range)) = cursor.current() {
        out.push((head, range));
        cursor.seek(head + 1);
    }
    out
}

/// Asserts that every list `session` acquired is the build's, then puts
/// the build's own lists in their place.
fn swap_in_built_lists(session: &mut RefineSession<'_>, built: &Index, what: &str) {
    for (keyword, handle) in session.ks.iter().zip(session.lists.iter_mut()) {
        let want = built_handle(built, keyword);
        let read: Vec<_> = handle.run_postings().flatten().cloned().collect();
        let built_list = built.list(keyword).map_or(&[][..], PostingList::as_slice);
        assert_eq!(read, built_list, "{what}: {keyword:?}");
        assert_eq!(runs(handle), runs(&want), "{what}: runs of {keyword:?}");
        *handle = want;
    }
}

#[test]
fn all_algorithms_agree_across_backends() {
    let (doc, queries) = corpus();
    assert!(!queries.is_empty());
    let built = Index::build(Arc::clone(&doc));

    for alg in [
        Algorithm::StackRefine,
        Algorithm::Partition,
        Algorithm::ShortListEager,
    ] {
        let config = EngineConfig {
            algorithm: alg,
            k: 3,
            ..Default::default()
        };
        let engine = XRefineEngine::from_document(Arc::clone(&doc), config.clone());
        for keywords in &queries {
            let q = || Query::from_keywords(keywords.iter().cloned());
            let served = engine.answer_query(q()).unwrap();
            let rules = engine.rules_for(&q());
            let mut session =
                RefineSession::with_search_for(engine.index(), q(), rules, &config.search_for)
                    .unwrap();
            swap_in_built_lists(&mut session, &built, &format!("{alg:?} {keywords:?}"));
            let oracle = match alg {
                Algorithm::StackRefine => stack_refine(&session),
                Algorithm::Partition => partition_refine(
                    &session,
                    &PartitionOptions {
                        k: 3,
                        ..Default::default()
                    },
                ),
                Algorithm::ShortListEager => sle_refine(
                    &session,
                    &SleOptions {
                        k: 3,
                        ..Default::default()
                    },
                ),
            };
            assert_eq!(
                format!("{served:?}"),
                format!("{oracle:?}"),
                "{alg:?} {keywords:?}"
            );
        }
    }
}

#[test]
fn baseline_slca_agrees_across_backends() {
    let (doc, queries) = corpus();
    let built = Index::build(Arc::clone(&doc));
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    for keywords in &queries {
        let q = Query::from_keywords(keywords.iter().cloned());
        let lists: Vec<ListHandle> = keywords.iter().map(|k| built_handle(&built, k)).collect();
        for method in [
            xrefine_repro::slca::slca_stack as xrefine_repro::xrefine::SlcaMethod,
            xrefine_repro::slca::slca_scan_eager,
            multiway,
        ] {
            assert_eq!(
                engine.baseline_slca(&q, method).unwrap(),
                method(&lists),
                "{keywords:?}"
            );
        }
    }
}

#[test]
fn first_query_decodes_only_the_key_set() {
    // Acceptance criterion for the lazy reader: answering one query from
    // a cold reader decodes at most one list per KS keyword that exists
    // in the vocabulary — never the whole index.
    let (doc, queries) = corpus();
    let total_vocab = Index::build(Arc::clone(&doc)).vocabulary().len();
    for keywords in queries.iter().take(4) {
        let engine = XRefineEngine::from_document(Arc::clone(&doc), EngineConfig::default());
        let decoded = || engine.index().cache_stats().unwrap().lists_decoded;
        assert_eq!(decoded(), 0, "building the reader must not decode");

        let query = Query::from_keywords(keywords.iter().cloned());
        let rules = engine.rules_for(&query);
        let ks: HashSet<String> = query
            .keywords()
            .iter()
            .cloned()
            .chain(rules.rhs_keywords())
            .collect();
        let ks_in_vocab = ks
            .iter()
            .filter(|w| engine.index().contains_keyword(w))
            .count();

        engine.answer_query(query).unwrap();
        assert!(
            decoded() as usize <= ks_in_vocab,
            "{keywords:?}: decoded {} lists for a key set of {}",
            decoded(),
            ks_in_vocab
        );
        assert!(
            (decoded() as usize) < total_vocab,
            "{keywords:?}: the lazy reader rehydrated the whole index"
        );
    }
}
