//! Narrowing refinement — the paper's stated future work (§IX): "how to
//! refine a query which has *too many* matching results over XML data".
//!
//! This is the mirror image of the main system: the query is fine but
//! under-constrained, so instead of deleting/substituting keywords we
//! *add* one. Candidate keywords are harvested from the query's own
//! meaningful result subtrees (so every suggestion is guaranteed to have
//! matching results), scored by the same keyword-dependence machinery the
//! ranking model uses (Formula 7's association confidence), and filtered
//! to suggestions that actually shrink the result set below the caller's
//! threshold.

use crate::partition::meaningful_slcas;
use crate::query::{Query, RqCandidate};
use crate::results::Refinement;
use invindex::{KvBackedIndex, ListHandle};
use slca::{slca_scan_eager, MeaningfulFilter, SearchForConfig};
use std::collections::HashMap;
use xmldom::{tokenize, Document};

/// Options for narrowing refinement.
#[derive(Debug, Clone)]
pub struct NarrowOptions {
    /// How many suggestions to return.
    pub k: usize,
    /// A query "has too many results" above this count.
    pub max_results: usize,
    /// Cap on how many result subtrees are mined for candidate keywords.
    pub sample_subtrees: usize,
    pub search_for: SearchForConfig,
}

impl Default for NarrowOptions {
    fn default() -> Self {
        NarrowOptions {
            k: 3,
            max_results: 10,
            sample_subtrees: 64,
            search_for: SearchForConfig::default(),
        }
    }
}

/// One narrowing suggestion: the query plus one keyword.
#[derive(Debug, Clone)]
pub struct Narrowing {
    /// The keyword added to the original query.
    pub added: String,
    /// The narrowed query with its results.
    pub refinement: Refinement,
    /// Result count of the *original* query (context for the caller).
    pub original_results: usize,
}

/// Attempts to narrow `query`. Returns `Ok(None)` when the query does
/// not have "too many" meaningful results (nothing to do),
/// `Ok(Some(vec![]))` when it does but no single added keyword brings it
/// under the threshold. Storage errors from the reader surface as
/// `Err`.
pub fn narrow_refine(
    index: &KvBackedIndex,
    query: &Query,
    options: &NarrowOptions,
) -> kvstore::Result<Option<Vec<Narrowing>>> {
    let ids: Vec<invindex::KeywordId> = query
        .keywords()
        .iter()
        .filter_map(|k| index.vocabulary().get(k))
        .collect();
    if ids.len() != query.keywords().len() || ids.is_empty() {
        return Ok(None); // broken queries are the main system's job
    }
    let filter =
        MeaningfulFilter::infer(index.node_types(), index.stats(), &ids, &options.search_for);

    let lists: Vec<ListHandle> = query
        .keywords()
        .iter()
        .map(|k| index.list_handle(k))
        .collect::<kvstore::Result<_>>()?;
    let slcas = meaningful_slcas(&filter, slca_scan_eager, &lists);
    if slcas.len() <= options.max_results {
        return Ok(None);
    }

    // Mine candidate keywords from a sample of the result subtrees. Each
    // SLCA is lifted to its enclosing *search-for entity* (the highest
    // ancestor-or-self of a candidate search-for type): users constrain
    // entities, not minimal text nodes. An SLCA is looked up in its
    // record's chunk alone; an entity that is the root reads the whole
    // document, once.
    let mut containing: HashMap<String, usize> = HashMap::new();
    let sampled = slcas.len().min(options.sample_subtrees);
    let mut whole: Option<Document> = None;
    for dewey in slcas.iter().take(sampled) {
        let Some(part) = index.document_at(dewey)? else {
            continue;
        };
        let Some(mut node) = part.node_by_dewey(dewey) else {
            continue;
        };
        let mut cur = node;
        loop {
            if filter.candidates().contains(&part.node(cur).node_type) {
                node = cur;
            }
            match part.node(cur).parent {
                Some(p) => cur = p,
                None => break,
            }
        }
        let at_root = node == part.root();
        if at_root && whole.is_none() {
            whole = Some(index.read_document()?);
        }
        let doc = match &whole {
            Some(whole) if at_root => whole,
            _ => &part,
        };
        let mut seen: std::collections::HashSet<String> = Default::default();
        for id in doc.descendants_or_self(node) {
            for t in tokenize(doc.tag_name(id)) {
                seen.insert(t);
            }
            for t in tokenize(&doc.node(id).text) {
                seen.insert(t);
            }
        }
        for t in seen {
            *containing.entry(t).or_insert(0) += 1;
        }
    }

    // Score candidates: dependence with the query keywords (Formula 7
    // reused) weighted toward keywords that split the result set well.
    let top_type = filter.candidates().first().copied();
    let mut scored: Vec<(String, f64)> = containing
        .into_iter()
        .filter(|(t, n)| {
            // appears in several but not all sampled subtrees: singletons
            // (page numbers, ids) over-narrow, universals don't narrow
            *n >= 2 && *n < sampled && !query.keywords().contains(t)
        })
        .map(|(t, n)| {
            let dep = match (top_type, index.vocabulary().get(&t)) {
                (Some(ty), Some(kid)) => {
                    let mut total = 0.0;
                    for &qi in &ids {
                        let denom = index.stats().df(ty, qi);
                        if denom > 0 {
                            total += index.co_occur(ty, qi, kid) as f64 / denom as f64;
                        }
                    }
                    total / ids.len() as f64
                }
                _ => 0.0,
            };
            let fraction = n as f64 / sampled as f64;
            // favour balanced splits: a keyword in ~half the results cuts
            // the set decisively without starving it
            let balance = fraction * (1.0 - fraction) * 4.0;
            (t, dep * 0.5 + balance)
        })
        .collect();
    // Best score first; ties by keyword, so the order does not depend on
    // the map's iteration order.
    scored.sort_by(|a, b| {
        (b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal)).then_with(|| a.0.cmp(&b.0))
    });

    let mut out = Vec::new();
    for (keyword, score) in scored {
        if out.len() >= options.k {
            break;
        }
        let extra = index.list_handle(&keyword)?;
        if extra.is_empty() {
            continue;
        }
        let mut narrowed_lists = lists.clone();
        narrowed_lists.push(extra);
        let narrowed = meaningful_slcas(&filter, slca_scan_eager, &narrowed_lists);
        if narrowed.is_empty() || narrowed.len() > options.max_results {
            continue;
        }
        let mut keywords: Vec<String> = query.keywords().to_vec();
        keywords.push(keyword.clone());
        out.push(Narrowing {
            added: keyword,
            refinement: Refinement {
                candidate: RqCandidate::new(keywords, 1.0),
                rank_score: score,
                slcas: narrowed.into(),
            },
            original_results: slcas.len(),
        });
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use invindex::{Index, KvBackedIndex};
    use std::sync::Arc;

    fn wide_index() -> KvBackedIndex {
        // 30 reports, all containing "report" and "status"; half also
        // mention "urgent", a few mention "network".
        let mut b = xmldom::DocumentBuilder::new();
        b.open_element("log");
        for i in 0..30 {
            b.open_element("report");
            b.leaf("title", &format!("status report {i}"));
            if i % 2 == 0 {
                b.leaf("severity", "urgent issue");
            }
            if i % 10 == 0 {
                b.leaf("area", "network outage");
            }
            b.close_element();
        }
        b.close_element();
        KvBackedIndex::from_built(Index::build(Arc::new(b.finish())))
    }

    #[test]
    fn over_broad_query_gets_narrowed() {
        let idx = wide_index();
        let q = Query::from_keywords(["status", "report"]);
        let suggestions = narrow_refine(
            &idx,
            &q,
            &NarrowOptions {
                k: 3,
                max_results: 5,
                ..Default::default()
            },
        )
        .unwrap()
        .expect("query is over-broad");
        assert!(!suggestions.is_empty());
        for s in &suggestions {
            assert!(s.refinement.slcas.len() <= 5);
            assert!(s.original_results > 5);
            assert!(!q.keywords().contains(&s.added));
            // the narrowed query's keyword set extends the original
            for k in q.keywords() {
                assert!(s.refinement.candidate.keywords.contains(k));
            }
        }
        // "network" (3 of 30) is the natural narrowing under max 5
        assert!(suggestions.iter().any(|s| s.added == "network"));
    }

    #[test]
    fn tied_keywords_come_out_in_keyword_order_every_run() {
        // 12 reports; the first three also hold one note whose four words
        // share every node, so they score exactly alike.
        let mut b = xmldom::DocumentBuilder::new();
        b.open_element("log");
        for i in 0..12 {
            b.open_element("report");
            b.leaf("title", &format!("status report {i}"));
            if i < 3 {
                b.leaf("note", "delta gamma beta alpha");
            }
            b.close_element();
        }
        b.close_element();
        let idx = KvBackedIndex::from_built(Index::build(Arc::new(b.finish())));
        let q = Query::from_keywords(["status", "report"]);
        let options = NarrowOptions {
            k: 3,
            max_results: 5,
            ..Default::default()
        };
        let run = || -> Vec<(String, f64)> {
            let suggestions = narrow_refine(&idx, &q, &options).unwrap();
            (suggestions.expect("query is over-broad").into_iter())
                .map(|s| (s.added, s.refinement.rank_score))
                .collect()
        };
        let first = run();
        assert_eq!(first.len(), 3, "{first:?}");
        let added: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(added, ["alpha", "beta", "delta"], "{first:?}");
        assert!(first.iter().all(|(_, score)| *score == first[0].1));
        // Each run's map has its own hash keys, so its own iteration order.
        for _ in 0..8 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn focused_query_needs_no_narrowing() {
        let idx = wide_index();
        let q = Query::from_keywords(["network", "outage"]);
        assert!(narrow_refine(&idx, &q, &NarrowOptions::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn broken_queries_are_left_to_the_main_system() {
        let idx = wide_index();
        let q = Query::from_keywords(["statuss", "report"]);
        assert!(narrow_refine(&idx, &q, &NarrowOptions::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn threshold_controls_activation() {
        let idx = wide_index();
        let q = Query::from_keywords(["status", "report"]);
        // generous threshold: nothing to do
        assert!(narrow_refine(
            &idx,
            &q,
            &NarrowOptions {
                max_results: 100,
                ..Default::default()
            }
        )
        .unwrap()
        .is_none());
    }
}
