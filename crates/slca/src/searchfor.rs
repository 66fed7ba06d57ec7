//! *Search-for node* inference (§III-A, Formula 1).
//!
//! `C_for(T, Q) = ln(1 + Σ_{k∈Q} f^T_k) · r^depth(T)` scores how likely the
//! node type `T` is the entity the user searches for: it should relate to
//! as many query keywords as possible (the sum of XML DFs) while staying
//! high enough in the tree to carry whole entities (the depth reduction
//! factor `r ∈ (0,1)`).
//!
//! The inferred candidate list `L` keeps every type whose confidence is
//! *comparable* to the best one (within `comparable_ratio`), capped at
//! `max_candidates`. The document-root type is excluded: the paper calls
//! the root "a typical meaningless SLCA", and admitting it would make
//! every root-only result meaningful.

use invindex::{KeywordId, TypeStats};
use xmldom::{Document, NodeTypeId};

/// Tunables of Formula 1 and the candidate-list cut.
#[derive(Debug, Clone)]
pub struct SearchForConfig {
    /// `r` in Formula 1.
    pub reduction_factor: f64,
    /// A type stays in `L` when its confidence `>= comparable_ratio * max`.
    pub comparable_ratio: f64,
    /// Hard cap on `|L|`.
    pub max_candidates: usize,
}

impl Default for SearchForConfig {
    fn default() -> Self {
        SearchForConfig {
            reduction_factor: 0.8,
            comparable_ratio: 0.8,
            max_candidates: 3,
        }
    }
}

/// `C_for` from raw inputs (exposed for ranking-model ablations).
pub fn confidence_with(df_sum: u64, depth: f64, reduction_factor: f64) -> f64 {
    (1.0 + df_sum as f64).ln() * reduction_factor.powf(depth)
}

/// Infers the ranked candidate list `L` of search-for node types for a
/// keyword set. Keywords absent from the document simply contribute zero
/// (the paper sums `f^T_k` precisely so missing keywords are tolerated).
/// Only the document's type table and the `f^T_k` statistics are read.
pub fn infer_search_for(
    doc: &Document,
    stats: &TypeStats,
    query: &[KeywordId],
    config: &SearchForConfig,
) -> Vec<(NodeTypeId, f64)> {
    let root_type = doc.node(doc.root()).node_type;
    let mut scored: Vec<(NodeTypeId, f64)> = doc
        .node_types()
        .iter()
        .filter(|&t| t != root_type)
        .filter_map(|t| {
            let sum: u64 = query.iter().map(|&k| stats.df(t, k)).sum();
            if sum == 0 {
                return None;
            }
            let depth = doc.node_types().depth(t) as f64;
            Some((t, confidence_with(sum, depth, config.reduction_factor)))
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let Some(&(_, max)) = scored.first() else {
        return Vec::new();
    };
    scored
        .into_iter()
        .take_while(|&(_, c)| c >= config.comparable_ratio * max)
        .take(config.max_candidates)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use invindex::Index;
    use std::sync::Arc;
    use xmldom::fixtures::figure1;

    fn index() -> Index {
        Index::build(Arc::new(figure1()))
    }

    fn kw(idx: &Index, s: &str) -> KeywordId {
        idx.vocabulary().get(s).unwrap()
    }

    fn display(idx: &Index, t: NodeTypeId) -> String {
        let doc = idx.document();
        doc.node_types().display(t, doc.symbols())
    }

    #[test]
    fn confidence_formula_shape() {
        // ln grows with df sum, depth decays.
        assert!(confidence_with(10, 1.0, 0.8) > confidence_with(5, 1.0, 0.8));
        assert!(confidence_with(10, 1.0, 0.8) > confidence_with(10, 3.0, 0.8));
        assert_eq!(confidence_with(0, 0.0, 0.8), 0.0f64.max((1.0f64).ln()));
    }

    #[test]
    fn root_type_is_never_a_candidate() {
        let idx = index();
        let q = vec![kw(&idx, "xml"), kw(&idx, "john"), kw(&idx, "2003")];
        let l = infer_search_for(idx.document(), idx.stats(), &q, &SearchForConfig::default());
        assert!(!l.is_empty());
        for (t, _) in &l {
            assert_ne!(display(&idx, *t), "bib");
        }
    }

    #[test]
    fn author_leads_for_author_centric_query() {
        // {fishing, name}: hobby and name live directly under author.
        let idx = index();
        let q = vec![kw(&idx, "fishing"), kw(&idx, "john")];
        let l = infer_search_for(idx.document(), idx.stats(), &q, &SearchForConfig::default());
        assert_eq!(display(&idx, l[0].0), "bib/author");
    }

    #[test]
    fn unknown_keywords_contribute_zero_but_do_not_break_inference() {
        let idx = index();
        let q = vec![kw(&idx, "xml")];
        let l1 = infer_search_for(idx.document(), idx.stats(), &q, &SearchForConfig::default());
        assert!(!l1.is_empty());
        // same query plus a keyword that is absent from the document
        // (KeywordId beyond vocabulary) must give identical scores
        let ghost = KeywordId(u32::MAX);
        let q2 = vec![kw(&idx, "xml"), ghost];
        let l2 = infer_search_for(
            idx.document(),
            idx.stats(),
            &q2,
            &SearchForConfig::default(),
        );
        assert_eq!(l1.len(), l2.len());
        for (a, b) in l1.iter().zip(l2.iter()) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-12);
        }
    }

    #[test]
    fn candidate_list_respects_cap_and_ratio() {
        let idx = index();
        let q = vec![kw(&idx, "title")];
        let tight = SearchForConfig {
            comparable_ratio: 1.0,
            max_candidates: 1,
            ..Default::default()
        };
        let l = infer_search_for(idx.document(), idx.stats(), &q, &tight);
        assert_eq!(l.len(), 1);
        let loose = SearchForConfig {
            comparable_ratio: 0.0,
            max_candidates: 100,
            ..Default::default()
        };
        let l2 = infer_search_for(idx.document(), idx.stats(), &q, &loose);
        assert!(l2.len() > 1);
        // sorted descending
        assert!(l2.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
