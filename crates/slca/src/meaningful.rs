//! Meaningful SLCA (Definitions 3.3 and 3.4).
//!
//! An SLCA result is *meaningful* when it is a self-or-descendant of some
//! inferred search-for node type; a query *needs refinement* when it has
//! no meaningful SLCA at all.
//!
//! The verdict depends on a result's node type alone, and a document has
//! few node types: the filter decides every type once, when it is built,
//! so judging a result is one node lookup and one indexed load.

use crate::searchfor::{infer_search_for, SearchForConfig};
use invindex::{IndexReader, KeywordId};
use xmldom::{Dewey, Document, NodeTypeId};

/// A meaningfulness filter bound to one query's search-for candidates.
pub struct MeaningfulFilter<'a> {
    doc: &'a Document,
    candidates: Vec<NodeTypeId>,
    /// Definition 3.3 per node type, indexed by `NodeTypeId`: is the type
    /// a candidate or a descendant type of one?
    verdict: Vec<bool>,
}

impl<'a> MeaningfulFilter<'a> {
    /// Builds the filter by inferring search-for candidates for `query`.
    /// Works against any [`IndexReader`] backend — only the document and
    /// the statistics tables are touched, never the posting lists.
    pub fn infer(
        index: &'a dyn IndexReader,
        query: &[KeywordId],
        config: &SearchForConfig,
    ) -> Self {
        let candidates = infer_search_for(index, query, config)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        Self::with_candidates(index.document().as_ref(), candidates)
    }

    /// The filter admitting exactly `candidates` and their descendant
    /// types.
    fn with_candidates(doc: &'a Document, candidates: Vec<NodeTypeId>) -> Self {
        let types = doc.node_types();
        let verdict = types
            .iter()
            .map(|t| {
                candidates
                    .iter()
                    .any(|&c| t == c || types.is_descendant_type(t, c))
            })
            .collect();
        MeaningfulFilter {
            doc,
            candidates,
            verdict,
        }
    }

    /// The search-for candidate types this filter admits.
    pub fn candidates(&self) -> &[NodeTypeId] {
        &self.candidates
    }

    /// Definition 3.3: `dewey` is meaningful iff the node it denotes is of
    /// a candidate type or a descendant type thereof. Labels not denoting
    /// any element (possible only with foreign labels) are not meaningful.
    pub fn is_meaningful(&self, dewey: &Dewey) -> bool {
        let Some(id) = self.doc.node_by_dewey(dewey) else {
            return false;
        };
        let NodeTypeId(t) = self.doc.node(id).node_type;
        self.verdict.get(t as usize).copied().unwrap_or(false)
    }

    /// Keeps only the meaningful results.
    pub fn filter(&self, slcas: Vec<Dewey>) -> Vec<Dewey> {
        slcas
            .into_iter()
            .filter(|d| self.is_meaningful(d))
            .collect()
    }
}

/// Definition 3.4: does the query (given its SLCA set) need refinement?
pub fn needs_refinement(filter: &MeaningfulFilter<'_>, slcas: &[Dewey]) -> bool {
    !slcas.iter().any(|d| filter.is_meaningful(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eager::slca_scan_eager;
    use invindex::Index;
    use std::sync::Arc;
    use xmldom::fixtures::figure1;

    fn index() -> Index {
        Index::build(Arc::new(figure1()))
    }

    fn kws(idx: &Index, words: &[&str]) -> Vec<KeywordId> {
        words
            .iter()
            .filter_map(|w| idx.vocabulary().get(w))
            .collect()
    }

    fn slcas_of(idx: &Index, words: &[&str]) -> Vec<Dewey> {
        let lists: Vec<&[invindex::Posting]> = words
            .iter()
            .map(|w| idx.list(w).map(|l| l.as_slice()).unwrap_or(&[]))
            .collect();
        slca_scan_eager(&lists)
    }

    #[test]
    fn hobby_result_is_meaningful_under_author() {
        // Table I Q0/RQ0: SLCA of {john, fishing} is hobby's parent chain;
        // hobby:0.1.2 is a descendant of the author search-for node.
        let idx = index();
        let q = kws(&idx, &["john", "fishing"]);
        let filter = MeaningfulFilter::infer(&idx, &q, &SearchForConfig::default());
        let slcas = slcas_of(&idx, &["john", "fishing"]);
        assert!(!slcas.is_empty());
        let kept = filter.filter(slcas);
        assert!(!kept.is_empty());
        assert!(!needs_refinement(&filter, &kept));
    }

    #[test]
    fn root_only_result_triggers_refinement() {
        // Motivating Q4: {xml, john, 2003} is covered only by the root.
        let idx = index();
        let q = kws(&idx, &["xml", "john", "2003"]);
        let filter = MeaningfulFilter::infer(&idx, &q, &SearchForConfig::default());
        let slcas = slcas_of(&idx, &["xml", "john", "2003"]);
        assert_eq!(slcas.len(), 1);
        assert_eq!(slcas[0].to_string(), "0");
        assert!(!filter.is_meaningful(&slcas[0]));
        assert!(needs_refinement(&filter, &slcas));
    }

    #[test]
    fn missing_keyword_means_empty_slca_and_refinement() {
        // Example 1: {database, publication} — "publication" has no match.
        let idx = index();
        let q = kws(&idx, &["database", "publication"]);
        assert_eq!(q.len(), 1); // "publication" absent from vocabulary
        let filter = MeaningfulFilter::infer(&idx, &q, &SearchForConfig::default());
        let slcas = slcas_of(&idx, &["database", "publication"]);
        assert!(slcas.is_empty());
        assert!(needs_refinement(&filter, &slcas));
    }

    #[test]
    fn foreign_label_is_not_meaningful() {
        let idx = index();
        let q = kws(&idx, &["xml"]);
        let filter = MeaningfulFilter::infer(&idx, &q, &SearchForConfig::default());
        assert!(!filter.is_meaningful(&"0.9.9.9".parse().unwrap()));
    }

    #[test]
    fn explicit_candidates_filter() {
        let doc = figure1();
        let author_t = doc.node(doc.node(doc.root()).children[0]).node_type;
        let filter = MeaningfulFilter::with_candidates(&doc, vec![author_t]);
        assert!(filter.is_meaningful(&"0.0".parse().unwrap())); // author itself
        assert!(filter.is_meaningful(&"0.1.2".parse().unwrap())); // hobby below author
        assert!(!filter.is_meaningful(&"0".parse().unwrap())); // root above author
    }
}
