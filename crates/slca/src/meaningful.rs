//! Meaningful SLCA (Definitions 3.3 and 3.4).
//!
//! An SLCA result is *meaningful* when it is a self-or-descendant of some
//! inferred search-for node type; a query *needs refinement* when it has
//! no meaningful SLCA at all.
//!
//! A node type is its tag path from the root, and a node's depth is its
//! label's length, so Definition 3.3 is a length test: a node of type
//! `t` is meaningful iff its label is at least as long as the shortest
//! search-for candidate path that is a prefix of `t`'s path. The filter
//! computes that threshold for every node type once, when it is built.
//! The test holds for a node's descendants too — they extend its type
//! path — so a result is typed by *any* posting inside it:
//! [`MeaningfulTypes::admits`] judges a result by one posting inside it,
//! and [`MeaningfulTypes::retain_meaningful`] judges the SLCAs of a set of
//! lists by the postings of one of those lists, a galloping forward merge
//! over sorted labels with no document access. [`MeaningfulTypes`] owns
//! its table and borrows no document, so a deferred result set can keep
//! it. [`MeaningfulFilter::is_meaningful`] judges a bare label and pays a
//! node lookup for its type.

use crate::searchfor::{infer_search_for, SearchForConfig};
use invindex::{gallop, KeywordId, Posting, TypeStats};
use std::sync::Arc;
use xmldom::{Dewey, Document, NodeTypeId};

/// A meaningfulness filter bound to one query's search-for candidates.
pub struct MeaningfulFilter<'a> {
    doc: &'a Document,
    candidates: Vec<NodeTypeId>,
    types: MeaningfulTypes,
}

/// Definition 3.3 per node type, judged through a posting inside a
/// result: no document access. Cloning it shares the table.
#[derive(Debug, Clone)]
pub struct MeaningfulTypes {
    /// Indexed by `NodeTypeId`: the length of the shortest candidate path
    /// that is a prefix of the type's path (`usize::MAX` when none is). A
    /// node of the type, or a node above one, is meaningful iff its label
    /// is at least that long.
    min_len: Arc<[usize]>,
}

impl<'a> MeaningfulFilter<'a> {
    /// Builds the filter by inferring search-for candidates for `query`
    /// from the document's types and the statistics tables alone; no
    /// posting list is touched.
    pub fn infer(
        doc: &'a Document,
        stats: &TypeStats,
        query: &[KeywordId],
        config: &SearchForConfig,
    ) -> Self {
        let candidates = infer_search_for(doc, stats, query, config)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        Self::with_candidates(doc, candidates)
    }

    /// The filter admitting exactly `candidates` and their descendant
    /// types.
    fn with_candidates(doc: &'a Document, candidates: Vec<NodeTypeId>) -> Self {
        let types = doc.node_types();
        let min_len = types
            .iter()
            .map(|t| {
                let path = types.path(t);
                (candidates.iter().map(|&c| types.path(c)))
                    .filter(|c| path.starts_with(c))
                    .map(<[_]>::len)
                    .min()
                    .unwrap_or(usize::MAX)
            })
            .collect();
        MeaningfulFilter {
            doc,
            candidates,
            types: MeaningfulTypes { min_len },
        }
    }

    /// The search-for candidate types this filter admits.
    pub fn candidates(&self) -> &[NodeTypeId] {
        &self.candidates
    }

    /// The filter's judgement of results through postings inside them.
    pub fn types(&self) -> &MeaningfulTypes {
        &self.types
    }

    /// Definition 3.3: `dewey` is meaningful iff the node it denotes is of
    /// a candidate type or a descendant type thereof. Labels not denoting
    /// any element (possible only with foreign labels) are not meaningful.
    pub fn is_meaningful(&self, dewey: &Dewey) -> bool {
        self.doc.node_by_dewey(dewey).is_some_and(|id| {
            self.types
                .admits_type(dewey.len(), self.doc.node(id).node_type)
        })
    }

    /// Keeps only the meaningful results.
    pub fn filter(&self, slcas: Vec<Dewey>) -> Vec<Dewey> {
        slcas
            .into_iter()
            .filter(|d| self.is_meaningful(d))
            .collect()
    }
}

impl MeaningfulTypes {
    /// Is a node of length `len` at or above a node of type `t`
    /// meaningful?
    fn admits_type(&self, len: usize, NodeTypeId(t): NodeTypeId) -> bool {
        self.min_len.get(t as usize).is_some_and(|&min| len >= min)
    }

    /// Is the result `label` meaningful, given `inside`, a posting that
    /// lies inside it? No node is looked up.
    pub fn admits(&self, label: &[u32], inside: &Posting) -> bool {
        debug_assert!(inside.dewey.components().starts_with(label));
        self.admits_type(label.len(), inside.node_type)
    }

    /// Keeps only the meaningful `slcas`, given a list whose every result
    /// holds a posting: the SLCAs of a set of lists, ascending, and one of
    /// those lists. Each result is typed by the first posting of `list` at
    /// or after it, which lies inside it; the cursor into `list` only
    /// moves forward. No node is looked up.
    pub fn retain_meaningful(&self, slcas: &mut Vec<Dewey>, list: &[Posting]) {
        debug_assert!(slcas.windows(2).all(|w| w[0] < w[1]), "sorted SLCAs");
        let mut rest = list;
        slcas.retain(|r| {
            let (skip, _) = gallop(rest, |p| p.dewey < *r);
            rest = rest.get(skip..).unwrap_or_default();
            rest.first().is_some_and(|p| {
                debug_assert!(r.is_ancestor_or_self_of(&p.dewey), "{r} holds no posting");
                self.admits_type(r.len(), p.node_type)
            })
        });
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
        let lists: Vec<invindex::ListHandle> = words
            .iter()
            .map(|w| {
                let list = idx.list(w).map(|l| l.as_slice().to_vec());
                invindex::ListHandle::from_postings(list.unwrap_or_default())
            })
            .collect();
        slca_scan_eager(&lists)
    }

    #[test]
    fn hobby_result_is_meaningful_under_author() {
        // Table I Q0/RQ0: SLCA of {john, fishing} is hobby's parent chain;
        // hobby:0.1.2 is a descendant of the author search-for node.
        let idx = index();
        let q = kws(&idx, &["john", "fishing"]);
        let filter =
            MeaningfulFilter::infer(idx.document(), idx.stats(), &q, &SearchForConfig::default());
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
        let filter =
            MeaningfulFilter::infer(idx.document(), idx.stats(), &q, &SearchForConfig::default());
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
        let filter =
            MeaningfulFilter::infer(idx.document(), idx.stats(), &q, &SearchForConfig::default());
        let slcas = slcas_of(&idx, &["database", "publication"]);
        assert!(slcas.is_empty());
        assert!(needs_refinement(&filter, &slcas));
    }

    #[test]
    fn foreign_label_is_not_meaningful() {
        let idx = index();
        let q = kws(&idx, &["xml"]);
        let filter =
            MeaningfulFilter::infer(idx.document(), idx.stats(), &q, &SearchForConfig::default());
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
