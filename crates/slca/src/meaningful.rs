//! Meaningful SLCA (Definitions 3.3 and 3.4).
//!
//! An SLCA result is *meaningful* when it is a self-or-descendant of some
//! inferred search-for node type; a query *needs refinement* when it has
//! no meaningful SLCA at all.
//!
//! A node type is its tag path from the root, and a node's depth is its
//! label's length, so Definition 3.3 is a length test: a node of type
//! `t` is meaningful iff its label is at least as long as the shortest
//! search-for candidate that is an ancestor-or-self type of `t`. The
//! filter computes that threshold for every node type once, when it is
//! built, in one pass over the types in id order (a parent type comes
//! before its children). The test holds for a node's descendants too —
//! their types extend its type — so a result is typed by *any* posting
//! inside it: [`MeaningfulFilter::admits`] judges a result by one posting
//! inside it, and [`MeaningfulFilter::retain_meaningful_in`] judges the
//! SLCAs of a set of lists by the postings of one of those lists, a
//! galloping forward merge over sorted labels. Neither reads the
//! document, so the filter owns its tables and a deferred result set can
//! keep a clone.
//!
//! [`MeaningfulFilter::is_meaningful`] judges a bare label by looking its
//! node up in the document: the reference judge the oracle tests compare
//! the posting verdicts against. No query path calls it.

use crate::searchfor::{infer_search_for, SearchForConfig};
use invindex::{gallop, KeywordId, Posting, TypeStats};
use std::sync::Arc;
use xmldom::{Dewey, Document, NodeTypeId, NodeTypeTable};

/// A meaningfulness filter bound to one query's search-for candidates.
/// Cloning it shares its tables.
#[derive(Debug, Clone)]
pub struct MeaningfulFilter {
    candidates: Arc<[NodeTypeId]>,
    /// Indexed by `NodeTypeId`: the label length of the shortest
    /// candidate that is an ancestor-or-self type of the type
    /// (`usize::MAX` when none is). A node of the type, or a node above
    /// one, is meaningful iff its label is at least that long.
    min_len: Arc<[usize]>,
}

impl MeaningfulFilter {
    /// Builds the filter by inferring search-for candidates for `query`
    /// from the type table and the statistics tables alone; no posting
    /// list is touched.
    pub fn infer(
        types: &NodeTypeTable,
        stats: &TypeStats,
        query: &[KeywordId],
        config: &SearchForConfig,
    ) -> Self {
        let candidates = infer_search_for(types, stats, query, config)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        Self::with_candidates(types, candidates)
    }

    /// The filter admitting exactly `candidates` and their descendant
    /// types.
    fn with_candidates(types: &NodeTypeTable, candidates: Vec<NodeTypeId>) -> Self {
        let mut min_len: Vec<usize> = Vec::with_capacity(types.len());
        for t in types.iter() {
            // A parent's threshold is the shorter one when it has any.
            let inherited = types
                .parent(t)
                .map_or(usize::MAX, |p| min_len[p.0 as usize]);
            let own = if candidates.contains(&t) {
                types.depth(t) + 1
            } else {
                usize::MAX
            };
            min_len.push(inherited.min(own));
        }
        MeaningfulFilter {
            candidates: candidates.into(),
            min_len: min_len.into(),
        }
    }

    /// The search-for candidate types this filter admits.
    pub fn candidates(&self) -> &[NodeTypeId] {
        &self.candidates
    }

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
    /// those lists, as consecutive slices in document order (a stored
    /// list's runs, read without a contiguous copy, or one slice). Each
    /// result is typed by the first posting of `list` at or after it,
    /// which lies inside it; the cursor into `list` only moves forward. No
    /// node is looked up.
    pub fn retain_meaningful_in<'p>(
        &self,
        slcas: &mut Vec<Dewey>,
        list: impl IntoIterator<Item = &'p [Posting]>,
    ) {
        debug_assert!(slcas.windows(2).all(|w| w[0] < w[1]), "sorted SLCAs");
        let mut slices = list.into_iter();
        let mut rest: &[Posting] = &[];
        slcas.retain(|r| {
            let first = loop {
                let (skip, _) = gallop(rest, |p| p.dewey < *r);
                rest = rest.get(skip..).unwrap_or_default();
                match rest.first() {
                    Some(p) => break p,
                    None => match slices.next() {
                        Some(next) => rest = next,
                        None => return false,
                    },
                }
            };
            debug_assert!(
                r.is_ancestor_or_self_of(&first.dewey),
                "{r} holds no posting"
            );
            self.admits_type(r.len(), first.node_type)
        });
    }

    /// The reference judge of Definition 3.3: `dewey` is meaningful iff
    /// the node it denotes in `doc` is of a candidate type or a
    /// descendant type thereof. Labels not denoting any element are not
    /// meaningful.
    // xlint::allow(unused-export): the lookup oracle the meaningfulness property and reference tests judge the posting verdicts by
    pub fn is_meaningful(&self, doc: &Document, dewey: &Dewey) -> bool {
        doc.node_by_dewey(dewey)
            .is_some_and(|id| self.admits_type(dewey.len(), doc.node(id).node_type))
    }

    /// Keeps only the results the reference judge finds meaningful.
    // xlint::allow(unused-export): the lookup oracle the reference refiners filter their results by
    pub fn filter(&self, doc: &Document, slcas: Vec<Dewey>) -> Vec<Dewey> {
        slcas
            .into_iter()
            .filter(|d| self.is_meaningful(doc, d))
            .collect()
    }
}

/// Definition 3.4: does the query need refinement? `slcas` are the SLCAs
/// of a set of lists, ascending, and `list` is one of those lists, as
/// consecutive slices in document order; each result is judged by a
/// posting of `list` inside it.
pub fn needs_refinement<'p>(
    filter: &MeaningfulFilter,
    mut slcas: Vec<Dewey>,
    list: impl IntoIterator<Item = &'p [Posting]>,
) -> bool {
    filter.retain_meaningful_in(&mut slcas, list);
    slcas.is_empty()
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

    fn lists_of(idx: &Index, words: &[&str]) -> Vec<invindex::ListHandle> {
        words
            .iter()
            .map(|w| {
                let list = idx.list(w).map(|l| l.as_slice().to_vec());
                invindex::ListHandle::from_postings(list.unwrap_or_default())
            })
            .collect()
    }

    fn filter_for(idx: &Index, q: &[KeywordId]) -> MeaningfulFilter {
        let types = idx.document().node_types();
        MeaningfulFilter::infer(types, idx.stats(), q, &SearchForConfig::default())
    }

    #[test]
    fn hobby_result_is_meaningful_under_author() {
        // Table I Q0/RQ0: SLCA of {john, fishing} is hobby's parent chain;
        // hobby:0.1.2 is a descendant of the author search-for node.
        let idx = index();
        let q = kws(&idx, &["john", "fishing"]);
        let filter = filter_for(&idx, &q);
        let lists = lists_of(&idx, &["john", "fishing"]);
        let slcas = slca_scan_eager(&lists);
        assert!(!slcas.is_empty());
        let kept = filter.filter(idx.document(), slcas.clone());
        assert!(!kept.is_empty());
        assert!(!needs_refinement(&filter, slcas, lists[0].run_postings()));
    }

    #[test]
    fn root_only_result_triggers_refinement() {
        // Motivating Q4: {xml, john, 2003} is covered only by the root.
        let idx = index();
        let q = kws(&idx, &["xml", "john", "2003"]);
        let filter = filter_for(&idx, &q);
        let lists = lists_of(&idx, &["xml", "john", "2003"]);
        let slcas = slca_scan_eager(&lists);
        assert_eq!(slcas.len(), 1);
        assert_eq!(slcas[0].to_string(), "0");
        assert!(!filter.is_meaningful(idx.document(), &slcas[0]));
        assert!(needs_refinement(&filter, slcas, lists[1].run_postings()));
    }

    #[test]
    fn missing_keyword_means_empty_slca_and_refinement() {
        // Example 1: {database, publication} — "publication" has no match.
        let idx = index();
        let q = kws(&idx, &["database", "publication"]);
        assert_eq!(q.len(), 1); // "publication" absent from vocabulary
        let filter = filter_for(&idx, &q);
        let lists = lists_of(&idx, &["database", "publication"]);
        let slcas = slca_scan_eager(&lists);
        assert!(slcas.is_empty());
        assert!(needs_refinement(&filter, slcas, lists[0].run_postings()));
    }

    #[test]
    fn foreign_label_is_not_meaningful() {
        let idx = index();
        let q = kws(&idx, &["xml"]);
        let filter = filter_for(&idx, &q);
        assert!(!filter.is_meaningful(idx.document(), &"0.9.9.9".parse().unwrap()));
    }

    #[test]
    fn explicit_candidates_filter() {
        let doc = figure1();
        let author_t = doc.node(doc.node(doc.root()).children[0]).node_type;
        let filter = MeaningfulFilter::with_candidates(doc.node_types(), vec![author_t]);
        let judge = |label: &str| filter.is_meaningful(&doc, &label.parse().unwrap());
        assert!(judge("0.0")); // author itself
        assert!(judge("0.1.2")); // hobby below author
        assert!(!judge("0")); // root above author
    }
}
