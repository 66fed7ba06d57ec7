//! Per-query session state shared by the three refinement algorithms:
//! the key set `KS` (original keywords plus every rule-generated one), the
//! corresponding inverted lists, the meaningful-SLCA filter, the scan
//! instrumentation, and the query and its rules resolved against `KS`
//! for the dynamic program (`DpPlan`) — so that what is derived from
//! strings is derived once per query, not once per `getOptimalRQ` call.

use crate::dp::DpPlan;
use crate::query::Query;
use crate::results::{DegradedKeyword, QueryFailure};
use invindex::{IndexReader, ListHandle, ScanStats};
use lexicon::RuleSet;
use slca::{MeaningfulFilter, SearchForConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// Everything a refinement algorithm needs for one query.
///
/// Construction acquires one [`ListHandle`] per `KS` keyword through the
/// [`IndexReader`], so the reader decodes exactly the lists this query
/// can touch — nothing else.
pub struct RefineSession<'a> {
    pub index: &'a dyn IndexReader,
    pub query: Query,
    pub rules: RuleSet,
    /// `KS`: query keywords first (deduplicated), then rule-generated
    /// keywords (Algorithm 1 line 3).
    pub ks: Vec<String>,
    /// `ks[i]` -> i.
    pub ks_pos: HashMap<String, usize>,
    /// One inverted list per `KS` keyword (empty list when the keyword
    /// does not occur in the document).
    pub lists: Vec<ListHandle>,
    pub filter: MeaningfulFilter<'a>,
    /// The query and its rules resolved against `KS` for the dynamic
    /// program: what every `getOptimalRQ` call of the session shares.
    pub(crate) plan: DpPlan,
    pub scan_stats: Arc<ScanStats>,
    /// Keywords this session dropped or de-weighted because their
    /// on-disk state is damaged. The degradation policy at acquisition
    /// time: a corrupt posting list of an *original* query keyword fails
    /// construction (the query's meaning is gone); a corrupt list of a
    /// rule-*generated* keyword only removes refinements that would use
    /// it, so the keyword gets an empty list and a note here.
    /// Non-corruption storage errors always fail.
    pub degraded: Vec<DegradedKeyword>,
}

impl<'a> RefineSession<'a> {
    pub fn new(
        index: &'a dyn IndexReader,
        query: Query,
        rules: RuleSet,
    ) -> Result<Self, QueryFailure> {
        Self::with_search_for(index, query, rules, &SearchForConfig::default())
    }

    pub fn with_search_for(
        index: &'a dyn IndexReader,
        query: Query,
        rules: RuleSet,
        search_for: &SearchForConfig,
    ) -> Result<Self, QueryFailure> {
        // `KS`: the query's keywords in query order, then the
        // rule-generated ones in string order.
        let (ks, ks_pos) = key_set(query.keywords().iter().chain(&rules.rhs_keywords()));
        let original = query
            .keywords()
            .iter()
            .map(|k| ks_pos[k] + 1)
            .max()
            .unwrap_or(0);

        let mut degraded: Vec<DegradedKeyword> = Vec::new();
        let mut lists: Vec<ListHandle> = Vec::with_capacity(ks.len());
        for (i, k) in ks.iter().enumerate() {
            match index.list_handle(k) {
                Ok(h) => {
                    obs::trace::event(
                        "keyword",
                        &[
                            ("word", &k),
                            ("list_len", &h.len()),
                            ("origin", &if i < original { "query" } else { "rule" }),
                        ],
                    );
                    lists.push(h)
                }
                Err(e) if e.is_corrupt() && i >= original => {
                    degraded.push(DegradedKeyword {
                        keyword: k.clone(),
                        reason: format!("posting list unreadable, keyword dropped: {e}"),
                    });
                    lists.push(ListHandle::empty());
                }
                Err(e) => {
                    return Err(QueryFailure {
                        keyword: Some(k.clone()),
                        error: e,
                    })
                }
            }
        }

        let mut query_ids: Vec<invindex::KeywordId> = query
            .keywords()
            .iter()
            .filter_map(|k| index.vocabulary().get(k))
            .collect();
        if query_ids.is_empty() {
            // None of the original keywords occurs in the document (e.g. a
            // single misspelled term). Guideline 3's premise is that Q and
            // its refinements share the same search-for nodes, so infer
            // them from the rule-generated keywords instead.
            query_ids = rules
                .rhs_keywords()
                .iter()
                .filter_map(|k| index.vocabulary().get(k))
                .collect();
        }
        let filter =
            MeaningfulFilter::infer(index.document(), index.stats(), &query_ids, search_for);
        let plan = DpPlan::new(&query, &rules, &ks, &ks_pos);
        obs::trace::attr("ks_width", ks.len());

        Ok(RefineSession {
            index,
            query,
            rules,
            ks,
            ks_pos,
            lists,
            filter,
            plan,
            scan_stats: ScanStats::new(),
            degraded,
        })
    }

    /// `|KS|`.
    pub fn width(&self) -> usize {
        self.ks.len()
    }

    /// Index of a keyword within `KS`.
    pub fn pos(&self, keyword: &str) -> Option<usize> {
        self.ks_pos.get(keyword).copied()
    }

    /// Total length of all involved inverted lists (the one-scan budget).
    // xlint::allow(unused-export): the Theorem 1/2 budget the one-scan tests hold the scan counters to
    pub fn total_list_len(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum()
    }
}

/// A key set and its keyword -> index map: `words` in order, each once.
pub(crate) fn key_set<'a>(
    words: impl Iterator<Item = &'a String>,
) -> (Vec<String>, HashMap<String, usize>) {
    let mut ks: Vec<String> = Vec::new();
    let mut pos: HashMap<String, usize> = HashMap::new();
    for w in words {
        if !pos.contains_key(w) {
            pos.insert(w.clone(), ks.len());
            ks.push(w.clone());
        }
    }
    (ks, pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use invindex::{Index, KvBackedIndex};
    use std::sync::Arc as StdArc;
    use xmldom::fixtures::figure1;

    #[test]
    fn ks_is_query_then_generated_deduped() {
        let idx = KvBackedIndex::from_built(Index::build(StdArc::new(figure1())));
        let q = Query::from_keywords(["on", "line", "data", "base", "on"]);
        let rules = RuleSet::table2();
        let s = RefineSession::new(&idx, q, rules).unwrap();
        // query keywords deduplicated, then RHS keywords (sorted by
        // rhs_keywords) minus duplicates
        assert_eq!(s.ks[..4], ["on", "line", "data", "base"]);
        assert!(s.ks.contains(&"online".to_string()));
        assert!(s.ks.contains(&"database".to_string()));
        assert_eq!(
            s.pos("online"),
            Some(s.ks.iter().position(|k| k == "online").unwrap())
        );
        // every keyword has a (possibly empty) list
        assert_eq!(s.lists.len(), s.ks.len());
        // "on" does not occur in figure 1
        assert!(s.lists[s.pos("on").unwrap()].is_empty());
        assert!(!s.lists[s.pos("database").unwrap()].is_empty());
    }
}
