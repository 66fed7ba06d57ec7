//! The query ranking model of §IV (Formulas 1–10).
//!
//! `Rank(RQ) = α · ρ(RQ,Q) + β · Dep(RQ,Q)` where the similarity score
//! `ρ` implements Guidelines 1–4 and the dependence score `Dep`
//! implements Guideline 5. Each guideline can be disabled individually,
//! which is exactly how the paper builds the ablated ranking schemes
//! RS1–RS4 of Table IX; α/β are the tunables of Table X.

use crate::query::{Query, RqCandidate};
use invindex::{KeywordId, KvBackedIndex};
use slca::{infer_search_for, SearchForConfig};
use std::collections::BTreeSet;
use xmldom::NodeTypeId;

/// Tunables of the ranking model.
#[derive(Debug, Clone)]
pub struct RankingConfig {
    /// Weight of the similarity score (Formula 10); default 1.
    pub alpha: f64,
    /// Weight of the dependence score (Formula 10); default 1.
    pub beta: f64,
    /// Decay factor `ρ` of Guideline 4 / Formula 6; the paper finds 0.8
    /// works best (§VIII-C).
    pub decay: f64,
    /// Formula 1 parameters for search-for inference.
    pub search_for: SearchForConfig,
    /// Guideline toggles (all on = RS0).
    pub use_guideline1: bool,
    pub use_guideline2: bool,
    pub use_guideline3: bool,
    pub use_guideline4: bool,
}

impl Default for RankingConfig {
    fn default() -> Self {
        RankingConfig {
            alpha: 1.0,
            beta: 1.0,
            decay: 0.8,
            search_for: SearchForConfig::default(),
            use_guideline1: true,
            use_guideline2: true,
            use_guideline3: true,
            use_guideline4: true,
        }
    }
}

impl RankingConfig {
    /// The original full model RS0.
    pub fn rs0() -> Self {
        Self::default()
    }

    /// RS`i`: the model with Guideline `i` removed (Table IX).
    pub fn without_guideline(i: usize) -> Self {
        let mut c = Self::default();
        match i {
            1 => c.use_guideline1 = false,
            2 => c.use_guideline2 = false,
            3 => c.use_guideline3 = false,
            4 => c.use_guideline4 = false,
            other => panic!("no guideline {other}"),
        }
        c
    }

    /// Table X variant with explicit α/β.
    pub fn with_weights(alpha: f64, beta: f64) -> Self {
        RankingConfig {
            alpha,
            beta,
            ..Self::default()
        }
    }
}

/// A ranker bound to one index and one original query. Only statistics
/// and co-occurrence queries go through the reader — no posting lists are
/// materialized by ranking itself.
pub struct Ranker<'a> {
    index: &'a KvBackedIndex,
    config: RankingConfig,
    /// The query's keywords, sorted and deduplicated.
    query_set: Vec<String>,
    /// Search-for candidates with their `C_for` confidence (Formula 1).
    search_for: Vec<(NodeTypeId, f64)>,
}

impl<'a> Ranker<'a> {
    pub fn new(index: &'a KvBackedIndex, query: &Query, config: RankingConfig) -> Self {
        let ids: Vec<KeywordId> = query
            .keywords()
            .iter()
            .filter_map(|k| index.vocabulary().get(k))
            .collect();
        let types = index.document().node_types();
        let mut search_for = infer_search_for(types, index.stats(), &ids, &config.search_for);
        if !config.use_guideline3 {
            // RS3: single search-for node, unit weight.
            search_for.truncate(1);
            if let Some(first) = search_for.first_mut() {
                first.1 = 1.0;
            }
        }
        let mut query_set = query.keywords().to_vec();
        query_set.sort();
        query_set.dedup();
        Ranker {
            index,
            config,
            query_set,
            search_for,
        }
    }

    pub fn search_for(&self) -> &[(NodeTypeId, f64)] {
        &self.search_for
    }

    pub fn config(&self) -> &RankingConfig {
        &self.config
    }

    /// `Imp(RQ, T)` — Formula 2 (Guideline 1).
    fn imp(&self, rq: &RqCandidate, t: NodeTypeId) -> f64 {
        let g = self.index.stats().distinct_keywords(t);
        if g == 0 {
            return 0.0;
        }
        rq.keywords
            .iter()
            .filter_map(|k| self.index.vocabulary().get(k))
            .map(|k| self.index.stats().tf(t, k) as f64)
            .sum::<f64>()
            / g as f64
    }

    /// `Imp_{k_i}(Q, T)` — Formula 3 (Guideline 2).
    fn imp_k(&self, keyword: &str, t: NodeTypeId) -> f64 {
        let n = self.index.stats().n_nodes(t);
        if n == 0 {
            return 0.0;
        }
        let f = self
            .index
            .vocabulary()
            .get(keyword)
            .map(|k| self.index.stats().df(t, k))
            .unwrap_or(0);
        // Clamped at zero: `f = N_T` (the keyword is in every T-node)
        // would make the raw ln slightly negative, flipping the decay of
        // Guideline 4 — a ubiquitous keyword simply carries no
        // discriminative weight.
        ((n as f64) / (1.0 + f as f64)).ln().max(0.0)
    }

    /// `RQ Δ Q`: keywords deleted from `Q` plus keywords newly generated
    /// by the refinement (Formula 4).
    fn symmetric_difference<'b>(&'b self, rq: &'b RqCandidate) -> Vec<&'b str> {
        let rq_set: BTreeSet<&str> = rq.keywords.iter().map(|s| s.as_str()).collect();
        let mut out: Vec<&str> = Vec::new();
        for k in &self.query_set {
            if !rq_set.contains(k.as_str()) {
                out.push(k);
            }
        }
        for k in &rq_set {
            if self
                .query_set
                .binary_search_by(|q| q.as_str().cmp(k))
                .is_err()
            {
                out.push(k);
            }
        }
        out
    }

    /// `ρ(RQ, Q | T)` — Formula 4.
    fn rho_given_t(&self, rq: &RqCandidate, t: NodeTypeId) -> f64 {
        let imp = if self.config.use_guideline1 {
            self.imp(rq, t)
        } else {
            1.0
        };
        let delta = if self.config.use_guideline2 {
            self.symmetric_difference(rq)
                .iter()
                .map(|k| self.imp_k(k, t))
                .sum::<f64>()
        } else {
            1.0
        };
        imp * delta
    }

    /// `ρ(RQ, Q)` before the Guideline-4 decay — Formula 5.
    fn rho(&self, rq: &RqCandidate) -> f64 {
        self.search_for
            .iter()
            .map(|&(t, c)| c * self.rho_given_t(rq, t))
            .sum()
    }

    /// The similarity score with the dissimilarity decay — Formula 6.
    pub fn similarity(&self, rq: &RqCandidate) -> f64 {
        let base = self.rho(rq);
        if self.config.use_guideline4 {
            self.config.decay.powf(rq.dissimilarity) * base
        } else {
            base
        }
    }

    /// `C(k_i ⇒ k)` — Formula 7.
    fn confidence_pair(&self, t: NodeTypeId, ki: KeywordId, k: KeywordId) -> f64 {
        let denom = self.index.stats().df(t, ki);
        if denom == 0 {
            return 0.0;
        }
        self.index.co_occur(t, ki, k) as f64 / denom as f64
    }

    /// `Dep(RQ, Q | T)` — Formula 8.
    fn dep_given_t(&self, rq: &RqCandidate, t: NodeTypeId) -> f64 {
        let ids: Vec<KeywordId> = rq
            .keywords
            .iter()
            .filter_map(|k| self.index.vocabulary().get(k))
            .collect();
        if ids.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for &k in &ids {
            for &ki in &ids {
                if ki != k {
                    total += self.confidence_pair(t, ki, k);
                }
            }
        }
        total / ids.len() as f64
    }

    /// `Dep(RQ, Q)` — Formula 9 (Guideline 5 weighted by Guideline 3).
    pub fn dependence(&self, rq: &RqCandidate) -> f64 {
        self.search_for
            .iter()
            .map(|&(t, c)| c * self.dep_given_t(rq, t))
            .sum()
    }

    /// `Rank(RQ)` — Formula 10.
    pub fn rank(&self, rq: &RqCandidate) -> f64 {
        self.config.alpha * self.similarity(rq) + self.config.beta * self.dependence(rq)
    }

    /// Ranks candidates descending (the "elaborate ranking" of
    /// Algorithm 2 line 19), returning `(candidate, rank)` pairs.
    pub fn rank_all(&self, candidates: Vec<RqCandidate>) -> Vec<(RqCandidate, f64)> {
        let mut out: Vec<(RqCandidate, f64)> = candidates
            .into_iter()
            .map(|c| {
                let r = self.rank(&c);
                (c, r)
            })
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    a.0.dissimilarity
                        .partial_cmp(&b.0.dissimilarity)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.0.keywords.cmp(&b.0.keywords))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invindex::{Index, KvBackedIndex};
    use std::sync::Arc;
    use xmldom::fixtures::figure1;

    fn index() -> KvBackedIndex {
        KvBackedIndex::from_built(Index::build(Arc::new(figure1())))
    }

    fn rq(words: &[&str], ds: f64) -> RqCandidate {
        RqCandidate::new(words.iter().map(|s| s.to_string()).collect(), ds)
    }

    #[test]
    fn decay_penalizes_dissimilar_queries() {
        let idx = index();
        let q = Query::from_keywords(["xml", "publication"]);
        let ranker = Ranker::new(&idx, &q, RankingConfig::default());
        let near = rq(&["xml", "inproceedings"], 1.0);
        let far = rq(&["xml", "inproceedings"], 4.0);
        assert!(ranker.similarity(&near) > ranker.similarity(&far));
        // without guideline 4 they tie
        let ranker4 = Ranker::new(&idx, &q, RankingConfig::without_guideline(4));
        assert_eq!(ranker4.similarity(&near), ranker4.similarity(&far));
    }

    #[test]
    fn dependence_rewards_co_occurring_keywords() {
        let idx = index();
        let q = Query::from_keywords(["xml", "2003"]);
        let ranker = Ranker::new(&idx, &q, RankingConfig::default());
        // "online" and "database" co-occur in one title's subtree chain;
        // "john" and "2000" never share a deep subtree.
        let tight = rq(&["online", "database"], 2.0);
        let loose = rq(&["john", "2000"], 2.0);
        assert!(ranker.dependence(&tight) >= ranker.dependence(&loose));
    }

    #[test]
    fn rank_combines_with_weights() {
        let idx = index();
        let q = Query::from_keywords(["database", "publication"]);
        let candidate = rq(&["database", "inproceedings"], 1.0);

        let full = Ranker::new(&idx, &q, RankingConfig::with_weights(1.0, 1.0));
        let sim_only = Ranker::new(&idx, &q, RankingConfig::with_weights(1.0, 0.0));
        let dep_only = Ranker::new(&idx, &q, RankingConfig::with_weights(0.0, 1.0));
        let r_full = full.rank(&candidate);
        let r_sim = sim_only.rank(&candidate);
        let r_dep = dep_only.rank(&candidate);
        assert!((r_full - (r_sim + r_dep)).abs() < 1e-9);
    }

    #[test]
    fn rank_all_sorts_descending() {
        let idx = index();
        let q = Query::from_keywords(["database", "publication"]);
        let ranker = Ranker::new(&idx, &q, RankingConfig::default());
        let ranked = ranker.rank_all(vec![
            rq(&["database", "inproceedings"], 1.0),
            rq(&["database"], 2.0),
            rq(&["database", "article"], 1.0),
        ]);
        assert_eq!(ranked.len(), 3);
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn guideline_ablations_change_scores() {
        let idx = index();
        let q = Query::from_keywords(["database", "publication"]);
        let candidate = rq(&["database", "inproceedings"], 1.0);
        let rs0 = Ranker::new(&idx, &q, RankingConfig::rs0()).rank(&candidate);
        for i in 1..=4 {
            let ri = Ranker::new(&idx, &q, RankingConfig::without_guideline(i)).rank(&candidate);
            // ablation must actually alter the score for a candidate that
            // exercises every guideline
            assert_ne!(rs0, ri, "guideline {i} had no effect");
        }
    }

    #[test]
    fn unknown_keywords_score_zero_not_panic() {
        let idx = index();
        let q = Query::from_keywords(["zzzz"]);
        let ranker = Ranker::new(&idx, &q, RankingConfig::default());
        let ghost = rq(&["qqqq"], 2.0);
        assert_eq!(ranker.similarity(&ghost), 0.0);
        assert_eq!(ranker.dependence(&ghost), 0.0);
    }
}
