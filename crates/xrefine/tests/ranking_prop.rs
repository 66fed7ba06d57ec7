//! Property tests for the ranking model (§IV): structural laws that hold
//! for any candidate over any corpus.

use invindex::{Index, KvBackedIndex};
use std::sync::Arc;
use xcheck::prop::{check, Gen};
use xrefine::{Query, Ranker, RankingConfig, RqCandidate};

fn index() -> Arc<KvBackedIndex> {
    Arc::new(KvBackedIndex::from_built(Index::build(Arc::new(
        xmldom::fixtures::figure1(),
    ))))
}

fn words(g: &mut Gen) -> Vec<String> {
    const WORDS: [&str; 8] = [
        "xml", "database", "john", "2003", "online", "fishing", "title", "ghost",
    ];
    g.btree_set(1..4, |g| g.pick(&WORDS))
        .into_iter()
        .map(str::to_string)
        .collect()
}

fn similarity_decays(kws: Vec<String>, ds: f64) {
    let idx = index();
    let q = Query::from_keywords(["database", "publication"]);
    let ranker = Ranker::new(idx.as_ref(), &q, RankingConfig::default());
    let near = RqCandidate::new(kws.clone(), ds);
    let far = RqCandidate::new(kws, ds + 1.0);
    // decay^(ds) >= decay^(ds+1) and the base is identical
    assert!(ranker.similarity(&near) >= ranker.similarity(&far) - 1e-12);
}

#[test]
fn similarity_decays_with_dissimilarity() {
    check(128, |g| similarity_decays(words(g), g.f64_in(0.0..6.0)));
}

/// The case the retired proptest regression file pinned: a keyword
/// that is a tag name, at exactly zero dissimilarity.
#[test]
fn similarity_decays_for_a_tag_keyword_at_zero_dissimilarity() {
    similarity_decays(vec!["title".to_string()], 0.0);
}

#[test]
fn scores_are_finite_and_dependence_nonnegative() {
    check(128, |g| {
        let (kws, ds) = (words(g), g.f64_in(0.0..6.0));
        let idx = index();
        let q = Query::from_keywords(["xml", "john"]);
        let ranker = Ranker::new(idx.as_ref(), &q, RankingConfig::default());
        let cand = RqCandidate::new(kws, ds);
        assert!(ranker.similarity(&cand).is_finite());
        let dep = ranker.dependence(&cand);
        assert!(dep.is_finite() && dep >= 0.0);
        assert!(ranker.rank(&cand).is_finite());
    });
}

#[test]
fn rank_is_linear_in_alpha_beta() {
    check(128, |g| {
        let (kws, ds) = (words(g), g.f64_in(0.0..4.0));
        let idx = index();
        let q = Query::from_keywords(["xml", "2003"]);
        let cand = RqCandidate::new(kws, ds);
        let rank = |alpha, beta| {
            Ranker::new(idx.as_ref(), &q, RankingConfig::with_weights(alpha, beta)).rank(&cand)
        };
        let base = rank(1.0, 1.0);
        assert!((rank(2.0, 2.0) - 2.0 * base).abs() < 1e-9);
        assert!((base - (rank(1.0, 0.0) + rank(0.0, 1.0))).abs() < 1e-9);
    });
}

#[test]
fn rank_all_is_a_permutation_sorted_descending() {
    check(128, |g| {
        let candidates = g.vec(1..6, |g| RqCandidate::new(words(g), g.f64_in(0.0..4.0)));
        let idx = index();
        let q = Query::from_keywords(["database", "publication"]);
        let ranker = Ranker::new(idx.as_ref(), &q, RankingConfig::default());
        let n = candidates.len();
        let ranked = ranker.rank_all(candidates.clone());
        assert_eq!(ranked.len(), n);
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
        // permutation: every input appears exactly once
        for c in &candidates {
            assert_eq!(
                ranked.iter().filter(|(r, _)| r == c).count(),
                candidates.iter().filter(|x| *x == c).count()
            );
        }
        // scores are reproducible
        for (c, score) in &ranked {
            assert!((ranker.rank(c) - score).abs() < 1e-12);
        }
    });
}
