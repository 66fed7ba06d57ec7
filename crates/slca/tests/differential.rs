//! Differential oracle for the SLCA algorithms.
//!
//! Four production implementations (`stack`, `indexed-lookup eager`,
//! `scan eager`, `multiway`) are run against the brute-force
//! ancestor-closure-intersection reference over seeded random Dewey
//! corpora, and the allocation-free `closest_match` is micro-checked
//! against its previous (cloning) definition.
//!
//! These are deliberately plain `#[test]` loops over `datagen`'s seeded
//! corpora rather than `xcheck::prop` properties: the corpora are the
//! ones the rest of the workspace is built on, and the case count
//! (>= 500 per property) is one this suite states in its assertions.

use datagen::{random_dewey_corpus, DeweyCorpusConfig};
use invindex::{ListHandle, Posting};
use slca::{
    closest_match, slca_brute_force, slca_indexed_lookup_eager, slca_multiway, slca_scan_eager,
    slca_stack,
};
use xmldom::{Dewey, NodeTypeId};

fn to_postings(corpus: &[Vec<Dewey>]) -> Vec<Vec<Posting>> {
    corpus
        .iter()
        .map(|list| {
            list.iter()
                .map(|d| Posting::new(d.clone(), NodeTypeId(0)))
                .collect()
        })
        .collect()
}

/// Shape the corpus by seed so the sweep covers singleton lists, deep
/// narrow trees, wide flat trees, and occasional empty lists.
fn config_for(seed: u64) -> DeweyCorpusConfig {
    DeweyCorpusConfig {
        lists: (seed % 4 + 1) as usize,
        max_len: [1, 3, 8, 20][(seed / 4 % 4) as usize],
        max_depth: [1, 3, 6][(seed / 16 % 3) as usize],
        fanout: [1, 2, 4][(seed / 48 % 3) as usize],
        allow_empty: seed.is_multiple_of(5),
    }
}

#[test]
fn all_four_algorithms_agree_with_brute_force_on_random_corpora() {
    const CASES: u64 = 600;
    for seed in 0..CASES {
        let cfg = config_for(seed);
        let lists = to_postings(&random_dewey_corpus(seed, &cfg));
        let expected = slca_brute_force(&lists);
        let ctx = format!("seed={seed} cfg={cfg:?} lists={lists:?}");
        let handles: Vec<ListHandle> = (lists.iter().cloned())
            .map(ListHandle::from_postings)
            .collect();
        assert_eq!(slca_stack(&lists), expected, "stack disagrees: {ctx}");
        assert_eq!(
            slca_indexed_lookup_eager(&lists),
            expected,
            "indexed-lookup eager disagrees: {ctx}"
        );
        assert_eq!(
            slca_scan_eager(&handles),
            expected,
            "scan eager disagrees: {ctx}"
        );
        assert_eq!(slca_multiway(&lists), expected, "multiway disagrees: {ctx}");
    }
}

/// The pre-optimization `closest_match`: identical decision procedure, but
/// returning owned clones. Kept verbatim as the micro-oracle for the
/// allocation-free rewrite.
fn closest_match_reference(list: &[Posting], anchor: &Dewey) -> Option<Dewey> {
    if list.is_empty() {
        return None;
    }
    let idx = list.partition_point(|p| p.dewey <= *anchor);
    let pred = idx.checked_sub(1).map(|i| &list[i].dewey);
    let succ = list.get(idx).map(|p| &p.dewey);
    match (pred, succ) {
        (Some(p), Some(s)) => {
            if anchor.common_prefix_len(p) >= anchor.common_prefix_len(s) {
                Some(p.clone())
            } else {
                Some(s.clone())
            }
        }
        (Some(p), None) => Some(p.clone()),
        (None, Some(s)) => Some(s.clone()),
        (None, None) => None,
    }
}

#[test]
fn allocation_free_closest_match_is_unchanged() {
    let mut cases = 0u64;
    for seed in 1000..1150u64 {
        let cfg = DeweyCorpusConfig {
            lists: 2,
            max_len: 10,
            max_depth: 5,
            fanout: 3,
            allow_empty: seed % 7 == 0,
        };
        let corpus = random_dewey_corpus(seed, &cfg);
        let lists = to_postings(&corpus);
        // Anchors drawn from the other list plus perturbed variants, so
        // both exact-hit and between-elements probes are covered.
        for (list, anchors) in [(&lists[0], &corpus[1]), (&lists[1], &corpus[0])] {
            for anchor in anchors {
                for probe in [
                    anchor.clone(),
                    anchor.prefix(1).expect("root prefix"),
                    anchor
                        .prefix(anchor.components().len().saturating_sub(1).max(1))
                        .expect("in range"),
                ] {
                    cases += 1;
                    let got = closest_match(list, &probe);
                    assert_eq!(
                        got.cloned(),
                        closest_match_reference(list, &probe),
                        "seed={seed} probe={probe} list={list:?}"
                    );
                    // The borrow must point into the list — proof that the
                    // hot path no longer clones.
                    if let Some(m) = got {
                        assert!(
                            list.iter().any(|p| std::ptr::eq(&p.dewey, m)),
                            "closest_match returned a label not borrowed from the list"
                        );
                    }
                }
            }
        }
    }
    assert!(cases >= 500, "only {cases} micro cases executed");
}
