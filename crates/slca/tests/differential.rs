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
//! Scan Eager's two paths — the one-list pass and the run join's fused
//! order-and-prefix probe — also get a shrinking `xcheck::prop` property
//! over lists shaped to reach their edges, and so does the bounded scan
//! `slca_scan_eager_page` against a prefix of the full one.

use datagen::{random_dewey_corpus, DeweyCorpusConfig};
use invindex::{ListHandle, Posting};
use slca::{
    closest_match, slca_brute_force, slca_indexed_lookup_eager, slca_multiway, slca_scan_eager,
    slca_scan_eager_page, slca_stack,
};
use xcheck::prop::{check, Gen};
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
        assert_eq!(slca_stack(&handles), expected, "stack disagrees: {ctx}");
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

/// A label below the root, one to eleven components long: past seven it
/// spills to the heap. Components come from `0..2`, so labels nest and
/// share prefixes often.
fn label(g: &mut Gen) -> Vec<u32> {
    let mut label = vec![0];
    label.extend(g.vec(1..=10, |g| g.range(0u32..2)));
    label
}

/// One list: a few labels, each now and then with its ancestors (a
/// nested chain) or a sibling, and now and then the root itself.
fn one_list(g: &mut Gen) -> Vec<Vec<u32>> {
    let mut labels = Vec::new();
    for l in g.vec(0..=8, label) {
        match g.weighted(&[2, 1, 1]) {
            1 => labels.extend((1..l.len()).map(|n| l[..n].to_vec())),
            2 => {
                let mut sibling = l.clone();
                *sibling.last_mut().expect("non-empty") += 1;
                labels.push(sibling);
            }
            _ => {}
        }
        labels.push(l);
    }
    if g.weighted(&[3, 1]) == 1 {
        labels.push(vec![0]);
    }
    labels
}

/// `like` moved to an ancestor, a descendant or a sibling of it (the
/// root has none), or kept equal.
fn near(g: &mut Gen, like: &[u32]) -> Vec<u32> {
    let mut l = like.to_vec();
    match g.weighted(&[1, 1, 1, 1]) {
        1 => l.truncate(g.range(1..l.len() + 1)),
        2 => l.extend(g.vec(1..=4, |g| g.range(0u32..2))),
        3 if l.len() > 1 => *l.last_mut().expect("non-empty") += 1,
        _ => {}
    }
    l
}

fn postings(mut labels: Vec<Vec<u32>>) -> Vec<Posting> {
    labels.sort();
    labels.dedup();
    (labels.into_iter())
        .map(|l| Posting::new(Dewey::new(l).expect("non-empty"), NodeTypeId(0)))
        .collect()
}

/// One list from `one_list`, and up to three more that sit on, above,
/// below and beside its labels, or anywhere; now and then one is empty.
fn lists(g: &mut Gen) -> Vec<Vec<Posting>> {
    let first = one_list(g);
    let mut labels = vec![first.clone()];
    labels.extend(g.vec(0..=3, |g| {
        if g.weighted(&[9, 1]) == 1 {
            return Vec::new();
        }
        g.vec(1..=8, |g| match first.is_empty() || g.bool() {
            true => label(g),
            false => {
                let like = g.pick(&first);
                near(g, &like)
            }
        })
    }));
    labels.into_iter().map(postings).collect()
}

#[test]
fn scan_eager_equals_brute_force_on_nested_deep_and_empty_lists() {
    check(2048, |g| {
        let lists = lists(g);
        let handles: Vec<ListHandle> = (lists.iter().cloned())
            .map(ListHandle::from_postings)
            .collect();
        assert_eq!(slca_scan_eager(&handles), slca_brute_force(&lists));
    });
}

/// The bounded scan's page is the first `n` accepted SLCAs below the root
/// of the full scan, and `more` says exactly whether there is another.
/// Acceptance depends on the label alone — everything, a minimum depth,
/// or the parity of its component sum — so that a label judged before it
/// is final (before a deeper candidate could still replace it) shows as a
/// wrong page; the posting handed with it must lie inside it.
#[test]
fn scan_eager_page_is_a_prefix_of_the_full_scan() {
    check(2048, |g| {
        let lists = lists(g);
        let handles: Vec<ListHandle> = (lists.iter().cloned())
            .map(ListHandle::from_postings)
            .collect();
        let rule = g.weighted(&[1, 1, 1]);
        let depth = g.range(2..6);
        let accept = move |label: &[u32]| match rule {
            1 => label.len() >= depth,
            2 => label.iter().sum::<u32>() % 2 == 0,
            _ => true,
        };
        let full: Vec<Dewey> = (slca_scan_eager(&handles).into_iter())
            .filter(|d| d.len() > 1 && accept(d.components()))
            .collect();
        for n in [1, 2, 20] {
            let (page, more) = slca_scan_eager_page(&handles, n, |label, inside| {
                assert!(inside.dewey.components().starts_with(label));
                accept(label)
            });
            assert_eq!(page, full[..n.min(full.len())], "n = {n}");
            assert_eq!(more, full.len() > n, "n = {n}");
        }
    });
}
