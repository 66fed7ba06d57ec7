//! Property test: the four SLCA algorithms are extensionally equal to the
//! brute-force reference on arbitrary document-ordered posting lists.

use invindex::{ListHandle, Posting};
use slca::{
    slca_brute_force, slca_indexed_lookup_eager, slca_multiway, slca_scan_eager, slca_stack,
};
use xcheck::prop::{check, Gen};
use xmldom::{Dewey, NodeTypeId};

/// Random Dewey components with small fanout/depth so collisions,
/// nestings and shared prefixes are frequent.
fn dewey_components(g: &mut Gen) -> Vec<u32> {
    let mut comps = vec![0u32];
    comps.extend(g.vec(0..5, |g| g.range(0u32..3)));
    comps
}

fn list(g: &mut Gen) -> Vec<Posting> {
    g.btree_set(1..12, dewey_components)
        .into_iter()
        .map(|c| Posting::new(Dewey::new(c).unwrap(), NodeTypeId(0)))
        .collect()
}

#[test]
fn all_algorithms_agree_with_brute_force() {
    check(512, |g| {
        let lists = g.vec(1..4, list);
        let refs: Vec<&[Posting]> = lists.iter().map(|l| l.as_slice()).collect();
        let expected = slca_brute_force(&refs);
        let handles: Vec<ListHandle> = (lists.iter().cloned())
            .map(ListHandle::from_postings)
            .collect();
        assert_eq!(slca_stack(&handles), expected, "stack");
        assert_eq!(slca_scan_eager(&handles), expected, "scan-eager");
        assert_eq!(slca_indexed_lookup_eager(&refs), expected, "ile");
        assert_eq!(slca_multiway(&refs), expected, "multiway");
    });
}

#[test]
fn slca_results_are_antichain_and_cover_all_keywords() {
    check(512, |g| {
        let lists = g.vec(1..4, list);
        let refs: Vec<&[Posting]> = lists.iter().map(|l| l.as_slice()).collect();
        let handles: Vec<ListHandle> = (lists.iter().cloned())
            .map(ListHandle::from_postings)
            .collect();
        let result = slca_stack(&handles);
        // antichain: no result is an ancestor of another
        for a in &result {
            for b in &result {
                assert!(!(a != b && a.is_ancestor_of(b)));
            }
        }
        // soundness: every result's subtree contains a match of every list
        for r in &result {
            for list in &refs {
                assert!(
                    list.iter().any(|p| r.is_ancestor_or_self_of(&p.dewey)),
                    "result {r} misses a keyword"
                );
            }
        }
    });
}

#[test]
fn lemma1_subset_queries_keep_results() {
    check(512, |g| {
        let lists = g.vec(2..4, list);
        // Lemma 1: if a keyword superset has an SLCA, every subset has one.
        let handles: Vec<ListHandle> = (lists.iter().cloned())
            .map(ListHandle::from_postings)
            .collect();
        let full = slca_stack(&handles);
        if !full.is_empty() {
            for skip in 0..handles.len() {
                let subset: Vec<ListHandle> = handles
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, l)| l.clone())
                    .collect();
                assert!(!slca_stack(&subset).is_empty());
            }
        }
    });
}
