//! ELCA — Exclusive LCA, the XRank-family result semantics from the LCA
//! lineage the paper's related work surveys (§II).
//!
//! A node `v` is an ELCA when its subtree contains every query keyword
//! *after excluding* the occurrences lying inside descendants that
//! themselves contain every keyword. ELCA is a superset of SLCA: every
//! SLCA is an ELCA (it has no all-covering descendant at all), and an
//! ancestor also qualifies when it still has its own private witnesses.
//!
//! Implementation: materialize the *cover set* `S` (every node whose
//! subtree contains all keywords — the intersection of the per-keyword
//! ancestor closures), then for each `v ∈ S` subtract the keyword
//! occurrences captured by `v`'s *maximal* proper descendants in `S` and
//! check a private witness remains for every keyword. Complexity
//! `O(|S| · k · log|L|)` — fine for reproduction-scale corpora; the
//! optimized stack algorithms of XRank are out of scope (SLCA is what the
//! paper builds on).

use invindex::Posting;
use std::collections::HashSet;
use xmldom::Dewey;

/// Computes the ELCA set.
pub fn elca<S: AsRef<[Posting]>>(lists: &[S]) -> Vec<Dewey> {
    let lists: Vec<&[Posting]> = lists.iter().map(AsRef::as_ref).collect();
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }

    // Cover set S: intersection of ancestor-or-self closures.
    let closure = |list: &[Posting]| -> HashSet<Vec<u32>> {
        let mut set = HashSet::new();
        for p in list {
            let comps = p.dewey.components();
            for m in 1..=comps.len() {
                set.insert(comps[..m].to_vec());
            }
        }
        set
    };
    let mut cover = closure(lists[0]);
    for l in &lists[1..] {
        let next = closure(l);
        cover.retain(|c| next.contains(c));
    }
    let mut cover: Vec<Dewey> = cover
        .into_iter()
        .map(|c| Dewey::new(c).expect("non-empty"))
        .collect();
    cover.sort();

    let cover_set: HashSet<&Dewey> = cover.iter().collect();
    let mut out = Vec::new();
    for v in &cover {
        // Maximal proper descendants of v within S: those whose parent
        // chain up to (exclusive) v leaves S immediately — i.e. no other
        // S-node strictly between.
        let children: Vec<&Dewey> = cover
            .iter()
            .filter(|u| v.is_ancestor_of(u))
            .filter(|u| {
                // u is maximal under v iff no S-node w with v < w < u
                let mut w = (*u).clone();
                loop {
                    let Some(parent) = w.parent() else { break true };
                    if parent == *v {
                        break true;
                    }
                    if cover_set.contains(&parent) {
                        break false;
                    }
                    w = parent;
                }
            })
            .collect();

        // v is an ELCA iff every keyword has an occurrence in subtree(v)
        // outside all `children` subtrees.
        let private_witness = |list: &[Posting]| -> bool {
            let start = list.partition_point(|p| p.dewey < *v);
            list[start..]
                .iter()
                .take_while(|p| v.is_ancestor_or_self_of(&p.dewey))
                .any(|p| !children.iter().any(|c| c.is_ancestor_or_self_of(&p.dewey)))
        };
        if lists.iter().all(|l| private_witness(l)) {
            out.push(v.clone());
        }
    }
    out
}

/// Definition-direct reference (used in tests): `v` is an ELCA iff each
/// keyword has an occurrence under `v` not under any *all-covering*
/// proper descendant of `v`.
// xlint::allow(unused-export): reference implementation the equivalence tests compare `elca` against
pub fn elca_brute_force<S: AsRef<[Posting]>>(lists: &[S]) -> Vec<Dewey> {
    let lists: Vec<&[Posting]> = lists.iter().map(AsRef::as_ref).collect();
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    // all-covering nodes = nodes whose subtree has every keyword
    let covers = |d: &Dewey| -> bool {
        lists
            .iter()
            .all(|l| l.iter().any(|p| d.is_ancestor_or_self_of(&p.dewey)))
    };
    // candidate universe: every ancestor of every posting
    let mut universe: Vec<Dewey> = Vec::new();
    for l in &lists {
        for p in l.iter() {
            universe.extend((1..=p.dewey.len()).filter_map(|m| p.dewey.prefix(m)));
        }
    }
    universe.sort();
    universe.dedup();

    universe
        .into_iter()
        .filter(|v| covers(v))
        .filter(|v| {
            lists.iter().all(|l| {
                l.iter().any(|p| {
                    if !v.is_ancestor_or_self_of(&p.dewey) {
                        return false;
                    }
                    // excluded if some all-covering proper descendant of v
                    // contains this occurrence
                    !(v.len() + 1..=p.dewey.len())
                        .filter_map(|m| p.dewey.prefix(m))
                        .any(|anc| anc != *v && covers(&anc))
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{minimal_candidates, slca_brute_force};
    use xmldom::NodeTypeId;

    fn ps(labels: &[&str]) -> Vec<Posting> {
        labels
            .iter()
            .map(|s| Posting::new(s.parse().unwrap(), NodeTypeId(0)))
            .collect()
    }

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    #[test]
    fn elca_includes_ancestors_with_private_witnesses() {
        // keyword A at 0.0.0 and 0.1 ; keyword B at 0.0.1 and 0.2
        // node 0.0 covers both (A@0.0.0, B@0.0.1) -> ELCA
        // root covers both privately too (A@0.1, B@0.2) -> ELCA
        let a = ps(&["0.0.0", "0.1"]);
        let b = ps(&["0.0.1", "0.2"]);
        let got = elca(&[&a, &b]);
        assert_eq!(got, vec![d("0"), d("0.0")]);
        // SLCA keeps only the minimal one
        assert_eq!(minimal_candidates(got), vec![d("0.0")]);
    }

    #[test]
    fn root_without_private_witness_is_not_elca() {
        // both keywords only inside 0.0 -> root's witnesses are all
        // captured by 0.0
        let a = ps(&["0.0.0"]);
        let b = ps(&["0.0.1"]);
        assert_eq!(elca(&[&a, &b]), vec![d("0.0")]);
    }

    #[test]
    fn elca_is_superset_of_slca() {
        let a = ps(&["0.0.2.0.0", "0.1.1.0.0"]);
        let b = ps(&["0.0.2.1.1", "0.0.2.2.1"]);
        let e = elca(&[&a, &b]);
        for s in slca_brute_force(&[&a, &b]) {
            assert!(e.contains(&s), "SLCA {s} missing from ELCA");
        }
    }

    #[test]
    fn matches_definition_direct_reference() {
        let cases: Vec<(Vec<Posting>, Vec<Posting>)> = vec![
            (ps(&["0.0.0", "0.1"]), ps(&["0.0.1", "0.2"])),
            (ps(&["0.0"]), ps(&["0.0"])),
            (ps(&["0.0", "0.0.1.2"]), ps(&["0.0.1.2.0", "0.5"])),
            (ps(&["0.3.1"]), ps(&["0.4.1"])),
        ];
        for (a, b) in cases {
            assert_eq!(elca(&[&a, &b]), elca_brute_force(&[&a, &b]), "{a:?} {b:?}");
        }
    }

    #[test]
    fn empty_inputs() {
        let a = ps(&["0.1"]);
        let none: [&[Posting]; 0] = [];
        let pair: [&[Posting]; 2] = [&a, &[]];
        assert!(elca(&none).is_empty());
        assert!(elca(&pair).is_empty());
    }
}
