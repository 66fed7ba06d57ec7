//! Shared pieces of the SLCA algorithms: candidate filtering and the
//! brute-force reference implementation used by the test suite.

use invindex::Posting;
use xmldom::Dewey;

/// Reduces a bag of "contains all keywords" candidates to the SLCA set:
/// sorts, deduplicates and removes every candidate that is a proper
/// ancestor of another.
///
/// Correctness of the consecutive-pair check: in Dewey (pre-)order any
/// label strictly between an ancestor `a` and its descendant `b` is itself
/// inside `a`'s subtree, so after sorting, an ancestor is followed
/// immediately by elements of its own subtree; scanning from the right and
/// dropping `c[i]` whenever it is an ancestor of the *surviving* successor
/// removes exactly the non-minimal candidates.
pub fn minimal_candidates(mut candidates: Vec<Dewey>) -> Vec<Dewey> {
    candidates.sort();
    candidates.dedup();
    let mut out: Vec<Dewey> = Vec::with_capacity(candidates.len());
    for c in candidates.into_iter().rev() {
        if out.last().map(|s| c.is_ancestor_of(s)).unwrap_or(false) {
            continue;
        }
        out.push(c);
    }
    out.reverse();
    out
}

/// Reference SLCA: intersects the ancestor-or-self closures of every
/// keyword's match list and keeps the minimal elements. Exponential in
/// nothing, linear in `matches × depth` — used as the oracle in tests.
// xlint::allow(unused-export): the SLCA oracle every algorithm is compared against
pub fn slca_brute_force<S: AsRef<[Posting]>>(lists: &[S]) -> Vec<Dewey> {
    use std::collections::HashSet;
    let lists: Vec<&[Posting]> = lists.iter().map(AsRef::as_ref).collect();
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
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
    let mut common = closure(lists[0]);
    for l in &lists[1..] {
        let next = closure(l);
        common.retain(|c| next.contains(c));
    }
    let candidates: Vec<Dewey> = common
        .into_iter()
        .map(|c| Dewey::new(c).expect("non-empty"))
        .collect();
    minimal_candidates(candidates)
}

/// The element of `list` whose LCA with `anchor` is deepest: the better of
/// the predecessor (`<= anchor`) and successor (`> anchor`) under the
/// longest-common-prefix measure. `None` on an empty list.
///
/// Returns a borrow into `list`: this runs once per (anchor, list) pair on
/// the eager/multiway hot paths, so it must not clone the matched label.
pub fn closest_match<'a>(list: &'a [Posting], anchor: &Dewey) -> Option<&'a Dewey> {
    if list.is_empty() {
        return None;
    }
    let idx = list.partition_point(|p| p.dewey <= *anchor);
    let pred = idx.checked_sub(1).map(|i| &list[i].dewey);
    let succ = list.get(idx).map(|p| &p.dewey);
    match (pred, succ) {
        (Some(p), Some(s)) => {
            if anchor.common_prefix_len(p) >= anchor.common_prefix_len(s) {
                Some(p)
            } else {
                Some(s)
            }
        }
        (Some(p), None) => Some(p),
        (None, Some(s)) => Some(s),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn minimal_candidates_removes_ancestors_and_dupes() {
        let got = minimal_candidates(vec![d("0"), d("0.0"), d("0.0.1"), d("0.1"), d("0.0.1")]);
        assert_eq!(got, vec![d("0.0.1"), d("0.1")]);
    }

    #[test]
    fn minimal_candidates_chain_of_ancestors() {
        let got = minimal_candidates(vec![d("0"), d("0.0"), d("0.0.0"), d("0.0.0.0")]);
        assert_eq!(got, vec![d("0.0.0.0")]);
    }

    #[test]
    fn brute_force_single_list_keeps_deepest_matches() {
        let l = ps(&["0.0", "0.0.1", "0.2"]);
        let got = slca_brute_force(&[&l]);
        assert_eq!(got, vec![d("0.0.1"), d("0.2")]);
    }

    #[test]
    fn brute_force_two_lists() {
        // figure-1-like: xml in 0.0.2.0.0 and 0.1.1.0.0; john in 0.1.0
        let xml = ps(&["0.0.2.0.0", "0.1.1.0.0"]);
        let john = ps(&["0.1.0"]);
        let got = slca_brute_force(&[&xml, &john]);
        assert_eq!(got, vec![d("0.1")]);
    }

    #[test]
    fn brute_force_empty_inputs() {
        let l = ps(&["0.0"]);
        let none: [&[Posting]; 0] = [];
        let pair: [&[Posting]; 2] = [&l, &[]];
        assert!(slca_brute_force(&none).is_empty());
        assert!(slca_brute_force(&pair).is_empty());
    }

    #[test]
    fn closest_match_picks_deeper_side() {
        let l = ps(&["0.0.1", "0.2.5"]);
        // anchor 0.2.4: pred 0.0.1 (lca 0), succ 0.2.5 (lca 0.2) -> succ
        assert_eq!(closest_match(&l, &d("0.2.4")).unwrap(), &d("0.2.5"));
        // anchor 0.0.2: pred 0.0.1 (lca 0.0), succ 0.2.5 (lca 0) -> pred
        assert_eq!(closest_match(&l, &d("0.0.2")).unwrap(), &d("0.0.1"));
        assert_eq!(closest_match(&[], &d("0")), None);
    }
}
