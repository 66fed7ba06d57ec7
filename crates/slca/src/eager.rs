//! The XKSearch SLCA algorithms (\[3\] in the paper): *Indexed Lookup Eager*
//! and *Scan Eager*.
//!
//! Both anchor the computation on the elements of the shortest list. For
//! each anchor, the closest match from every other list (predecessor or
//! successor — whichever shares the longer prefix) is found; the SLCA
//! candidate is the shortest of the resulting per-list LCAs (all are
//! prefixes of the anchor, so they are totally ordered). Indexed Lookup
//! Eager locates closest matches by binary probes (`O(|S1| k log |Smax|)`);
//! Scan Eager advances one forward cursor per list instead, which wins when
//! list lengths are comparable.

use crate::common::{closest_match, minimal_candidates};
use invindex::Posting;
use xmldom::Dewey;

/// Indexed-Lookup-Eager SLCA. Accepts anything list-shaped — `&[Posting]`,
/// `Vec<Posting>`, or an [`invindex::ListHandle`] from any backend.
// xlint::allow(unused-export): advertised pluggable SLCA method (the paper's `stack-slca` baseline), held to the oracle by the differential tests
pub fn slca_indexed_lookup_eager<S: AsRef<[Posting]>>(lists: &[S]) -> Vec<Dewey> {
    obs::counter!("slca_invocations_total").inc();
    let lists: Vec<&[Posting]> = lists.iter().map(AsRef::as_ref).collect();
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    let shortest = lists
        .iter()
        .enumerate()
        .min_by_key(|(_, l)| l.len())
        .map(|(i, _)| i)
        .expect("non-empty list set");

    // Steps (anchor × other-list probes) accumulate locally and flush as a
    // single atomic add so instrumentation stays off the inner loop.
    let mut steps = 0u64;
    let mut candidates = Vec::with_capacity(lists[shortest].len());
    for anchor in lists[shortest] {
        steps += lists.len() as u64 - 1;
        if let Some(c) = candidate_for_anchor(&lists, shortest, &anchor.dewey, |list, a| {
            closest_match(list, a)
        }) {
            candidates.push(c);
        }
    }
    obs::counter!("slca_eager_steps_total").add(steps);
    obs::trace::count("slca.steps", steps);
    minimal_candidates(candidates)
}

/// Scan-Eager SLCA: identical candidates, but closest matches come from
/// forward cursors rather than binary probes.
pub fn slca_scan_eager<S: AsRef<[Posting]>>(lists: &[S]) -> Vec<Dewey> {
    obs::counter!("slca_invocations_total").inc();
    let lists: Vec<&[Posting]> = lists.iter().map(AsRef::as_ref).collect();
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    let shortest = lists
        .iter()
        .enumerate()
        .min_by_key(|(_, l)| l.len())
        .map(|(i, _)| i)
        .expect("non-empty list set");

    // One forward position per list: index of the first element > the
    // previous anchor. Anchors ascend, so positions only move forward.
    let mut pos = vec![0usize; lists.len()];
    let mut steps = 0u64;
    // Not sized by the anchor list: refinement hands this function whole
    // lists, where runs of anchors share one candidate (all of a
    // partition lacking another keyword meet it at the root), and a run
    // is kept as its first element only.
    let mut candidates: Vec<Dewey> = Vec::new();
    for anchor in lists[shortest] {
        let a = &anchor.dewey;
        // The per-list LCA is a prefix of the anchor, so only the minimum
        // common-prefix length is tracked; the candidate label is built once
        // per anchor instead of once per list.
        let mut min_prefix: Option<usize> = None;
        let mut dead = false;
        for (i, list) in lists.iter().enumerate() {
            if i == shortest {
                continue;
            }
            steps += 1;
            // advance cursor while the next element is still <= anchor
            while pos[i] < list.len() && list[pos[i]].dewey <= *a {
                pos[i] += 1;
                steps += 1;
            }
            let pred = pos[i].checked_sub(1).map(|j| &list[j].dewey);
            let succ = list.get(pos[i]).map(|p| &p.dewey);
            let best = match (pred, succ) {
                (Some(p), Some(s)) => {
                    if a.common_prefix_len(p) >= a.common_prefix_len(s) {
                        p
                    } else {
                        s
                    }
                }
                (Some(p), None) => p,
                (None, Some(s)) => s,
                (None, None) => {
                    dead = true;
                    break;
                }
            };
            let n = a.common_prefix_len(best);
            min_prefix = Some(min_prefix.map_or(n, |cur| cur.min(n)));
        }
        if dead {
            continue;
        }
        let candidate = &a.components()[..min_prefix.unwrap_or(a.len())];
        if candidates.last().map(Dewey::components) != Some(candidate) {
            candidates.push(Dewey::new(candidate.to_vec()).expect("same document"));
        }
    }
    obs::counter!("slca_eager_steps_total").add(steps);
    obs::trace::count("slca.steps", steps);
    minimal_candidates(candidates)
}

/// Shared anchor-candidate computation for probe-based variants.
///
/// Every per-list LCA is a prefix of the anchor, so the shortest one is
/// identified by the minimum common-prefix length — compared as plain
/// `usize`s — and materialized as a `Dewey` exactly once on return.
fn candidate_for_anchor<'a>(
    lists: &[&'a [Posting]],
    anchor_list: usize,
    anchor: &Dewey,
    locate: impl Fn(&'a [Posting], &Dewey) -> Option<&'a Dewey>,
) -> Option<Dewey> {
    let mut min_prefix: Option<usize> = None;
    for (i, list) in lists.iter().enumerate() {
        if i == anchor_list {
            continue;
        }
        let m = locate(list, anchor)?;
        let n = anchor.common_prefix_len(m);
        min_prefix = Some(min_prefix.map_or(n, |cur| cur.min(n)));
    }
    match min_prefix {
        Some(n) => Some(anchor.prefix(n).expect("same document")),
        None => Some(anchor.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::slca_brute_force;
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
    fn both_agree_with_brute_force_on_fixture() {
        let a = ps(&["0.0.2.0.0", "0.1.1.0.0"]); // xml
        let b = ps(&["0.0.2.1.1", "0.0.2.2.1"]); // 2003
        let c = ps(&["0.1.0"]); // john
        let cases: Vec<Vec<&[Posting]>> = vec![
            vec![&a],
            vec![&a, &b],
            vec![&a, &c],
            vec![&a, &b, &c],
            vec![&b, &c],
        ];
        for lists in cases {
            let expected = slca_brute_force(&lists);
            assert_eq!(slca_indexed_lookup_eager(&lists), expected);
            assert_eq!(slca_scan_eager(&lists), expected);
        }
    }

    #[test]
    fn single_keyword_returns_deepest_matches() {
        let a = ps(&["0.0", "0.0.1", "0.3"]);
        let expected = vec![d("0.0.1"), d("0.3")];
        assert_eq!(slca_indexed_lookup_eager(&[&a]), expected);
        assert_eq!(slca_scan_eager(&[&a]), expected);
    }

    #[test]
    fn disjoint_lists_meet_at_root() {
        let a = ps(&["0.0.0"]);
        let b = ps(&["0.1.0"]);
        let expected = vec![d("0")];
        assert_eq!(slca_indexed_lookup_eager(&[&a, &b]), expected);
        assert_eq!(slca_scan_eager(&[&a, &b]), expected);
    }

    #[test]
    fn empty_list_means_no_result() {
        let a = ps(&["0.0"]);
        let pair: [&[Posting]; 2] = [&a, &[]];
        assert!(slca_indexed_lookup_eager(&pair).is_empty());
        assert!(slca_scan_eager(&pair).is_empty());
        let none: [&[Posting]; 0] = [];
        assert!(slca_indexed_lookup_eager(&none).is_empty());
    }

    #[test]
    fn same_node_in_all_lists() {
        let a = ps(&["0.0.1"]);
        let b = ps(&["0.0.1"]);
        let expected = vec![d("0.0.1")];
        assert_eq!(slca_indexed_lookup_eager(&[&a, &b]), expected);
        assert_eq!(slca_scan_eager(&[&a, &b]), expected);
    }
}
