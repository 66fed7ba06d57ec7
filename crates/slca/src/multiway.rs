//! Multiway-SLCA (\[8\] in the paper): anchor-driven SLCA that skips
//! redundant LCA computations.
//!
//! Instead of anchoring on every element of the shortest list, each round
//! anchors on the *maximum* of the current list heads, computes one
//! candidate from the closest match in every other list, then advances all
//! cursors past the anchor. Elements skipped this way can only contribute
//! candidates that are ancestors of the one just emitted, so the final
//! minimal-filter yields the same SLCA set with fewer LCA computations —
//! the optimization the paper cites when calling its partition/SLE
//! algorithms "orthogonal to any existing SLCA method".

use crate::common::{closest_match, minimal_candidates};
use invindex::Posting;
use xmldom::Dewey;

/// Multiway-SLCA.
// xlint::allow(unused-export): advertised pluggable SLCA method backing the "orthogonal to any SLCA method" claim
pub fn slca_multiway<S: AsRef<[Posting]>>(lists: &[S]) -> Vec<Dewey> {
    obs::counter!("slca_invocations_total").inc();
    let lists: Vec<&[Posting]> = lists.iter().map(AsRef::as_ref).collect();
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    let mut pos = vec![0usize; lists.len()];
    let mut candidates = Vec::new();
    let mut steps = 0u64;

    loop {
        // Anchor: the maximum among current heads. Lists whose remaining
        // elements are exhausted no longer offer anchors, but still serve
        // closest-match probes over their full content.
        let mut anchor: Option<Dewey> = None;
        for (i, list) in lists.iter().enumerate() {
            if let Some(p) = list.get(pos[i]) {
                if anchor.as_ref().map(|a| p.dewey > *a).unwrap_or(true) {
                    anchor = Some(p.dewey.clone());
                }
            }
        }
        let Some(anchor) = anchor else { break };

        // Each per-list LCA is a prefix of the anchor, so the shortest one
        // is found by minimizing the common-prefix length and the candidate
        // label is allocated once per round, not once per list.
        let mut min_prefix = usize::MAX;
        for list in &lists {
            steps += 1;
            let m = closest_match(list, &anchor).expect("lists verified non-empty");
            min_prefix = min_prefix.min(anchor.common_prefix_len(m));
        }
        candidates.push(anchor.prefix(min_prefix).expect("same document"));

        // Advance every cursor past the anchor.
        for (i, list) in lists.iter().enumerate() {
            while pos[i] < list.len() && list[pos[i]].dewey <= anchor {
                pos[i] += 1;
            }
        }
    }
    obs::counter!("slca_multiway_steps_total").add(steps);
    obs::trace::count("slca.steps", steps);
    minimal_candidates(candidates)
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

    #[test]
    fn matches_brute_force_on_assorted_cases() {
        let a = ps(&["0.0.2.0.0", "0.1.1.0.0"]);
        let b = ps(&["0.0.2.1.1", "0.0.2.2.1"]);
        let c = ps(&["0.1.0"]);
        let dlist = ps(&["0.0", "0.0.1.2", "0.7.7.7"]);
        let e = ps(&["0.0.1.2.0", "0.5", "0.7.7"]);
        let cases: Vec<Vec<&[Posting]>> = vec![
            vec![&a],
            vec![&a, &b],
            vec![&a, &c],
            vec![&a, &b, &c],
            vec![&dlist, &e],
            vec![&dlist, &e, &a],
        ];
        for lists in cases {
            assert_eq!(
                slca_multiway(&lists),
                slca_brute_force(&lists),
                "case {lists:?}"
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let a = ps(&["0.1"]);
        let none: [&[Posting]; 0] = [];
        let pair: [&[Posting]; 2] = [&a, &[]];
        assert!(slca_multiway(&none).is_empty());
        assert!(slca_multiway(&pair).is_empty());
    }

    #[test]
    fn skipping_does_not_lose_deep_slcas() {
        // Dense cluster of matches inside one subtree.
        let a = ps(&["0.0.0", "0.0.1", "0.0.2", "0.9"]);
        let b = ps(&["0.0.1", "0.0.3", "0.9.1"]);
        assert_eq!(slca_multiway(&[&a, &b]), slca_brute_force(&[&a, &b]));
    }
}
