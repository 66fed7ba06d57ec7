//! The stack-based SLCA algorithm (\[3\]; the basis of the paper's
//! Algorithm 1).
//!
//! The merged stream of all keyword lists is consumed in document order.
//! The stack mirrors the Dewey components of the most recent node; each
//! entry carries a witness bitset: `keywords[i]` is true when the subtree
//! of the node the entry denotes contains keyword `i`. When an entry is
//! popped with all bits set, the node it denotes is an SLCA, and its
//! witness is *not* propagated to its parent (preventing every ancestor
//! from matching too); partial witnesses propagate upward.

use crate::common::minimal_candidates;
use invindex::{ListHandle, Posting};
use xmldom::Dewey;

struct Entry {
    component: u32,
    witness: Vec<bool>,
}

/// Stack-based SLCA over `k` posting lists, each read in document order
/// run by run ([`ListHandle::run_postings`]).
pub fn slca_stack(lists: &[ListHandle]) -> Vec<Dewey> {
    obs::counter!("slca_invocations_total").inc();
    if lists.is_empty() || lists.iter().any(ListHandle::is_empty) {
        return Vec::new();
    }
    let k = lists.len();
    let mut streams: Vec<_> = (lists.iter())
        .map(|l| l.run_postings().flatten().peekable())
        .collect();
    let mut stack: Vec<Entry> = Vec::new();
    let mut results: Vec<Dewey> = Vec::new();
    // Postings consumed from the merged stream, flushed as one atomic add.
    let mut steps = 0u64;

    loop {
        // k-way merge: smallest head across lists, with its keyword index.
        let mut best: Option<(usize, &Posting)> = None;
        for (i, stream) in streams.iter_mut().enumerate() {
            if let Some(&p) = stream.peek() {
                match best {
                    None => best = Some((i, p)),
                    Some((_, b)) if p.dewey < b.dewey => best = Some((i, p)),
                    _ => {}
                }
            }
        }
        let Some((list_idx, posting)) = best else {
            break;
        };
        streams[list_idx].next();
        steps += 1;
        let dewey = &posting.dewey;

        let comps = dewey.components();
        // common prefix length between stack path and the new node
        let mut p = 0;
        while p < stack.len() && p < comps.len() && stack[p].component == comps[p] {
            p += 1;
        }
        // pop entries below the common prefix
        pop_to(&mut stack, p, &mut results);
        // push the remaining components of the new node
        for &c in &comps[p..] {
            stack.push(Entry {
                component: c,
                witness: vec![false; k],
            });
        }
        // witness the keyword at the (possibly re-used) top entry
        if let Some(top) = stack.last_mut() {
            top.witness[list_idx] = true;
        }
    }
    pop_to(&mut stack, 0, &mut results);
    obs::counter!("slca_stack_steps_total").add(steps);
    obs::trace::count("slca.steps", steps);
    minimal_candidates(results)
}

/// Pops entries until the stack has height `target`, emitting SLCAs and
/// propagating partial witnesses.
fn pop_to(stack: &mut Vec<Entry>, target: usize, results: &mut Vec<Dewey>) {
    while stack.len() > target {
        let entry = stack.pop().expect("len > target >= 0");
        if entry.witness.iter().all(|&w| w) {
            // The popped node is an SLCA: its Dewey is the current stack
            // path plus the popped component.
            let mut comps: Vec<u32> = stack.iter().map(|e| e.component).collect();
            comps.push(entry.component);
            results.push(Dewey::new(comps).expect("non-empty"));
            // Do not propagate: ancestors must not count these witnesses.
        } else if let Some(parent) = stack.last_mut() {
            for (pw, w) in parent.witness.iter_mut().zip(entry.witness.iter()) {
                *pw |= w;
            }
        }
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

    fn handles(lists: &[&[Posting]]) -> Vec<ListHandle> {
        (lists.iter())
            .map(|l| ListHandle::from_postings(l.to_vec()))
            .collect()
    }

    #[test]
    fn matches_brute_force_on_small_cases() {
        let a = ps(&["0.0.2.0.0", "0.1.1.0.0"]);
        let b = ps(&["0.0.2.1.1", "0.0.2.2.1"]);
        let c = ps(&["0.1.0"]);
        let cases: Vec<Vec<&[Posting]>> =
            vec![vec![&a], vec![&a, &b], vec![&a, &c], vec![&a, &b, &c]];
        for lists in cases {
            assert_eq!(
                slca_stack(&handles(&lists)),
                slca_brute_force(&lists),
                "{lists:?}"
            );
        }
    }

    #[test]
    fn nested_matches_yield_only_smallest() {
        // keyword1 at 0.0 and 0.0.1.2; keyword2 at 0.0.1.2.0 and 0.5
        let a = ps(&["0.0", "0.0.1.2"]);
        let b = ps(&["0.0.1.2.0", "0.5"]);
        let expected = slca_brute_force(&[&a, &b]);
        assert_eq!(slca_stack(&handles(&[&a, &b])), expected);
        assert_eq!(expected, vec![d("0.0.1.2")]);
    }

    #[test]
    fn same_node_holds_both_keywords() {
        let a = ps(&["0.3.1"]);
        let b = ps(&["0.3.1"]);
        assert_eq!(slca_stack(&handles(&[&a, &b])), vec![d("0.3.1")]);
    }

    #[test]
    fn empty_inputs() {
        let a = ps(&["0.1"]);
        let none: [&[Posting]; 0] = [];
        let pair: [&[Posting]; 2] = [&a, &[]];
        assert!(slca_stack(&handles(&none)).is_empty());
        assert!(slca_stack(&handles(&pair)).is_empty());
    }

    #[test]
    fn root_slca_when_keywords_split_across_partitions() {
        let a = ps(&["0.0.5"]);
        let b = ps(&["0.2.1"]);
        assert_eq!(slca_stack(&handles(&[&a, &b])), vec![d("0")]);
    }
}
