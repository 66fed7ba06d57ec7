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
//!
//! Scan Eager also joins the lists on their partition runs
//! ([`ListHandle::partition_runs`]). A match sharing more than the root
//! with an anchor stands in the anchor's partition (Definition 6.1), so
//! anchors in a partition some list lacks meet that list at the root:
//! the run cursors leapfrog — each gallops over its run table to the
//! largest partition any cursor stands in, until all stand in one — and
//! such partitions are passed without reading a label. The eager step
//! runs only inside the partitions every list holds, on cursors clamped
//! to the runs there, and keeps the minimal candidates as it goes
//! (anchors ascend, so the last one kept decides). Its work is bounded by
//! those partitions' postings plus a logarithmic seek per list and
//! partition tried, not by the lists' lengths.

use crate::common::{closest_match, minimal_candidates};
use invindex::{ListHandle, PartitionRuns, Posting, HEAD_AT_ROOT};
use xmldom::Dewey;

/// Indexed-Lookup-Eager SLCA. Accepts anything list-shaped — `&[Posting]`,
/// `Vec<Posting>`, or an [`invindex::ListHandle`].
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

/// Scan-Eager SLCA, joined on the lists' partition runs (see the module
/// docs): identical results, but closest matches come from forward
/// cursors rather than binary probes, and only inside partitions every
/// list holds. When no list is empty and no partition is held by all,
/// the root is the one SLCA.
pub fn slca_scan_eager(lists: &[ListHandle]) -> Vec<Dewey> {
    obs::counter!("slca_invocations_total").inc();
    let Some((shortest, anchors)) = (lists.iter().enumerate()).min_by_key(|(_, l)| l.len()) else {
        return Vec::new();
    };
    // The shortest list is empty exactly when some list is.
    let Some(root) = anchors.first().and_then(|p| p.dewey.prefix(1)) else {
        return Vec::new();
    };

    let mut anchor_runs = anchors.partition_runs();
    let mut others: Vec<RunJoin<'_>> = (lists.iter().enumerate())
        .filter(|&(i, _)| i != shortest)
        .map(|(_, list)| RunJoin {
            list,
            runs: list.partition_runs(),
            run: &[],
            pos: 0,
        })
        .collect();
    let mut steps = 0u64;
    let mut found: Vec<Dewey> = Vec::new();
    // The partition every cursor is asked to reach; the root's postings
    // stand in none.
    let mut head = HEAD_AT_ROOT + 1;
    'join: loop {
        steps += anchor_runs.seek(head);
        let Some((at, range)) = anchor_runs.current() else {
            break;
        };
        head = at;
        for other in &mut others {
            steps += other.runs.seek(head);
            match other.runs.current() {
                Some((at, run)) if at == head => {
                    other.run = other.list.get(run).unwrap_or_default();
                    other.pos = 0;
                }
                // The list lacks `head`: every cursor must reach `at`.
                Some((at, _)) => {
                    head = at;
                    continue 'join;
                }
                None => break 'join,
            }
        }
        for anchor in anchors.get(range).unwrap_or_default() {
            let a = &anchor.dewey;
            // Every per-list LCA is a prefix of the anchor, so only the
            // minimum common-prefix length is tracked; the candidate label
            // is built once per anchor instead of once per list.
            let mut min_prefix = a.len();
            for other in &mut others {
                steps += 1;
                min_prefix = min_prefix.min(other.closest_prefix(a, &mut steps));
            }
            keep_minimal(
                &mut found,
                a.components().get(..min_prefix).unwrap_or_default(),
            );
        }
        head += 1;
    }
    obs::counter!("slca_eager_steps_total").add(steps);
    obs::trace::count("slca.steps", steps);
    if found.is_empty() {
        return vec![root];
    }
    found
}

/// Adds an anchor's candidate to `found`, the SLCAs of the anchors before
/// it: ascending, no two nested. Every kept label is a prefix of an
/// anchor at or before this one, so one that neither contains nor lies
/// inside the candidate precedes it; those inside it are the tail of
/// `found`, and one containing it can only be the last. So the last
/// label alone decides: inside the candidate (or equal), the candidate
/// is not minimal; containing it, the candidate replaces it.
fn keep_minimal(found: &mut Vec<Dewey>, candidate: &[u32]) {
    if let Some(last) = found.last().map(Dewey::components) {
        if last.starts_with(candidate) {
            return;
        }
        if candidate.starts_with(last) {
            found.pop();
        }
    }
    found.extend(Dewey::from_slice(candidate));
}

/// Where a list stands in [`slca_scan_eager`]'s run join.
struct RunJoin<'a> {
    list: &'a ListHandle,
    runs: PartitionRuns<'a>,
    /// The list's postings in the partition every list stands in …
    run: &'a [Posting],
    /// … and the cursor in them: the first posting after the last anchor.
    pos: usize,
}

impl RunJoin<'_> {
    /// The length of the longest common prefix of `anchor` with a posting
    /// of the current run — its predecessor (`<= anchor`) or successor,
    /// whichever shares more. Anchors ascend, so the cursor only moves
    /// forward; one step per posting passed.
    fn closest_prefix(&mut self, anchor: &Dewey, steps: &mut u64) -> usize {
        while self.run.get(self.pos).is_some_and(|p| p.dewey <= *anchor) {
            self.pos += 1;
            *steps += 1;
        }
        let pred = self.pos.checked_sub(1).and_then(|j| self.run.get(j));
        let succ = self.run.get(self.pos);
        [pred, succ]
            .into_iter()
            .flatten()
            .map(|p| anchor.common_prefix_len(&p.dewey))
            .max()
            .unwrap_or(0)
    }
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

    fn handles(lists: &[&[Posting]]) -> Vec<ListHandle> {
        (lists.iter())
            .map(|l| ListHandle::from_postings(l.to_vec()))
            .collect()
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
            assert_eq!(slca_scan_eager(&handles(&lists)), expected);
        }
    }

    #[test]
    fn single_keyword_returns_deepest_matches() {
        let a = ps(&["0.0", "0.0.1", "0.3"]);
        let expected = vec![d("0.0.1"), d("0.3")];
        assert_eq!(slca_indexed_lookup_eager(&[&a]), expected);
        assert_eq!(slca_scan_eager(&handles(&[&a])), expected);
    }

    #[test]
    fn disjoint_lists_meet_at_root() {
        let a = ps(&["0.0.0"]);
        let b = ps(&["0.1.0"]);
        let expected = vec![d("0")];
        assert_eq!(slca_indexed_lookup_eager(&[&a, &b]), expected);
        assert_eq!(slca_scan_eager(&handles(&[&a, &b])), expected);
    }

    #[test]
    fn empty_list_means_no_result() {
        let a = ps(&["0.0"]);
        let pair: [&[Posting]; 2] = [&a, &[]];
        assert!(slca_indexed_lookup_eager(&pair).is_empty());
        assert!(slca_scan_eager(&handles(&pair)).is_empty());
        let none: [&[Posting]; 0] = [];
        assert!(slca_indexed_lookup_eager(&none).is_empty());
        assert!(slca_scan_eager(&[]).is_empty());
    }

    #[test]
    fn same_node_in_all_lists() {
        let a = ps(&["0.0.1"]);
        let b = ps(&["0.0.1"]);
        let expected = vec![d("0.0.1")];
        assert_eq!(slca_indexed_lookup_eager(&[&a, &b]), expected);
        assert_eq!(slca_scan_eager(&handles(&[&a, &b])), expected);
    }
}
