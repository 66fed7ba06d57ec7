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
//!
//! Inside a shared partition each posting costs one label comparison: a
//! walk to the first difference with the anchor gives the order (pass or
//! stop) and the common-prefix length together, so neither the successor
//! that stops a cursor nor the predecessor it passed is walked again. A
//! predecessor kept from an earlier anchor is repriced from one walk per
//! anchor against the anchor before it. One list needs no join: its SLCAs
//! are its postings below the root that the next posting does not lie
//! inside, found in one forward pass.
//!
//! The join has one consumer, [`slca_scan_eager_page`]: Scan Eager
//! stopped at a page. It judges each SLCA below the root once it is
//! final and stops at the first one past the page. Anchors ascend, so the
//! last label kept is final once an anchor outside its subtree has been
//! seen: a later candidate is a prefix of a later anchor, so it can no
//! longer lie inside that label. Each result is judged with the anchor it
//! came from, a posting inside it. Its work is the prefix of the full
//! scan up to that anchor. [`slca_scan_eager`] is the page scan with no
//! bound and a judge that keeps every SLCA, plus the root when there is
//! none below it.

use crate::common::{closest_match, minimal_candidates};
use invindex::{ListHandle, PartitionRuns, Posting, HEAD_AT_ROOT};
use std::cmp::Ordering;
use xmldom::Dewey;

/// Indexed-Lookup-Eager SLCA over posting slices: `&[Posting]`,
/// `Vec<Posting>`, or a built list's `PostingList::as_slice()`. A caller
/// holding [`ListHandle`]s copies their `run_postings()` into vectors.
// xlint::allow(unused-export): advertised pluggable SLCA method (XKSearch's Indexed Lookup Eager, the binary-probe sibling of Scan Eager), held to the oracle by the differential tests
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
    let (found, _) = slca_scan_eager_page(lists, usize::MAX, |_, _| true);
    if found.is_empty() && !lists.is_empty() && !lists.iter().any(ListHandle::is_empty) {
        return vec![Dewey::root()];
    }
    found
}

/// Scan Eager stopped at a page (see the module docs): the first `n`
/// SLCAs below the root that `keep` accepts, in document order, and
/// whether one more exists. `keep` sees each SLCA once it is final, with
/// a posting inside it. The root, the one SLCA when no partition holds
/// every list, is never on the page.
pub fn slca_scan_eager_page(
    lists: &[ListHandle],
    n: usize,
    keep: impl FnMut(&[u32], &Posting) -> bool,
) -> (Vec<Dewey>, bool) {
    obs::counter!("slca_invocations_total").inc();
    let Some((shortest, anchors)) = (lists.iter().enumerate()).min_by_key(|(_, l)| l.len()) else {
        return (Vec::new(), false);
    };
    // The shortest list is empty exactly when some list is.
    if anchors.is_empty() {
        return (Vec::new(), false);
    }
    let mut page = Page {
        n,
        keep,
        found: Vec::with_capacity(n.min(anchors.len())),
        last: None,
        more: false,
    };
    let steps = match lists {
        [one] => deepest_postings(one, |p| page.judge(p.dewey.components(), p)),
        _ => run_join(lists, shortest, anchors, &mut page),
    };
    if let Some(last) = page.last.filter(|last| !last.judged && !page.more) {
        page.judge(last.label, last.inside);
    }
    obs::counter!("slca_eager_steps_total").add(steps);
    obs::trace::count("slca.steps", steps);
    (page.found, page.more)
}

/// The SLCAs of one list, each handed to `emit` (which returns `true` to
/// stop), and the steps taken: its postings below the root that the next
/// posting does not lie inside — a posting with a descendant in the list
/// has that descendant right after it, in document order, and in its
/// partition, so in its run. One step per posting below the root passed.
fn deepest_postings<'a>(list: &'a ListHandle, mut emit: impl FnMut(&'a Posting) -> bool) -> u64 {
    let mut steps = 0;
    for run in list.run_postings() {
        for (i, p) in run.iter().enumerate() {
            let label = p.dewey.components();
            // The root sorts before every other label.
            if label.len() == 1 {
                continue;
            }
            steps += 1;
            if !run
                .get(i + 1)
                .is_some_and(|next| next.dewey.components().starts_with(label))
                && emit(p)
            {
                return steps;
            }
        }
    }
    steps
}

/// What [`slca_scan_eager_page`] keeps: the page, and the last minimal
/// candidate, judged once it is final.
struct Page<'a, F> {
    n: usize,
    keep: F,
    found: Vec<Dewey>,
    last: Option<Last<'a>>,
    /// An SLCA past the page was accepted: the scan is over.
    more: bool,
}

/// The last minimal candidate of a page's scan.
#[derive(Clone, Copy)]
struct Last<'a> {
    label: &'a [u32],
    /// The anchor it came from, a posting inside it.
    inside: &'a Posting,
    /// Final, and handed to `keep`.
    judged: bool,
}

impl<'a, F: FnMut(&[u32], &Posting) -> bool> Page<'a, F> {
    /// Judges a final SLCA; `true` once it is one past the page.
    fn judge(&mut self, label: &[u32], inside: &Posting) -> bool {
        if !(self.keep)(label, inside) {
            return false;
        }
        if self.found.len() == self.n {
            self.more = true;
            return true;
        }
        self.found.extend(Dewey::from_slice(label));
        false
    }

    /// Takes `label`, the candidate of `anchor` (a prefix of it), and
    /// returns `true` to end the join. Every label kept is a prefix of an
    /// anchor at or before this one, so one that neither holds nor lies
    /// inside the candidate precedes it, and the last label alone
    /// decides: holding the candidate, it is replaced; inside it (or
    /// equal), the candidate is not minimal. One walk to their first
    /// difference tells which. The last label is judged once it is final.
    fn take(&mut self, label: &'a [u32], anchor: &'a Posting) -> bool {
        let next = Last {
            label,
            inside: anchor,
            judged: false,
        };
        let Some(last) = self.last else {
            self.last = Some(next);
            return false;
        };
        let (_, shared) = first_difference(last.label, label);
        if shared == label.len() {
            // The candidate holds the last label, so it is not minimal.
            // The anchor may lie outside that label all the same.
            if last.judged || anchor.dewey.components().starts_with(last.label) {
                return false;
            }
            self.last = Some(Last {
                judged: true,
                ..last
            });
            return self.judge(last.label, last.inside);
        }
        self.last = Some(next);
        if shared == last.label.len() {
            // The last label holds the candidate, which replaces it; it was
            // not final, since the anchor lies inside it.
            debug_assert!(!last.judged);
            return false;
        }
        // The candidate follows the last label, outside it.
        !last.judged && self.judge(last.label, last.inside)
    }
}

/// Scan Eager over two or more lists, anchored on `anchors`, the list at
/// `shortest`: the run join of the module docs. Hands each anchor's
/// candidate to `found` (none when no partition holds every list) until
/// it asks to stop, and returns the steps taken.
fn run_join<'a, F: FnMut(&[u32], &Posting) -> bool>(
    lists: &'a [ListHandle],
    shortest: usize,
    anchors: &'a ListHandle,
    found: &mut Page<'a, F>,
) -> u64 {
    let mut anchor_runs = anchors.partition_runs();
    let mut others: Vec<RunJoin<'_>> = (lists.iter().enumerate())
        .filter(|&(i, _)| i != shortest)
        .map(|(_, list)| RunJoin {
            runs: list.partition_runs(),
            run: &[],
            pos: 0,
            pred_prefix: 0,
        })
        .collect();
    let mut steps = 0u64;
    // The partition every cursor is asked to reach; the root's postings
    // stand in none.
    let mut head = HEAD_AT_ROOT + 1;
    'join: loop {
        steps += anchor_runs.seek(head);
        let Some(at) = anchor_runs.head() else {
            break;
        };
        head = at;
        for other in &mut others {
            steps += other.runs.seek(head);
            match other.runs.head() {
                Some(at) if at == head => {
                    other.run = other.runs.current_postings().unwrap_or_default();
                    other.pos = 0;
                    other.pred_prefix = 0;
                }
                // The list lacks `head`: every cursor must reach `at`.
                Some(at) => {
                    head = at;
                    continue 'join;
                }
                None => break 'join,
            }
        }
        // The previous anchor of the run; none before its first.
        let mut prev: &[u32] = &[];
        for anchor in anchor_runs.current_postings().unwrap_or_default() {
            let a = anchor.dewey.components();
            let (_, step) = first_difference(prev, a);
            prev = a;
            // Every per-list LCA is a prefix of the anchor, so only the
            // minimum common-prefix length is tracked; the candidate label
            // is built once per anchor instead of once per list.
            let mut min_prefix = a.len();
            for other in &mut others {
                steps += 1;
                min_prefix = min_prefix.min(other.closest_prefix(a, step, &mut steps));
            }
            if found.take(a.get(..min_prefix).unwrap_or_default(), anchor) {
                break 'join;
            }
        }
        head += 1;
    }
    steps
}

/// Compares two labels by one walk to their first difference: the order
/// of `a` against `b` and the length of their common prefix. `Dewey`'s
/// `Ord` walks the labels for the order alone, and
/// `Dewey::common_prefix_len` again for the length.
#[inline]
fn first_difference(a: &[u32], b: &[u32]) -> (Ordering, usize) {
    let n = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let order = match (a.get(n), b.get(n)) {
        (Some(x), Some(y)) => x.cmp(y),
        _ => a.len().cmp(&b.len()),
    };
    (order, n)
}

/// Where a list stands in Scan Eager's run join.
struct RunJoin<'a> {
    runs: PartitionRuns<'a>,
    /// The list's postings in the partition every list stands in …
    run: &'a [Posting],
    /// … the cursor in them: the first posting after the last anchor …
    pos: usize,
    /// … and the common-prefix length of the posting before the cursor,
    /// the predecessor, with the last anchor (0 when there is none).
    pred_prefix: usize,
}

impl RunJoin<'_> {
    /// The length of the longest common prefix of `anchor` with a posting
    /// of the current run — its predecessor (`<= anchor`) or successor,
    /// whichever shares more. `step` is the common-prefix length of the
    /// anchor with the run's previous anchor. Anchors ascend, so the
    /// cursor only moves forward: one step and one walk per posting
    /// passed, and one walk for the successor that stops it. The walk
    /// that passes a posting prices it, so the predecessor is not walked
    /// again.
    fn closest_prefix(&mut self, anchor: &[u32], step: usize, steps: &mut u64) -> usize {
        // The predecessor is at or before the previous anchor, which is at
        // or before this one, and for labels `x <= y <= z` in document
        // order, `lcp(x, z) = min(lcp(x, y), lcp(y, z))`.
        self.pred_prefix = self.pred_prefix.min(step);
        while let Some(p) = self.run.get(self.pos) {
            let (order, shared) = first_difference(p.dewey.components(), anchor);
            if order == Ordering::Greater {
                return self.pred_prefix.max(shared);
            }
            self.pred_prefix = shared;
            self.pos += 1;
            *steps += 1;
        }
        self.pred_prefix
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
