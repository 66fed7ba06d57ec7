//! The index read path's currency.
//!
//! [`ListHandle`] is what [`crate::KvBackedIndex`], the one reader the
//! query layers (refinement, ranking, narrowing) consume, hands out: a
//! cheap, clonable, `Arc`-shared view over a decoded posting list.
//! Handles stay valid after cache eviction (the `Arc` keeps the decoded
//! list alive), so scans never observe a list disappearing under them.

use crate::postings::{PartitionRun, Posting, PostingList};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use xmldom::{Dewey, Document, NodeTypeId};

/// A shared, immutable view over (a contiguous range of) a decoded
/// posting list.
///
/// Handles deref to `[Posting]`, so every slice-shaped algorithm works on
/// them unchanged; [`ListHandle::slice`] produces sub-views that share
/// the same decoded allocation.
#[derive(Debug, Clone)]
pub struct ListHandle {
    list: Arc<PostingList>,
    start: usize,
    end: usize,
}

impl ListHandle {
    /// A handle over the whole of `list`.
    pub fn new(list: Arc<PostingList>) -> Self {
        let end = list.len();
        ListHandle {
            list,
            start: 0,
            end,
        }
    }

    /// A handle over an owned vector of postings (test/bridge helper).
    // xlint::allow(unused-export): test constructor — cursor and SLCA tests build handles with no index behind them
    pub fn from_postings(postings: Vec<Posting>) -> Self {
        ListHandle::new(Arc::new(PostingList::from_sorted(postings)))
    }

    /// The canonical empty handle (shared allocation).
    pub fn empty() -> Self {
        static EMPTY: OnceLock<Arc<PostingList>> = OnceLock::new();
        ListHandle::new(Arc::clone(
            EMPTY.get_or_init(|| Arc::new(PostingList::new())),
        ))
    }

    /// The postings visible through this handle.
    pub fn postings(&self) -> &[Posting] {
        &self.list.as_slice()[self.start..self.end]
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of this handle (range is relative to this view). The
    /// returned handle shares the decoded allocation.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= self.len());
        ListHandle {
            list: Arc::clone(&self.list),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Index of the first visible posting `>= target` (view-relative).
    pub fn lower_bound(&self, target: &Dewey) -> usize {
        self.postings().partition_point(|p| p.dewey < *target)
    }

    /// View-relative range of postings inside `root`'s subtree
    /// (including `root` itself).
    pub fn partition_range(&self, root: &Dewey) -> Range<usize> {
        let ps = self.postings();
        let start = self.lower_bound(root);
        let end = start + ps[start..].partition_point(|p| root.is_ancestor_or_self_of(&p.dewey));
        start..end
    }

    /// Index, in the list's [`PostingList::runs`], of the partition run
    /// holding the view's first posting (a view may start in the middle
    /// of a run): a binary search over the runs.
    fn first_run(&self) -> usize {
        let runs = self.list.runs();
        runs.partition_point(|r| r.start <= self.start)
            .saturating_sub(1)
    }

    /// A cursor over the partition runs visible through this handle,
    /// standing in the first: joining lists on these integers finds the
    /// partitions they share without reading a label.
    pub fn partition_runs(&self) -> PartitionRuns<'_> {
        let runs = self.list.runs();
        // The runs overlapping the view: from the one holding its first
        // posting through the one holding its last.
        let first = self.first_run();
        let last = runs.partition_point(|r| r.start < self.end);
        let visible = if self.is_empty() {
            &[]
        } else {
            runs.get(first..last).unwrap_or_default()
        };
        PartitionRuns {
            runs: visible,
            start: self.start,
            end: self.end,
        }
    }
}

/// A forward cursor over a [`ListHandle`]'s partition runs
/// ([`ListHandle::partition_runs`]). A copy is a second cursor over the
/// same runs, standing where this one stands.
#[derive(Clone)]
pub struct PartitionRuns<'a> {
    /// The visible runs from the current one on; a run's `start` indexes
    /// the whole list.
    runs: &'a [PartitionRun],
    /// The view, in whole-list indices.
    start: usize,
    end: usize,
}

impl PartitionRuns<'_> {
    /// The run the cursor stands in: its partition (its
    /// [`PartitionRun::head`]) and its view-relative range, clamped to the
    /// view; `None` past the last run.
    pub fn current(&self) -> Option<(u64, Range<usize>)> {
        let mut rest = self.runs.iter();
        let run = rest.next()?;
        let end = rest.next().map_or(self.end, |next| next.start);
        let from = run.start.max(self.start) - self.start;
        Some((run.head, from..end - self.start))
    }

    /// The number of runs from the current one on.
    pub fn remaining(&self) -> usize {
        self.runs.len()
    }

    /// Moves to the first run whose partition is `head` or later, by
    /// [`gallop`], and returns the number of run heads compared.
    pub fn seek(&mut self, head: u64) -> u64 {
        let (to, probes) = gallop(self.runs, |r| r.head < head);
        self.runs = self.runs.get(to..).unwrap_or_default();
        probes
    }
}

/// The partition point of `items` under `before` (true for a prefix of
/// `items`, false after it), found from the front by galloping: probes at
/// 1, 2, 4, … then a binary search of the last gap, so a point `d` items
/// in costs `O(log d)` probes, not `O(log n)`. Returns the point and the
/// number of probes.
pub fn gallop<T>(items: &[T], before: impl Fn(&T) -> bool) -> (usize, u64) {
    if !items.first().is_some_and(&before) {
        return (0, 1);
    }
    // `items[passed]` is before the point; `items[bound]`, if any, is not.
    let (mut passed, mut bound, mut probes) = (0, 1, 1);
    while items.get(bound).is_some_and(&before) {
        passed = bound;
        bound = bound.saturating_mul(2);
        probes += 1;
    }
    let window = items
        .get(passed + 1..bound.min(items.len()))
        .unwrap_or_default();
    probes += u64::from(usize::BITS - window.len().leading_zeros());
    (passed + 1 + window.partition_point(before), probes)
}

impl Default for ListHandle {
    fn default() -> Self {
        ListHandle::empty()
    }
}

impl std::ops::Deref for ListHandle {
    type Target = [Posting];

    fn deref(&self) -> &[Posting] {
        self.postings()
    }
}

impl AsRef<[Posting]> for ListHandle {
    fn as_ref(&self) -> &[Posting] {
        self.postings()
    }
}

/// Distinct `t`-typed ancestors-or-self of the postings, in document
/// order — the sets whose intersections the co-occurrence statistics
/// count.
pub fn typed_ancestors_in(doc: &Document, postings: &[Posting], t: NodeTypeId) -> Vec<Dewey> {
    let types = doc.node_types();
    let t_path = types.path(t);
    let t_len = t_path.len();
    let mut out: Vec<Dewey> = Vec::new();
    for p in postings {
        if p.dewey.len() < t_len {
            continue;
        }
        let p_path = types.path(p.node_type);
        if p_path[..t_len] != *t_path {
            continue;
        }
        let anc = &p.dewey.components()[..t_len];
        if out.last().map(Dewey::components) != Some(anc) {
            out.extend(Dewey::from_slice(anc));
        }
    }
    out
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

    #[test]
    fn handle_views_share_the_allocation() {
        let h = ListHandle::from_postings(ps(&["0.0.0", "0.0.1", "0.1.0", "0.1.2", "0.2"]));
        assert_eq!(h.len(), 5);
        let sub = h.slice(1..4);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub[0].dewey.to_string(), "0.0.1");
        // sub-slicing composes and stays view-relative
        let subsub = sub.slice(1..3);
        assert_eq!(subsub[0].dewey.to_string(), "0.1.0");
        assert_eq!(subsub.len(), 2);
    }

    #[test]
    fn partition_range_is_view_relative() {
        let h = ListHandle::from_postings(ps(&["0.0.0", "0.0.1", "0.1.0", "0.1.2", "0.2"]));
        let root: Dewey = "0.1".parse().unwrap();
        assert_eq!(h.partition_range(&root), 2..4);
        let sub = h.slice(2..5);
        assert_eq!(sub.partition_range(&root), 0..2);
    }

    #[test]
    fn gallop_finds_the_partition_point_in_logarithmic_probes() {
        for n in 0..70usize {
            let items: Vec<usize> = (0..n).collect();
            for point in 0..=n {
                let (found, probes) = gallop(&items, |&i| i < point);
                assert_eq!(found, point, "n={n}");
                // Twice the bits of the distance, plus the first probe.
                let bits = u64::from(usize::BITS - point.leading_zeros());
                assert!(
                    probes <= 2 * bits + 1,
                    "n={n} point={point}: {probes} probes"
                );
            }
        }
    }

    /// Every run of the view, in order, by `current` and `seek`.
    fn runs_of(h: &ListHandle) -> Vec<(u64, Range<usize>)> {
        let mut runs = h.partition_runs();
        let mut seen = Vec::new();
        while let Some((head, range)) = runs.current() {
            seen.push((head, range));
            runs.seek(head + 1);
        }
        seen
    }

    #[test]
    fn partition_runs_order_the_root_the_partitions_and_the_last_ordinal() {
        let h = ListHandle::from_postings(ps(&["0", "0.0.3", "0.7", "0.7.1", "0.4294967295.1"]));
        assert_eq!(
            runs_of(&h),
            [
                (crate::postings::HEAD_AT_ROOT, 0..1),
                (1, 1..2),
                (8, 2..4),
                (u64::from(u32::MAX) + 1, 4..5)
            ]
        );
        assert_eq!(ListHandle::empty().partition_runs().current(), None);
    }

    #[test]
    fn partition_runs_seek_forward_only_and_stay_inside_the_view() {
        let h = ListHandle::from_postings(ps(&["0.0.0", "0.0.1", "0.1.0", "0.1.2", "0.2"]));
        let mut runs = h.partition_runs();
        runs.seek(2);
        assert_eq!(runs.current(), Some((2, 2..4)));
        // Seeking to where it stands, or behind it, does not move it.
        runs.seek(2);
        runs.seek(1);
        assert_eq!(runs.current(), Some((2, 2..4)));
        // A copy moves on its own.
        let mut ahead = runs.clone();
        ahead.seek(3);
        assert_eq!(ahead.current(), Some((3, 4..5)));
        assert_eq!(runs.current(), Some((2, 2..4)));
        ahead.seek(4);
        assert_eq!(ahead.current(), None);

        // A view that starts and ends mid-run: its runs are clamped to it,
        // view-relative.
        assert_eq!(runs_of(&h.slice(1..3)), [(1, 0..1), (2, 1..2)]);
        assert_eq!(runs_of(&h.slice(2..5).slice(1..3)), [(2, 0..1), (3, 1..2)]);
        // An empty view in the middle of a list has no runs.
        assert_eq!(h.slice(2..2).partition_runs().current(), None);
    }

    #[test]
    fn empty_handle_is_shared_and_empty() {
        let a = ListHandle::empty();
        let b = ListHandle::default();
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(a.lower_bound(&"0.1".parse().unwrap()), 0);
    }
}
