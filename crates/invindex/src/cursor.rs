//! The one cursor over a posting list, and the counters it feeds.
//!
//! The paper's core efficiency claims (Theorems 1 and 2) are about *how
//! often* the keyword inverted lists are scanned. To make those claims
//! testable rather than taken on faith, every list *traversal* in the
//! refinement algorithms — Algorithm 1's k-way merge and Algorithm 2's
//! partition walk — goes through a [`ListCursor`], which counts
//! sequential advances into shared [`ScanStats`]. Integration tests
//! assert `advances <= list length` for the one-scan algorithms.
//!
//! Algorithm 3 (short-list eager) holds no cursor: it walks the short
//! list as a slice, probes the others by binary search
//! ([`ListHandle::partition_range`]) and rescans the survivors' lists,
//! and accounts for each itself — [`ScanStats::record_advance`],
//! [`ScanStats::record_random_access`], [`ScanStats::record_advances`].

use crate::postings::Posting;
use crate::reader::ListHandle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counters for list-access instrumentation.
#[derive(Debug, Default)]
pub struct ScanStats {
    advances: AtomicU64,
    random_accesses: AtomicU64,
}

impl ScanStats {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Sequential cursor advances across all instrumented lists.
    pub fn advances(&self) -> u64 {
        self.advances.load(Ordering::Relaxed)
    }

    /// Random (seek/probe) accesses across all instrumented lists.
    pub fn random_accesses(&self) -> u64 {
        self.random_accesses.load(Ordering::Relaxed)
    }

    /// Records one sequential advance: [`ListCursor::next`], or an
    /// algorithm that accounts its accesses itself (Algorithm 3).
    pub fn record_advance(&self) {
        self.advances.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` sequential advances at once.
    pub fn record_advances(&self, n: u64) {
        self.advances.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a random (probe) access; cursors make none.
    pub fn record_random_access(&self) {
        self.random_accesses.fetch_add(1, Ordering::Relaxed);
    }
}

/// [`ListCursor::head_partition`] of a posting on the document root
/// itself: it sorts before every partition.
pub const HEAD_AT_ROOT: u64 = 0;

/// [`ListCursor::head_partition`] at end of list: after every partition.
pub const HEAD_AT_END: u64 = u64::MAX;

/// A forward cursor over one posting list (any [`IndexReader`] backend
/// hands lists out as [`ListHandle`]s).
///
/// [`IndexReader`]: crate::reader::IndexReader
pub struct ListCursor<'a> {
    handle: &'a ListHandle,
    pos: usize,
    stats: Arc<ScanStats>,
}

impl<'a> ListCursor<'a> {
    pub fn new(handle: &'a ListHandle, stats: Arc<ScanStats>) -> Self {
        ListCursor {
            handle,
            pos: 0,
            stats,
        }
    }

    /// The posting under the cursor, or `None` at end of list.
    pub fn peek(&self) -> Option<&'a Posting> {
        self.handle.postings().get(self.pos)
    }

    /// Advances one posting, returning the posting that was under the
    /// cursor. (Deliberately cursor-style rather than `Iterator`: the
    /// callers interleave `peek`/`skip_partition`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&'a Posting> {
        let p = self.handle.postings().get(self.pos)?;
        self.pos += 1;
        self.stats.record_advance();
        Some(p)
    }

    /// Where the posting under the cursor stands among the partitions
    /// (the subtrees of the document root's children), as one integer
    /// ordered the way the postings are: [`HEAD_AT_ROOT`] for a posting
    /// on the root itself (a one-component label), `ordinal + 1` for one
    /// inside partition `0.ordinal`, [`HEAD_AT_END`] at end of list.
    /// Algorithm 2 keeps this per cursor and takes the minimum of the
    /// integers instead of comparing labels.
    pub fn head_partition(&self) -> u64 {
        let Some(head) = self.peek() else {
            return HEAD_AT_END;
        };
        match head.dewey.components().get(1) {
            None => HEAD_AT_ROOT,
            // At most 2^32: below `HEAD_AT_END`.
            Some(&ordinal) => u64::from(ordinal).saturating_add(1),
        }
    }

    /// Jumps past the postings of the subtree whose root has the
    /// components `root` — for Algorithm 2 (line 8) the two-component
    /// partition id `0.i` — and returns the index range skipped,
    /// relative to the whole list.
    ///
    /// The search is cursor-relative: everything before the cursor is
    /// already known to be smaller, so the range is looked for from the
    /// cursor on, by exponential-then-binary search, at a cost
    /// logarithmic in the distance moved instead of in the list length.
    /// A list with nothing in the subtree is answered by looking at the
    /// posting under the cursor alone, and so is where the range starts
    /// when that posting is already inside the subtree (Algorithm 2 asks
    /// only the cursors whose head is).
    ///
    /// * Cursor at or before the subtree (how Algorithm 2 always calls
    ///   it): the range is exactly the handle's `partition_range(root)`.
    ///   Postings in front of the subtree are jumped over uncounted;
    ///   the subtree's own postings are accounted as advances with one
    ///   atomic add, so skipping a large partition is O(1) in counter
    ///   traffic.
    /// * Cursor already inside the subtree (after a `next`): the range
    ///   starts at the cursor — what is left of the subtree — and that
    ///   remainder is what is counted.
    /// * Cursor past the subtree: the empty range at the cursor; nothing
    ///   moves, nothing is counted.
    pub fn skip_partition(&mut self, root: &[u32]) -> std::ops::Range<usize> {
        let rest = self.handle.postings().get(self.pos..).unwrap_or(&[]);
        let in_subtree = |p: &Posting| p.dewey.components().starts_with(root);
        let before = match rest.first() {
            Some(head) if in_subtree(head) => 0,
            _ => leading_run(rest, |p| p.dewey.components() < root),
        };
        let rest = rest.get(before..).unwrap_or(&[]);
        let inside = leading_run(rest, in_subtree);
        let start = self.pos.saturating_add(before);
        let end = start.saturating_add(inside);
        if inside > 0 {
            self.stats.record_advances(inside as u64);
        }
        self.pos = end;
        start..end
    }
}

/// Length of the leading run of `postings` that satisfies `pred`, which
/// must hold for a prefix of the slice and for nothing after it. Probes
/// at doubling distances, then bisects the last gap: `O(log run)`
/// evaluations, and a single look at the first posting when the run is
/// empty.
fn leading_run(postings: &[Posting], pred: impl Fn(&Posting) -> bool) -> usize {
    // Invariant: every posting before `known` satisfies `pred`.
    let mut known = 0usize;
    let mut step = 1usize;
    while let Some(p) = postings.get(known.saturating_add(step).saturating_sub(1)) {
        if !pred(p) {
            break;
        }
        known = known.saturating_add(step);
        step = step.saturating_mul(2);
    }
    let end = known.saturating_add(step).min(postings.len());
    let gap = postings.get(known..end).unwrap_or(&[]);
    known.saturating_add(gap.partition_point(pred))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::Posting;
    use xmldom::NodeTypeId;

    fn list() -> ListHandle {
        ListHandle::from_postings(
            ["0.0.0", "0.0.1", "0.1.0", "0.1.2", "0.2"]
                .iter()
                .map(|s| Posting::new(s.parse().unwrap(), NodeTypeId(0)))
                .collect(),
        )
    }

    #[test]
    fn sequential_scan_counts_advances() {
        let l = list();
        let stats = ScanStats::new();
        let mut c = ListCursor::new(&l, Arc::clone(&stats));
        let mut n = 0;
        while c.next().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert_eq!(c.peek(), None);
        assert_eq!(stats.advances(), 5);
        assert_eq!(stats.random_accesses(), 0);
        assert_eq!(c.next(), None);
        assert_eq!(stats.advances(), 5); // no phantom advances at EOF
    }

    #[test]
    fn head_partition_orders_root_partitions_and_end() {
        let l = ListHandle::from_postings(
            ["0", "0.0.3", "0.7", "0.4294967295.1"]
                .iter()
                .map(|s| Posting::new(s.parse().unwrap(), NodeTypeId(0)))
                .collect(),
        );
        let mut c = ListCursor::new(&l, ScanStats::new());
        let mut seen = Vec::new();
        loop {
            seen.push(c.head_partition());
            if c.next().is_none() {
                break;
            }
        }
        assert_eq!(
            seen,
            [HEAD_AT_ROOT, 1, 8, u64::from(u32::MAX) + 1, HEAD_AT_END]
        );
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        let empty = ListHandle::empty();
        assert_eq!(
            ListCursor::new(&empty, ScanStats::new()).head_partition(),
            HEAD_AT_END
        );
    }

    #[test]
    fn skip_partition_jumps_whole_subtree() {
        let l = list();
        let stats = ScanStats::new();
        let mut c = ListCursor::new(&l, Arc::clone(&stats));
        let range = c.skip_partition(&[0, 0]);
        assert_eq!(range, 0..2);
        assert_eq!(c.peek().unwrap().dewey.to_string(), "0.1.0");
        // skipped postings are accounted as advances (they were consumed)
        assert_eq!(stats.advances(), 2);
        let range = c.skip_partition(&[0, 1]);
        assert_eq!(range, 2..4);
        assert_eq!(c.peek().unwrap().dewey.to_string(), "0.2");
    }

    #[test]
    fn skip_partition_is_relative_to_the_cursor() {
        let l = list();
        // Before the subtree: its whole range, the postings in front
        // jumped over without being counted.
        let stats = ScanStats::new();
        let mut c = ListCursor::new(&l, Arc::clone(&stats));
        assert_eq!(c.skip_partition(&[0, 1]), 2..4);
        assert_eq!(c.peek(), l.postings().get(4));
        assert_eq!(stats.advances(), 2);
        // Past the subtree: the empty range at the cursor, nothing moves.
        assert_eq!(c.skip_partition(&[0, 0]), 4..4);
        assert_eq!(c.skip_partition(&[0, 1]), 4..4);
        assert_eq!(c.peek(), l.postings().get(4));
        assert_eq!(stats.advances(), 2);
        // Nothing in the subtree and the cursor in front of it: the
        // empty range where the subtree would start.
        let mut c = ListCursor::new(&l, ScanStats::new());
        assert_eq!(c.skip_partition(&[0, 1, 1]), 3..3);
        assert_eq!(c.peek(), l.postings().get(3));

        // Inside the subtree after a `next`: what is left of it.
        let stats = ScanStats::new();
        let mut c = ListCursor::new(&l, Arc::clone(&stats));
        c.next();
        assert_eq!(c.skip_partition(&[0, 0]), 1..2);
        assert_eq!(stats.advances(), 2);
        // The root's "subtree" is the rest of the list.
        let mut c = ListCursor::new(&l, ScanStats::new());
        c.next();
        assert_eq!(c.skip_partition(&[0]), 1..5);
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn a_list_outside_the_partition_costs_a_look_at_its_head() {
        // 100 000 postings, all in the last of 2 500 partitions.
        let l = ListHandle::from_postings(
            (0..100_000u32)
                .map(|i| {
                    Posting::new(
                        xmldom::Dewey::new(vec![0, 2_499, i]).unwrap(),
                        NodeTypeId(0),
                    )
                })
                .collect(),
        );
        let looks = std::cell::Cell::new(0u32);
        let looks = &looks;
        let counted = |root: [u32; 2]| {
            move |p: &Posting| {
                looks.set(looks.get() + 1);
                p.dewey.components().starts_with(&root)
            }
        };
        // Any earlier partition: the head says no, and that is all that
        // is asked (once by the gallop, once by the bisection of its
        // one-posting gap) — not log2(100 000) = 17 probes.
        assert_eq!(leading_run(&l, counted([0, 7])), 0);
        assert_eq!(looks.get(), 2);
        // The partition itself: logarithmic in the run.
        looks.set(0);
        assert_eq!(leading_run(&l, counted([0, 2_499])), 100_000);
        assert!(looks.get() <= 2 * 17 + 2, "{} looks", looks.get());

        // Through the cursor: 2 499 empty skips leave it where it was.
        let stats = ScanStats::new();
        let mut c = ListCursor::new(&l, Arc::clone(&stats));
        for partition in 0..2_499 {
            assert_eq!(c.skip_partition(&[0, partition]), 0..0);
        }
        assert_eq!(c.skip_partition(&[0, 2_499]), 0..100_000);
        assert_eq!(stats.advances(), 100_000);
    }
}
