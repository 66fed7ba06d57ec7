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
//! A cursor moves over the list's partition runs
//! ([`PostingList::runs`](crate::PostingList::runs)) as well as over its
//! postings: it knows the run it stands in, that run's partition and
//! where the run ends. So [`ListCursor::head_partition`] is a field load
//! and [`ListCursor::skip_run`] — Algorithm 2 consuming one partition of
//! one list — is an assignment; neither reads a label. `next` steps into
//! the following run when it crosses a boundary, and a cursor over a
//! [`ListHandle::slice`] view that starts mid-run finds its run by one
//! binary search at construction.
//!
//! Algorithm 3 (short-list eager) holds no cursor: it walks the short
//! list as a slice, probes the others by binary search
//! ([`ListHandle::partition_range`]) and rescans the survivors' lists,
//! and accounts for each itself — [`ScanStats::record_advance`],
//! [`ScanStats::record_random_access`], [`ScanStats::record_advances`].

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::postings::Posting;
use crate::reader::ListHandle;
use std::ops::Range;
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

/// A forward cursor over one posting list (the [`crate::KvBackedIndex`]
/// hands lists out as [`ListHandle`]s).
pub struct ListCursor<'a> {
    handle: &'a ListHandle,
    /// View-relative index of the posting under the cursor.
    pos: usize,
    /// The list's partition run holding that posting …
    run: usize,
    /// … its partition ([`HEAD_AT_END`] at end of view) …
    head: u64,
    /// … and where it ends, view-relative and clamped to the view.
    run_end: usize,
    stats: Arc<ScanStats>,
}

impl<'a> ListCursor<'a> {
    pub fn new(handle: &'a ListHandle, stats: Arc<ScanStats>) -> Self {
        let mut cursor = ListCursor {
            handle,
            pos: 0,
            run: handle.first_run(),
            head: HEAD_AT_END,
            run_end: 0,
            stats,
        };
        cursor.enter_run();
        cursor
    }

    /// Loads `head` and `run_end` of run `self.run`, which holds the
    /// posting under the cursor unless the view is exhausted.
    fn enter_run(&mut self) {
        (self.head, self.run_end) = match self.handle.run(self.run) {
            Some(run) if self.pos < self.handle.len() => run,
            _ => (HEAD_AT_END, self.handle.len()),
        };
    }

    /// The posting under the cursor, or `None` at end of list.
    pub fn peek(&self) -> Option<&'a Posting> {
        self.handle.postings().get(self.pos)
    }

    /// Advances one posting, returning the posting that was under the
    /// cursor. (Deliberately cursor-style rather than `Iterator`: the
    /// callers interleave `peek`/`skip_run`.)
    #[expect(
        clippy::should_implement_trait,
        reason = "the item borrows the list for 'a, and callers interleave `peek`/`skip_run`"
    )]
    pub fn next(&mut self) -> Option<&'a Posting> {
        let p = self.handle.postings().get(self.pos)?;
        self.pos = self.pos.saturating_add(1);
        if self.pos == self.run_end {
            self.run = self.run.saturating_add(1);
            self.enter_run();
        }
        self.stats.record_advance();
        Some(p)
    }

    /// Where the posting under the cursor stands among the partitions
    /// (the subtrees of the document root's children), as one integer
    /// ordered the way the postings are: [`HEAD_AT_ROOT`] for a posting
    /// on the root itself (a one-component label), `ordinal + 1` for one
    /// inside partition `0.ordinal`, [`HEAD_AT_END`] at end of list.
    /// Algorithm 2 keeps this per cursor and takes the minimum of the
    /// integers instead of comparing labels. A load: the cursor carries
    /// its run's value.
    pub fn head_partition(&self) -> u64 {
        self.head
    }

    /// Moves the cursor past the rest of the partition run it stands in
    /// — the postings from the cursor to the end of
    /// [`head_partition`](Self::head_partition)'s subtree, or of the
    /// view if that comes first — and returns that range,
    /// view-relative. The postings skipped are accounted as advances
    /// with one atomic add, so consuming a large partition is O(1) in
    /// counter traffic. For a cursor standing at the start of its run
    /// the range is the handle's `partition_range` of the partition; at
    /// end of list it is empty and nothing is counted.
    pub fn skip_run(&mut self) -> Range<usize> {
        let skipped = self.pos..self.run_end;
        if !skipped.is_empty() {
            self.stats.record_advances(skipped.len() as u64);
            self.pos = self.run_end;
            self.run = self.run.saturating_add(1);
            self.enter_run();
        }
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::Posting;
    use xmldom::NodeTypeId;

    fn handle(labels: &[&str]) -> ListHandle {
        ListHandle::from_postings(
            labels
                .iter()
                .map(|s| Posting::new(s.parse().unwrap(), NodeTypeId(0)))
                .collect(),
        )
    }

    fn list() -> ListHandle {
        handle(&["0.0.0", "0.0.1", "0.1.0", "0.1.2", "0.2"])
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
        let l = handle(&["0", "0.0.3", "0.7", "0.4294967295.1"]);
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
    fn skip_run_consumes_the_head_partition() {
        let l = list();
        let stats = ScanStats::new();
        let mut c = ListCursor::new(&l, Arc::clone(&stats));
        assert_eq!(c.skip_run(), 0..2);
        assert_eq!(c.peek().unwrap().dewey.to_string(), "0.1.0");
        assert_eq!(c.head_partition(), 2);
        // skipped postings are accounted as advances (they were consumed)
        assert_eq!(stats.advances(), 2);
        assert_eq!(c.skip_run(), 2..4);
        assert_eq!(c.skip_run(), 4..5);
        assert_eq!(c.head_partition(), HEAD_AT_END);
        // At end of list: the empty range, nothing counted.
        assert_eq!(c.skip_run(), 5..5);
        assert_eq!(stats.advances(), 5);
    }

    #[test]
    fn skip_run_is_relative_to_the_cursor_and_the_view() {
        let l = list();
        // Inside the run after a `next`: what is left of it.
        let stats = ScanStats::new();
        let mut c = ListCursor::new(&l, Arc::clone(&stats));
        c.next();
        assert_eq!(c.head_partition(), 1);
        assert_eq!(c.skip_run(), 1..2);
        assert_eq!(stats.advances(), 2);
        // `next` steps into the following run at a boundary.
        c.next();
        assert_eq!(c.head_partition(), 2);
        assert_eq!(c.skip_run(), 3..4);

        // A view that starts and ends mid-run: the cursor finds its run,
        // and a skip stops at the view's end.
        let view = l.slice(1..3);
        let stats = ScanStats::new();
        let mut c = ListCursor::new(&view, Arc::clone(&stats));
        assert_eq!(c.head_partition(), 1);
        assert_eq!(c.skip_run(), 0..1);
        assert_eq!(c.head_partition(), 2);
        assert_eq!(c.skip_run(), 1..2);
        assert_eq!(c.head_partition(), HEAD_AT_END);
        assert_eq!(c.skip_run(), 2..2);
        assert_eq!(stats.advances(), 2);
        // An empty view in the middle of a list is at its end.
        let empty = l.slice(2..2);
        assert_eq!(
            ListCursor::new(&empty, ScanStats::new()).head_partition(),
            HEAD_AT_END
        );
    }
}
