//! The one cursor over a posting list, and the counters it feeds.
//!
//! The paper's core efficiency claims (Theorems 1 and 2) are about *how
//! often* the keyword inverted lists are scanned. To make those claims
//! testable rather than taken on faith, every list *traversal* in the
//! refinement algorithms counts its sequential advances into shared
//! [`ScanStats`]. Integration tests assert `advances <= list length` for
//! the one-scan algorithms.
//!
//! Algorithm 1's k-way merge steps a [`ListCursor`] posting by posting.
//! Algorithm 2's partition walk moves over the lists' partition runs
//! instead ([`crate::PartitionRuns`]) and accounts the postings of each
//! partition it visits with one [`ScanStats::record_advances`]; the
//! postings of a partition it seeks past are never read, so they are
//! not advances.
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

/// A forward cursor over one posting list (the [`crate::KvBackedIndex`]
/// hands lists out as [`ListHandle`]s).
pub struct ListCursor<'a> {
    handle: &'a ListHandle,
    /// View-relative index of the posting under the cursor.
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
    /// caller interleaves `peek`.)
    #[expect(
        clippy::should_implement_trait,
        reason = "the item borrows the list for 'a, and the caller interleaves `peek`"
    )]
    pub fn next(&mut self) -> Option<&'a Posting> {
        let p = self.handle.postings().get(self.pos)?;
        self.pos = self.pos.saturating_add(1);
        self.stats.record_advance();
        Some(p)
    }
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
}
