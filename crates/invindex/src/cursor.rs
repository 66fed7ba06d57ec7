//! The counters the refinement algorithms' list accesses feed.
//!
//! The paper's core efficiency claims (Theorems 1 and 2) are about *how
//! often* the keyword inverted lists are scanned. To make those claims
//! testable rather than taken on faith, every list *traversal* in the
//! refinement algorithms counts its sequential advances into shared
//! [`ScanStats`]. Integration tests assert `advances <= list length` for
//! the one-scan algorithms.
//!
//! All three algorithms read a list through its partition runs
//! ([`crate::PartitionRuns`], [`crate::ListHandle::run_postings`]) and
//! account for what they read themselves:
//!
//! * Algorithm 1's k-way merge counts one advance per posting it takes
//!   from the merged stream;
//! * Algorithm 2's partition walk records the postings of each partition
//!   it visits; the postings of a partition it seeks past are never
//!   read, so they are not advances;
//! * Algorithm 3 (short-list eager) walks its anchor list run by run and
//!   records each run's length, probes every other list with one forward
//!   seek, a [`ScanStats::record_random_access`] each, and records the
//!   survivors' rescans.
//!
//! Advances are added with [`ScanStats::record_advances`].

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing
    )
)]

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

    /// Sequential advances across all instrumented lists.
    pub fn advances(&self) -> u64 {
        self.advances.load(Ordering::Relaxed)
    }

    /// Random (seek/probe) accesses across all instrumented lists.
    pub fn random_accesses(&self) -> u64 {
        self.random_accesses.load(Ordering::Relaxed)
    }

    /// Records `n` sequential advances at once.
    pub fn record_advances(&self, n: u64) {
        self.advances.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a random (probe) access.
    pub fn record_random_access(&self) {
        self.random_accesses.fetch_add(1, Ordering::Relaxed);
    }
}
