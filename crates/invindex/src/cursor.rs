//! Instrumented cursors over posting lists.
//!
//! The paper's core efficiency claims (Theorems 1 and 2) are about *how
//! often* the keyword inverted lists are scanned. To make those claims
//! testable rather than taken on faith, every traversal in the refinement
//! algorithms goes through a [`ListCursor`], which counts sequential
//! advances and random accesses into shared [`ScanStats`]. Integration
//! tests assert `advances <= list length` for the one-scan algorithms.
//!
//! [`PostingsCursor`] is the block-aware sibling for v4 compressed lists
//! ([`CompressedList`]): it decodes one block at a time and uses the
//! skip table to satisfy seeks without touching blocks whose `max` label
//! falls below the target (`compress_blocks_skipped_total`).

use crate::postings::{CompressedList, Posting};
use crate::reader::ListHandle;
use kvstore::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xmldom::Dewey;

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

    fn bump_advance(&self) {
        self.advances.fetch_add(1, Ordering::Relaxed);
    }

    fn bump_random(&self) {
        self.random_accesses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a sequential advance performed outside a [`ListCursor`]
    /// (algorithms that account accesses manually, e.g. rescans).
    pub fn record_advance(&self) {
        self.bump_advance();
    }

    /// Records `n` sequential advances at once.
    pub fn record_advances(&self, n: u64) {
        self.advances.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a random (probe) access performed outside a cursor.
    pub fn record_random_access(&self) {
        self.bump_random();
    }
}

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
    /// callers interleave `peek`/`seek`/`skip_partition`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&'a Posting> {
        let p = self.handle.postings().get(self.pos)?;
        self.pos += 1;
        self.stats.bump_advance();
        Some(p)
    }

    /// True when all postings have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.handle.len()
    }

    /// Current cursor offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Total length of the underlying list.
    pub fn len(&self) -> usize {
        self.handle.len()
    }

    pub fn is_empty(&self) -> bool {
        self.handle.is_empty()
    }

    /// Moves the cursor forward to the first posting `>= target`
    /// (counts as a random access; never moves backward).
    pub fn seek(&mut self, target: &Dewey) {
        self.stats.bump_random();
        let lb = self.handle.lower_bound(target);
        if lb > self.pos {
            self.pos = lb;
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
    /// posting under the cursor alone.
    ///
    /// * Cursor at or before the subtree (how Algorithm 2 always calls
    ///   it): the range is exactly `handle().partition_range(root)`.
    ///   Postings in front of the subtree are jumped over uncounted, as
    ///   by a seek; the subtree's own postings are accounted as
    ///   advances with one atomic add, so skipping a large partition is
    ///   O(1) in counter traffic.
    /// * Cursor already inside the subtree (after a `seek`/`next`):
    ///   the range starts at the cursor — what is left of the subtree —
    ///   and that remainder is what is counted.
    /// * Cursor past the subtree: the empty range at the cursor; nothing
    ///   moves, nothing is counted.
    pub fn skip_partition(&mut self, root: &[u32]) -> std::ops::Range<usize> {
        let rest = self.handle.postings().get(self.pos..).unwrap_or(&[]);
        let before = leading_run(rest, |p| p.dewey.components() < root);
        let rest = rest.get(before..).unwrap_or(&[]);
        let inside = leading_run(rest, |p| p.dewey.components().starts_with(root));
        let start = self.pos.saturating_add(before);
        let end = start.saturating_add(inside);
        if inside > 0 {
            self.stats.record_advances(inside as u64);
        }
        self.pos = end;
        start..end
    }

    /// Underlying handle access for sub-list slicing.
    pub fn handle(&self) -> &'a ListHandle {
        self.handle
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

/// A forward cursor over a still-encoded v4 [`CompressedList`]: decodes
/// one block at a time, on demand, and answers `seek` through the skip
/// table so blocks strictly below the target are never decoded.
///
/// Accounting matches [`ListCursor`]: `next` is one advance, `seek` is
/// one random access, and postings jumped over by a seek are *not*
/// advances. Block traffic lands on the process-wide
/// `compress_blocks_decoded_total` / `compress_blocks_skipped_total`
/// counters.
pub struct PostingsCursor<'a> {
    list: &'a CompressedList<'a>,
    stats: Arc<ScanStats>,
    /// Index of the next block to decode.
    block: usize,
    /// Decoded postings of the current block (empty before the first
    /// decode and after exhaustion).
    decoded: Vec<Posting>,
    /// Offset into `decoded`.
    at: usize,
    /// Postings consumed in blocks before the current one.
    base: usize,
    /// Blocks this cursor decoded (also on `compress_blocks_decoded_total`).
    blocks_decoded: u64,
    /// Blocks this cursor skipped undecoded (also on
    /// `compress_blocks_skipped_total`).
    blocks_skipped: u64,
}

impl<'a> PostingsCursor<'a> {
    pub fn new(list: &'a CompressedList<'a>, stats: Arc<ScanStats>) -> Self {
        PostingsCursor {
            list,
            stats,
            block: 0,
            decoded: Vec::new(),
            at: 0,
            base: 0,
            blocks_decoded: 0,
            blocks_skipped: 0,
        }
    }

    /// Blocks this cursor has decoded so far.
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks_decoded
    }

    /// Blocks this cursor has skipped via the skip table without
    /// decoding.
    pub fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped
    }

    /// Decodes the next block into `decoded` if the current one is
    /// spent. Returns `false` at end of list.
    fn fill(&mut self) -> Result<bool> {
        while self.at >= self.decoded.len() {
            if self.block >= self.list.blocks().len() {
                return Ok(false);
            }
            self.base += self.decoded.len();
            self.decoded = self.list.decode_block(self.block)?;
            self.at = 0;
            self.block += 1;
            self.blocks_decoded += 1;
            obs::counter!("compress_blocks_decoded_total").inc();
        }
        Ok(true)
    }

    /// The posting under the cursor, or `None` at end of list. Decodes
    /// the next block if needed (hence fallible, unlike
    /// [`ListCursor::peek`]).
    pub fn peek(&mut self) -> Result<Option<&Posting>> {
        if !self.fill()? {
            return Ok(None);
        }
        Ok(self.decoded.get(self.at))
    }

    /// Advances one posting, returning the posting that was under the
    /// cursor.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Posting>> {
        if !self.fill()? {
            return Ok(None);
        }
        let p = self.decoded.get(self.at).cloned();
        if p.is_some() {
            self.at += 1;
            self.stats.bump_advance();
        }
        Ok(p)
    }

    /// True when all postings have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.at >= self.decoded.len() && self.block >= self.list.blocks().len()
    }

    /// Current cursor offset within the whole list.
    pub fn position(&self) -> usize {
        self.base + self.at
    }

    /// Total length of the underlying list.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Moves the cursor forward to the first posting `>= target` (one
    /// random access; never moves backward). Blocks whose `max` label is
    /// below the target are skipped via the skip table without being
    /// decoded; postings jumped over are not counted as advances,
    /// mirroring [`ListCursor::seek`].
    pub fn seek(&mut self, target: &Dewey) -> Result<()> {
        self.stats.bump_random();
        let lb = self.list.lower_bound_block(target);
        if lb >= self.block {
            // Target is past the current block: drop it and fast-forward
            // the block index through the skip table.
            let skipped = (lb - self.block) as u64;
            if skipped > 0 {
                self.blocks_skipped += skipped;
                obs::counter!("compress_blocks_skipped_total").add(skipped);
            }
            if lb > self.block || !self.decoded.is_empty() {
                let meta = self.list.blocks().get(lb);
                self.base = meta.map_or(self.list.len(), |m| m.start);
                self.decoded = Vec::new();
                self.at = 0;
                self.block = lb;
            }
            if !self.fill()? {
                return Ok(());
            }
        }
        // In-block (or already-decoded-block) positioning; never rewind.
        let pos = self.decoded.partition_point(|p| p.dewey < *target);
        if pos > self.at {
            self.at = pos;
        }
        Ok(())
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
        assert!(c.is_exhausted());
        assert_eq!(stats.advances(), 5);
        assert_eq!(stats.random_accesses(), 0);
        assert_eq!(c.next(), None);
        assert_eq!(stats.advances(), 5); // no phantom advances at EOF
    }

    #[test]
    fn seek_is_random_access_and_monotone() {
        let l = list();
        let stats = ScanStats::new();
        let mut c = ListCursor::new(&l, Arc::clone(&stats));
        c.seek(&"0.1".parse().unwrap());
        assert_eq!(c.peek().unwrap().dewey.to_string(), "0.1.0");
        // seeking backwards does not rewind
        c.seek(&"0.0".parse().unwrap());
        assert_eq!(c.peek().unwrap().dewey.to_string(), "0.1.0");
        assert_eq!(stats.random_accesses(), 2);
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
        assert_eq!(c.position(), 4);
        assert_eq!(stats.advances(), 2);
        // Past the subtree: the empty range at the cursor, nothing moves.
        assert_eq!(c.skip_partition(&[0, 0]), 4..4);
        assert_eq!(c.skip_partition(&[0, 1]), 4..4);
        assert_eq!(c.position(), 4);
        assert_eq!(stats.advances(), 2);
        // Nothing in the subtree and the cursor in front of it: the
        // empty range where the subtree would start.
        let mut c = ListCursor::new(&l, ScanStats::new());
        assert_eq!(c.skip_partition(&[0, 1, 1]), 3..3);
        assert_eq!(c.position(), 3);

        // Inside the subtree after a `next`: what is left of it.
        let stats = ScanStats::new();
        let mut c = ListCursor::new(&l, Arc::clone(&stats));
        c.next();
        assert_eq!(c.skip_partition(&[0, 0]), 1..2);
        assert_eq!(stats.advances(), 2);
        // ... and after a `seek`.
        c.seek(&"0.1.1".parse().unwrap());
        assert_eq!(c.skip_partition(&[0, 1]), 3..4);
        assert_eq!(stats.advances(), 3);
        // The root's "subtree" is the rest of the list.
        let mut c = ListCursor::new(&l, ScanStats::new());
        c.next();
        assert_eq!(c.skip_partition(&[0]), 1..5);
        assert!(c.is_exhausted());
    }

    #[test]
    fn a_list_outside_the_partition_costs_a_look_at_its_head() {
        // 100 000 postings, all in the last of 2 500 partitions.
        let l = ListHandle::from_postings(
            (0..100_000u32)
                .map(|i| Posting::new(Dewey::new(vec![0, 2_499, i]).unwrap(), NodeTypeId(0)))
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

    // ----- PostingsCursor over compressed lists -----------------------

    use crate::postings::{CompressedList, PostingList, BLOCK_POSTINGS};

    /// Five full blocks plus a tail, so block skips have room to matter.
    fn compressed_fixture() -> PostingList {
        let mut postings = Vec::new();
        for a in 0..11u32 {
            for b in 0..31u32 {
                postings.push(Posting::new(
                    xmldom::Dewey::new(vec![0, a, b]).unwrap(),
                    NodeTypeId(a % 3),
                ));
            }
        }
        PostingList::from_sorted(postings)
    }

    #[test]
    fn compressed_cursor_full_scan_matches_list() {
        let list = compressed_fixture();
        let bytes = list.encode_compressed();
        let parsed = CompressedList::parse(&bytes).unwrap();
        let stats = ScanStats::new();
        let mut c = PostingsCursor::new(&parsed, Arc::clone(&stats));
        let mut got = Vec::new();
        while let Some(p) = c.next().unwrap() {
            got.push(p);
        }
        assert_eq!(got.as_slice(), list.as_slice());
        assert!(c.is_exhausted());
        assert_eq!(c.position(), list.len());
        assert_eq!(stats.advances(), list.len() as u64);
        assert_eq!(stats.random_accesses(), 0);
        assert_eq!(c.next().unwrap(), None); // no phantom advance at EOF
        assert_eq!(stats.advances(), list.len() as u64);
    }

    #[test]
    fn compressed_cursor_seek_agrees_with_list_cursor() {
        let list = compressed_fixture();
        let bytes = list.encode_compressed();
        let parsed = CompressedList::parse(&bytes).unwrap();
        let handle = ListHandle::from_postings(list.as_slice().to_vec());
        let probes = ["0", "0.0.30", "0.3.5", "0.3.5.1", "0.7.0", "0.10.30", "1"];
        for probe in probes {
            let target: xmldom::Dewey = probe.parse().unwrap();
            let stats_c = ScanStats::new();
            let mut c = PostingsCursor::new(&parsed, Arc::clone(&stats_c));
            c.seek(&target).unwrap();
            let stats_l = ScanStats::new();
            let mut l = ListCursor::new(&handle, Arc::clone(&stats_l));
            l.seek(&target);
            assert_eq!(c.position(), l.position(), "probe {probe}");
            assert_eq!(c.peek().unwrap(), l.peek(), "probe {probe}");
            assert_eq!(stats_c.random_accesses(), 1);
            assert_eq!(stats_c.advances(), 0, "seek must not count advances");
        }
    }

    #[test]
    fn compressed_cursor_interleaved_seek_and_next() {
        let list = compressed_fixture();
        let bytes = list.encode_compressed();
        let parsed = CompressedList::parse(&bytes).unwrap();
        let stats = ScanStats::new();
        let mut c = PostingsCursor::new(&parsed, Arc::clone(&stats));
        // read a few, jump several blocks, read across a block boundary
        assert_eq!(c.next().unwrap().unwrap().dewey.to_string(), "0.0.0");
        c.seek(&"0.5.29".parse().unwrap()).unwrap();
        assert_eq!(c.next().unwrap().unwrap().dewey.to_string(), "0.5.29");
        assert_eq!(c.next().unwrap().unwrap().dewey.to_string(), "0.5.30");
        assert_eq!(c.next().unwrap().unwrap().dewey.to_string(), "0.6.0");
        // backward seek never rewinds
        c.seek(&"0.0.0".parse().unwrap()).unwrap();
        assert_eq!(c.peek().unwrap().unwrap().dewey.to_string(), "0.6.1");
        // position is consistent with the uncompressed lower bound
        assert_eq!(c.position(), list.lower_bound(&"0.6.1".parse().unwrap()));
    }

    #[test]
    fn compressed_cursor_seek_past_end_exhausts() {
        let list = compressed_fixture();
        let bytes = list.encode_compressed();
        let parsed = CompressedList::parse(&bytes).unwrap();
        let stats = ScanStats::new();
        let mut c = PostingsCursor::new(&parsed, Arc::clone(&stats));
        c.seek(&"9".parse().unwrap()).unwrap();
        assert!(c.is_exhausted());
        assert_eq!(c.position(), list.len());
        assert_eq!(c.next().unwrap(), None);
    }

    #[test]
    fn compressed_cursor_skips_whole_blocks() {
        let list = compressed_fixture();
        assert!(list.len() > 5 * BLOCK_POSTINGS);
        let bytes = list.encode_compressed();
        let parsed = CompressedList::parse(&bytes).unwrap();
        let stats = ScanStats::new();
        let mut c = PostingsCursor::new(&parsed, Arc::clone(&stats));
        // jump straight into the last block: earlier blocks stay encoded
        c.seek(&list.last().unwrap().dewey.clone()).unwrap();
        assert_eq!(c.next().unwrap().unwrap(), list.last().unwrap().clone());
        assert_eq!(
            c.blocks_decoded(),
            1,
            "seek must decode only the target block"
        );
        assert_eq!(c.blocks_skipped() as usize, parsed.blocks().len() - 1);
    }
}
