//! The index read path's currency.
//!
//! [`StoredList`] is a posting list as the store holds it: the
//! CRC-checked stored bytes, the parsed skip table with each block's
//! partition keys (the partitions of its first and last posting), and
//! one lazily decoded slot per [`BLOCK_POSTINGS`]-posting block. A block
//! is decoded the first time a cursor touches it and kept with the list,
//! so a list the cache holds pays for each block once. A decoded block
//! holds its postings and its partition runs; a block whose last run
//! continues into the next block also keeps that run whole, once it is
//! first read, so every run is one contiguous slice.
//!
//! [`ListHandle`] is what [`crate::KvBackedIndex`], the one reader the
//! query layers (refinement, ranking, narrowing) consume, hands out: a
//! cheap, clonable, `Arc`-shared view over a stored list. Handles stay
//! valid after cache eviction (the `Arc` keeps the list alive), so scans
//! never observe a list disappearing under them.
//!
//! The served path moves over a handle's runs ([`PartitionRuns`]): a
//! seek gallops over the skip table's block partition keys first, then
//! decodes only the block it lands in and gallops over that block's runs.
//! A scan reads the same runs in order ([`ListHandle::run_postings`]):
//! Algorithm 1's merge, Algorithm 3's anchor walk and probes, and Scan
//! Eager all read a list this one way, and no contiguous copy of a whole
//! list is ever made.
//!
//! A block that fails to decode reads as empty and is recorded
//! ([`ListHandle::damage`]); the engine applies its degradation policy to
//! a query that read one.

use crate::persist::unframe_value;
use crate::postings::{
    block_corrupt, decode_block_into, extend_runs, partition_key, BlockMeta, BlockRun,
    CompressedList, Posting, PostingList, BLOCK_POSTINGS, HEAD_AT_ROOT,
};
use kvstore::{KvError, Result};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use xmldom::{Dewey, NodeTypeId, NodeTypeTable};

/// A posting list read from the store and decoded block by block on
/// first touch (see the module docs).
pub struct StoredList {
    /// The stored bytes, as read: the value frame around the payload.
    bytes: Vec<u8>,
    /// Where the payload's block data starts in `bytes`.
    data_at: usize,
    len: usize,
    /// The skip table.
    skips: Vec<BlockMeta>,
    /// The partitions of each block's first and last posting.
    keys: Vec<(u64, u64)>,
    /// Bounds on the partitions the list holds below the root (its runs
    /// past the root's), read off the skip table.
    partitions: (usize, usize),
    blocks: Box<[LazyBlock]>,
    /// What the first decode that failed found.
    damage: OnceLock<String>,
}

/// One block's slots.
#[derive(Default)]
struct LazyBlock {
    decoded: OnceLock<Block>,
    /// The block's last run, whole, when the next block continues it.
    spill: OnceLock<Box<[Posting]>>,
}

/// A decoded block.
#[derive(Default)]
struct Block {
    postings: Vec<Posting>,
    /// The runs the block holds a part of, starts relative to
    /// `postings`: the first starts at 0, and is the continuation of the
    /// previous block's last run when the block's first partition is
    /// that block's last.
    runs: Vec<BlockRun>,
}

impl Block {
    /// A block of postings held in memory.
    fn copied(postings: &[Posting]) -> Self {
        let mut runs = Vec::new();
        for (i, p) in postings.iter().enumerate() {
            extend_runs(&mut runs, i, &p.dewey);
        }
        Block {
            postings: postings.to_vec(),
            runs,
        }
    }
}

/// The block holding posting `i`: every block but the last holds
/// [`BLOCK_POSTINGS`] postings.
#[inline]
fn block_of(i: usize) -> usize {
    i / BLOCK_POSTINGS
}

/// The list index of block `b`'s first posting.
#[inline]
fn first_of(b: usize) -> usize {
    b * BLOCK_POSTINGS
}

/// What a block past the list's last reads as.
static NO_BLOCK: Block = Block {
    postings: Vec::new(),
    runs: Vec::new(),
};

impl StoredList {
    /// Reads a stored list value: the frame is checked and the skip table
    /// parsed, and the blocks stay encoded until a cursor touches them.
    pub fn read(value: Vec<u8>) -> Result<Self> {
        let (len, skips, data) =
            CompressedList::parse(unframe_value(&value, "posting list")?)?.into_parts();
        let data_at = value.len() - data.len();
        Ok(Self::from_skips(value, data_at, len, skips))
    }

    /// A list held in memory, never encoded: its blocks are the list's
    /// [`BLOCK_POSTINGS`]-posting chunks, each slot filled with its
    /// postings and runs here, so no reader tells it from a stored list
    /// whose every block has been read.
    fn in_memory(list: PostingList) -> Self {
        let all = list.as_slice();
        let skips: Vec<BlockMeta> = (all.chunks(BLOCK_POSTINGS).enumerate())
            .filter_map(|(i, chunk)| {
                Some(BlockMeta {
                    start: first_of(i),
                    offset: 0,
                    len: 0,
                    count: chunk.len(),
                    min: chunk.first()?.dewey.clone(),
                    max: chunk.last()?.dewey.clone(),
                })
            })
            .collect();
        let stored = Self::from_skips(Vec::new(), 0, list.len(), skips);
        for (slot, chunk) in stored.blocks.iter().zip(all.chunks(BLOCK_POSTINGS)) {
            slot.decoded.get_or_init(|| Block::copied(chunk));
        }
        stored
    }

    fn from_skips(bytes: Vec<u8>, data_at: usize, len: usize, skips: Vec<BlockMeta>) -> Self {
        let keys = (skips.iter())
            .map(|m| (partition_key(&m.min), partition_key(&m.max)))
            .collect();
        let blocks = skips.iter().map(|_| LazyBlock::default()).collect();
        let mut list = StoredList {
            bytes,
            data_at,
            len,
            skips,
            keys,
            partitions: (0, 0),
            blocks,
            damage: OnceLock::new(),
        };
        let (lo, hi) = (0..list.skips.len())
            .map(|b| list.starts_bounds(b, len))
            .fold((0, 0), |(lo, hi), (l, h)| (lo + l, hi + h));
        // The root, when the list holds it, is its first run.
        let root = usize::from(list.keys.first().is_some_and(|k| k.0 == HEAD_AT_ROOT));
        list.partitions = (lo.saturating_sub(root), hi.saturating_sub(root));
        list
    }

    /// Postings in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored bytes the list was read from.
    pub fn stored_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The first damage a decode found, as the error a query reports.
    pub fn damage(&self) -> Option<KvError> {
        (self.damage.get()).map(|context| KvError::corrupt(context.clone()))
    }

    /// Keeps the first damage found.
    fn record(&self, error: KvError) {
        self.damage.get_or_init(|| match error {
            KvError::Corrupt { context, .. } => context,
            other => other.to_string(),
        });
    }

    /// Block `b`, decoded on first touch; empty past the last block, or
    /// when it does not decode.
    #[inline]
    fn block(&self, b: usize) -> &Block {
        let Some(slot) = self.blocks.get(b) else {
            return &NO_BLOCK;
        };
        if let Some(block) = slot.decoded.get() {
            return block;
        }
        let Some(meta) = self.skips.get(b) else {
            return &NO_BLOCK;
        };
        slot.decoded.get_or_init(|| {
            obs::counter!("compress_blocks_decoded_total").inc();
            // The block opens at most one run a posting, and one a
            // partition from its first to its last.
            let (first, last) = self.keys.get(b).copied().unwrap_or_default();
            let run_bound =
                usize::try_from(last - first + 1).map_or(meta.count, |k| k.min(meta.count));
            let mut postings = Vec::new();
            let mut runs = Vec::with_capacity(run_bound);
            match decode_block_into(meta, self.data(), &mut postings, Some(&mut runs)) {
                Ok(()) => {
                    // Kept with the list: no slack.
                    runs.shrink_to_fit();
                    Block { postings, runs }
                }
                Err(what) => {
                    self.record(block_corrupt(b, what));
                    Block::default()
                }
            }
        })
    }

    /// Whether block `b`'s first posting continues block `b - 1`'s last
    /// run: read off the skip table.
    #[inline]
    fn continues(&self, b: usize) -> bool {
        match (
            b.checked_sub(1).and_then(|p| self.keys.get(p)),
            self.keys.get(b),
        ) {
            (Some(prev), Some(this)) => prev.1 == this.0,
            _ => false,
        }
    }

    /// The last run of block `b`, whole, which the next block continues:
    /// its postings in `b` and their continuation, assembled once. A block
    /// the run covers whole holds no run a cursor can stand in, so it is
    /// read without being kept; the block the run ends in is kept.
    fn spill(&self, b: usize) -> &[Posting] {
        let Some(slot) = self.blocks.get(b) else {
            return &[];
        };
        slot.spill.get_or_init(|| {
            let block = self.block(b);
            let from = block.runs.last().map_or(0, |r| r.start());
            let mut run = block.postings.get(from..).unwrap_or_default().to_vec();
            let mut c = b + 1;
            while self.continues(c) {
                if self.keys.get(c).is_some_and(|k| k.0 == k.1) {
                    self.for_each_block(c..c + 1, |_, postings| run.extend_from_slice(postings));
                    c += 1;
                    continue;
                }
                let next = self.block(c);
                let end = next.runs.get(1).map_or(next.postings.len(), |r| r.start());
                run.extend_from_slice(next.postings.get(..end).unwrap_or_default());
                break;
            }
            run.into_boxed_slice()
        })
    }

    /// Run `r` of block `b`, which must start in the block.
    #[inline]
    fn run_at(&self, b: usize, r: usize) -> Option<RunAt<'_>> {
        let block = self.block(b);
        RunAt::new(b, &block.runs, &block.postings, r)
    }

    /// The first run of block `b`, which must not continue the previous
    /// block's last run: read off the skip table, the block not decoded.
    #[inline]
    fn first_run(&self, b: usize) -> Option<RunAt<'_>> {
        Some(RunAt {
            block: b,
            runs: &[],
            postings: &[],
            run: 0,
            head: self.keys.get(b)?.0,
            from: first_of(b),
        })
    }

    /// The postings of the run `at` stands in, whole.
    #[inline]
    fn run_postings<'a>(&'a self, at: &RunAt<'a>) -> &'a [Posting] {
        let Some(run) = at.runs.get(at.run) else {
            return &[];
        };
        let postings = match at.runs.get(at.run + 1) {
            Some(next) => at.postings.get(run.start()..next.start()),
            None if self.continues(at.block + 1) => Some(self.spill(at.block)),
            None => at.postings.get(run.start()..),
        };
        postings.unwrap_or_default()
    }

    /// The run holding posting `i`.
    fn run_holding(&self, i: usize) -> Option<RunAt<'_>> {
        let b = block_of(i);
        let offset = i - first_of(b);
        if offset == 0 && !self.continues(b) {
            return self.first_run(b);
        }
        let r = (self.block(b).runs.partition_point(|r| r.start() <= offset)).checked_sub(1)?;
        if r > 0 || !self.continues(b) {
            return self.run_at(b, r);
        }
        // The run started in an earlier block: the last one it does not
        // cover whole.
        let mut c = b - 1;
        while self.continues(c) && self.keys.get(c).is_some_and(|k| k.0 == k.1) {
            c -= 1;
        }
        self.run_at(c, self.block(c).runs.len().checked_sub(1)?)
    }

    /// The first run that starts in a block after `b`, before block
    /// `blocks_end`. A block the previous one's last run covers whole is
    /// passed without being decoded.
    fn first_run_after(&self, b: usize, blocks_end: usize) -> Option<RunAt<'_>> {
        for c in b + 1..blocks_end {
            let &(first, last) = self.keys.get(c)?;
            if !self.continues(c) {
                return self.first_run(c);
            }
            if first != last {
                if let Some(at) = self.run_at(c, 1) {
                    return Some(at);
                }
            }
        }
        None
    }

    /// The runs that start in block `b` before posting `end`: bounds from
    /// the skip table, exact once the block is decoded.
    fn starts_bounds(&self, b: usize, end: usize) -> (usize, usize) {
        let (Some(meta), Some(&(first, last))) = (self.skips.get(b), self.keys.get(b)) else {
            return (0, 0);
        };
        let visible = end.saturating_sub(meta.start).min(meta.count);
        if visible == 0 {
            return (0, 0);
        }
        if let Some(block) = self.blocks.get(b).and_then(|s| s.decoded.get()) {
            let n = self.starts_decoded(b, block, end);
            return (n, n);
        }
        let opens = usize::from(!self.continues(b));
        if first == last {
            return (opens, opens);
        }
        // Labels ascend, so the partition changes inside the block at most
        // once per posting after the first and once per partition passed,
        // and a block that shows its last posting changes it at least once.
        let changes = usize::try_from(last - first).map_or(visible - 1, |k| k.min(visible - 1));
        (opens + usize::from(visible == meta.count), opens + changes)
    }

    /// The runs that start in block `b` before posting `end`, exactly.
    fn starts(&self, b: usize, end: usize) -> usize {
        match self.starts_bounds(b, end) {
            (lo, hi) if lo == hi => lo,
            _ => self.starts_decoded(b, self.block(b), end),
        }
    }

    fn starts_decoded(&self, b: usize, block: &Block, end: usize) -> usize {
        let skip = usize::from(self.continues(b));
        let base = first_of(b);
        match base + block.postings.len() <= end {
            true => block.runs.len().saturating_sub(skip),
            false => (block.runs.iter().skip(skip))
                .filter(|r| base + r.start() < end)
                .count(),
        }
    }

    /// Hands `f` each of `blocks` in order: the list index of its first
    /// posting, and its postings. A block not yet decoded is decoded into
    /// working space and not kept, so a pass over a whole list leaves
    /// only what cursors touched resident.
    fn for_each_block(&self, blocks: Range<usize>, mut f: impl FnMut(usize, &[Posting])) {
        let data = self.data();
        let mut scratch = Vec::new();
        for b in blocks {
            let (Some(slot), Some(meta)) = (self.blocks.get(b), self.skips.get(b)) else {
                continue;
            };
            if let Some(block) = slot.decoded.get() {
                f(meta.start, &block.postings);
            } else {
                obs::counter!("compress_blocks_decoded_total").inc();
                scratch.clear();
                match decode_block_into(meta, data, &mut scratch, None) {
                    Ok(()) => f(meta.start, &scratch),
                    Err(what) => self.record(block_corrupt(b, what)),
                }
            }
        }
    }

    /// The block data of the stored payload.
    fn data(&self) -> &[u8] {
        self.bytes.get(self.data_at..).unwrap_or_default()
    }
}

impl std::fmt::Debug for StoredList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredList")
            .field("len", &self.len)
            .field("blocks", &self.skips.len())
            .field("stored_bytes", &self.bytes.len())
            .finish()
    }
}

/// A shared, immutable view over (a contiguous range of) a stored
/// posting list.
///
/// [`ListHandle::slice`] produces sub-views that share the same list;
/// [`ListHandle::partition_runs`] moves over the view decoding only the
/// blocks it touches, and [`ListHandle::run_postings`] reads it in order,
/// run by run.
#[derive(Debug, Clone)]
pub struct ListHandle {
    list: Arc<StoredList>,
    start: usize,
    end: usize,
}

impl ListHandle {
    /// A handle over the whole of a list read from the store.
    pub fn stored(list: Arc<StoredList>) -> Self {
        let end = list.len();
        ListHandle {
            list,
            start: 0,
            end,
        }
    }

    /// A handle over the whole of a list held in memory, never encoded
    /// (the bridge for built lists: oracles and tests).
    pub fn new(list: Arc<PostingList>) -> Self {
        let list = Arc::unwrap_or_clone(list);
        ListHandle::stored(Arc::new(StoredList::in_memory(list)))
    }

    /// A handle over an owned vector of postings (test/bridge helper).
    // xlint::allow(unused-export): test constructor — reader, SLCA and refinement tests build handles with no index behind them
    pub fn from_postings(postings: Vec<Posting>) -> Self {
        ListHandle::new(Arc::new(PostingList::from_sorted(postings)))
    }

    /// The canonical empty handle (shared allocation).
    pub fn empty() -> Self {
        static EMPTY: OnceLock<Arc<StoredList>> = OnceLock::new();
        ListHandle::stored(Arc::clone(
            EMPTY.get_or_init(|| Arc::new(StoredList::in_memory(PostingList::new()))),
        ))
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of this handle (range is relative to this view). The
    /// returned handle shares the list.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= self.len());
        ListHandle {
            list: Arc::clone(&self.list),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// The first damage a decode of the list found, if any: a block that
    /// read as empty. What was read from the list is then wrong.
    pub fn damage(&self) -> Option<KvError> {
        self.list.damage()
    }

    /// A cursor over the partition runs visible through this handle,
    /// standing in the first: joining lists on these integers finds the
    /// partitions they share without reading a label.
    #[inline]
    pub fn partition_runs(&self) -> PartitionRuns<'_> {
        let list = &*self.list;
        let mut runs = PartitionRuns {
            list,
            start: self.start,
            end: self.end,
            blocks_end: self.end.div_ceil(BLOCK_POSTINGS),
            at: None,
        };
        if !self.is_empty() {
            runs.stand(list.run_holding(self.start));
        }
        runs
    }

    /// The visible postings in document order, run by run: each run one
    /// slice of a decoded block.
    pub fn run_postings(&self) -> impl Iterator<Item = &[Posting]> + '_ {
        let mut runs = self.partition_runs();
        std::iter::from_fn(move || {
            let postings = runs.current_postings()?;
            runs.advance();
            Some(postings)
        })
    }

    /// Bounds on the number of partitions the visible postings stand in
    /// below the root: read off the skip table for the whole list, and
    /// tightened by the blocks decoded for a view.
    pub fn partition_bounds(&self) -> (usize, usize) {
        if self.start == 0 && self.end == self.list.len() {
            return self.list.partitions;
        }
        let mut runs = self.partition_runs();
        runs.seek(HEAD_AT_ROOT + 1);
        runs.remaining_bounds()
    }

    /// Hands `f` the visible postings block by block, in order. Blocks no
    /// cursor has decoded are decoded for the pass and not kept.
    pub fn for_each_block(&self, mut f: impl FnMut(&[Posting])) {
        let list = &*self.list;
        let blocks = block_of(self.start)..self.end.div_ceil(BLOCK_POSTINGS);
        list.for_each_block(blocks, |at, postings| {
            let from = self.start.saturating_sub(at).min(postings.len());
            let to = (self.end - at.min(self.end)).min(postings.len());
            if from < to {
                f(postings.get(from..to).unwrap_or_default());
            }
        });
    }

    /// The partition of the last visible posting, as a partition key
    /// ([`HEAD_AT_ROOT`] for the root, `ordinal + 1` inside partition
    /// `0.ordinal`): read off the skip table for a view that ends with
    /// the list.
    pub fn last_partition(&self) -> Option<u64> {
        let last = self.end.checked_sub(1).filter(|_| !self.is_empty())?;
        if self.end == self.list.len() {
            return self.list.keys.last().map(|k| k.1);
        }
        let b = block_of(last);
        let offset = last - first_of(b);
        let posting = self.list.block(b).postings.get(offset)?;
        Some(partition_key(&posting.dewey))
    }
}

/// A forward cursor over a [`ListHandle`]'s partition runs
/// ([`ListHandle::partition_runs`]). A copy is a second cursor over the
/// same runs, standing where this one stands.
#[derive(Clone)]
pub struct PartitionRuns<'a> {
    list: &'a StoredList,
    /// The view, in whole-list indices.
    start: usize,
    end: usize,
    /// The blocks holding a visible posting are those before this one.
    blocks_end: usize,
    /// The run the cursor stands in; `None` past the last visible one.
    at: Option<RunAt<'a>>,
}

/// A run a cursor stands in.
#[derive(Clone, Copy)]
struct RunAt<'a> {
    /// The block it starts in, that block's runs and postings — both empty
    /// while the cursor stands in the block's first run without having
    /// decoded it ([`StoredList::first_run`]) — and its index among the
    /// runs.
    block: usize,
    runs: &'a [BlockRun],
    postings: &'a [Posting],
    run: usize,
    head: u64,
    /// Whole-list index of its first posting.
    from: usize,
}

impl<'a> RunAt<'a> {
    /// Run `r` of block `b`, whose runs and postings these are.
    #[inline]
    fn new(b: usize, runs: &'a [BlockRun], postings: &'a [Posting], r: usize) -> Option<Self> {
        let run = runs.get(r)?;
        Some(RunAt {
            block: b,
            runs,
            postings,
            run: r,
            head: run.head(),
            from: first_of(b) + run.start(),
        })
    }

    /// Whether the block is yet to be decoded for it.
    #[inline]
    fn lazy(&self) -> bool {
        self.runs.is_empty()
    }
}

impl<'a> PartitionRuns<'a> {
    /// Stands in `at`, or past the last visible run when it starts after
    /// the view.
    #[inline]
    fn stand(&mut self, at: Option<RunAt<'a>>) {
        self.at = at.filter(|at| at.from < self.end);
    }

    /// The partition key of the run the cursor stands in; `None` past the
    /// last run. Reads no more of the list than the cursor has.
    #[inline]
    pub fn head(&self) -> Option<u64> {
        self.at.map(|at| at.head)
    }

    /// The run the cursor stands in, with its postings.
    #[inline]
    fn run(&self) -> Option<(&RunAt<'a>, &'a [Posting])> {
        let at = self.at.as_ref()?;
        match at.lazy() {
            false => Some((at, self.list.run_postings(at))),
            true => Some((at, self.list.run_postings(&self.decoded(*at)))),
        }
    }

    /// `at`, its block decoded.
    #[inline]
    fn decoded(&self, at: RunAt<'a>) -> RunAt<'a> {
        match at.lazy() {
            true => self.list.run_at(at.block, at.run).unwrap_or(at),
            false => at,
        }
    }

    /// The run the cursor stands in: its partition key and its
    /// view-relative range, clamped to the view; `None` past the last run.
    #[inline]
    pub fn current(&self) -> Option<(u64, Range<usize>)> {
        let (at, postings) = self.run()?;
        let from = at.from.max(self.start);
        let to = (at.from + postings.len()).min(self.end).max(from);
        Some((at.head, from - self.start..to - self.start))
    }

    /// The postings of the run the cursor stands in, clamped to the view:
    /// one slice of a decoded block.
    #[inline]
    pub fn current_postings(&self) -> Option<&'a [Posting]> {
        let (at, postings) = self.run()?;
        let n = postings.len();
        let from = self.start.saturating_sub(at.from).min(n);
        let to = (self.end - at.from).min(n);
        postings.get(from..to.max(from))
    }

    /// Bounds on the number of runs from the current one on that decode
    /// nothing more.
    pub fn remaining_bounds(&self) -> (usize, usize) {
        let Some(at) = self.at else {
            return (0, 0);
        };
        (at.block + 1..self.blocks_end)
            .map(|c| self.list.starts_bounds(c, self.end))
            .fold(self.here(at), |(lo, hi), (l, h)| (lo + l, hi + h))
    }

    /// Whether the cursors have `n` runs or more left between them:
    /// decided from [`remaining_bounds`](Self::remaining_bounds) where
    /// they can, else by decoding the blocks whose bounds are widest
    /// first, until the bounds decide.
    pub fn at_least(cursors: &[PartitionRuns<'_>], n: usize) -> bool {
        let (mut lo, mut hi) = (cursors.iter().map(PartitionRuns::remaining_bounds))
            .fold((0, 0), |(lo, hi), (l, h)| (lo + l, hi + h));
        let mut open: Vec<(usize, &PartitionRuns<'_>, usize)> = Vec::new();
        for runs in cursors {
            let Some(at) = runs.at else {
                continue;
            };
            let first = at.block + usize::from(!at.lazy());
            for c in first..runs.blocks_end {
                let (l, h) = runs.list.starts_bounds(c, runs.end);
                if l < h {
                    open.push((h - l, runs, c));
                }
            }
        }
        open.sort_by_key(|&(gap, _, _)| std::cmp::Reverse(gap));
        for (_, runs, c) in open {
            if lo >= n || hi < n {
                break;
            }
            let (l, h) = runs.list.starts_bounds(c, runs.end);
            let exact = runs.list.starts(c, runs.end);
            (lo, hi) = (lo + exact - l, hi - (h - exact));
        }
        lo >= n
    }

    /// Bounds on the visible runs of the current block from the current
    /// one on: when the cursor stands in the first run of a block not
    /// decoded, they are those on the runs that start in the block.
    fn here(&self, at: RunAt<'_>) -> (usize, usize) {
        if at.lazy() {
            return self.list.starts_bounds(at.block, self.end);
        }
        let base = first_of(at.block);
        let rest = at.runs.get(at.run..).unwrap_or_default();
        let n = match base + at.postings.len() <= self.end {
            true => rest.len(),
            false => rest.iter().filter(|r| base + r.start() < self.end).count(),
        };
        (n, n)
    }

    /// Moves to the first run whose partition is `head` or later and
    /// returns the number of partition keys compared. When the current
    /// block's last partition is `head` or later, that is a [`gallop`]
    /// over the block's runs; else one over the later blocks' last
    /// partitions, then one over the runs of the block it lands in — the
    /// only block it decodes, and only when the block's first run does
    /// not decide it.
    #[inline]
    pub fn seek(&mut self, head: u64) -> u64 {
        let (list, end) = (self.list, self.end);
        let Some(at) = self.at.as_mut() else {
            return 1;
        };
        if at.head >= head {
            return 1;
        }
        let mut probes = 1;
        if list.keys.get(at.block).is_some_and(|k| k.1 >= head) {
            if at.lazy() {
                *at = list.run_at(at.block, at.run).unwrap_or(*at);
            }
            let runs = at.runs.get(at.run..).unwrap_or_default();
            let (i, p) = gallop(runs, |r| r.head() < head);
            match runs.get(i) {
                Some(run) if first_of(at.block) + run.start() < end => {
                    (at.run, at.head) = (at.run + i, run.head());
                    at.from = first_of(at.block) + run.start();
                }
                _ => self.at = None,
            }
            return p;
        }
        let at = *at;
        let later = (list.keys)
            .get(at.block + 1..self.blocks_end)
            .unwrap_or_default();
        if later.is_empty() {
            self.at = None;
            return probes;
        }
        let (j, p) = gallop(later, |&(_, last)| last < head);
        probes += p;
        if j == later.len() {
            self.at = None;
            return probes;
        }
        // The block's last partition is `head` or later and the previous
        // block's is not, so the run found starts in it.
        let c = at.block + 1 + j;
        if !list.continues(c) && list.keys.get(c).is_some_and(|k| k.0 >= head) {
            self.stand(list.first_run(c));
            return probes + 1;
        }
        let block = list.block(c);
        let (r, p) = gallop(&block.runs, |r| r.head() < head);
        self.stand(RunAt::new(c, &block.runs, &block.postings, r));
        probes + p
    }

    /// Moves to the next run.
    #[inline]
    fn advance(&mut self) {
        let Some(at) = self.at else {
            return;
        };
        let list = self.list;
        // A block of one partition holds one run that starts in it.
        let single = list.keys.get(at.block).is_none_or(|k| k.0 == k.1);
        let at = if single { at } else { self.decoded(at) };
        let next = match RunAt::new(at.block, at.runs, at.postings, at.run + 1) {
            Some(next) if !single => Some(next),
            _ => list.first_run_after(at.block, self.blocks_end),
        };
        self.stand(next);
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

/// Distinct `t`-typed ancestors-or-self of the postings, in document
/// order — the sets whose intersections the co-occurrence statistics
/// count.
// xlint::allow(unused-export): the co-occurrence oracle the index and maintenance tests project whole lists with; the reader projects block by block
pub fn typed_ancestors_in(
    types: &NodeTypeTable,
    postings: &[Posting],
    t: NodeTypeId,
) -> Vec<Dewey> {
    let mut out = Vec::new();
    extend_typed_ancestors(&mut out, types, postings, t);
    out
}

/// Appends [`typed_ancestors_in`] of `postings` to `out`: `postings`
/// follow those `out` was made from, so a list can be projected block by
/// block.
pub(crate) fn extend_typed_ancestors(
    out: &mut Vec<Dewey>,
    types: &NodeTypeTable,
    postings: &[Posting],
    t: NodeTypeId,
) {
    let t_len = types.depth(t) + 1;
    for p in postings {
        let Some(up) = p.dewey.len().checked_sub(t_len) else {
            continue;
        };
        if types.ancestors_or_self(p.node_type).nth(up) != Some(t) {
            continue;
        }
        let anc = &p.dewey.components()[..t_len];
        if out.last().map(Dewey::components) != Some(anc) {
            out.extend(Dewey::from_slice(anc));
        }
    }
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

    /// The labels a handle shows, in order.
    fn labels(h: &ListHandle) -> Vec<String> {
        (h.run_postings().flatten())
            .map(|p| p.dewey.to_string())
            .collect()
    }

    #[test]
    fn handle_views_share_the_allocation() {
        let h = ListHandle::from_postings(ps(&["0.0.0", "0.0.1", "0.1.0", "0.1.2", "0.2"]));
        assert_eq!(h.len(), 5);
        let sub = h.slice(1..4);
        assert_eq!(sub.len(), 3);
        assert_eq!(labels(&sub), ["0.0.1", "0.1.0", "0.1.2"]);
        // sub-slicing composes and stays view-relative
        let subsub = sub.slice(1..3);
        assert_eq!(labels(&subsub), ["0.1.0", "0.1.2"]);
        assert_eq!(subsub.len(), 2);
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
        assert_eq!(a.run_postings().count(), 0);
    }
}
