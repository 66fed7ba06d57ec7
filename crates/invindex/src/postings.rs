//! Posting lists: for each keyword, the document-ordered list of elements
//! whose tag name or text contains the keyword.
//!
//! Lists are kept in memory as plain vectors for query processing and are
//! stored compressed in the key-value store, mirroring how the paper keeps
//! its keyword inverted lists in Berkeley DB (§VII).
//!
//! A list's **partition runs** are its maximal runs of postings that
//! stand in the same partition (Definition 6.1, the subtree of one child
//! of the document root), each held as the partition as one integer
//! ([`HEAD_AT_ROOT`] for the root, `ordinal + 1` inside partition
//! `0.ordinal`) and the index where the run starts. They are the
//! structure Algorithm 2's walk and Scan Eager's run join move over — a
//! [`PartitionRuns`] cursor seeks from run to run and never compares a
//! label. They exist only in decoded blocks, one word a run: the block
//! decoder writes a stored block's runs as it decodes its postings, and
//! every block of a list held in memory gets its runs from its labels
//! when the list is wrapped ([`crate::reader`]). A [`PostingList`] keeps
//! its postings alone, and the stored format does not know runs exist.
//!
//! [`PartitionRuns`]: crate::PartitionRuns
//!
//! The wire encoding ([`PostingList::encode_compressed`] /
//! [`CompressedList`]) groups postings into fixed-size blocks of
//! [`BLOCK_POSTINGS`], each independently decodable, behind a skip table
//! of `(byte length, count, min label, max label)` entries. The table is
//! validated on parse and re-checked block by block by scrub. The reader
//! seeks through it: a [`StoredList`] keeps a list encoded and decodes a
//! block the first time a cursor lands in it, finding that block from
//! the table's partition keys ([`crate::reader`]).
//!
//! [`StoredList`]: crate::StoredList

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

use kvstore::{KvError, Result};
use xmldom::{Dewey, NodeTypeId};

/// One entry of an inverted list: a node containing the keyword, plus its
/// node type so statistics lookups need no document access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    pub dewey: Dewey,
    pub node_type: NodeTypeId,
}

impl Posting {
    pub fn new(dewey: Dewey, node_type: NodeTypeId) -> Self {
        Posting { dewey, node_type }
    }
}

/// The partition key of a posting on the document root itself: it sorts
/// before every partition.
pub const HEAD_AT_ROOT: u64 = 0;

/// The partition a label stands in, as one integer ordered the way the
/// labels are: [`HEAD_AT_ROOT`] for the document root itself (a
/// one-component label), `ordinal + 1` inside partition `0.ordinal`.
pub(crate) fn partition_key(dewey: &Dewey) -> u64 {
    match dewey.components().get(1) {
        None => HEAD_AT_ROOT,
        // At most 2^32, so below `u64::MAX`.
        Some(&ordinal) => u64::from(ordinal).saturating_add(1),
    }
}

/// A partition run of a decoded block, in one word: its partition key
/// (at most 2^32) in the low bits, and where it starts in the block
/// (below [`BLOCK_POSTINGS`]) in the top seven.
#[derive(Clone, Copy)]
pub(crate) struct BlockRun(u64);

impl BlockRun {
    const START_SHIFT: u32 = 57;
    const HEAD_MASK: u64 = (1 << Self::START_SHIFT) - 1;

    fn new(head: u64, start: usize) -> Self {
        BlockRun(head | (start as u64) << Self::START_SHIFT)
    }

    /// The run's partition key.
    #[inline]
    pub(crate) fn head(self) -> u64 {
        self.0 & Self::HEAD_MASK
    }

    /// Where the run starts in its block.
    #[inline]
    pub(crate) fn start(self) -> usize {
        (self.0 >> Self::START_SHIFT) as usize
    }
}

/// Accounts a block's posting `i`, labelled `dewey`, in the block's runs:
/// it opens a run unless it stands where the last run does.
pub(crate) fn extend_runs(runs: &mut Vec<BlockRun>, i: usize, dewey: &Dewey) {
    let head = partition_key(dewey);
    if runs.last().map(|r| r.head()) != Some(head) {
        runs.push(BlockRun::new(head, i));
    }
}

/// A document-ordered list of postings for one keyword.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    postings: Vec<Posting>,
}

impl PostingList {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a vector that must already be in document order.
    pub fn from_sorted(postings: Vec<Posting>) -> Self {
        debug_assert!(
            postings.is_sorted_by(|a, b| a.dewey < b.dewey),
            "postings must be strictly document-ordered"
        );
        PostingList { postings }
    }

    /// Appends a posting that must follow the current tail in document
    /// order.
    pub fn push(&mut self, posting: Posting) {
        debug_assert!(
            self.postings
                .last()
                .map(|p| p.dewey < posting.dewey)
                .unwrap_or(true),
            "push out of document order"
        );
        self.postings.push(posting);
    }

    /// Moves the postings from `at` on (all of them past the end) into a
    /// list of their own.
    pub(crate) fn split_off(&mut self, at: usize) -> PostingList {
        PostingList {
            postings: self.postings.split_off(at.min(self.postings.len())),
        }
    }

    /// Appends `tail`, whose postings must all follow the current tail in
    /// document order.
    pub(crate) fn append(&mut self, mut tail: PostingList) {
        debug_assert!(
            match (self.postings.last(), tail.postings.first()) {
                (Some(last), Some(first)) => last.dewey < first.dewey,
                _ => true,
            },
            "append out of document order"
        );
        self.postings.append(&mut tail.postings);
    }

    pub fn len(&self) -> usize {
        self.postings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Posting> {
        self.postings.iter()
    }

    pub fn as_slice(&self) -> &[Posting] {
        &self.postings
    }
}

/// LEB128 unsigned varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `pos`. `None` on truncation or on
/// overflow: a value wider than 64 bits, which includes a tenth byte
/// above 1.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    // One byte is the common case: a component delta, a node type, a
    // short length.
    let first = read_byte(bytes, pos)?;
    if first & 0x80 == 0 {
        return Some(u64::from(first));
    }
    let mut result = u64::from(first & 0x7F);
    // Shifts 7, 14, .., 63: a continuation past the tenth byte is None.
    for shift in (7..64).step_by(7) {
        let byte = read_byte(bytes, pos)?;
        let bits = u64::from(byte & 0x7F);
        if bits > u64::MAX >> shift {
            return None;
        }
        result |= bits << shift;
        if byte & 0x80 == 0 {
            return Some(result);
        }
    }
    None
}

/// Reads the byte at `pos`, advancing `pos` past it.
#[inline(always)]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "`*pos` indexes the byte `get` just returned, so `*pos + 1 <= bytes.len()`"
)]
fn read_byte(bytes: &[u8], pos: &mut usize) -> Option<u8> {
    let byte = *bytes.get(*pos)?;
    *pos += 1;
    Some(byte)
}

// ----- compressed list encoding ---------------------------------------

/// Postings per compressed block. Every block except the last holds
/// exactly this many; the skip table references block boundaries, so the
/// value is part of the wire format and must not change.
pub const BLOCK_POSTINGS: usize = 64;

// Delta-posting header byte: bits 0–2 trim (7 = varint escape),
// bits 3–5 rest (7 = varint escape), bit 6 = node type repeats, bit 7
// reserved (must be zero).
const HDR_FIELD_ESCAPE: u8 = 7;
const HDR_SAME_TYPE: u8 = 0x40;
const HDR_RESERVED: u8 = 0x80;

/// Skip-table entry for one compressed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Postings in blocks before this one (cumulative start index).
    pub start: usize,
    /// Byte offset of the block's data within the blocks region.
    pub offset: usize,
    /// Byte length of the block's data.
    pub len: usize,
    /// Postings in the block (`1..=BLOCK_POSTINGS`).
    pub count: usize,
    /// Dewey label of the block's first posting (stored absolutely; the
    /// block data itself does not repeat it).
    pub min: Dewey,
    /// Dewey label of the block's last posting.
    pub max: Dewey,
}

/// A parsed compressed posting list: validated skip table over
/// borrowed, still-encoded block data. Parsing validates every skip-table
/// invariant (block sizing, label ordering, byte extents) without
/// decoding any block; blocks decode individually on demand.
#[derive(Debug)]
pub struct CompressedList<'a> {
    n: usize,
    blocks: Vec<BlockMeta>,
    data: &'a [u8],
}

impl PostingList {
    /// Serializes in the blocked format: `varint(n) ‖ varint(blocks)
    /// ‖ skip table ‖ block data`. Within a block the first posting's
    /// label lives in the skip entry; each later posting is a packed
    /// header byte (trim/rest/type-repeat), its divergent components
    /// (the first one delta-coded against the predecessor when the two
    /// labels diverge — document order guarantees the delta is
    /// non-negative), and its node type only when it changes.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "encode side: `start` is `data.len()` before the block was appended, and the \
                  capacity adds two `Vec` lengths and 4"
    )]
    pub fn encode_compressed(&self) -> Vec<u8> {
        let mut skips = Vec::new();
        let mut data = Vec::new();
        for chunk in self.postings.chunks(BLOCK_POSTINGS) {
            let start = data.len();
            let mut iter = chunk.iter();
            let Some(first) = iter.next() else { continue };
            write_varint(&mut data, u64::from(first.node_type.0));
            let mut prev = first;
            for p in iter {
                encode_delta_posting(&mut data, prev, p);
                prev = p;
            }
            write_varint(&mut skips, (data.len() - start) as u64);
            write_varint(&mut skips, chunk.len() as u64);
            let min = first.dewey.components();
            write_varint(&mut skips, min.len() as u64);
            for &c in min {
                write_varint(&mut skips, u64::from(c));
            }
            let max = prev.dewey.components();
            let shared = min
                .iter()
                .zip(max.iter())
                .take_while(|(a, b)| a == b)
                .count();
            let max_rest = max.get(shared..).unwrap_or(&[]);
            write_varint(&mut skips, shared as u64);
            write_varint(&mut skips, max_rest.len() as u64);
            for &c in max_rest {
                write_varint(&mut skips, u64::from(c));
            }
        }
        let mut out = Vec::with_capacity(4 + skips.len() + data.len());
        write_varint(&mut out, self.postings.len() as u64);
        write_varint(
            &mut out,
            self.postings.len().div_ceil(BLOCK_POSTINGS) as u64,
        );
        out.extend_from_slice(&skips);
        out.extend_from_slice(&data);
        out
    }
}

/// Encodes `curr` relative to `prev` (strictly smaller in document
/// order, guaranteed by the list invariant).
#[expect(
    clippy::arithmetic_side_effects,
    reason = "encode side: `shared` counts a common prefix, so it is at most either label's \
              length, and document order makes `c0` exceed `base` where the labels diverge"
)]
fn encode_delta_posting(out: &mut Vec<u8>, prev: &Posting, curr: &Posting) {
    let pc = prev.dewey.components();
    let cc = curr.dewey.components();
    let shared = pc.iter().zip(cc.iter()).take_while(|(a, b)| a == b).count();
    let trim = pc.len() - shared;
    let rest = cc.len() - shared;
    debug_assert!(rest >= 1, "equal or ancestor posting violates list order");
    let trim_field = (trim as u64).min(u64::from(HDR_FIELD_ESCAPE)) as u8;
    let rest_field = (rest as u64).min(u64::from(HDR_FIELD_ESCAPE)) as u8;
    let mut header = trim_field | (rest_field << 3);
    if curr.node_type == prev.node_type {
        header |= HDR_SAME_TYPE;
    }
    out.push(header);
    if trim_field == HDR_FIELD_ESCAPE {
        write_varint(out, trim as u64);
    }
    if rest_field == HDR_FIELD_ESCAPE {
        write_varint(out, rest as u64);
    }
    let mut tail = cc.get(shared..).unwrap_or(&[]).iter();
    if let Some(&c0) = tail.next() {
        if trim > 0 {
            // Both labels have a component at `shared` and document
            // order makes ours the larger one: delta-code it.
            let base = pc.get(shared).copied().unwrap_or(0);
            write_varint(out, u64::from(c0) - u64::from(base) - 1);
        } else {
            write_varint(out, u64::from(c0));
        }
    }
    for &c in tail {
        write_varint(out, u64::from(c));
    }
    if curr.node_type != prev.node_type {
        write_varint(out, u64::from(curr.node_type.0));
    }
}

impl<'a> CompressedList<'a> {
    /// Parses and fully validates a payload's header and skip table.
    /// Any structural violation — block sizing, label ordering, byte
    /// extents — is [`KvError::Corrupt`]; block *contents* are validated
    /// by [`CompressedList::decode_block`].
    pub fn parse(payload: &'a [u8]) -> Result<Self> {
        let corrupt = |what: String| KvError::corrupt(format!("compressed list: {what}"));
        let mut pos = 0usize;
        let n = read_varint(payload, &mut pos)
            .ok_or_else(|| corrupt("missing posting count".into()))? as usize;
        let b = read_varint(payload, &mut pos)
            .ok_or_else(|| corrupt("missing block count".into()))? as usize;
        if b != n.div_ceil(BLOCK_POSTINGS) {
            return Err(corrupt(format!(
                "block count {b} does not match {n} postings"
            )));
        }
        if b > payload.len() {
            return Err(corrupt("block count exceeds payload size".into()));
        }
        let mut blocks = Vec::with_capacity(b);
        let mut offset = 0usize;
        let mut start = 0usize;
        let mut prev_max: Option<Dewey> = None;
        // The one working buffer the skip table's labels are read into.
        let mut comps: Vec<u32> = Vec::new();
        for i in 0..b {
            let len = read_varint(payload, &mut pos)
                .ok_or_else(|| corrupt(format!("block {i}: missing byte length")))?
                as usize;
            let count = read_varint(payload, &mut pos)
                .ok_or_else(|| corrupt(format!("block {i}: missing posting count")))?
                as usize;
            if count == 0 || count > BLOCK_POSTINGS {
                return Err(corrupt(format!("block {i}: bad posting count {count}")));
            }
            if i.saturating_add(1) < b && count != BLOCK_POSTINGS {
                return Err(corrupt(format!(
                    "block {i}: interior block holds {count} postings, expected {BLOCK_POSTINGS}"
                )));
            }
            // Every posting needs ≥1 byte (the first its type varint,
            // the rest a header byte plus ≥1 component byte).
            if len < count.saturating_mul(2).saturating_sub(1) {
                return Err(corrupt(format!(
                    "block {i}: {len} bytes cannot hold {count} postings"
                )));
            }
            let min = read_dewey_abs(payload, &mut pos, &mut comps)
                .ok_or_else(|| corrupt(format!("block {i}: bad min label")))?;
            let max = read_dewey_front_coded(payload, &mut pos, &mut comps)
                .ok_or_else(|| corrupt(format!("block {i}: bad max label")))?;
            if max < min {
                return Err(corrupt(format!("block {i}: max label below min")));
            }
            if count == 1 && max != min {
                return Err(corrupt(format!(
                    "block {i}: single-posting block with distinct min/max"
                )));
            }
            if let Some(pm) = &prev_max {
                if *pm >= min {
                    return Err(corrupt(format!("block {i}: blocks out of label order")));
                }
            }
            let next_offset = offset
                .checked_add(len)
                .ok_or_else(|| corrupt(format!("block {i}: byte offset overflow")))?;
            blocks.push(BlockMeta {
                start,
                offset,
                len,
                count,
                min,
                max: max.clone(),
            });
            prev_max = Some(max);
            offset = next_offset;
            start = start
                .checked_add(count)
                .ok_or_else(|| corrupt(format!("block {i}: posting count overflow")))?;
        }
        if start != n {
            return Err(corrupt(format!(
                "skip table covers {start} postings, header claims {n}"
            )));
        }
        let data = payload.get(pos..).unwrap_or(&[]);
        if data.len() != offset {
            return Err(corrupt(format!(
                "skip table spans {offset} data bytes, payload has {}",
                data.len()
            )));
        }
        Ok(CompressedList { n, blocks, data })
    }

    /// Total postings across all blocks.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The validated skip table.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Decodes one block, validating the posting stream against the
    /// block's skip entry (count, strict document order by construction,
    /// max label).
    pub fn decode_block(&self, i: usize) -> Result<Vec<Posting>> {
        let meta = self
            .blocks
            .get(i)
            .ok_or_else(|| block_corrupt(i, "no such block"))?;
        let mut out = Vec::new();
        decode_block_into(meta, self.data, &mut out, None)
            .map_err(|what| block_corrupt(i, what))?;
        Ok(out)
    }

    /// The parsed header: the posting count, the skip table and the block
    /// data, for a reader that decodes the blocks later
    /// ([`decode_block_into`]).
    pub(crate) fn into_parts(self) -> (usize, Vec<BlockMeta>, &'a [u8]) {
        (self.n, self.blocks, self.data)
    }

    /// Decodes every block into a full [`PostingList`]: one vector sized
    /// from the header's count, which `parse` has bounded by the payload
    /// size.
    pub fn decode_all(&self) -> Result<PostingList> {
        let mut postings = Vec::with_capacity(self.n);
        for (i, meta) in self.blocks.iter().enumerate() {
            decode_block_into(meta, self.data, &mut postings, None)
                .map_err(|what| block_corrupt(i, what))?;
        }
        Ok(PostingList { postings })
    }

    /// Decodes every block independently, reporting per-block damage
    /// instead of stopping at the first bad block (the `scrub` path).
    pub fn check_blocks(&self) -> Vec<(usize, String)> {
        let mut damaged = Vec::new();
        for i in 0..self.blocks.len() {
            if let Err(e) = self.decode_block(i) {
                damaged.push((i, e.to_string()));
            }
        }
        damaged
    }
}

/// The one block decoder: appends the postings of the block `meta`
/// describes, read from `data` (the list's block region), to `out` and,
/// when given `runs`, writes the block's partition runs there, starts
/// relative to the block. The current posting's label is rewritten in
/// place from its predecessor's in a `[u32; Dewey::INLINE]` on the stack
/// and built from it with one fixed-size copy, so a label of up to seven
/// components allocates nothing. Only a deeper label spills: it is built
/// in a heap buffer sized to it, which becomes the label's own storage,
/// and the next posting reads the components past the seventh from there
/// (the predecessor is always `out`'s last posting). Damage is reported
/// as a static description, which the caller formats once.
pub(crate) fn decode_block_into(
    meta: &BlockMeta,
    data: &[u8],
    out: &mut Vec<Posting>,
    mut runs: Option<&mut Vec<BlockRun>>,
) -> std::result::Result<(), &'static str> {
    let end = meta
        .offset
        .checked_add(meta.len)
        .ok_or("byte extent overflow")?;
    let bytes = data
        .get(meta.offset..end)
        .ok_or("byte extent outside payload")?;
    let mut pos = 0usize;
    let t0 = read_u32_varint(bytes, &mut pos).ok_or("bad first node type")?;
    if let Some(runs) = runs.as_deref_mut() {
        extend_runs(runs, 0, &meta.min);
    }
    out.reserve(meta.count);
    out.push(Posting::new(meta.min.clone(), NodeTypeId(t0)));
    // The predecessor's first `min(len, INLINE)` components; what lies
    // past them is stale.
    let mut label = [0u32; Dewey::INLINE];
    let min = meta.min.components();
    for (slot, &c) in label.iter_mut().zip(min) {
        *slot = c;
    }
    let mut len = min.len();
    let mut prev_type = t0;
    for i in 1..meta.count {
        let header = read_byte(bytes, &mut pos).ok_or("truncated posting header")?;
        if header & HDR_RESERVED != 0 {
            return Err("reserved header bit set");
        }
        let mut trim = usize::from(header & 7);
        if trim == usize::from(HDR_FIELD_ESCAPE) {
            trim = read_varint(bytes, &mut pos).ok_or("truncated trim escape")? as usize;
            if trim < usize::from(HDR_FIELD_ESCAPE) {
                return Err("non-canonical trim escape");
            }
        }
        let mut rest = usize::from((header >> 3) & 7);
        if rest == usize::from(HDR_FIELD_ESCAPE) {
            rest = read_varint(bytes, &mut pos).ok_or("truncated rest escape")? as usize;
            if rest < usize::from(HDR_FIELD_ESCAPE) {
                return Err("non-canonical rest escape");
            }
        }
        if rest == 0 {
            return Err("posting repeats or precedes its predecessor");
        }
        if rest > bytes.len() {
            return Err("component count exceeds block size");
        }
        let shared = len
            .checked_sub(trim)
            .ok_or("trim deeper than predecessor")?;
        let d0 = read_varint(bytes, &mut pos).ok_or("truncated component")?;
        let c0 = if trim > 0 {
            // The predecessor's component where the two diverge.
            let base = match label.get(shared) {
                Some(&c) => c,
                None => predecessor(out).get(shared).copied().unwrap_or(0),
            };
            let v = u64::from(base)
                .checked_add(1)
                .and_then(|b| b.checked_add(d0))
                .ok_or("component overflow")?;
            u32::try_from(v).map_err(|_| "component overflow")?
        } else {
            u32::try_from(d0).map_err(|_| "component overflow")?
        };
        len = shared.saturating_add(rest);
        let dewey = match label.get_mut(shared..len) {
            Some(slots) => {
                let mut slots = slots.iter_mut();
                if let Some(slot) = slots.next() {
                    *slot = c0;
                }
                for slot in slots {
                    *slot = read_u32_varint(bytes, &mut pos).ok_or("bad component")?;
                }
                Dewey::from_padded(len, &label)
            }
            None => {
                let prefix = predecessor(out).get(..shared).unwrap_or_default();
                spill_label(prefix, c0, len, bytes, &mut pos, &mut label)?
            }
        }
        .ok_or("empty posting label")?;
        let node_type = if header & HDR_SAME_TYPE != 0 {
            prev_type
        } else {
            read_u32_varint(bytes, &mut pos).ok_or("bad node type")?
        };
        if let Some(runs) = runs.as_deref_mut() {
            extend_runs(runs, i, &dewey);
        }
        out.push(Posting::new(dewey, NodeTypeId(node_type)));
        prev_type = node_type;
    }
    if pos != bytes.len() {
        return Err("trailing bytes");
    }
    match out.last() {
        Some(last) if last.dewey == meta.max => Ok(()),
        _ => Err("last posting does not match skip-table max"),
    }
}

/// The error block `i`'s decoder reports as `what`.
pub(crate) fn block_corrupt(i: usize, what: &str) -> KvError {
    KvError::corrupt(format!("compressed list block {i}: {what}"))
}

/// The components of the posting the decoder wrote last.
#[inline]
fn predecessor(out: &[Posting]) -> &[u32] {
    out.last().map_or(&[], |p| p.dewey.components())
}

/// The decoder's path for a label deeper than [`Dewey::INLINE`]: the
/// `prefix` it shares with its predecessor, `c0`, then the rest of its
/// `len` components read from `bytes`, in one buffer of exactly `len`
/// that the label keeps; `label` gets its first components.
#[cold]
fn spill_label(
    prefix: &[u32],
    c0: u32,
    len: usize,
    bytes: &[u8],
    pos: &mut usize,
    label: &mut [u32; Dewey::INLINE],
) -> std::result::Result<Option<Dewey>, &'static str> {
    let mut spilled = Vec::with_capacity(len);
    spilled.extend_from_slice(prefix);
    spilled.push(c0);
    while spilled.len() < len {
        spilled.push(read_u32_varint(bytes, pos).ok_or("bad component")?);
    }
    for (slot, &c) in label.iter_mut().zip(&spilled) {
        *slot = c;
    }
    Ok(Dewey::new(spilled))
}

/// Reads an absolutely-coded Dewey label, `varint(len)` then `len`
/// components, through the working buffer `comps`, which holds the
/// label's components afterwards. `None` on truncation, overflow or an
/// empty label.
fn read_dewey_abs(bytes: &[u8], pos: &mut usize, comps: &mut Vec<u32>) -> Option<Dewey> {
    let len = read_varint(bytes, pos)? as usize;
    if len > bytes.len() {
        return None;
    }
    comps.clear();
    for _ in 0..len {
        comps.push(read_u32_varint(bytes, pos)?);
    }
    Dewey::from_slice(comps)
}

/// Reads a Dewey label front-coded against the one `comps` holds —
/// `varint(shared)`, `varint(rest)`, then `rest` absolute components —
/// leaving its components there.
fn read_dewey_front_coded(bytes: &[u8], pos: &mut usize, comps: &mut Vec<u32>) -> Option<Dewey> {
    let shared = read_varint(bytes, pos)? as usize;
    let rest = read_varint(bytes, pos)? as usize;
    if rest > bytes.len() || shared > comps.len() {
        return None;
    }
    comps.truncate(shared);
    for _ in 0..rest {
        comps.push(read_u32_varint(bytes, pos)?);
    }
    Dewey::from_slice(comps)
}

/// Reads a varint that must fit 32 bits. A one-byte value — nearly every
/// component and node type — is read here without entering
/// [`read_varint`]'s loop.
#[inline(always)]
fn read_u32_varint(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    match bytes.get(*pos) {
        Some(&b) if b & 0x80 == 0 => read_byte(bytes, pos).map(u32::from),
        _ => u32::try_from(read_varint(bytes, pos)?).ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str, t: u32) -> Posting {
        Posting::new(s.parse().unwrap(), NodeTypeId(t))
    }

    fn sample() -> PostingList {
        PostingList::from_sorted(vec![
            p("0.0.1", 3),
            p("0.0.2.0", 4),
            p("0.1", 1),
            p("0.1.1.0", 5),
            p("0.2", 1),
        ])
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None); // truncated
    }

    #[test]
    fn varint_wider_than_64_bits_is_refused() {
        let read = |bytes: &[u8]| read_varint(bytes, &mut 0);
        // Nine bytes carry 63 bits, so a tenth may only add bit 63:
        // `[0xFF×9, 0x01]` is how `write_varint` spells `u64::MAX`.
        let ten = |last: u8, fill: u8| [[fill; 9].as_slice(), &[last]].concat();
        assert_eq!(read(&ten(0x01, 0xFF)), Some(u64::MAX));
        assert_eq!(read(&ten(0x01, 0x80)), Some(1 << 63));
        for last in [0x02, 0x7F] {
            assert_eq!(read(&ten(last, 0xFF)), None, "tenth byte {last:#x}");
            assert_eq!(read(&ten(last, 0x80)), None, "tenth byte {last:#x}");
        }
        // An eleventh byte is refused whatever it holds.
        assert_eq!(read(&[[0x80; 10].as_slice(), &[0x00]].concat()), None);
    }

    // the order check is a debug_assert, so the panic only exists in
    // debug builds — release runs would fail the should_panic
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "document-ordered")]
    fn from_sorted_rejects_disorder_in_debug() {
        PostingList::from_sorted(vec![p("0.1", 0), p("0.0", 0)]);
    }

    // ----- compressed codec -------------------------------------------

    /// A multi-block list: three full blocks plus a partial tail, with
    /// sibling runs (shared prefixes), type changes and depth jumps.
    fn big_list() -> PostingList {
        let mut postings = Vec::new();
        for chapter in 0..5u32 {
            for section in 0..10u32 {
                for para in 0..5u32 {
                    postings.push(Posting::new(
                        Dewey::new(vec![0, chapter, section, para]).unwrap(),
                        NodeTypeId(if para == 0 { 7 } else { 3 }),
                    ));
                }
            }
        }
        PostingList::from_sorted(postings)
    }

    #[test]
    fn compressed_roundtrip() {
        for list in [PostingList::new(), sample(), big_list()] {
            let bytes = list.encode_compressed();
            let parsed = CompressedList::parse(&bytes).unwrap();
            assert_eq!(parsed.len(), list.len());
            assert_eq!(parsed.decode_all().unwrap(), list);
            assert!(parsed.check_blocks().is_empty());
        }
    }

    #[test]
    fn skip_table_matches_blocks() {
        let list = big_list();
        let bytes = list.encode_compressed();
        let parsed = CompressedList::parse(&bytes).unwrap();
        assert_eq!(parsed.blocks().len(), list.len().div_ceil(BLOCK_POSTINGS));
        let mut start = 0usize;
        for (i, meta) in parsed.blocks().iter().enumerate() {
            assert_eq!(meta.start, start);
            assert_eq!(meta.min, list.as_slice()[start].dewey);
            assert_eq!(meta.max, list.as_slice()[start + meta.count - 1].dewey);
            let decoded = parsed.decode_block(i).unwrap();
            assert_eq!(
                decoded.as_slice(),
                &list.as_slice()[start..start + meta.count]
            );
            start += meta.count;
        }
        assert_eq!(start, list.len());
    }

    #[test]
    fn parse_rejects_structural_damage() {
        let list = big_list();
        let bytes = list.encode_compressed();
        // truncation at every prefix must error, never panic
        for cut in 0..bytes.len() {
            let r = CompressedList::parse(&bytes[..cut]).and_then(|c| c.decode_all());
            assert!(r.is_err(), "accepted truncation at {cut}");
        }
        // header claiming more postings than the skip table covers
        let mut grown = bytes.clone();
        grown[0] = grown[0].wrapping_add(1);
        assert!(CompressedList::parse(&grown).is_err());
    }

    #[test]
    fn bit_flips_never_panic_and_preserve_structure() {
        // The payload carries no checksum — flips inside component
        // varints can survive structural validation (the store frame's
        // CRC32 is the corruption boundary; see persist + compress_prop).
        // What the codec itself must guarantee under arbitrary mutation:
        // no panic, and anything it does accept is a well-formed,
        // strictly document-ordered list of the claimed length.
        let list = big_list();
        let bytes = list.encode_compressed();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[i] ^= 1 << bit;
                if let Ok(parsed) = CompressedList::parse(&mutated) {
                    if let Ok(decoded) = parsed.decode_all() {
                        assert_eq!(decoded.len(), parsed.len());
                        for w in decoded.as_slice().windows(2) {
                            assert!(w[0].dewey < w[1].dewey, "disorder after flip");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_and_deep_lists_roundtrip() {
        let single = PostingList::from_sorted(vec![p("0", 0)]);
        let bytes = single.encode_compressed();
        let parsed = CompressedList::parse(&bytes).unwrap();
        assert_eq!(parsed.decode_all().unwrap(), single);

        let deep = PostingList::from_sorted(vec![
            Posting::new(Dewey::new(vec![0; 40]).unwrap(), NodeTypeId(1)),
            Posting::new(
                Dewey::new([vec![0; 40], vec![1]].concat()).unwrap(),
                NodeTypeId(1),
            ),
            Posting::new(Dewey::new(vec![1]).unwrap(), NodeTypeId(2)),
        ]);
        let bytes = deep.encode_compressed();
        assert_eq!(
            CompressedList::parse(&bytes).unwrap().decode_all().unwrap(),
            deep
        );
    }
}
