//! Posting lists: for each keyword, the document-ordered list of elements
//! whose tag name or text contains the keyword.
//!
//! Lists are kept in memory as plain vectors for query processing and are
//! stored compressed in the key-value store, mirroring how the paper keeps
//! its keyword inverted lists in Berkeley DB (§VII).
//!
//! Beside its postings, an in-memory list carries its **partition runs**
//! ([`PostingList::runs`]): one [`PartitionRun`] per maximal run of
//! postings that stand in the same partition (Definition 6.1, the
//! subtree of one child of the document root), holding the partition as
//! one integer and the index where the run starts. It is the structure
//! Algorithm 2's walk and Scan Eager's run join move over — a
//! [`PartitionRuns`] cursor seeks from run to run and never compares a
//! label. The table is derived from the labels wherever a list is made —
//! by [`PostingList::from_sorted`] and [`PostingList::push`], which the
//! builders use, and by [`CompressedList::decode_all`], which extends it
//! posting by posting as it decodes — and is never persisted: the stored
//! format does not know it exists.
//!
//! [`PartitionRuns`]: crate::PartitionRuns
//!
//! The wire encoding ([`PostingList::encode_compressed`] /
//! [`CompressedList`]) groups postings into fixed-size blocks of
//! [`BLOCK_POSTINGS`], each independently decodable, behind a skip table
//! of `(byte length, count, min label, max label)` entries. The table is
//! validated on parse and re-checked block by block by scrub; readers
//! decode whole lists ([`CompressedList::decode_all`]), nothing seeks
//! through it today.

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

/// [`PartitionRun::head`] of a posting on the document root itself: it
/// sorts before every partition.
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

/// One maximal run of a list's postings that share a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionRun {
    /// The run's partition as one integer ordered the way the labels
    /// are: [`HEAD_AT_ROOT`] for the document root itself, `ordinal + 1`
    /// inside partition `0.ordinal` — what [`crate::PartitionRuns`]
    /// reports while it stands in the run.
    pub head: u64,
    /// Index of the run's first posting in the list.
    pub start: usize,
}

/// A document-ordered list of postings for one keyword.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    postings: Vec<Posting>,
    /// The partition runs of `postings`, in list order: one entry per
    /// run, not per posting, derived from the labels on construction.
    runs: Vec<PartitionRun>,
}

impl PostingList {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a vector that must already be in document order.
    pub fn from_sorted(postings: Vec<Posting>) -> Self {
        debug_assert!(
            postings.windows(2).all(|w| w[0].dewey < w[1].dewey),
            "postings must be strictly document-ordered"
        );
        let mut runs = Vec::new();
        for (i, p) in postings.iter().enumerate() {
            extend_runs(&mut runs, i, &p.dewey);
        }
        // Decoded lists are cached whole and never grow: no slack.
        runs.shrink_to_fit();
        PostingList { postings, runs }
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
        extend_runs(&mut self.runs, self.postings.len(), &posting.dewey);
        self.postings.push(posting);
    }

    /// The partition runs, in list order: run `r` covers the postings
    /// from `runs()[r].start` up to the next run's start (the list's end
    /// for the last one).
    pub fn runs(&self) -> &[PartitionRun] {
        &self.runs
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

/// Accounts the posting at index `i`, labelled `dewey`, in the run table:
/// it opens a run unless it stands where the last run does.
fn extend_runs(runs: &mut Vec<PartitionRun>, i: usize, dewey: &Dewey) {
    let head = partition_key(dewey);
    if runs.last().map(|r| r.head) != Some(head) {
        runs.push(PartitionRun { head, start: i });
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
    let first = *bytes.get(*pos)?;
    *pos += 1;
    if first & 0x80 == 0 {
        return Some(u64::from(first));
    }
    let mut result = u64::from(first & 0x7F);
    let mut shift = 7u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        let bits = u64::from(byte & 0x7F);
        if bits > u64::MAX >> shift {
            return None;
        }
        // xlint::allow(checked-arithmetic-on-untrusted): the guard above caps shift at 63, and shl only overflows when the shift amount reaches the bit width
        result |= bits << shift;
        if byte & 0x80 == 0 {
            return Some(result);
        }
        shift += 7;
    }
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
            write_varint(&mut skips, shared as u64);
            write_varint(&mut skips, (max.len() - shared) as u64);
            for &c in max.get(shared..).unwrap_or(&[]) {
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
            if i + 1 < b && count != BLOCK_POSTINGS {
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
        let mut out = Vec::with_capacity(self.blocks.get(i).map_or(0, |m| m.count));
        let mut label = Vec::with_capacity(Dewey::INLINE);
        self.decode_block_into(i, &mut out, None, &mut label)
            .map_err(|what| block_corrupt(i, what))?;
        Ok(out)
    }

    /// Decodes every block into a full [`PostingList`] (the serving
    /// path: cached handles hold fully materialized lists). The postings
    /// go into one vector sized from the header's count, which `parse`
    /// has bounded by the payload size, and the run table is extended as
    /// they are decoded.
    pub fn decode_all(&self) -> Result<PostingList> {
        let mut postings = Vec::with_capacity(self.n);
        let mut runs = Vec::with_capacity(self.run_bound());
        let mut label = Vec::with_capacity(Dewey::INLINE);
        for i in 0..self.blocks.len() {
            self.decode_block_into(i, &mut postings, Some(&mut runs), &mut label)
                .map_err(|what| block_corrupt(i, what))?;
        }
        // Decoded lists are cached whole and never grow: no slack.
        runs.shrink_to_fit();
        Ok(PostingList { postings, runs })
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

    /// The capacity `decode_all` gives the run table, read off the skip
    /// table: labels ascend, so a block opens at most as many runs as it
    /// holds postings, or partition keys from its min's to its max's.
    /// That bounds the runs of labels under one root, as a document's
    /// are; on any other list the table just grows past it.
    fn run_bound(&self) -> usize {
        self.blocks
            .iter()
            .map(|m| {
                let keys = partition_key(&m.max)
                    .saturating_sub(partition_key(&m.min))
                    .saturating_add(1);
                usize::try_from(keys).map_or(m.count, |k| k.min(m.count))
            })
            .sum()
    }

    /// The one block decoder: appends block `i`'s postings to `out` and,
    /// when given `runs`, accounts them in that run table (`out` then
    /// holds the list's earlier blocks, and `runs` their runs). `label`
    /// is working space: the current posting's label, rewritten in place
    /// from its predecessor's and kept at least [`Dewey::INLINE`] wide,
    /// so a label that short is built with one fixed-size copy and
    /// allocates nothing. Damage is reported as a static description,
    /// which the caller formats once.
    fn decode_block_into(
        &self,
        i: usize,
        out: &mut Vec<Posting>,
        mut runs: Option<&mut Vec<PartitionRun>>,
        label: &mut Vec<u32>,
    ) -> std::result::Result<(), &'static str> {
        let meta = self.blocks.get(i).ok_or("no such block")?;
        let end = meta
            .offset
            .checked_add(meta.len)
            .ok_or("byte extent overflow")?;
        let bytes = self
            .data
            .get(meta.offset..end)
            .ok_or("byte extent outside payload")?;
        let mut pos = 0usize;
        let t0 = read_u32_varint(bytes, &mut pos).ok_or("bad first node type")?;
        if let Some(runs) = runs.as_deref_mut() {
            extend_runs(runs, out.len(), &meta.min);
        }
        out.push(Posting::new(meta.min.clone(), NodeTypeId(t0)));
        let min = meta.min.components();
        label.clear();
        label.extend_from_slice(min);
        label.resize(min.len().max(Dewey::INLINE), 0);
        let mut len = min.len();
        let mut prev_type = t0;
        for _ in 1..meta.count {
            let header = *bytes.get(pos).ok_or("truncated posting header")?;
            pos += 1;
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
                let base = label.get(shared).copied().unwrap_or(0);
                let v = u64::from(base)
                    .checked_add(1)
                    .and_then(|b| b.checked_add(d0))
                    .ok_or("component overflow")?;
                u32::try_from(v).map_err(|_| "component overflow")?
            } else {
                u32::try_from(d0).map_err(|_| "component overflow")?
            };
            len = shared;
            put_component(label, &mut len, c0);
            for _ in 1..rest {
                let c = read_u32_varint(bytes, &mut pos).ok_or("bad component")?;
                put_component(label, &mut len, c);
            }
            let node_type = if header & HDR_SAME_TYPE != 0 {
                prev_type
            } else {
                read_u32_varint(bytes, &mut pos).ok_or("bad node type")?
            };
            let dewey = match label.first_chunk() {
                Some(padded) if len <= Dewey::INLINE => Dewey::from_padded(len, padded),
                _ => label.get(..len).and_then(Dewey::from_slice),
            }
            .ok_or("empty posting label")?;
            if let Some(runs) = runs.as_deref_mut() {
                extend_runs(runs, out.len(), &dewey);
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
}

/// The error block `i`'s decoder reports as `what`.
fn block_corrupt(i: usize, what: &str) -> KvError {
    KvError::corrupt(format!("compressed list block {i}: {what}"))
}

/// Writes `c` as the working label's component at `*len` and counts it.
#[inline]
fn put_component(label: &mut Vec<u32>, len: &mut usize, c: u32) {
    match label.get_mut(*len) {
        Some(slot) => *slot = c,
        None => label.push(c),
    }
    *len += 1;
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

fn read_u32_varint(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    u32::try_from(read_varint(bytes, pos)?).ok()
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
