//! A page-based B+-tree with variable-length keys and values.
//!
//! This is the workspace's stand-in for Berkeley DB (§VII of the paper):
//! ordered keyed storage with `O(log n)` point lookups, range scans via
//! chained leaves, and values of arbitrary size through overflow chains.
//!
//! Layout (all integers little-endian):
//!
//! * **header** (page 0): magic, version, root page id, entry count;
//! * **branch**: `\[1\][nkeys:u16][child0:u64]` then `nkeys` × `[klen:u16][key][child:u64]`,
//!   where `child_i` holds keys `>= key_i` and `< key_{i+1}`;
//! * **leaf**: `\[2\][nkeys:u16][next:u64]` then entries
//!   `[klen:u16][vinfo:u32][key][payload]` — if the top bit of `vinfo` is
//!   set the payload is `[head:u64][total:u32]` naming an overflow chain,
//!   otherwise the payload is the `vinfo`-byte inline value;
//! * **overflow**: `\[3\][next:u64][len:u16][data]`.
//!
//! Deletion removes entries from leaves without rebalancing (lazy
//! deletion); pages emptied of live data are only reclaimed through
//! overflow-chain freeing. This matches the build-once/read-mostly index
//! workload of the paper.

use crate::codec;
use crate::error::{KvError, Result};
use crate::pager::{PageId, Pager, PAGE_SIZE};

/// Callback type for streaming range scans: receives `(key, value)` and
/// returns `Ok(false)` to stop early.
pub type ScanVisitor<'a> = &'a mut dyn FnMut(&[u8], Vec<u8>) -> Result<bool>;

/// Maximum key length in bytes; guarantees a branch page holds several keys.
pub const MAX_KEY_LEN: usize = 768;
/// Values whose leaf entry would exceed this many bytes go to overflow pages.
const MAX_INLINE_ENTRY: usize = 1024;
/// Usable payload bytes in an overflow page.
const OVERFLOW_CAPACITY: usize = PAGE_SIZE - 1 - 8 - 2;

const MAGIC: u32 = 0x5852_4B56; // "XRKV"
const VERSION: u16 = 1;

const TYPE_BRANCH: u8 = 1;
const TYPE_LEAF: u8 = 2;
const TYPE_OVERFLOW: u8 = 3;

/// A B+-tree over any [`Pager`].
pub struct BTree<P: Pager> {
    pager: P,
    root: PageId,
    count: u64,
}

#[derive(Debug, Clone)]
enum TreeNode {
    Branch {
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    },
    Leaf {
        entries: Vec<(Vec<u8>, ValueRef)>,
        next: PageId,
    },
}

#[derive(Debug, Clone)]
enum ValueRef {
    Inline(Vec<u8>),
    Overflow { head: PageId, len: u32 },
}

/// Bounds-checked cursor over a page buffer: on-disk lengths are
/// untrusted, so out-of-range reads become [`KvError::Corrupt`].
struct PageReader<'a> {
    buf: &'a [u8],
    pos: usize,
    page: PageId,
}

impl<'a> PageReader<'a> {
    fn new(buf: &'a [u8], page: PageId) -> Self {
        PageReader { buf, pos: 0, page }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let out = &self.buf[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(KvError::corrupt_page(self.page.0, "truncated node record")),
        }
    }

    fn u16(&mut self, what: &str) -> Result<u16> {
        let v = codec::u16_at(self.buf, self.pos, what)
            .map_err(|_| KvError::corrupt_page(self.page.0, format!("truncated {what}")))?;
        self.pos += 2;
        Ok(v)
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let v = codec::u32_at(self.buf, self.pos, what)
            .map_err(|_| KvError::corrupt_page(self.page.0, format!("truncated {what}")))?;
        self.pos += 4;
        Ok(v)
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let v = codec::u64_at(self.buf, self.pos, what)
            .map_err(|_| KvError::corrupt_page(self.page.0, format!("truncated {what}")))?;
        self.pos += 8;
        Ok(v)
    }
}

enum InsertOutcome {
    Done {
        replaced: bool,
    },
    Split {
        sep: Vec<u8>,
        right: PageId,
        replaced: bool,
    },
}

impl<P: Pager> BTree<P> {
    /// Opens a tree over `pager`, initializing a fresh store if the header
    /// page is blank.
    pub fn new(mut pager: P) -> Result<Self> {
        let header = pager.read(PageId(0))?;
        let magic = codec::u32_at(&header, 0, "tree header magic")?;
        if magic == 0 {
            // Fresh store: allocate an empty root leaf.
            let root = pager.allocate()?;
            let mut tree = BTree {
                pager,
                root,
                count: 0,
            };
            tree.write_node(
                root,
                &TreeNode::Leaf {
                    entries: Vec::new(),
                    next: PageId::NULL,
                },
            )?;
            tree.write_header()?;
            Ok(tree)
        } else {
            if magic != MAGIC {
                return Err(KvError::corrupt_page(0, format!("bad magic {magic:#x}")));
            }
            let version = codec::u16_at(&header, 4, "tree header version")?;
            if version != VERSION {
                return Err(KvError::corrupt_page(
                    0,
                    format!("unsupported version {version}"),
                ));
            }
            let root = PageId(codec::u64_at(&header, 6, "tree root id")?);
            let count = codec::u64_at(&header, 14, "tree entry count")?;
            if root.is_null() {
                return Err(KvError::corrupt_page(0, "null root"));
            }
            Ok(BTree { pager, root, count })
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut page = self.root;
        loop {
            match self.read_node(page)? {
                TreeNode::Branch { keys, children } => {
                    page = children[child_index(&keys, key)];
                }
                TreeNode::Leaf { entries, .. } => {
                    return match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                        Ok(i) => Ok(Some(self.load_value(&entries[i].1)?)),
                        Err(_) => Ok(None),
                    };
                }
            }
        }
    }

    /// True if the key exists (no value materialization).
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        let mut page = self.root;
        loop {
            match self.read_node(page)? {
                TreeNode::Branch { keys, children } => {
                    page = children[child_index(&keys, key)];
                }
                TreeNode::Leaf { entries, .. } => {
                    return Ok(entries
                        .binary_search_by(|(k, _)| k.as_slice().cmp(key))
                        .is_ok());
                }
            }
        }
    }

    /// Inserts or replaces. Returns `true` if an existing value was replaced.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        if key.len() > MAX_KEY_LEN {
            return Err(KvError::KeyTooLarge(key.len()));
        }
        if value.len() > u32::MAX as usize / 2 {
            return Err(KvError::ValueTooLarge(value.len()));
        }
        let outcome = self.insert_rec(self.root, key, value)?;
        let replaced = match outcome {
            InsertOutcome::Done { replaced } => replaced,
            InsertOutcome::Split {
                sep,
                right,
                replaced,
            } => {
                // Grow a new root.
                let new_root = self.pager.allocate()?;
                let node = TreeNode::Branch {
                    keys: vec![sep],
                    children: vec![self.root, right],
                };
                self.write_node(new_root, &node)?;
                self.root = new_root;
                replaced
            }
        };
        if !replaced {
            self.count += 1;
        }
        // The header (root id, count) is flushed by `sync()`; durability
        // is only promised there.
        Ok(replaced)
    }

    /// Removes a key. Returns `true` if it was present.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let mut page = self.root;
        loop {
            match self.read_node(page)? {
                TreeNode::Branch { keys, children } => {
                    page = children[child_index(&keys, key)];
                }
                TreeNode::Leaf { mut entries, next } => {
                    match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                        Ok(i) => {
                            let (_, vref) = entries.remove(i);
                            if let ValueRef::Overflow { head, .. } = vref {
                                self.free_overflow(head)?;
                            }
                            self.write_node(page, &TreeNode::Leaf { entries, next })?;
                            self.count -= 1;
                            return Ok(true);
                        }
                        Err(_) => return Ok(false),
                    }
                }
            }
        }
    }

    /// All entries with `key >= start` (inclusive) and, if given,
    /// `key < end` (exclusive), in key order.
    pub fn scan_range(
        &self,
        start: &[u8],
        end_exclusive: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        self.for_each_in_range(start, end_exclusive, &mut |k, v| {
            out.push((k.to_vec(), v));
            Ok(true)
        })?;
        Ok(out)
    }

    /// All entries whose key starts with `prefix`.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        self.for_each_in_range(prefix, None, &mut |k, v| {
            if !k.starts_with(prefix) {
                return Ok(false);
            }
            out.push((k.to_vec(), v));
            Ok(true)
        })?;
        Ok(out)
    }

    /// Streams entries in `[start, end)` to `f`; `f` returns `false` to stop.
    pub fn for_each_in_range(
        &self,
        start: &[u8],
        end_exclusive: Option<&[u8]>,
        f: ScanVisitor<'_>,
    ) -> Result<()> {
        // Descend to the leaf that may contain `start`.
        let mut page = self.root;
        while let TreeNode::Branch { keys, children } = self.read_node(page)? {
            page = children[child_index(&keys, start)];
        }
        loop {
            let (entries, next) = match self.read_node(page)? {
                TreeNode::Leaf { entries, next } => (entries, next),
                TreeNode::Branch { .. } => {
                    return Err(KvError::corrupt_page(page.0, "branch in leaf chain"))
                }
            };
            for (k, vref) in &entries {
                if k.as_slice() < start {
                    continue;
                }
                if let Some(end) = end_exclusive {
                    if k.as_slice() >= end {
                        return Ok(());
                    }
                }
                let v = self.load_value(vref)?;
                if !f(k, v)? {
                    return Ok(());
                }
            }
            if next.is_null() {
                return Ok(());
            }
            page = next;
        }
    }

    /// Flushes the header and all dirty pages.
    pub fn sync(&mut self) -> Result<()> {
        self.write_header()?;
        self.pager.sync()
    }

    /// Borrows the underlying pager (used for integrity checks).
    pub fn pager(&self) -> &P {
        &self.pager
    }

    // ----- internals -------------------------------------------------

    fn insert_rec(&mut self, page: PageId, key: &[u8], value: &[u8]) -> Result<InsertOutcome> {
        match self.read_node(page)? {
            TreeNode::Branch {
                mut keys,
                mut children,
            } => {
                let idx = child_index(&keys, key);
                match self.insert_rec(children[idx], key, value)? {
                    InsertOutcome::Done { replaced } => Ok(InsertOutcome::Done { replaced }),
                    InsertOutcome::Split {
                        sep,
                        right,
                        replaced,
                    } => {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if branch_size(&keys) <= PAGE_SIZE {
                            self.write_node(page, &TreeNode::Branch { keys, children })?;
                            return Ok(InsertOutcome::Done { replaced });
                        }
                        // Split the branch: the key at the byte midpoint
                        // moves up (count midpoints can leave a half
                        // overflowing when key sizes are skewed).
                        obs::counter!("kvstore_btree_splits_total").inc();
                        obs::trace::count("btree.splits", 1);
                        let sizes: Vec<usize> = keys.iter().map(|k| 2 + k.len() + 8).collect();
                        // mid ∈ [1, len-2]: both halves keep ≥ 1 key
                        // (the separator itself moves up, not sideways)
                        let mid = byte_midpoint(&sizes).min(keys.len().saturating_sub(2).max(1));
                        let sep_up = keys[mid].clone();
                        let right_keys = keys[mid + 1..].to_vec();
                        let right_children = children[mid + 1..].to_vec();
                        let left_keys = keys[..mid].to_vec();
                        let left_children = children[..=mid].to_vec();
                        let right_page = self.pager.allocate()?;
                        self.write_node(
                            right_page,
                            &TreeNode::Branch {
                                keys: right_keys,
                                children: right_children,
                            },
                        )?;
                        self.write_node(
                            page,
                            &TreeNode::Branch {
                                keys: left_keys,
                                children: left_children,
                            },
                        )?;
                        Ok(InsertOutcome::Split {
                            sep: sep_up,
                            right: right_page,
                            replaced,
                        })
                    }
                }
            }
            TreeNode::Leaf { mut entries, next } => {
                let vref = self.store_value(key.len(), value)?;
                let replaced = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        if let ValueRef::Overflow { head, .. } = &entries[i].1 {
                            self.free_overflow(*head)?;
                        }
                        entries[i].1 = vref;
                        true
                    }
                    Err(i) => {
                        entries.insert(i, (key.to_vec(), vref));
                        false
                    }
                };
                if leaf_size(&entries) <= PAGE_SIZE {
                    self.write_node(page, &TreeNode::Leaf { entries, next })?;
                    return Ok(InsertOutcome::Done { replaced });
                }
                // Split the leaf at the *byte* midpoint: entries differ in
                // size by up to ~MAX_INLINE_ENTRY, so the count midpoint
                // can leave one half still overflowing the page.
                obs::counter!("kvstore_btree_splits_total").inc();
                obs::trace::count("btree.splits", 1);
                let sizes: Vec<usize> =
                    entries.iter().map(|(k, v)| leaf_entry_size(k, v)).collect();
                let mid = byte_midpoint(&sizes);
                let right_entries = entries[mid..].to_vec();
                let left_entries = entries[..mid].to_vec();
                let sep = right_entries[0].0.clone();
                let right_page = self.pager.allocate()?;
                self.write_node(
                    right_page,
                    &TreeNode::Leaf {
                        entries: right_entries,
                        next,
                    },
                )?;
                self.write_node(
                    page,
                    &TreeNode::Leaf {
                        entries: left_entries,
                        next: right_page,
                    },
                )?;
                Ok(InsertOutcome::Split {
                    sep,
                    right: right_page,
                    replaced,
                })
            }
        }
    }

    fn store_value(&mut self, key_len: usize, value: &[u8]) -> Result<ValueRef> {
        if key_len + value.len() + 6 <= MAX_INLINE_ENTRY {
            return Ok(ValueRef::Inline(value.to_vec()));
        }
        // Spill to an overflow chain, last chunk first so `next` links are
        // known when each page is written.
        let mut next = PageId::NULL;
        let chunks: Vec<&[u8]> = value.chunks(OVERFLOW_CAPACITY).collect();
        for chunk in chunks.iter().rev() {
            let page = self.pager.allocate()?;
            let mut buf = vec![0u8; PAGE_SIZE];
            buf[0] = TYPE_OVERFLOW;
            buf[1..9].copy_from_slice(&next.0.to_le_bytes());
            buf[9..11].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            buf[11..11 + chunk.len()].copy_from_slice(chunk);
            self.pager.write(page, &buf)?;
            next = page;
        }
        Ok(ValueRef::Overflow {
            head: next,
            len: value.len() as u32,
        })
    }

    fn load_value(&self, vref: &ValueRef) -> Result<Vec<u8>> {
        match vref {
            ValueRef::Inline(v) => Ok(v.clone()),
            ValueRef::Overflow { head, len } => {
                let mut out = Vec::with_capacity(*len as usize);
                let mut page = *head;
                while !page.is_null() {
                    let buf = self.pager.read(page)?;
                    if buf.first() != Some(&TYPE_OVERFLOW) {
                        return Err(KvError::corrupt_page(page.0, "bad overflow page"));
                    }
                    let next = PageId(codec::u64_at(&buf, 1, "overflow next link")?);
                    let n = codec::u16_at(&buf, 9, "overflow chunk length")? as usize;
                    if n == 0 || 11 + n > buf.len() {
                        return Err(KvError::corrupt_page(
                            page.0,
                            format!("bad overflow chunk length {n}"),
                        ));
                    }
                    out.extend_from_slice(&buf[11..11 + n]);
                    if out.len() > *len as usize {
                        return Err(KvError::corrupt_page(
                            page.0,
                            "overflow chain exceeds recorded length",
                        ));
                    }
                    page = next;
                }
                if out.len() != *len as usize {
                    return Err(KvError::corrupt(format!(
                        "overflow chain length {} != recorded {}",
                        out.len(),
                        len
                    )));
                }
                Ok(out)
            }
        }
    }

    fn free_overflow(&mut self, head: PageId) -> Result<()> {
        let mut page = head;
        while !page.is_null() {
            let buf = self.pager.read(page)?;
            let next = PageId(codec::u64_at(&buf, 1, "overflow next link")?);
            self.pager.free(page)?;
            page = next;
        }
        Ok(())
    }

    fn write_header(&mut self) -> Result<()> {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        buf[4..6].copy_from_slice(&VERSION.to_le_bytes());
        buf[6..14].copy_from_slice(&self.root.0.to_le_bytes());
        buf[14..22].copy_from_slice(&self.count.to_le_bytes());
        self.pager.write(PageId(0), &buf)
    }

    fn read_node(&self, page: PageId) -> Result<TreeNode> {
        let buf = self.pager.read(page)?;
        // Every length below comes from disk, so it is untrusted: a bad
        // byte must surface as `Corrupt`, never as a slice panic.
        let mut r = PageReader::new(&buf, page);
        let ty = r.take(1)?[0];
        match ty {
            TYPE_BRANCH => {
                let nkeys = r.u16("branch key count")? as usize;
                let child0 = PageId(r.u64("branch child id")?);
                let mut keys = Vec::new();
                let mut children = Vec::new();
                children.push(child0);
                for _ in 0..nkeys {
                    let klen = r.u16("branch key length")? as usize;
                    keys.push(r.take(klen)?.to_vec());
                    children.push(PageId(r.u64("branch child id")?));
                }
                Ok(TreeNode::Branch { keys, children })
            }
            TYPE_LEAF => {
                let nkeys = r.u16("leaf entry count")? as usize;
                let next = PageId(r.u64("leaf next link")?);
                let mut entries = Vec::new();
                for _ in 0..nkeys {
                    let klen = r.u16("leaf key length")? as usize;
                    let vinfo = r.u32("leaf value info")?;
                    let key = r.take(klen)?.to_vec();
                    let vref = if vinfo & 0x8000_0000 != 0 {
                        let head = PageId(r.u64("overflow head id")?);
                        let len = r.u32("overflow value length")?;
                        ValueRef::Overflow { head, len }
                    } else {
                        ValueRef::Inline(r.take(vinfo as usize)?.to_vec())
                    };
                    entries.push((key, vref));
                }
                Ok(TreeNode::Leaf { entries, next })
            }
            other => Err(KvError::corrupt_page(
                page.0,
                format!("unknown page type {other}"),
            )),
        }
    }

    fn write_node(&mut self, page: PageId, node: &TreeNode) -> Result<()> {
        // xlint::allow(no-panic-paths): deliberate hard abort — an overflowing node would silently truncate on disk, which is far worse than aborting the writer
        assert!(node_size(node) <= PAGE_SIZE, "node overflows page");
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut pos = 0usize;
        match node {
            TreeNode::Branch { keys, children } => {
                buf[pos] = TYPE_BRANCH;
                pos += 1;
                buf[pos..pos + 2].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                pos += 2;
                buf[pos..pos + 8].copy_from_slice(&children[0].0.to_le_bytes());
                pos += 8;
                for (k, &c) in keys.iter().zip(children.iter().skip(1)) {
                    buf[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                    pos += 2;
                    buf[pos..pos + k.len()].copy_from_slice(k);
                    pos += k.len();
                    buf[pos..pos + 8].copy_from_slice(&c.0.to_le_bytes());
                    pos += 8;
                }
            }
            TreeNode::Leaf { entries, next } => {
                buf[pos] = TYPE_LEAF;
                pos += 1;
                buf[pos..pos + 2].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                pos += 2;
                buf[pos..pos + 8].copy_from_slice(&next.0.to_le_bytes());
                pos += 8;
                for (k, vref) in entries {
                    buf[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                    pos += 2;
                    match vref {
                        ValueRef::Inline(v) => {
                            buf[pos..pos + 4].copy_from_slice(&(v.len() as u32).to_le_bytes());
                            pos += 4;
                            buf[pos..pos + k.len()].copy_from_slice(k);
                            pos += k.len();
                            buf[pos..pos + v.len()].copy_from_slice(v);
                            pos += v.len();
                        }
                        ValueRef::Overflow { head, len } => {
                            buf[pos..pos + 4].copy_from_slice(&(0x8000_0000u32).to_le_bytes());
                            pos += 4;
                            buf[pos..pos + k.len()].copy_from_slice(k);
                            pos += k.len();
                            buf[pos..pos + 8].copy_from_slice(&head.0.to_le_bytes());
                            pos += 8;
                            buf[pos..pos + 4].copy_from_slice(&len.to_le_bytes());
                            pos += 4;
                        }
                    }
                }
            }
        }
        self.pager.write(page, &buf)
    }
}

/// Index of the child subtree of a branch node that may contain `key`.
/// `keys` are separators: child `i` holds keys in `[keys[i-1], keys[i])`.
fn child_index(keys: &[Vec<u8>], key: &[u8]) -> usize {
    match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
        Ok(i) => i + 1, // separator equals key: key lives in the right child
        Err(i) => i,
    }
}

/// Serialized size of one leaf entry.
fn leaf_entry_size(key: &[u8], v: &ValueRef) -> usize {
    2 + 4
        + key.len()
        + match v {
            ValueRef::Inline(v) => v.len(),
            ValueRef::Overflow { .. } => 12,
        }
}

/// Index splitting `sizes` into two halves of near-equal summed bytes
/// (the left half is the first to reach half the total). Always in
/// `[1, len - 1]` for `len >= 2`, so neither half is empty; because no
/// single entry approaches `PAGE_SIZE / 2`, both halves of an
/// overflowing node are guaranteed to fit a page again.
fn byte_midpoint(sizes: &[usize]) -> usize {
    let total: usize = sizes.iter().sum();
    let mut acc = 0usize;
    for (i, s) in sizes.iter().enumerate() {
        acc += s;
        if 2 * acc >= total {
            return (i + 1).clamp(1, sizes.len().saturating_sub(1).max(1));
        }
    }
    (sizes.len() / 2).max(1)
}

/// Serialized size of a node in bytes.
fn branch_size(keys: &[Vec<u8>]) -> usize {
    1 + 2 + 8 + keys.iter().map(|k| 2 + k.len() + 8).sum::<usize>()
}

fn leaf_size(entries: &[(Vec<u8>, ValueRef)]) -> usize {
    1 + 2
        + 8
        + entries
            .iter()
            .map(|(k, v)| leaf_entry_size(k, v))
            .sum::<usize>()
}

fn node_size(node: &TreeNode) -> usize {
    match node {
        TreeNode::Branch { keys, .. } => branch_size(keys),
        TreeNode::Leaf { entries, .. } => leaf_size(entries),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn mem_tree() -> BTree<MemPager> {
        BTree::new(MemPager::new()).unwrap()
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = mem_tree();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.get(b"x").unwrap(), None);
        assert!(!t.contains(b"x").unwrap());
        assert!(t.scan_prefix(b"").unwrap().is_empty());
    }

    #[test]
    fn put_get_replace_delete() {
        let mut t = mem_tree();
        assert!(!t.put(b"alpha", b"1").unwrap());
        assert!(!t.put(b"beta", b"2").unwrap());
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(b"alpha").unwrap().unwrap(), b"1");
        assert!(t.put(b"alpha", b"one").unwrap()); // replace
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(b"alpha").unwrap().unwrap(), b"one");
        assert!(t.delete(b"alpha").unwrap());
        assert!(!t.delete(b"alpha").unwrap());
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b"alpha").unwrap(), None);
    }

    #[test]
    fn many_keys_force_splits() {
        let mut t = mem_tree();
        let n = 5000u32;
        for i in 0..n {
            let k = format!("key{i:08}");
            let v = format!("value-{i}");
            t.put(k.as_bytes(), v.as_bytes()).unwrap();
        }
        assert_eq!(t.len(), n as u64);
        for i in (0..n).step_by(97) {
            let k = format!("key{i:08}");
            assert_eq!(
                t.get(k.as_bytes()).unwrap().unwrap(),
                format!("value-{i}").as_bytes()
            );
        }
        // full ordered scan
        let all = t.scan_range(b"", None).unwrap();
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn reverse_and_random_insert_order() {
        let mut t = mem_tree();
        let mut keys: Vec<u32> = (0..2000).collect();
        // deterministic shuffle
        let mut state = 0x9E3779B9u64;
        for i in (1..keys.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            keys.swap(i, j);
        }
        for &k in &keys {
            t.put(&k.to_be_bytes(), &k.to_le_bytes()).unwrap();
        }
        let all = t.scan_range(b"", None).unwrap();
        assert_eq!(all.len(), 2000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        for &k in keys.iter().take(50) {
            assert_eq!(t.get(&k.to_be_bytes()).unwrap().unwrap(), k.to_le_bytes());
        }
    }

    #[test]
    fn large_values_use_overflow_chains() {
        let mut t = mem_tree();
        let big = vec![0xCDu8; 3 * PAGE_SIZE + 123];
        t.put(b"big", &big).unwrap();
        t.put(b"small", b"s").unwrap();
        assert_eq!(t.get(b"big").unwrap().unwrap(), big);
        // replace big value with small: chain is freed and value readable
        t.put(b"big", b"tiny").unwrap();
        assert_eq!(t.get(b"big").unwrap().unwrap(), b"tiny");
        // replace small with big again
        let big2 = vec![0x11u8; 2 * PAGE_SIZE];
        t.put(b"big", &big2).unwrap();
        assert_eq!(t.get(b"big").unwrap().unwrap(), big2);
        assert!(t.delete(b"big").unwrap());
        assert_eq!(t.get(b"big").unwrap(), None);
        assert_eq!(t.get(b"small").unwrap().unwrap(), b"s");
    }

    #[test]
    fn skewed_entry_sizes_split_without_overflowing_a_page() {
        // Regression: a count-midpoint leaf split can leave one half over
        // PAGE_SIZE when near-MAX_INLINE_ENTRY entries cluster at one end
        // of a leaf whose other end holds many tiny entries (the midpoint
        // lands among the tiny ones and the big half keeps too many
        // bytes). This is exactly the shape `invindex::persist` produces:
        // big `L/*` list values sort before a crowd of tiny `V/*` keys.
        // The split is byte-balanced now; this workload panicked before.
        let mut t = mem_tree();
        for i in 0..100u32 {
            t.put(format!("z/{i:03}").as_bytes(), b"t").unwrap();
        }
        let near_max = vec![0xABu8; MAX_INLINE_ENTRY - 16];
        for i in 0..8u32 {
            t.put(format!("a/{i:03}").as_bytes(), &near_max).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(
                t.get(format!("z/{i:03}").as_bytes()).unwrap().unwrap(),
                b"t",
                "tiny {i}"
            );
        }
        for i in 0..8u32 {
            assert_eq!(
                t.get(format!("a/{i:03}").as_bytes()).unwrap().unwrap(),
                near_max,
                "big {i}"
            );
        }
    }

    #[test]
    fn scan_range_bounds() {
        let mut t = mem_tree();
        for k in ["a", "b", "c", "d", "e"] {
            t.put(k.as_bytes(), k.as_bytes()).unwrap();
        }
        let got = t.scan_range(b"b", Some(b"d")).unwrap();
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, [b"b".as_slice(), b"c".as_slice()]);
        assert!(t.scan_range(b"x", None).unwrap().is_empty());
        assert!(t.scan_range(b"b", Some(b"b")).unwrap().is_empty());
    }

    #[test]
    fn scan_prefix_selects_only_prefixed() {
        let mut t = mem_tree();
        for k in ["app", "apple", "apply", "banana", "ap"] {
            t.put(k.as_bytes(), b"v").unwrap();
        }
        let got = t.scan_prefix(b"app").unwrap();
        let keys: Vec<String> = got
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys, ["app", "apple", "apply"]);
    }

    #[test]
    fn oversized_key_is_rejected() {
        let mut t = mem_tree();
        let huge = vec![b'k'; MAX_KEY_LEN + 1];
        assert!(matches!(t.put(&huge, b"v"), Err(KvError::KeyTooLarge(_))));
    }

    #[test]
    fn persistence_roundtrip_via_file_pager() {
        use crate::pager::FilePager;
        let dir = std::env::temp_dir().join(format!("kvstore_bt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.db");
        let _ = std::fs::remove_file(&path);
        {
            let pager = FilePager::open(&path).unwrap();
            let mut t = BTree::new(pager).unwrap();
            for i in 0..500u32 {
                t.put(format!("k{i:05}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            t.sync().unwrap();
        }
        {
            let pager = FilePager::open(&path).unwrap();
            let t = BTree::new(pager).unwrap();
            assert_eq!(t.len(), 500);
            assert_eq!(
                t.get(b"k00042").unwrap().unwrap(),
                42u32.to_le_bytes().to_vec()
            );
            let all = t.scan_range(b"", None).unwrap();
            assert_eq!(all.len(), 500);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn for_each_early_stop() {
        let mut t = mem_tree();
        for i in 0..100u32 {
            t.put(format!("{i:03}").as_bytes(), b"v").unwrap();
        }
        let mut seen = 0;
        t.for_each_in_range(b"", None, &mut |_, _| {
            seen += 1;
            Ok(seen < 10)
        })
        .unwrap();
        assert_eq!(seen, 10);
    }
}
