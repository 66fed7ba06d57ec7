//! A page-based B+-tree with variable-length keys and values, written
//! once and then only read.
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
//! A tree is never updated in place. [`build`] writes a whole file from
//! entries in ascending key order, each page once: packed, chained
//! leaves (each filled until the next entry would not fit) with the
//! overflow chains of their big values, then the branch levels bottom
//! up, then the header, then one fsync. The file is therefore a pure
//! function of its entries. Puts and deletes wait in an overlay over the
//! finished tree (`store::DiskKv`, and through it `durable::DurableKv`)
//! until the next sync or checkpoint builds the file that replaces it —
//! the paper's build-once/read-many index, with the WAL and compaction
//! carrying the update cost.

use crate::codec;
use crate::error::{KvError, Result};
use crate::pager::{FilePager, PageId, PAGE_SIZE};
use crate::snapshot::read_only;
use crate::store::KvStore;

/// Maximum key length in bytes; guarantees a branch page holds several keys.
pub const MAX_KEY_LEN: usize = 768;
/// Values whose leaf entry would exceed this many bytes go to overflow pages.
const MAX_INLINE_ENTRY: usize = 1024;
/// Usable payload bytes in an overflow page.
const OVERFLOW_CAPACITY: usize = PAGE_SIZE - 1 - 8 - 2;
/// Bytes of a leaf or branch page before its first entry: type, count
/// and one page id (the next leaf, or the first child).
const NODE_HEADER: usize = 1 + 2 + 8;

const MAGIC: u32 = 0x5852_4B56; // "XRKV"
const VERSION: u16 = 1;

const TYPE_BRANCH: u8 = 1;
const TYPE_LEAF: u8 = 2;
const TYPE_OVERFLOW: u8 = 3;

/// A finished tree file, open for reading.
pub struct BTree {
    pager: FilePager,
    /// `NULL` for a blank file — created but never built — which reads
    /// as an empty tree.
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

/// A leaf's entries, values not yet loaded, and its next link.
type Leaf = (Vec<(Vec<u8>, ValueRef)>, PageId);

#[derive(Debug, Clone)]
enum ValueRef {
    Inline(Vec<u8>),
    Overflow { head: PageId, len: u32 },
}

/// A leaf entry's value as it stands in the page: the inline bytes, or
/// the overflow chain that holds them.
enum Value<'a> {
    Inline(&'a [u8]),
    Overflow { head: PageId, len: u32 },
}

impl From<Value<'_>> for ValueRef {
    fn from(value: Value<'_>) -> Self {
        match value {
            Value::Inline(bytes) => ValueRef::Inline(bytes.to_vec()),
            Value::Overflow { head, len } => ValueRef::Overflow { head, len },
        }
    }
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

    /// One `[klen][key][child]` separator of a branch.
    fn branch_entry(&mut self) -> Result<(&'a [u8], PageId)> {
        let klen = self.u16("branch key length")? as usize;
        let key = self.take(klen)?;
        Ok((key, PageId(self.u64("branch child id")?)))
    }

    /// One `[klen][vinfo][key][payload]` entry of a leaf.
    fn leaf_entry(&mut self) -> Result<(&'a [u8], Value<'a>)> {
        let klen = self.u16("leaf key length")? as usize;
        let vinfo = self.u32("leaf value info")?;
        let key = self.take(klen)?;
        let value = if vinfo & 0x8000_0000 != 0 {
            let head = PageId(self.u64("overflow head id")?);
            let len = self.u32("overflow value length")?;
            Value::Overflow { head, len }
        } else {
            Value::Inline(self.take(vinfo as usize)?)
        };
        Ok((key, value))
    }
}

/// Refuses an entry no tree can hold: a key past [`MAX_KEY_LEN`], or a
/// value whose length does not fit the 31 length bits of a leaf entry.
pub(crate) fn check_entry(key: &[u8], value: &[u8]) -> Result<()> {
    if key.len() > MAX_KEY_LEN {
        return Err(KvError::KeyTooLarge(key.len()));
    }
    if value.len() > u32::MAX as usize / 2 {
        return Err(KvError::ValueTooLarge(value.len()));
    }
    Ok(())
}

/// Writes the tree holding `entries` — keys strictly ascending — into
/// the fresh, empty file behind `pager`, each page once: packed, chained
/// leaves with an overflow chain for every value past
/// `MAX_INLINE_ENTRY`, then the branch levels, then the header, then one
/// fsync. Entries are consumed as they come; what is held is one leaf
/// and the first key of every page of the level being built. This is
/// the one function that writes tree pages.
pub(crate) fn build(
    pager: FilePager,
    entries: impl Iterator<Item = Result<(Vec<u8>, Vec<u8>)>>,
) -> Result<BTree> {
    let mut w = Builder { pager, next: 1 };
    // (first key, page) of every node of the level being built.
    let mut level: Vec<(Vec<u8>, PageId)> = Vec::new();
    let mut leaf = Node::new(w.allocate(), Vec::new(), PageId::NULL);
    let mut count = 0u64;
    let mut prev: Option<Vec<u8>> = None;
    for entry in entries {
        let (key, value) = entry?;
        check_entry(&key, &value)?;
        if prev.as_deref().is_some_and(|p| p >= key.as_slice()) {
            return Err(KvError::corrupt(
                "tree build input is not in strictly ascending key order",
            ));
        }
        let inline = key.len() + value.len() + 6 <= MAX_INLINE_ENTRY;
        let size = 2 + 4 + key.len() + if inline { value.len() } else { 12 };
        if leaf.count == 0 {
            leaf.first.clone_from(&key);
        } else if !leaf.fits(size) {
            let next = Node::new(w.allocate(), key.clone(), PageId::NULL);
            let mut full = std::mem::replace(&mut leaf, next);
            full.link = leaf.id;
            level.push(w.write_node(TYPE_LEAF, full)?);
        }
        leaf.body
            .extend_from_slice(&(key.len() as u16).to_le_bytes());
        if inline {
            leaf.body
                .extend_from_slice(&(value.len() as u32).to_le_bytes());
            leaf.body.extend_from_slice(&key);
            leaf.body.extend_from_slice(&value);
        } else {
            let head = w.write_overflow(&value)?;
            leaf.body.extend_from_slice(&0x8000_0000u32.to_le_bytes());
            leaf.body.extend_from_slice(&key);
            leaf.body.extend_from_slice(&head.0.to_le_bytes());
            leaf.body
                .extend_from_slice(&(value.len() as u32).to_le_bytes());
        }
        leaf.count += 1;
        count += 1;
        prev = Some(key);
    }
    level.push(w.write_node(TYPE_LEAF, leaf)?);

    // Branch levels: each branch takes children until the next
    // separator (the child's first key) would not fit.
    while level.len() > 1 {
        let mut parents = Vec::new();
        let mut branch: Option<Node> = None;
        for (first, child) in level {
            match branch.as_mut() {
                Some(open) if open.fits(2 + first.len() + 8) => {
                    open.body
                        .extend_from_slice(&(first.len() as u16).to_le_bytes());
                    open.body.extend_from_slice(&first);
                    open.body.extend_from_slice(&child.0.to_le_bytes());
                    open.count += 1;
                }
                _ => {
                    let next = Node::new(w.allocate(), first, child);
                    if let Some(full) = branch.replace(next) {
                        parents.push(w.write_node(TYPE_BRANCH, full)?);
                    }
                }
            }
        }
        if let Some(last) = branch {
            parents.push(w.write_node(TYPE_BRANCH, last)?);
        }
        level = parents;
    }
    let root = level.first().map_or(PageId::NULL, |(_, id)| *id);

    let mut header = Vec::with_capacity(22);
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&root.0.to_le_bytes());
    header.extend_from_slice(&count.to_le_bytes());
    w.pager.write(PageId(0), &header)?;
    w.pager.sync()?;
    Ok(BTree {
        pager: w.pager,
        root,
        count,
    })
}

/// A leaf or branch being filled by [`build`].
struct Node {
    id: PageId,
    /// Its first key: the separator its parent files it under.
    first: Vec<u8>,
    /// The page id after the count: the next leaf, or the first child.
    link: PageId,
    /// Entries (or `[klen][key][child]` separators), encoded.
    body: Vec<u8>,
    count: usize,
}

impl Node {
    fn new(id: PageId, first: Vec<u8>, link: PageId) -> Self {
        Node {
            id,
            first,
            link,
            body: Vec::with_capacity(PAGE_SIZE),
            count: 0,
        }
    }

    fn fits(&self, more: usize) -> bool {
        NODE_HEADER + self.body.len() + more <= PAGE_SIZE
    }
}

/// Page-id allocation and page writes for [`build`]: ids are handed out
/// in order and every page is written exactly once.
struct Builder {
    pager: FilePager,
    next: u64,
}

impl Builder {
    fn allocate(&mut self) -> PageId {
        let id = PageId(self.next);
        self.next += 1;
        id
    }

    /// Writes `node` and returns the `(first key, page)` its parent
    /// files it under.
    fn write_node(&mut self, ty: u8, node: Node) -> Result<(Vec<u8>, PageId)> {
        let mut page = Vec::with_capacity(PAGE_SIZE);
        page.push(ty);
        page.extend_from_slice(&(node.count as u16).to_le_bytes());
        page.extend_from_slice(&node.link.0.to_le_bytes());
        page.extend_from_slice(&node.body);
        // xlint::allow(no-panic-paths): deliberate hard abort — an overflowing node would silently truncate on disk, which is far worse than aborting the writer
        assert!(page.len() <= PAGE_SIZE, "node overflows page");
        self.pager.write(node.id, &page)?;
        Ok((node.first, node.id))
    }

    /// Writes `value` as an overflow chain and returns its head. The
    /// chain's pages take consecutive ids, so each page's `next` link is
    /// known when it is written.
    fn write_overflow(&mut self, value: &[u8]) -> Result<PageId> {
        let head = PageId(self.next);
        let mut chunks = value.chunks(OVERFLOW_CAPACITY).peekable();
        while let Some(chunk) = chunks.next() {
            let id = self.allocate();
            let next = if chunks.peek().is_some() {
                PageId(self.next)
            } else {
                PageId::NULL
            };
            let mut page = Vec::with_capacity(11 + chunk.len());
            page.push(TYPE_OVERFLOW);
            page.extend_from_slice(&next.0.to_le_bytes());
            page.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
            page.extend_from_slice(chunk);
            self.pager.write(id, &page)?;
        }
        Ok(head)
    }
}

impl BTree {
    /// Opens the tree stored behind `pager`. A file with no pages, or
    /// whose header page was never written, is a blank: an empty tree.
    pub fn open(pager: FilePager) -> Result<Self> {
        let blank = |pager| BTree {
            pager,
            root: PageId::NULL,
            count: 0,
        };
        if pager.page_count() == 0 {
            return Ok(blank(pager));
        }
        let header = pager.read(PageId(0))?;
        let magic = codec::u32_at(&header, 0, "tree header magic")?;
        if magic == 0 {
            return Ok(blank(pager));
        }
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

    /// True for a file no tree was ever built into.
    pub(crate) fn is_blank(&self) -> bool {
        self.root.is_null()
    }

    /// Borrows the underlying pager (used for integrity checks).
    pub fn pager(&self) -> &FilePager {
        &self.pager
    }

    /// Every entry in key order, one leaf read at a time.
    pub(crate) fn iter(&self) -> Result<impl Iterator<Item = Result<(Vec<u8>, Vec<u8>)>> + '_> {
        Ok(self
            .entries_from(b"")?
            .map(|entry| entry.and_then(|(key, vref)| Ok((key, self.load_value(vref)?)))))
    }

    // ----- internals -------------------------------------------------

    /// The leaf that may hold `key`; `None` for a blank tree.
    fn leaf_for(&self, key: &[u8]) -> Result<Option<Leaf>> {
        if self.root.is_null() {
            return Ok(None);
        }
        let mut page = self.root;
        loop {
            match self.read_node(page)? {
                TreeNode::Branch { keys, children } => {
                    page = children[child_index(&keys, key)];
                }
                TreeNode::Leaf { entries, next } => return Ok(Some((entries, next))),
            }
        }
    }

    /// The entries with `key >= start`, values not yet loaded.
    fn entries_from(&self, start: &[u8]) -> Result<Entries<'_>> {
        let (mut entries, next) = self.leaf_for(start)?.unwrap_or((Vec::new(), PageId::NULL));
        let before = entries.partition_point(|(k, _)| k.as_slice() < start);
        entries.drain(..before);
        Ok(Entries {
            tree: self,
            leaf: entries.into_iter(),
            next,
        })
    }

    /// The entries from `start` on for as long as `keep` accepts their
    /// keys; a value is loaded only once its key is accepted.
    fn collect_while(
        &self,
        start: &[u8],
        keep: impl Fn(&[u8]) -> bool,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        for entry in self.entries_from(start)? {
            let (key, vref) = entry?;
            if !keep(&key) {
                break;
            }
            out.push((key, self.load_value(vref)?));
        }
        Ok(out)
    }

    fn load_value(&self, vref: ValueRef) -> Result<Vec<u8>> {
        match vref {
            ValueRef::Inline(v) => Ok(v),
            ValueRef::Overflow { head, len } => {
                let mut out = Vec::with_capacity(len as usize);
                let mut page = head;
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
                    if out.len() > len as usize {
                        return Err(KvError::corrupt_page(
                            page.0,
                            "overflow chain exceeds recorded length",
                        ));
                    }
                    page = next;
                }
                if out.len() != len as usize {
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

    /// The point lookup behind `get` and `contains`: searches the pages
    /// from the root to the leaf in place, comparing separators and keys
    /// as slices of the page buffer, and hands `on_hit` the matching
    /// entry's value still borrowed from its leaf. Every visited node is
    /// parsed to its end, so a damaged record anywhere in it — after the
    /// match included — is `Corrupt`, as it is for a scan.
    fn lookup<T>(
        &self,
        key: &[u8],
        on_hit: impl FnOnce(Value<'_>) -> Result<T>,
    ) -> Result<Option<T>> {
        if self.root.is_null() {
            return Ok(None);
        }
        let mut page = self.root;
        loop {
            let buf = self.pager.read(page)?;
            let mut r = PageReader::new(&buf, page);
            match r.take(1)?[0] {
                TYPE_BRANCH => {
                    let nkeys = r.u16("branch key count")?;
                    // Separators ascend: the child is the one filed under
                    // the last separator `<= key` (the first child when
                    // there is none); the rest are parsed, not compared.
                    let mut child = PageId(r.u64("branch child id")?);
                    let mut past = false;
                    for _ in 0..nkeys {
                        let (separator, id) = r.branch_entry()?;
                        past = past || separator > key;
                        if !past {
                            child = id;
                        }
                    }
                    page = child;
                }
                TYPE_LEAF => {
                    let nkeys = r.u16("leaf entry count")?;
                    r.u64("leaf next link")?;
                    let mut hit = None;
                    for _ in 0..nkeys {
                        let (k, value) = r.leaf_entry()?;
                        if hit.is_none() && k == key {
                            hit = Some(value);
                        }
                    }
                    return hit.map(on_hit).transpose();
                }
                other => {
                    return Err(KvError::corrupt_page(
                        page.0,
                        format!("unknown page type {other}"),
                    ))
                }
            }
        }
    }

    fn read_node(&self, page: PageId) -> Result<TreeNode> {
        let buf = self.pager.read(page)?;
        // Every length below comes from disk, so it is untrusted: a bad
        // byte must surface as `Corrupt`, never as a slice panic.
        let mut r = PageReader::new(&buf, page);
        let ty = r.take(1)?[0];
        match ty {
            TYPE_BRANCH => {
                let nkeys = r.u16("branch key count")?;
                let mut keys = Vec::new();
                let mut children = vec![PageId(r.u64("branch child id")?)];
                for _ in 0..nkeys {
                    let (key, child) = r.branch_entry()?;
                    keys.push(key.to_vec());
                    children.push(child);
                }
                Ok(TreeNode::Branch { keys, children })
            }
            TYPE_LEAF => {
                let nkeys = r.u16("leaf entry count")?;
                let next = PageId(r.u64("leaf next link")?);
                let mut entries = Vec::new();
                for _ in 0..nkeys {
                    let (key, value) = r.leaf_entry()?;
                    entries.push((key.to_vec(), value.into()));
                }
                Ok(TreeNode::Leaf { entries, next })
            }
            other => Err(KvError::corrupt_page(
                page.0,
                format!("unknown page type {other}"),
            )),
        }
    }
}

/// The entries of a leaf chain from a starting key on, read one leaf at
/// a time, values not yet loaded.
struct Entries<'a> {
    tree: &'a BTree,
    leaf: std::vec::IntoIter<(Vec<u8>, ValueRef)>,
    next: PageId,
}

impl Iterator for Entries<'_> {
    type Item = Result<(Vec<u8>, ValueRef)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(entry) = self.leaf.next() {
                return Some(Ok(entry));
            }
            if self.next.is_null() {
                return None;
            }
            let page = std::mem::replace(&mut self.next, PageId::NULL);
            match self.tree.read_node(page) {
                Ok(TreeNode::Leaf { entries, next }) => {
                    self.leaf = entries.into_iter();
                    self.next = next;
                }
                Ok(TreeNode::Branch { .. }) => {
                    return Some(Err(KvError::corrupt_page(page.0, "branch in leaf chain")))
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// The read half of [`KvStore`]: a tree file is only ever replaced
/// whole, so the mutating half is refused.
impl KvStore for BTree {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.lookup(key, |value| self.load_value(value.into()))
    }

    fn put(&mut self, _key: &[u8], _value: &[u8]) -> Result<()> {
        Err(read_only("put"))
    }

    fn delete(&mut self, _key: &[u8]) -> Result<bool> {
        Err(read_only("delete"))
    }

    fn contains(&self, key: &[u8]) -> Result<bool> {
        Ok(self.lookup(key, |_| Ok(()))?.is_some())
    }

    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.collect_while(start, |key| end.is_none_or(|end| key < end))
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.collect_while(prefix, |key| key.starts_with(prefix))
    }

    fn len(&self) -> u64 {
        self.count
    }

    fn sync(&mut self) -> Result<()> {
        Err(read_only("sync"))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultVfs;
    use std::path::Path;

    /// Builds `entries` into a fresh file and returns the tree plus the
    /// number of pages it wrote.
    fn built(entries: &[(Vec<u8>, Vec<u8>)]) -> (BTree, u64) {
        let vfs = FaultVfs::new().as_dyn();
        let pager = FilePager::create(&vfs, Path::new("tree.db")).unwrap();
        let tree = build(pager, entries.iter().cloned().map(Ok)).unwrap();
        let pages = tree.pager().page_count();
        (tree, pages)
    }

    fn kv(k: impl Into<Vec<u8>>, v: impl Into<Vec<u8>>) -> (Vec<u8>, Vec<u8>) {
        (k.into(), v.into())
    }

    #[test]
    fn empty_tree_is_a_header_and_one_empty_leaf() {
        let (t, pages) = built(&[]);
        assert_eq!((t.len(), pages), (0, 2));
        assert!(!t.is_blank());
        assert_eq!(t.get(b"x").unwrap(), None);
        assert!(!t.contains(b"x").unwrap());
        assert!(t.scan_prefix(b"").unwrap().is_empty());
    }

    #[test]
    fn many_keys_build_branch_levels_and_read_back() {
        let n = 5000u32;
        let entries: Vec<_> = (0..n)
            .map(|i| kv(format!("key{i:08}"), format!("value-{i}")))
            .collect();
        let (t, pages) = built(&entries);
        assert_eq!(t.len(), n as u64);
        // Packed leaves: header, root branch and full leaves but the last.
        let bytes: usize = entries.iter().map(|(k, v)| 6 + k.len() + v.len()).sum();
        assert_eq!(pages, 3 + (bytes / (PAGE_SIZE - NODE_HEADER)) as u64);
        assert!(matches!(t.read_node(t.root), Ok(TreeNode::Branch { .. })));
        for i in (0..n).step_by(97) {
            let (k, v) = &entries[i as usize];
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        assert_eq!(t.scan_range(b"", None).unwrap(), entries);
        assert_eq!(
            t.iter().unwrap().collect::<Result<Vec<_>>>().unwrap(),
            entries
        );
    }

    #[test]
    fn large_values_use_overflow_chains() {
        let big = vec![0xCDu8; 3 * PAGE_SIZE + 123];
        let entries = [kv("big", big.clone()), kv("small", "s")];
        let (t, pages) = built(&entries);
        // header + one leaf + a four-page chain
        assert_eq!(pages, 6);
        assert_eq!(t.get(b"big").unwrap().unwrap(), big);
        assert_eq!(t.get(b"small").unwrap().unwrap(), b"s");
    }

    #[test]
    fn skewed_entry_sizes_pack_without_overflowing_a_page() {
        // Near-`MAX_INLINE_ENTRY` entries next to a crowd of tiny ones:
        // the shape `invindex::persist` produces (big `L/*` list values
        // sort before many tiny `V/*` keys). Splitting once overflowed a
        // page on it; a packed leaf must stop at the byte boundary.
        let near_max = vec![0xABu8; MAX_INLINE_ENTRY - 16];
        let mut entries: Vec<_> = (0..8u32)
            .map(|i| kv(format!("a/{i:03}"), near_max.clone()))
            .collect();
        entries.extend((0..100u32).map(|i| kv(format!("z/{i:03}"), "t")));
        let (t, _) = built(&entries);
        for (k, v) in &entries {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
    }

    #[test]
    fn a_point_lookup_reads_a_damaged_record_after_its_match_as_corrupt() {
        // A checksum-valid leaf whose second entry claims more key bytes
        // than the page holds: the lookup of the first must still fail.
        let vfs = FaultVfs::new().as_dyn();
        let mut pager = FilePager::create(&vfs, Path::new("damaged.db")).unwrap();
        let mut leaf = vec![TYPE_LEAF];
        leaf.extend_from_slice(&2u16.to_le_bytes());
        leaf.extend_from_slice(&0u64.to_le_bytes());
        leaf.extend_from_slice(&1u16.to_le_bytes());
        leaf.extend_from_slice(&1u32.to_le_bytes());
        leaf.extend_from_slice(b"a1");
        leaf.extend_from_slice(&u16::MAX.to_le_bytes());
        leaf.extend_from_slice(&1u32.to_le_bytes());
        pager.write(PageId(1), &leaf).unwrap();
        let mut header = MAGIC.to_le_bytes().to_vec();
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&1u64.to_le_bytes());
        header.extend_from_slice(&2u64.to_le_bytes());
        pager.write(PageId(0), &header).unwrap();
        let t = BTree::open(pager).unwrap();
        for found in [t.get(b"a").map(|_| ()), t.contains(b"a").map(|_| ())] {
            assert!(
                matches!(found, Err(KvError::Corrupt { page: Some(1), .. })),
                "{found:?}"
            );
        }
    }

    #[test]
    fn scans_stop_at_their_bounds() {
        let entries: Vec<_> = ["a", "ap", "app", "apple", "apply", "b", "banana", "c", "d"]
            .iter()
            .map(|k| kv(*k, *k))
            .collect();
        let (t, _) = built(&entries);
        let keys = |got: Vec<(Vec<u8>, Vec<u8>)>| -> Vec<String> {
            got.into_iter()
                .map(|(k, _)| String::from_utf8(k).unwrap())
                .collect()
        };
        assert_eq!(
            keys(t.scan_range(b"b", Some(b"d")).unwrap()),
            ["b", "banana", "c"]
        );
        assert!(t.scan_range(b"x", None).unwrap().is_empty());
        assert!(t.scan_range(b"b", Some(b"b")).unwrap().is_empty());
        assert_eq!(
            keys(t.scan_prefix(b"app").unwrap()),
            ["app", "apple", "apply"]
        );
    }

    #[test]
    fn builder_refuses_unordered_and_oversized_input() {
        let vfs = FaultVfs::new().as_dyn();
        let build_of = |entries: Vec<(Vec<u8>, Vec<u8>)>| {
            let pager = FilePager::create(&vfs, Path::new("bad.db")).unwrap();
            build(pager, entries.into_iter().map(Ok)).map(|_| ())
        };
        assert!(build_of(vec![kv("b", ""), kv("a", "")]).is_err());
        assert!(build_of(vec![kv("a", ""), kv("a", "")]).is_err());
        let huge = vec![b'k'; MAX_KEY_LEN + 1];
        assert!(matches!(
            build_of(vec![kv(huge, "v")]),
            Err(KvError::KeyTooLarge(_))
        ));
    }

    #[test]
    fn the_mutating_half_is_refused() {
        let (mut t, _) = built(&[kv("a", "1")]);
        assert!(t.put(b"k", b"v").is_err());
        assert!(t.delete(b"a").is_err());
        assert!(t.sync().is_err());
        assert_eq!(t.get(b"a").unwrap().unwrap(), b"1");
    }
}
