//! The `KvStore` trait and its two basic implementations: the
//! `BTreeMap` model and the B+-tree.
//!
//! The index layer programs against [`KvStore`] so the choice between the
//! in-memory store (fast rebuilds, tests) and the persistent B+-tree
//! (the Berkeley-DB-equivalent of §VII) is a one-line swap.

use crate::btree::BTree;
use crate::error::Result;
use crate::pager::{FilePager, MemPager, PageVerifyReport, Pager};
use crate::vfs::{StdVfs, Vfs};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;

/// Ordered key-value storage.
///
/// `Send + Sync` is part of the contract: read methods take `&self`, so a
/// store behind an `RwLock` (or any shared wrapper) can serve concurrent
/// readers — the concurrent query path of `invindex::KvBackedIndex`
/// depends on this.
pub trait KvStore: Send + Sync {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()>;
    fn delete(&mut self, key: &[u8]) -> Result<bool>;
    fn contains(&self, key: &[u8]) -> Result<bool>;
    /// Entries with `start <= key < end` (end `None` = unbounded).
    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;
    /// Entries whose key begins with `prefix`, in key order.
    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;
    fn len(&self) -> u64;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Flushes to durable storage where applicable.
    fn sync(&mut self) -> Result<()>;
}

/// `BTreeMap`-backed store: the reference model and the default engine for
/// throwaway indexes.
#[derive(Debug, Default)]
pub struct MemKv {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl MemKv {
    pub fn new() -> Self {
        Self::default()
    }
}

impl KvStore for MemKv {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.map.get(key).cloned())
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.map.insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        Ok(self.map.remove(key).is_some())
    }

    fn contains(&self, key: &[u8]) -> Result<bool> {
        Ok(self.map.contains_key(key))
    }

    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let upper = match end {
            Some(e) if e <= start => return Ok(Vec::new()),
            Some(e) => Bound::Excluded(e.to_vec()),
            None => Bound::Unbounded,
        };
        Ok(self
            .map
            .range((Bound::Included(start.to_vec()), upper))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self
            .map
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    fn len(&self) -> u64 {
        self.map.len() as u64
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// The page-based B+-tree behind the [`KvStore`] interface, over any
/// [`Pager`].
pub struct TreeKv<P: Pager> {
    tree: BTree<P>,
}

/// Persistent store: the B+-tree over a file.
pub type DiskKv = TreeKv<FilePager>;

/// In-memory B+-tree store: same code path as [`DiskKv`] minus the file.
/// Used to test the tree against [`MemKv`] as a model.
// xlint::allow(unused-export): test fake — the tree with no file under it, for the model tests
pub type MemTreeKv = TreeKv<MemPager>;

impl TreeKv<FilePager> {
    /// Opens (creating if absent) a store at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with_vfs(&StdVfs::arc(), path)
    }

    /// Opens a store whose I/O goes through `vfs` — the fault-injection
    /// entry point used by the torture tests.
    pub fn open_with_vfs(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        Ok(TreeKv {
            tree: BTree::new(FilePager::open_with_vfs(vfs, path)?)?,
        })
    }

    /// Opens the existing store at `path` without creating, truncating
    /// or writing anything (see [`FilePager::open_read_only`]).
    pub fn open_read_only(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        Ok(TreeKv {
            tree: BTree::new(FilePager::open_read_only(vfs, path)?)?,
        })
    }

    /// Checksum-verifies every page in the backing file.
    pub fn verify_pages(&self) -> Result<PageVerifyReport> {
        self.tree.pager().verify_pages()
    }
}

impl TreeKv<MemPager> {
    pub fn new() -> Result<Self> {
        Ok(TreeKv {
            tree: BTree::new(MemPager::new())?,
        })
    }
}

impl<P: Pager> KvStore for TreeKv<P> {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.tree.get(key)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.tree.put(key, value)?;
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        self.tree.delete(key)
    }

    fn contains(&self, key: &[u8]) -> Result<bool> {
        self.tree.contains(key)
    }

    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.tree.scan_range(start, end)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.tree.scan_prefix(prefix)
    }

    fn len(&self) -> u64 {
        self.tree.len()
    }

    fn sync(&mut self) -> Result<()> {
        self.tree.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn KvStore) {
        store.put(b"b", b"2").unwrap();
        store.put(b"a", b"1").unwrap();
        store.put(b"c", b"3").unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(b"a").unwrap().unwrap(), b"1");
        assert!(store.contains(b"b").unwrap());
        assert!(!store.contains(b"z").unwrap());
        let range = store.scan_range(b"a", Some(b"c")).unwrap();
        assert_eq!(range.len(), 2);
        assert!(store.delete(b"b").unwrap());
        assert!(!store.delete(b"b").unwrap());
        assert_eq!(store.len(), 2);
        store.sync().unwrap();
    }

    #[test]
    fn memkv_conforms() {
        exercise(&mut MemKv::new());
    }

    #[test]
    fn memtreekv_conforms() {
        exercise(&mut MemTreeKv::new().unwrap());
    }

    #[test]
    fn diskkv_conforms() {
        let dir = std::env::temp_dir().join(format!("kvstore_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("conform.db");
        let _ = std::fs::remove_file(&path);
        exercise(&mut DiskKv::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }
}
