//! The `KvStore` trait and its two implementations: the `BTreeMap`
//! model and the store over one B+-tree file.
//!
//! The index layer programs against [`KvStore`]. [`MemKv`] holds
//! throwaway indexes and is the model the file store is tested against;
//! [`DiskKv`] is the Berkeley-DB-equivalent of §VII. A `DiskKv` reads
//! the tree file it last wrote with the puts and deletes made since laid
//! over it (a [`Snapshot`] overlay); `sync` streams the merged entries
//! into the tree builder, which writes `<path>.new` once, and renames
//! that over `<path>`. Nothing is ever written into a tree file that is
//! already in place.

use crate::btree::{self, BTree};
use crate::error::Result;
use crate::pager::{FilePager, PageVerifyReport};
use crate::snapshot::{merge, Snapshot};
use crate::vfs::{StdVfs, Vfs};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
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

/// A store holding exactly `entries` (a later duplicate key wins), built
/// without a fallible `put` per entry.
impl FromIterator<(Vec<u8>, Vec<u8>)> for MemKv {
    fn from_iter<I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>>(entries: I) -> Self {
        MemKv {
            map: entries.into_iter().collect(),
        }
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

/// Persistent store: the B+-tree file at `path`, with the puts and
/// deletes made since the last [`KvStore::sync`] laid over it. Those are
/// held in memory only; `sync` makes them durable by writing a new file.
pub struct DiskKv {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    /// The tree file as last written.
    tree: Arc<BTree>,
    /// `tree` with the mutations since laid over it; every read goes
    /// through it.
    pub(crate) view: Snapshot,
}

impl DiskKv {
    /// Opens (creating if absent) a store at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with_vfs(&StdVfs::arc(), path)
    }

    /// Opens a store whose I/O goes through `vfs` — the fault-injection
    /// entry point used by the torture tests.
    pub fn open_with_vfs(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        Self::over(vfs, path, FilePager::open_with_vfs(vfs, path)?)
    }

    /// Opens the existing store at `path` without creating, truncating
    /// or writing anything (see [`FilePager::open_read_only`]).
    pub fn open_read_only(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        Self::over(vfs, path, FilePager::open_read_only(vfs, path)?)
    }

    fn over(vfs: &Arc<dyn Vfs>, path: &Path, pager: FilePager) -> Result<Self> {
        let tree = Arc::new(BTree::open(pager)?);
        Ok(DiskKv {
            vfs: Arc::clone(vfs),
            path: path.to_path_buf(),
            view: Snapshot::new(tree.clone()),
            tree,
        })
    }

    /// Checksum-verifies every page in the backing file.
    pub fn verify_pages(&self) -> Result<PageVerifyReport> {
        self.tree.pager().verify_pages()
    }
}

impl KvStore for DiskKv {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.view.get(key)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        btree::check_entry(key, value)?;
        let existed = self.view.contains(key)?;
        self.view.lay(key, Some(value), existed);
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        if !self.view.contains(key)? {
            return Ok(false);
        }
        self.view.lay(key, None, true);
        Ok(true)
    }

    fn contains(&self, key: &[u8]) -> Result<bool> {
        self.view.contains(key)
    }

    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.view.scan_range(start, end)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.view.scan_prefix(prefix)
    }

    fn len(&self) -> u64 {
        self.view.len()
    }

    /// Writes the merged entries to `<path>.new` through the tree
    /// builder (pages, header, fsync), renames it over `<path>` and
    /// syncs the directory, then reads from the new file. With nothing
    /// laid over a built file it does no I/O at all. On error the store
    /// is unchanged.
    fn sync(&mut self) -> Result<()> {
        if self.view.overlay.is_empty() && !self.tree.is_blank() {
            return Ok(());
        }
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".new");
        let tmp = PathBuf::from(tmp);
        let pager = FilePager::create(&self.vfs, &tmp)?;
        let tree = btree::build(pager, merge(self.tree.iter()?, self.view.overlay.iter()))?;
        self.vfs.rename(&tmp, &self.path)?;
        self.vfs.sync_parent_dir(&self.path)?;
        self.tree = Arc::new(tree);
        self.view = Snapshot::new(self.tree.clone());
        Ok(())
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
    fn diskkv_conforms() {
        let dir = std::env::temp_dir().join(format!("kvstore_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("conform.db");
        let _ = std::fs::remove_file(&path);
        exercise(&mut DiskKv::open(&path).unwrap());
        let reopened = DiskKv::open(&path).unwrap();
        assert_eq!(reopened.scan_range(b"", None).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    fn faulty() -> (crate::vfs::FaultVfs, Arc<dyn Vfs>) {
        let vfs = crate::vfs::FaultVfs::new();
        let dyn_vfs = vfs.as_dyn();
        (vfs, dyn_vfs)
    }

    #[test]
    fn replace_and_delete_reach_the_file_only_at_sync() {
        let (vfs, dyn_vfs) = faulty();
        let path = Path::new("store.db");
        let mut s = DiskKv::open_with_vfs(&dyn_vfs, path).unwrap();
        s.put(b"alpha", b"1").unwrap();
        s.put(b"beta", b"2").unwrap();
        s.sync().unwrap();
        s.put(b"alpha", b"one").unwrap();
        assert!(s.delete(b"beta").unwrap());
        assert!(!s.delete(b"beta").unwrap());
        assert_eq!(
            (s.len(), s.get(b"alpha").unwrap().unwrap()),
            (1, b"one".to_vec())
        );
        // Unsynced: a reopen still reads the file as last written.
        let before = DiskKv::open_with_vfs(&dyn_vfs, path).unwrap();
        assert_eq!(before.get(b"alpha").unwrap().unwrap(), b"1");
        assert_eq!(before.len(), 2);
        s.sync().unwrap();
        let after = DiskKv::open_with_vfs(&dyn_vfs, path).unwrap();
        assert_eq!(
            after.scan_range(b"", None).unwrap(),
            [(b"alpha".to_vec(), b"one".to_vec())]
        );
        assert!(!dyn_vfs.exists(Path::new("store.db.new")));
        assert!(after.verify_pages().unwrap().is_clean());
        // The earlier handle reads the file it opened, as a pinned
        // snapshot would.
        assert_eq!(before.get(b"beta").unwrap().unwrap(), b"2");
        assert!(vfs.read_file(path).unwrap().len() >= 2 * crate::pager::PHYS_PAGE_SIZE);
    }

    #[test]
    fn sync_with_nothing_pending_does_no_io() {
        let (vfs, dyn_vfs) = faulty();
        let path = Path::new("idle.db");
        let mut s = DiskKv::open_with_vfs(&dyn_vfs, path).unwrap();
        // A created store is blank until its first sync builds the
        // empty tree: header and one empty leaf.
        s.sync().unwrap();
        assert_eq!(
            vfs.read_file(path).unwrap().len(),
            2 * crate::pager::PHYS_PAGE_SIZE
        );
        s.put(b"k", b"v").unwrap();
        s.sync().unwrap();
        let ops = vfs.op_count();
        s.sync().unwrap();
        assert_eq!(vfs.op_count(), ops, "an idle sync touched the filesystem");
        let mut reopened = DiskKv::open_with_vfs(&dyn_vfs, path).unwrap();
        reopened.sync().unwrap();
        assert_eq!(
            vfs.op_count(),
            ops,
            "a reopened idle sync touched the filesystem"
        );
    }

    #[test]
    fn oversized_entries_are_refused_at_put() {
        let (_, dyn_vfs) = faulty();
        let mut s = DiskKv::open_with_vfs(&dyn_vfs, Path::new("big.db")).unwrap();
        let huge = vec![b'k'; btree::MAX_KEY_LEN + 1];
        assert!(matches!(
            s.put(&huge, b"v"),
            Err(crate::error::KvError::KeyTooLarge(_))
        ));
        s.put(&huge[1..], b"v").unwrap();
        s.sync().unwrap();
        assert_eq!(s.get(&huge[1..]).unwrap().unwrap(), b"v");
    }
}
