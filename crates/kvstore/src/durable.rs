//! `DurableKv`: a crash-safe store = checkpointed B+-tree + write-ahead
//! log.
//!
//! Layout on disk: `<base>.db` (the B+-tree holding the last checkpoint)
//! and `<base>.wal` (mutations since). Every `put`/`delete` is logged and
//! fsynced before the in-memory overlay changes, so an acknowledged write
//! survives any crash; `checkpoint()` folds tree + overlay into a *new*
//! tree file and atomically renames it over the old one before resetting
//! the log. On open, the checkpoint is loaded and the WAL is replayed
//! over it.
//!
//! `DurableKv` is the *writer* of a store, and the only one that repairs
//! it: this open removes a half-written `<base>.db.new` and truncates a
//! torn log tail. It is a [`DiskKv`] — the tree file with the overlay
//! laid over it — plus the WAL that makes that overlay durable: its
//! reads, its own lookups included, go through the `DiskKv`'s
//! [`Snapshot`], which it hands out clones of through
//! [`DurableKv::snapshot`]; a checkpoint is `DiskKv::sync` followed by
//! the log reset. Readers that must not write use [`Snapshot::open`].
//!
//! ## Crash-safety of checkpointing
//!
//! No tree file is ever modified in place. The merged state is written
//! to `<base>.db.new` by the tree builder, fsynced, renamed over
//! `<base>.db`, and the directory is fsynced — only then is the WAL
//! truncated. A crash at any point leaves either the old tree (rename
//! not yet durable) or the new tree (rename durable), and in both cases
//! the still-intact WAL replays the overlay on top, which is idempotent.
//! A partially written `<base>.db.new` left by a crash is deleted on the
//! next writer open.

use crate::btree;
use crate::error::Result;
use crate::snapshot::{fold, Snapshot};
use crate::store::{DiskKv, KvStore};
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{Wal, WalRecord};
use std::path::Path;
use std::sync::Arc;

/// One mutation inside an atomic [`DurableKv::apply_batch`] group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
}

/// A crash-safe key-value store.
pub struct DurableKv {
    vfs: Arc<dyn Vfs>,
    /// The checkpointed tree with the WAL's mutations laid over it as the
    /// store's overlay: every read goes through its view, which
    /// [`Self::snapshot`] clones, so the overlay is copied on the first
    /// write after a snapshot was handed out, and a checkpoint swaps in
    /// a new tree handle instead of touching the one earlier snapshots
    /// pinned.
    disk: DiskKv,
    wal: Wal,
    /// Sequence number of the last committed transaction group.
    /// Monotonic while the store is open; a reopen re-derives it from
    /// the replayed log (so it restarts at 0 after a checkpoint).
    txn_seq: u64,
}

impl DurableKv {
    /// Opens (creating if absent) the store rooted at `base` — files
    /// `base.db` and `base.wal` are created next to each other.
    pub fn open(base: &Path) -> Result<Self> {
        Self::open_with_vfs(StdVfs::arc(), base)
    }

    /// [`Self::open`] through an explicit [`Vfs`] (fault injection,
    /// crash-recovery testing).
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, base: &Path) -> Result<Self> {
        let db_path = base.with_extension("db");
        let wal_path = base.with_extension("wal");
        // A crash mid-checkpoint can leave a partially written new tree.
        vfs.remove(&base.with_extension("db.new"))?;
        let mut disk = DiskKv::open_with_vfs(&vfs, &db_path)?;
        let mut wal = Wal::open_with_vfs(&vfs, &wal_path)?;
        wal.require_reset_audit();
        let (overlay, txn_seq) = fold(wal.replay()?);
        disk.view = Snapshot::over(Arc::clone(&disk.view.base), overlay)?;
        Ok(DurableKv {
            vfs,
            disk,
            wal,
            txn_seq,
        })
    }

    /// The store's current state as an immutable view, in O(1): later
    /// writes and checkpoints never show through it.
    pub fn snapshot(&self) -> Snapshot {
        self.disk.view.clone()
    }

    /// Writes the merged tree + overlay state to a fresh tree file
    /// (`DiskKv::sync`: `<base>.db.new`, fsync, rename, directory sync),
    /// then resets the WAL. After this returns, recovery no longer needs
    /// the log. On error the store is unchanged: the old tree, overlay
    /// and WAL all remain in force.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.disk.view.overlay.is_empty() && self.wal.is_empty()? {
            return Ok(());
        }
        self.disk.sync()?;
        // The swap is durable; retire the log. The note/audit pair
        // enforces this ordering: resetting the WAL before this point
        // would fail hard (see `Wal::require_reset_audit`). Snapshots
        // taken before keep the old handle, hence the old inode.
        self.wal.note_base_durable();
        self.wal.reset_with_vfs(&self.vfs)
    }

    /// Applies `ops` as one atomic group: a single WAL transaction
    /// (one write, one fsync) carries all of them, so after a crash
    /// either every op is recovered or none is. Ops apply in order, so
    /// a later op on the same key shadows an earlier one.
    pub fn apply_batch(&mut self, ops: &[BatchOp]) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let records = ops
            .iter()
            .map(|op| match op {
                BatchOp::Put(key, value) => {
                    btree::check_entry(key, value).map(|()| WalRecord::Put {
                        key: key.clone(),
                        value: value.clone(),
                    })
                }
                BatchOp::Delete(key) => Ok(WalRecord::Delete { key: key.clone() }),
            })
            .collect::<Result<Vec<_>>>()?;
        let seq = self.txn_seq + 1;
        self.wal.append_txn(seq, &records)?;
        self.txn_seq = seq;
        for op in ops {
            match op {
                BatchOp::Put(key, value) => self.disk.put(key, value)?,
                BatchOp::Delete(key) => {
                    self.disk.delete(key)?;
                }
            }
        }
        Ok(())
    }

    /// Sequence number of the last committed transaction group (0 when
    /// none since the last checkpoint).
    pub fn txn_seq(&self) -> u64 {
        self.txn_seq
    }

    /// Number of unsynced overlay entries (checkpoint trigger heuristics).
    pub fn overlay_len(&self) -> usize {
        self.disk.view.overlay_len()
    }
}

impl KvStore for DurableKv {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.disk.get(key)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        btree::check_entry(key, value)?;
        let existed = self.contains(key)?;
        self.wal.append(&WalRecord::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })?;
        self.disk.view.lay(key, Some(value), existed);
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        if !self.contains(key)? {
            return Ok(false);
        }
        self.wal.append(&WalRecord::Delete { key: key.to_vec() })?;
        self.disk.view.lay(key, None, true);
        Ok(true)
    }

    fn contains(&self, key: &[u8]) -> Result<bool> {
        self.disk.contains(key)
    }

    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.disk.scan_range(start, end)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.disk.scan_prefix(prefix)
    }

    fn len(&self) -> u64 {
        self.disk.len()
    }

    fn sync(&mut self) -> Result<()> {
        self.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("durable_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(p.with_extension("db"));
        let _ = std::fs::remove_file(p.with_extension("db.new"));
        let _ = std::fs::remove_file(p.with_extension("wal"));
        p
    }

    #[test]
    fn basic_ops_and_reopen_without_checkpoint() {
        let base = tmp("basic");
        {
            let mut s = DurableKv::open(&base).unwrap();
            s.put(b"a", b"1").unwrap();
            s.put(b"b", b"2").unwrap();
            assert!(s.delete(b"a").unwrap());
            assert_eq!(s.len(), 1);
            // no checkpoint, no sync: the WAL alone must carry the state
        }
        let s = DurableKv::open(&base).unwrap();
        assert_eq!(s.get(b"a").unwrap(), None);
        assert_eq!(s.get(b"b").unwrap().unwrap(), b"2");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn checkpoint_then_more_writes_then_reopen() {
        let base = tmp("ckpt");
        {
            let mut s = DurableKv::open(&base).unwrap();
            for i in 0..50u32 {
                s.put(format!("k{i:03}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            s.checkpoint().unwrap();
            assert_eq!(s.overlay_len(), 0);
            s.put(b"post", b"ckpt").unwrap();
            s.delete(b"k001").unwrap();
        }
        let s = DurableKv::open(&base).unwrap();
        assert_eq!(s.len(), 50); // 50 - 1 + 1
        assert_eq!(s.get(b"post").unwrap().unwrap(), b"ckpt");
        assert_eq!(s.get(b"k001").unwrap(), None);
        assert_eq!(s.get(b"k002").unwrap().unwrap(), 2u32.to_le_bytes());
    }

    #[test]
    fn repeated_checkpoints_fold_deletes_and_survive_reopen() {
        let base = tmp("reckpt");
        {
            let mut s = DurableKv::open(&base).unwrap();
            for i in 0..40u32 {
                s.put(format!("k{i:03}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            s.checkpoint().unwrap();
            for i in 0..20u32 {
                s.delete(format!("k{i:03}").as_bytes()).unwrap();
            }
            s.checkpoint().unwrap();
            s.put(b"tail", b"t").unwrap();
        }
        let s = DurableKv::open(&base).unwrap();
        assert_eq!(s.len(), 21);
        assert_eq!(s.get(b"k000").unwrap(), None);
        assert_eq!(s.get(b"k039").unwrap().unwrap(), 39u32.to_le_bytes());
        assert_eq!(s.get(b"tail").unwrap().unwrap(), b"t");
        // The checkpoint fully rewrote the tree, so deleted keys are
        // genuinely gone from the base file, not just shadowed.
        assert_eq!(s.snapshot().base.len(), 20);
    }

    #[test]
    fn stale_partial_checkpoint_file_is_removed_on_open() {
        let base = tmp("stale");
        {
            let mut s = DurableKv::open(&base).unwrap();
            s.put(b"a", b"1").unwrap();
        }
        // Simulate a crash that left a partial new tree behind.
        std::fs::write(base.with_extension("db.new"), b"partial garbage").unwrap();
        let s = DurableKv::open(&base).unwrap();
        assert_eq!(s.get(b"a").unwrap().unwrap(), b"1");
        assert!(!base.with_extension("db.new").exists());
    }

    #[test]
    fn crash_simulation_torn_wal_tail() {
        let base = tmp("crash");
        {
            let mut s = DurableKv::open(&base).unwrap();
            s.put(b"committed", b"yes").unwrap();
            s.put(b"also", b"committed").unwrap();
        }
        // simulate a crash that tore the last record
        let wal_path = base.with_extension("wal");
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

        let s = DurableKv::open(&base).unwrap();
        // the first record survives fully; the torn one is rolled back
        assert_eq!(s.get(b"committed").unwrap().unwrap(), b"yes");
        assert_eq!(s.get(b"also").unwrap(), None);
    }

    #[test]
    fn scans_merge_tree_and_overlay() {
        let base = tmp("scan");
        let mut s = DurableKv::open(&base).unwrap();
        s.put(b"a", b"tree").unwrap();
        s.put(b"c", b"tree").unwrap();
        s.checkpoint().unwrap();
        s.put(b"b", b"overlay").unwrap();
        s.put(b"a", b"shadowed").unwrap();
        s.delete(b"c").unwrap();

        let all = s.scan_range(b"", None).unwrap();
        let keys: Vec<&[u8]> = all.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, [b"a".as_slice(), b"b".as_slice()]);
        assert_eq!(all[0].1, b"shadowed");
        assert_eq!(s.scan_prefix(b"a").unwrap().len(), 1);
    }

    #[test]
    fn apply_batch_is_atomic_across_torn_tails() {
        let base = tmp("batch");
        let ops = vec![
            BatchOp::Put(b"p".to_vec(), b"1".to_vec()),
            BatchOp::Put(b"q".to_vec(), b"2".to_vec()),
            BatchOp::Delete(b"pre".to_vec()),
            BatchOp::Put(b"p".to_vec(), b"3".to_vec()), // later op shadows
        ];
        {
            let mut s = DurableKv::open(&base).unwrap();
            s.put(b"pre", b"x").unwrap();
            s.apply_batch(&ops).unwrap();
            assert_eq!(s.get(b"p").unwrap().unwrap(), b"3");
            assert_eq!(s.get(b"pre").unwrap(), None);
            assert_eq!(s.len(), 2);
            assert_eq!(s.txn_seq(), 1);
        }
        // Reopen: the group survives whole.
        {
            let s = DurableKv::open(&base).unwrap();
            assert_eq!(s.get(b"p").unwrap().unwrap(), b"3");
            assert_eq!(s.get(b"q").unwrap().unwrap(), b"2");
            assert_eq!(s.get(b"pre").unwrap(), None);
            assert_eq!(s.txn_seq(), 1);
        }
        // Tear the WAL at every byte inside the transaction group: the
        // recovered store holds either the whole group or none of it.
        let wal_path = base.with_extension("wal");
        let full = std::fs::read(&wal_path).unwrap();
        for cut in 1..full.len() - 1 {
            std::fs::write(&wal_path, &full[..cut]).unwrap();
            let s = DurableKv::open(&base).unwrap();
            match s.get(b"p").unwrap().as_deref() {
                Some(v) if v == b"3" => {
                    // whole group applied
                    assert_eq!(s.get(b"q").unwrap().unwrap(), b"2");
                    assert_eq!(s.get(b"pre").unwrap(), None);
                }
                None => {
                    // group rolled back wholesale; only the prefix of
                    // the history (or nothing, if `pre` tore too) holds
                    assert_eq!(s.get(b"q").unwrap(), None);
                }
                other => panic!("cut at {cut}: partial group visible: {other:?}"),
            }
        }
    }

    #[test]
    fn snapshots_are_isolated_from_later_batches_and_checkpoints() {
        let base = tmp("batch_ckpt");
        let mut s = DurableKv::open(&base).unwrap();
        s.apply_batch(&[
            BatchOp::Put(b"a".to_vec(), b"1".to_vec()),
            BatchOp::Put(b"b".to_vec(), b"2".to_vec()),
        ])
        .unwrap();
        let before = s.snapshot();
        assert_eq!((before.overlay_len(), before.len()), (2, 2));
        s.checkpoint().unwrap();
        assert_eq!(s.snapshot().overlay_len(), 0);
        s.apply_batch(&[BatchOp::Delete(b"a".to_vec())]).unwrap();
        let after = s.snapshot();
        assert_eq!((after.overlay_len(), after.len()), (1, 1));
        assert_eq!(after.get(b"a").unwrap(), None);
        // The earlier view still reads the pre-checkpoint tree and its
        // own overlay.
        assert_eq!(before.get(b"a").unwrap().unwrap(), b"1");
        assert_eq!(before.scan_range(b"", None).unwrap().len(), 2);
        drop(s);
        let s = DurableKv::open(&base).unwrap();
        assert_eq!(s.get(b"a").unwrap(), None);
        assert_eq!(s.get(b"b").unwrap().unwrap(), b"2");
    }

    #[test]
    fn power_cut_between_base_swap_and_wal_reset_keeps_committed_puts() {
        // The checkpoint satellite audit: `<base>.db.new` rename goes
        // durable strictly before the WAL truncates. Cut power at every
        // mutating-I/O boundary of `checkpoint()` (which spans tree
        // build, rename, dir sync, WAL truncate) under every survival
        // mode; no cut point may lose an acknowledged put.
        use crate::store::KvStore as _;
        use crate::vfs::{Fault, FaultVfs, SurvivalMode};
        let base = Path::new("ckpt_audit");
        for mode in [
            SurvivalMode::LoseUnsynced,
            SurvivalMode::KeepUnsynced,
            SurvivalMode::TornTail,
        ] {
            let mut cut = 0u64;
            loop {
                let vfs = FaultVfs::new();
                let dyn_vfs = vfs.as_dyn();
                let mut s = DurableKv::open_with_vfs(dyn_vfs.clone(), base).unwrap();
                for i in 0..20u32 {
                    s.put(format!("k{i:02}").as_bytes(), &i.to_le_bytes())
                        .unwrap();
                }
                vfs.set_fault(vfs.op_count() + cut, Fault::PowerCut(mode));
                let res = s.checkpoint();
                if !vfs.fault_fired() {
                    res.unwrap();
                    break;
                }
                assert!(res.is_err(), "cut fired but checkpoint succeeded");
                drop(s);
                vfs.power_cycle();
                let s = DurableKv::open_with_vfs(dyn_vfs, base).unwrap_or_else(|e| {
                    panic!("recovery open failed after cut {cut} ({mode:?}): {e}")
                });
                for i in 0..20u32 {
                    assert_eq!(
                        s.get(format!("k{i:02}").as_bytes()).unwrap().as_deref(),
                        Some(i.to_le_bytes().as_slice()),
                        "cut {cut} ({mode:?}): committed put k{i:02} lost"
                    );
                }
                assert_eq!(s.len(), 20, "cut {cut} ({mode:?}): live_count drifted");
                cut += 1;
            }
            assert!(cut >= 4, "checkpoint produced only {cut} boundaries");
        }
    }

    #[test]
    fn kvstore_trait_conformance() {
        let base = tmp("conform");
        let mut s = DurableKv::open(&base).unwrap();
        s.put(b"b", b"2").unwrap();
        s.put(b"a", b"1").unwrap();
        assert!(s.contains(b"a").unwrap());
        assert!(!s.contains(b"zz").unwrap());
        assert_eq!(s.scan_range(b"a", Some(b"b")).unwrap().len(), 1);
        assert_eq!(s.scan_range(b"b", Some(b"a")).unwrap().len(), 0);
        s.sync().unwrap();
        assert_eq!(s.len(), 2);
    }
}
