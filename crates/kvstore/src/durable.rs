//! `DurableKv`: a crash-safe store = checkpointed B+-tree + write-ahead
//! log of atomic transaction groups.
//!
//! Layout on disk: `<base>.db` (the B+-tree holding the last checkpoint)
//! and `<base>.wal` (the groups committed since). The store has two
//! writes and no others. [`DurableKv::apply_batch`] commits a batch of
//! puts and deletes as one group — one WAL write, one fsync — before the
//! in-memory overlay changes, so an acknowledged batch survives any
//! crash whole and an unacknowledged one leaves no op behind.
//! [`DurableKv::checkpoint`] folds tree + overlay into a *new* tree file
//! and atomically renames it over the old one before resetting the log.
//! On open, the checkpoint is loaded and the WAL's committed groups are
//! replayed over it.
//!
//! `DurableKv` is the *writer* of a store, and the only one that repairs
//! it: this open removes a half-written `<base>.db.new` and truncates a
//! torn log tail. It is a [`DiskKv`] — the tree file with the overlay
//! laid over it — plus the WAL that makes that overlay durable. Every
//! read, its own included, goes through the `DiskKv`'s [`Snapshot`],
//! which [`DurableKv::snapshot`] hands out clones of; a checkpoint is
//! `DiskKv::sync` followed by the log reset. Readers that must not write
//! use [`Snapshot::open`].
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

use crate::btree;
use crate::error::Result;
use crate::snapshot::{fold, Snapshot};
use crate::store::{DiskKv, KvStore};
use crate::vfs::Vfs;
use crate::wal::Wal;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// One mutation of an atomic [`DurableKv::apply_batch`] group, and of
/// the group the log replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
}

impl BatchOp {
    /// The op's key, and the value it puts (`None` for a delete).
    pub(crate) fn entry(&self) -> (&[u8], Option<&[u8]>) {
        match self {
            BatchOp::Put(key, value) => (key, Some(value)),
            BatchOp::Delete(key) => (key, None),
        }
    }
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
    /// Opens (creating if absent) the store rooted at `base` through
    /// `vfs` — files `base.db` and `base.wal`, next to each other.
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, base: &Path) -> Result<Self> {
        let db_path = base.with_extension("db");
        let wal_path = base.with_extension("wal");
        // A crash mid-checkpoint can leave a partially written new tree.
        vfs.remove(&base.with_extension("db.new"))?;
        let mut disk = DiskKv::open_with_vfs(&vfs, &db_path)?;
        let mut wal = Wal::open_with_vfs(&vfs, &wal_path)?;
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
    /// batches and checkpoints never show through it.
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
        // The swap is durable; retire the log. The WAL refuses a reset
        // that no note precedes, so truncating the log before this point
        // would fail hard. Snapshots taken before keep the old handle,
        // hence the old inode.
        self.wal.note_base_durable();
        self.wal.reset_with_vfs(&self.vfs)
    }

    /// Applies `ops` as one atomic group: a single WAL transaction
    /// (one write, one fsync) carries all of them, so after a crash
    /// either every op is recovered or none is. Ops apply in order, so
    /// a later op on the same key shadows an earlier one.
    ///
    /// Everything that can fail happens before the append: the entry
    /// size checks, and the base lookups the live-entry count needs. An
    /// error therefore leaves neither the log nor the view touched.
    pub fn apply_batch(&mut self, ops: &[BatchOp]) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        // Whether each op's key is live just before it: a key an earlier
        // op of the batch touched answers from `touched`.
        let mut touched = HashMap::new();
        let existed = ops
            .iter()
            .map(|op| {
                let (key, value) = op.entry();
                if let Some(value) = value {
                    btree::check_entry(key, value)?;
                }
                match touched.insert(key, value.is_some()) {
                    Some(live) => Ok(live),
                    None => self.disk.view.contains(key),
                }
            })
            .collect::<Result<Vec<bool>>>()?;
        let seq = self.txn_seq + 1;
        self.wal.append_txn(seq, ops)?;
        self.txn_seq = seq;
        for (op, existed) in ops.iter().zip(existed) {
            let (key, value) = op.entry();
            self.disk.view.lay(key, value, existed);
        }
        Ok(())
    }

    /// Number of unsynced overlay entries (checkpoint trigger heuristics).
    pub fn overlay_len(&self) -> usize {
        self.disk.view.overlay_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{Fault, FaultVfs, SurvivalMode};

    const BASE: &str = "store";

    fn fs() -> (FaultVfs, Arc<dyn Vfs>) {
        let vfs = FaultVfs::new();
        let dyn_vfs = vfs.as_dyn();
        (vfs, dyn_vfs)
    }

    fn open(vfs: &Arc<dyn Vfs>) -> DurableKv {
        DurableKv::open_with_vfs(Arc::clone(vfs), Path::new(BASE)).unwrap()
    }

    fn put(key: &str, value: &[u8]) -> BatchOp {
        BatchOp::Put(key.as_bytes().to_vec(), value.to_vec())
    }

    fn del(key: &str) -> BatchOp {
        BatchOp::Delete(key.as_bytes().to_vec())
    }

    fn get(s: &DurableKv, key: &str) -> Option<Vec<u8>> {
        s.snapshot().get(key.as_bytes()).unwrap()
    }

    fn numbered(range: std::ops::Range<u32>) -> Vec<BatchOp> {
        range
            .map(|i| put(&format!("k{i:03}"), &i.to_le_bytes()))
            .collect()
    }

    #[test]
    fn batches_survive_a_reopen_without_a_checkpoint() {
        let (_, vfs) = fs();
        {
            let mut s = open(&vfs);
            s.apply_batch(&[put("a", b"1"), put("b", b"2")]).unwrap();
            s.apply_batch(&[del("a"), del("never")]).unwrap();
            assert_eq!(s.snapshot().len(), 1);
            // no checkpoint: the WAL alone must carry the state
        }
        let s = open(&vfs);
        assert_eq!(get(&s, "a"), None);
        assert_eq!(get(&s, "b").unwrap(), b"2");
        assert_eq!(s.snapshot().len(), 1);
    }

    #[test]
    fn checkpoints_fold_batches_and_deletes_and_survive_reopen() {
        let (_, vfs) = fs();
        {
            let mut s = open(&vfs);
            s.apply_batch(&numbered(0..40)).unwrap();
            s.checkpoint().unwrap();
            assert_eq!(s.overlay_len(), 0);
            let deletes: Vec<_> = (0..20).map(|i| del(&format!("k{i:03}"))).collect();
            s.apply_batch(&deletes).unwrap();
            s.checkpoint().unwrap();
            s.apply_batch(&[put("tail", b"t"), put("k039", b"new")])
                .unwrap();
        }
        let s = open(&vfs);
        let view = s.snapshot();
        assert_eq!(view.len(), 21);
        assert_eq!(get(&s, "k000"), None);
        assert_eq!(get(&s, "k038").unwrap(), 38u32.to_le_bytes());
        assert_eq!(get(&s, "k039").unwrap(), b"new");
        assert_eq!(get(&s, "tail").unwrap(), b"t");
        // The checkpoint rewrote the tree, so deleted keys are gone from
        // the base file, not just shadowed.
        assert_eq!(view.base.len(), 20);
        // Scans merge the tree with the overlay over it.
        let keys: Vec<Vec<u8>> = view
            .scan_range(b"k037", None)
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, [&b"k037"[..], b"k038", b"k039", b"tail"]);
    }

    #[test]
    fn stale_partial_checkpoint_file_is_removed_on_open() {
        let (_, vfs) = fs();
        open(&vfs).apply_batch(&[put("a", b"1")]).unwrap();
        // A crash left a partial new tree behind.
        let partial = Path::new("store.db.new");
        vfs.open(partial)
            .unwrap()
            .write_all_at(0, b"partial garbage")
            .unwrap();
        let s = open(&vfs);
        assert_eq!(get(&s, "a").unwrap(), b"1");
        assert!(!vfs.exists(partial));
    }

    #[test]
    fn apply_batch_is_atomic_across_torn_tails() {
        let ops = [
            put("p", b"1"),
            put("q", b"2"),
            del("pre"),
            put("p", b"3"), // a later op shadows an earlier one
        ];
        let (vfs, dyn_vfs) = fs();
        let wal = Path::new("store.wal");
        {
            let mut s = open(&dyn_vfs);
            s.apply_batch(&[put("pre", b"x")]).unwrap();
            s.apply_batch(&ops).unwrap();
            assert_eq!(get(&s, "p").unwrap(), b"3");
            assert_eq!(get(&s, "pre"), None);
            assert_eq!(s.snapshot().len(), 2);
        }
        let full = vfs.read_file(wal).unwrap();
        // Tear the WAL at every byte: the recovered store holds each
        // group whole or not at all.
        for cut in 1..full.len() {
            let file = dyn_vfs.open(wal).unwrap();
            file.set_len(0).unwrap();
            file.write_all_at(0, &full[..cut]).unwrap();
            let s = open(&dyn_vfs);
            let state = (get(&s, "pre"), get(&s, "p"), get(&s, "q"));
            let len = s.snapshot().len();
            match state {
                (None, Some(p), Some(q)) => {
                    assert_eq!((&p[..], &q[..], len), (&b"3"[..], &b"2"[..], 2))
                }
                (Some(pre), None, None) => assert_eq!((&pre[..], len), (&b"x"[..], 1)),
                (None, None, None) => assert_eq!(len, 0),
                other => panic!("cut at {cut}: partial group visible: {other:?}"),
            }
        }
    }

    #[test]
    fn snapshots_are_isolated_from_later_batches_and_checkpoints() {
        let (_, vfs) = fs();
        let mut s = open(&vfs);
        s.apply_batch(&[put("a", b"1"), put("b", b"2")]).unwrap();
        let before = s.snapshot();
        assert_eq!((before.overlay_len(), before.len()), (2, 2));
        s.checkpoint().unwrap();
        assert_eq!(s.snapshot().overlay_len(), 0);
        s.apply_batch(&[del("a")]).unwrap();
        let after = s.snapshot();
        assert_eq!((after.overlay_len(), after.len()), (1, 1));
        assert_eq!(after.get(b"a").unwrap(), None);
        // The earlier view still reads the pre-checkpoint tree and its
        // own overlay.
        assert_eq!(before.get(b"a").unwrap().unwrap(), b"1");
        assert_eq!(before.scan_range(b"", None).unwrap().len(), 2);
        drop(s);
        let s = open(&vfs);
        assert_eq!(get(&s, "a"), None);
        assert_eq!(get(&s, "b").unwrap(), b"2");
    }

    #[test]
    fn power_cut_between_base_swap_and_wal_reset_keeps_committed_batches() {
        // The `<base>.db.new` rename goes durable strictly before the
        // WAL truncates. Cut power at every mutating-I/O boundary of
        // `checkpoint()` (tree build, rename, dir sync, WAL truncate)
        // under every survival mode; no cut may lose an acknowledged op.
        for mode in [
            SurvivalMode::LoseUnsynced,
            SurvivalMode::KeepUnsynced,
            SurvivalMode::TornTail,
        ] {
            let mut cut = 0u64;
            loop {
                let (vfs, dyn_vfs) = fs();
                let mut s = open(&dyn_vfs);
                s.apply_batch(&numbered(0..12)).unwrap();
                s.apply_batch(&numbered(12..20)).unwrap();
                vfs.set_fault(vfs.op_count() + cut, Fault::PowerCut(mode));
                let res = s.checkpoint();
                if !vfs.fault_fired() {
                    res.unwrap();
                    break;
                }
                assert!(res.is_err(), "cut fired but checkpoint succeeded");
                drop(s);
                vfs.power_cycle();
                let s = DurableKv::open_with_vfs(dyn_vfs, Path::new(BASE)).unwrap_or_else(|e| {
                    panic!("recovery open failed after cut {cut} ({mode:?}): {e}")
                });
                for i in 0..20u32 {
                    assert_eq!(
                        get(&s, &format!("k{i:03}")).as_deref(),
                        Some(i.to_le_bytes().as_slice()),
                        "cut {cut} ({mode:?}): committed put k{i:03} lost"
                    );
                }
                assert_eq!(
                    s.snapshot().len(),
                    20,
                    "cut {cut} ({mode:?}): live count drifted"
                );
                cut += 1;
            }
            assert!(cut >= 4, "checkpoint produced only {cut} boundaries");
        }
    }
}
