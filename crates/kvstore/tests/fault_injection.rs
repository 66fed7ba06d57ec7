//! Fault-injection sweeps over the `DurableKv` I/O path: transient
//! errors, short writes and torn syncs injected at every mutating
//! filesystem operation of a recorded 500-op workload of atomic batches
//! and checkpoints. These faults are one-shot, so the contract under
//! test is *retry once and carry on*: the failed logical operation is
//! re-issued, the workload completes, and the final state must equal
//! the reference model — no acknowledged batch may be lost and no
//! unacknowledged one may half-apply. A full disk (`Fault::NoSpace`)
//! lasts until it is cleared: the failing batch or checkpoint must leave
//! the committed prefix readable, and succeed once space is back.
//!
//! Also covers a failed WAL fsync followed by a *different*, shorter
//! group (the sweeps retry the same op, which rewrites the same bytes),
//! a batch whose base lookup fails (nothing of it may reach the log),
//! and at-rest bit rot: a flipped byte in a checksummed page surfaces
//! as `KvError::Corrupt` with page attribution, never as a wrong
//! answer.
//!
//! Debug builds stride the sweeps; the CI torture job runs them in
//! release with every boundary covered.

mod common;

use common::{apply_op, contents, models, workload, Op};
use kvstore::{
    BatchOp, DiskKv, DurableKv, Fault, FaultVfs, KvError, KvStore, SurvivalMode, PHYS_PAGE_SIZE,
};
use std::path::Path;
use std::sync::Arc;

/// Opens the store, retrying once if the one-shot fault lands inside
/// the open itself.
fn open_retrying(vfs: &FaultVfs, dyn_vfs: &Arc<dyn kvstore::Vfs>, base: &Path) -> DurableKv {
    match DurableKv::open_with_vfs(dyn_vfs.clone(), base) {
        Ok(s) => s,
        Err(e) => {
            assert!(vfs.fault_fired(), "open failed without a fault: {e}");
            DurableKv::open_with_vfs(dyn_vfs.clone(), base)
                .expect("reopen after a one-shot transient fault")
        }
    }
}

/// Injects `fault` at every I/O boundary (one run per boundary) and
/// requires a single retry of the failed operation to be enough for the
/// full workload to complete and persist exactly the reference state.
fn sweep_transient(fault: Fault) {
    let ops = workload(500);
    let snapshots = models(&ops);
    let full = snapshots.last().unwrap();

    let stride: u64 = if cfg!(debug_assertions) { 7 } else { 1 };
    let base = Path::new("store");
    let mut cut: u64 = 0;
    let mut boundaries = 0u64;

    loop {
        let vfs = FaultVfs::new();
        vfs.set_fault(cut, fault);
        let dyn_vfs = vfs.as_dyn();

        let mut store = open_retrying(&vfs, &dyn_vfs, base);
        let mut retried = false;
        for (i, op) in ops.iter().enumerate() {
            if let Err(e) = apply_op(&mut store, op) {
                assert!(vfs.fault_fired(), "op {i} failed without a fault: {e}");
                assert!(!retried, "the one-shot fault at op {cut} failed twice");
                retried = true;
                apply_op(&mut store, op).unwrap_or_else(|e| {
                    panic!("{fault:?} at op {cut}: retry of workload op {i} failed: {e}")
                });
            }
        }
        if let Err(e) = store.checkpoint() {
            assert!(vfs.fault_fired(), "checkpoint failed without a fault: {e}");
            store
                .checkpoint()
                .unwrap_or_else(|e| panic!("{fault:?} at op {cut}: checkpoint retry failed: {e}"));
        }
        assert_eq!(
            &contents(&store),
            full,
            "{fault:?} at op {cut}: final state diverged"
        );
        drop(store);
        let reopened = open_retrying(&vfs, &dyn_vfs, base);
        assert_eq!(
            &contents(&reopened),
            full,
            "{fault:?} at op {cut}: reopened state diverged"
        );

        if !vfs.fault_fired() {
            // The whole run, final checkpoint and reopen included, needed
            // fewer than `cut` operations: the sweep is complete.
            break;
        }
        boundaries += 1;
        cut += stride;
    }
    assert!(
        boundaries >= 100,
        "sweep covered only {boundaries} boundaries — workload too small?"
    );
}

#[test]
fn transient_error_at_every_io_boundary_needs_only_one_retry() {
    sweep_transient(Fault::Error);
}

#[test]
fn short_write_at_every_io_boundary_needs_only_one_retry() {
    sweep_transient(Fault::ShortWrite);
}

#[test]
fn torn_sync_at_every_io_boundary_needs_only_one_retry() {
    sweep_transient(Fault::TornSync);
}

#[test]
fn an_acknowledged_batch_survives_an_immediate_power_cut() {
    let vfs = FaultVfs::new();
    let dyn_vfs = vfs.as_dyn();
    let base = Path::new("store");
    {
        let mut store = DurableKv::open_with_vfs(dyn_vfs.clone(), base).unwrap();
        store.apply_batch(&[put("acked"), put("also")]).unwrap();
        // The very next mutating operation is the cut: nothing after the
        // acknowledged batch reaches the disk.
        vfs.set_fault(vfs.op_count(), Fault::PowerCut(SurvivalMode::LoseUnsynced));
        assert!(store.apply_batch(&[put("in-flight")]).is_err());
    }
    vfs.power_cycle();
    let store = DurableKv::open_with_vfs(dyn_vfs, base).unwrap();
    assert_eq!(contents(&store), model(&["acked", "also"]));
}

#[test]
fn a_short_written_batch_is_rolled_back_not_half_applied() {
    let vfs = FaultVfs::new();
    let dyn_vfs = vfs.as_dyn();
    let base = Path::new("store");
    let mut store = DurableKv::open_with_vfs(dyn_vfs.clone(), base).unwrap();
    store.apply_batch(&[put("before")]).unwrap();

    // Half of the group reaches the file: its first ops, not its commit.
    vfs.set_fault(vfs.op_count(), Fault::ShortWrite);
    let torn: Vec<BatchOp> = (0..4)
        .map(|i| BatchOp::Put(format!("torn{i}").into_bytes(), vec![0xAB; 256]))
        .collect();
    assert!(store.apply_batch(&torn).is_err());

    // The store stays serviceable and no op of the torn batch applied.
    assert_eq!(contents(&store), model(&["before"]));
    store.apply_batch(&[put("after")]).unwrap();
    drop(store);

    let store = DurableKv::open_with_vfs(dyn_vfs, base).unwrap();
    assert_eq!(contents(&store), model(&["after", "before"]));
}

fn is_full(e: &KvError) -> bool {
    matches!(e, KvError::Io(io) if io.kind() == std::io::ErrorKind::StorageFull)
}

/// The disk fills up at every I/O boundary in turn (one run each) and
/// stays full until cleared. The first batch or checkpoint that needs
/// space fails, with nothing of it visible; the reads see exactly the
/// committed prefix; once space is back the same op succeeds, and the
/// workload ends in, and reopens to, the reference state.
#[test]
fn a_full_disk_at_every_io_boundary_fails_one_op_and_loses_nothing() {
    let mut ops = workload(500);
    ops.push(Op::Checkpoint);
    let snapshots = models(&ops);
    let full = snapshots.last().unwrap();

    let stride: u64 = if cfg!(debug_assertions) { 7 } else { 1 };
    let base = Path::new("store");
    let mut cut: u64 = 0;
    let mut boundaries = 0u64;
    loop {
        let vfs = FaultVfs::new();
        vfs.set_fault(cut, Fault::NoSpace);
        let dyn_vfs = vfs.as_dyn();
        let mut store = DurableKv::open_with_vfs(dyn_vfs.clone(), base)
            .unwrap_or_else(|e| panic!("full disk from op {cut}: open failed: {e}"));
        let mut failed = false;
        for (i, op) in ops.iter().enumerate() {
            if let Err(e) = apply_op(&mut store, op) {
                assert!(
                    is_full(&e),
                    "full disk from op {cut}: op {i} failed with {e}"
                );
                assert!(!failed, "full disk from op {cut}: a second op failed");
                failed = true;
                assert_eq!(
                    contents(&store),
                    snapshots[i],
                    "full disk from op {cut}: op {i} left a trace"
                );
                vfs.clear_fault();
                apply_op(&mut store, op).unwrap_or_else(|e| {
                    panic!("full disk from op {cut}: op {i} failed again with space back: {e}")
                });
            }
        }
        assert_eq!(vfs.fault_fired(), failed);
        assert_eq!(
            &contents(&store),
            full,
            "full disk from op {cut}: final state diverged"
        );
        drop(store);
        let reopened = DurableKv::open_with_vfs(dyn_vfs, base).unwrap();
        assert_eq!(
            &contents(&reopened),
            full,
            "full disk from op {cut}: reopen diverged"
        );
        if !failed {
            break;
        }
        boundaries += 1;
        cut += stride;
    }
    assert!(
        boundaries >= 100,
        "sweep covered only {boundaries} boundaries — workload too small?"
    );
}

/// A batch whose live-count lookup in the base tree hits a damaged page
/// must fail before its group is logged: the batch leaves no trace in
/// the view or the log, and the store still opens.
#[test]
fn a_batch_whose_base_lookup_fails_leaves_no_trace() {
    let base = Path::new("store");
    let (db, wal) = (Path::new("store.db"), Path::new("store.wal"));
    let key = |i: u32| format!("key{i:04}").into_bytes();
    let probe = FaultVfs::new();
    let stored = |vfs: &FaultVfs| {
        let mut store = DurableKv::open_with_vfs(vfs.as_dyn(), base).unwrap();
        let batch: Vec<BatchOp> = (0..1000u32)
            .map(|i| BatchOp::Put(key(i), i.to_le_bytes().repeat(4)))
            .collect();
        store.apply_batch(&batch).unwrap();
        store.checkpoint().unwrap();
    };
    stored(&probe);
    let pages = probe.read_file(db).unwrap().len() / PHYS_PAGE_SIZE;

    // Find a leaf page whose damage neither the open nor a lookup of
    // `a-new` notices, but a lookup of some stored key does.
    let damaged = (1..pages).find_map(|page| {
        let vfs = FaultVfs::new();
        stored(&vfs);
        vfs.corrupt_byte(db, page * PHYS_PAGE_SIZE + 100).unwrap();
        let store = DurableKv::open_with_vfs(vfs.as_dyn(), base).ok()?;
        let view = store.snapshot();
        view.contains(b"a-new").ok()?;
        let victim = (0..1000u32).map(key).find(|k| view.contains(k).is_err())?;
        Some((vfs, victim))
    });
    let (vfs, victim) = damaged.expect("no leaf page whose damage a lookup reports");

    let mut store = DurableKv::open_with_vfs(vfs.as_dyn(), base).unwrap();
    let log_before = vfs.read_file(wal).unwrap();
    let err = store
        .apply_batch(&[put("a-new"), BatchOp::Put(victim, b"v".to_vec())])
        .unwrap_err();
    assert!(err.is_corrupt(), "{err}");
    assert_eq!(store.snapshot().get(b"a-new").unwrap(), None);
    assert_eq!(
        vfs.read_file(wal).unwrap(),
        log_before,
        "the failed batch reached the log"
    );
    // The store stays serviceable, and reopens.
    store.apply_batch(&[put("after")]).unwrap();
    drop(store);
    let store = DurableKv::open_with_vfs(vfs.as_dyn(), base)
        .unwrap_or_else(|e| panic!("the store no longer opens: {e}"));
    assert_eq!(store.snapshot().get(b"a-new").unwrap(), None);
    assert_eq!(store.snapshot().get(b"after").unwrap().unwrap(), b"v");
}

#[test]
fn at_rest_bit_rot_surfaces_as_corrupt_never_a_wrong_answer() {
    // Learn the store's size once, then flip a byte in *every* page (one
    // fresh store per page — layouts may differ between builds, which is
    // fine: the invariants are per-instance).
    let path = Path::new("kv.db");
    let build = |vfs: &Arc<dyn kvstore::Vfs>| {
        let mut kv = DiskKv::open_with_vfs(vfs, path).unwrap();
        for i in 0..200u32 {
            kv.put(format!("key{i:04}").as_bytes(), &i.to_le_bytes().repeat(8))
                .unwrap();
        }
        kv.sync().unwrap();
        assert!(kv.verify_pages().unwrap().is_clean());
    };

    let probe = FaultVfs::new();
    build(&probe.as_dyn());
    let total_pages = probe.read_file(path).unwrap().len() / PHYS_PAGE_SIZE;
    assert!(
        total_pages >= 3,
        "store too small to be a meaningful target"
    );

    let mut corrupt_reads = 0u32;
    for page in 1..total_pages {
        let vfs = FaultVfs::new();
        let dyn_vfs = vfs.as_dyn();
        build(&dyn_vfs);
        vfs.corrupt_byte(path, page * PHYS_PAGE_SIZE + 100).unwrap();

        // Damage may be fatal at open (root/meta pages) or surface on
        // reads — but never as a panic or a wrong answer.
        let kv = match DiskKv::open_with_vfs(&dyn_vfs, path) {
            Ok(kv) => kv,
            Err(e) => {
                assert!(e.is_corrupt(), "page {page}: expected Corrupt, got {e}");
                corrupt_reads += 1;
                continue;
            }
        };
        let report = kv.verify_pages().unwrap();
        assert!(
            report.bad_pages.iter().any(|(id, _)| *id == page as u64),
            "page {page}: verify_pages missed the damage: {:?}",
            report.bad_pages
        );
        for i in 0..200u32 {
            match kv.get(format!("key{i:04}").as_bytes()) {
                Ok(Some(v)) => assert_eq!(v, i.to_le_bytes().repeat(8), "page {page}: key{i:04}"),
                Ok(None) => panic!("page {page}: key{i:04} silently vanished"),
                Err(e) => {
                    assert!(e.is_corrupt(), "page {page}: expected Corrupt, got {e}");
                    corrupt_reads += 1;
                }
            }
        }
    }
    assert!(
        corrupt_reads > 0,
        "no read ever hit the damage — the sweep proved nothing"
    );
}

fn put(key: &str) -> BatchOp {
    BatchOp::Put(key.as_bytes().to_vec(), b"v".to_vec())
}

/// The contents `put` of each of `keys` leaves.
fn model(keys: &[&str]) -> common::Model {
    keys.iter()
        .map(|k| (k.as_bytes().to_vec(), b"v".to_vec()))
        .collect()
}

/// Commits `[a]`, fails the fsync of a six-put group, then commits the
/// shorter `[d]` at the same log offset. With `fault_on_trim`, the first
/// `[d]` also fails — on the truncation that drops the failed group —
/// and is retried once. The store must reopen holding exactly the
/// acknowledged groups.
fn shorter_group_after_a_failed_sync(fault_on_trim: bool) {
    let vfs = FaultVfs::new();
    let dyn_vfs = vfs.as_dyn();
    let base = Path::new("store");
    let mut store = DurableKv::open_with_vfs(dyn_vfs.clone(), base).unwrap();
    store.apply_batch(&[put("a")]).unwrap();

    // A group is one write and then one fsync: fail the fsync.
    vfs.set_fault(vfs.op_count() + 1, Fault::Error);
    let six: Vec<BatchOp> = (0..6).map(|i| put(&format!("b{i:02}"))).collect();
    assert!(store.apply_batch(&six).is_err());
    assert!(
        vfs.fault_fired(),
        "the six-put group failed without its fault"
    );

    if fault_on_trim {
        vfs.set_fault(vfs.op_count(), Fault::Error);
        assert!(store.apply_batch(&[put("d")]).is_err());
        assert!(vfs.fault_fired(), "the trim was not the next operation");
    }
    store.apply_batch(&[put("d")]).unwrap();
    drop(store);

    let reopened = DurableKv::open_with_vfs(dyn_vfs, base)
        .unwrap_or_else(|e| panic!("the store no longer opens: {e}"));
    assert_eq!(contents(&reopened), model(&["a", "d"]));
}

#[test]
fn a_shorter_group_after_a_failed_wal_sync_reopens() {
    shorter_group_after_a_failed_sync(false);
}

#[test]
fn a_failed_trim_after_a_failed_wal_sync_is_retried() {
    shorter_group_after_a_failed_sync(true);
}
