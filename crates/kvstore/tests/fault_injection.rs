//! Fault-injection sweeps over the `DurableKv` I/O path: transient
//! errors, short writes and torn syncs injected at every mutating
//! filesystem operation of a recorded 500-op workload. All injected
//! faults are one-shot, so the contract under test is *retry once and
//! carry on*: the failed logical operation is re-issued, the workload
//! completes, and the final state must equal the reference model — no
//! acknowledged write may be lost and no unacknowledged write may
//! half-apply.
//!
//! Also covers at-rest bit rot: a flipped byte in a checksummed page
//! surfaces as `KvError::Corrupt` with page attribution, never as a
//! wrong answer.
//!
//! Debug builds stride the sweeps; the CI torture job runs them in
//! release with every boundary covered.

mod common;

use common::{apply_op, contents, models, workload};
use kvstore::{DiskKv, DurableKv, Fault, FaultVfs, KvStore, SurvivalMode, PHYS_PAGE_SIZE};
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
fn acknowledged_put_survives_an_immediate_power_cut() {
    let vfs = FaultVfs::new();
    let dyn_vfs = vfs.as_dyn();
    let base = Path::new("store");
    {
        let mut store = DurableKv::open_with_vfs(dyn_vfs.clone(), base).unwrap();
        store.put(b"acked", b"yes").unwrap();
        // The very next mutating operation is the cut: nothing after the
        // acknowledged put reaches the disk.
        vfs.set_fault(vfs.op_count(), Fault::PowerCut(SurvivalMode::LoseUnsynced));
        assert!(store.put(b"in-flight", b"lost").is_err());
    }
    vfs.power_cycle();
    let store = DurableKv::open_with_vfs(dyn_vfs, base).unwrap();
    assert_eq!(store.get(b"acked").unwrap().unwrap(), b"yes");
    assert_eq!(store.get(b"in-flight").unwrap(), None);
}

#[test]
fn short_written_put_is_rolled_back_not_half_applied() {
    let vfs = FaultVfs::new();
    let dyn_vfs = vfs.as_dyn();
    let base = Path::new("store");
    let mut store = DurableKv::open_with_vfs(dyn_vfs.clone(), base).unwrap();
    store.put(b"before", b"ok").unwrap();

    vfs.set_fault(vfs.op_count(), Fault::ShortWrite);
    assert!(store.put(b"torn", &[0xAB; 256]).is_err());

    // The store stays serviceable and the torn key was never applied.
    assert_eq!(store.get(b"torn").unwrap(), None);
    assert_eq!(store.get(b"before").unwrap().unwrap(), b"ok");
    store.put(b"after", b"ok").unwrap();
    drop(store);

    let store = DurableKv::open_with_vfs(dyn_vfs, base).unwrap();
    assert_eq!(store.get(b"torn").unwrap(), None);
    assert_eq!(store.get(b"before").unwrap().unwrap(), b"ok");
    assert_eq!(store.get(b"after").unwrap().unwrap(), b"ok");
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
