//! Crash-recovery torture: replay a recorded 500-operation `DurableKv`
//! workload — atomic batches of 1–4 puts and deletes, the way
//! `MaintIndex` commits, and checkpoints — and cut power at *every*
//! injected I/O boundary, under each [`SurvivalMode`]. After each cut
//! the store is reopened and must hold exactly a consistent prefix of
//! the acknowledged history:
//!
//! * `model(acked)` — every acknowledged operation, nothing else; or
//! * `model(acked + 1)` — additionally the whole batch that was in
//!   flight when power died (never a part of it; an in-flight checkpoint
//!   must never change contents).
//!
//! Recovery must then be able to *continue*: re-issuing the remainder of
//! the workload (idempotent by construction), checkpointing, and
//! reopening must all land on the full-history state.
//!
//! Debug builds stride the sweep to keep `cargo test` responsive; the CI
//! torture job runs this in release, where every boundary is covered.

mod common;

use common::{apply_op, contents, models, workload};
use kvstore::{DurableKv, Fault, FaultVfs, SurvivalMode};
use std::path::Path;

const MODES: [SurvivalMode; 3] = [
    SurvivalMode::LoseUnsynced,
    SurvivalMode::KeepUnsynced,
    SurvivalMode::TornTail,
];

#[test]
fn power_cut_at_every_io_boundary_leaves_a_consistent_recoverable_prefix() {
    let ops = workload(500);
    assert!(ops.len() >= 500);
    let snapshots = models(&ops);
    let full = snapshots.last().unwrap();

    let stride: u64 = if cfg!(debug_assertions) { 7 } else { 1 };
    let base = Path::new("store");
    let mut cut: u64 = 0;
    let mut boundaries = 0u64;

    'sweep: loop {
        for mode in MODES {
            let vfs = FaultVfs::new();
            vfs.set_fault(cut, Fault::PowerCut(mode));
            let dyn_vfs = vfs.as_dyn();

            // Run the workload until the cut kills an operation (or the
            // whole workload survives, meaning the sweep is past the last
            // boundary).
            let mut acked = 0usize;
            let mut in_flight_mutation = false;
            if let Ok(mut store) = DurableKv::open_with_vfs(dyn_vfs.clone(), base) {
                for op in &ops {
                    match apply_op(&mut store, op) {
                        Ok(()) => acked += 1,
                        Err(_) => {
                            in_flight_mutation = op.is_mutation();
                            break;
                        }
                    }
                }
            }
            if !vfs.fault_fired() {
                assert_eq!(acked, ops.len(), "no fault, yet the workload failed");
                break 'sweep;
            }
            boundaries += 1;
            assert!(vfs.is_dead(), "a power cut must take the filesystem down");

            // Power comes back; recovery must see a consistent prefix.
            vfs.power_cycle();
            let store = DurableKv::open_with_vfs(dyn_vfs.clone(), base).unwrap_or_else(|e| {
                panic!("recovery open failed after cut at op {cut} ({mode:?}): {e}")
            });
            let recovered = contents(&store);
            let consistent = recovered == snapshots[acked]
                || (in_flight_mutation && recovered == snapshots[acked + 1]);
            assert!(
                consistent,
                "cut at op {cut} ({mode:?}): recovered {} keys, but the state matches \
                 neither model({acked}) nor the whole in-flight batch on top of it",
                recovered.len(),
            );

            // The survivor must be able to finish the job: re-issue the
            // rest of the history (a batch is idempotent — each key ends
            // at its last op — so the possibly-persisted in-flight batch
            // is harmless).
            let mut store = store;
            for (i, op) in ops.iter().enumerate().skip(acked) {
                apply_op(&mut store, op).unwrap_or_else(|e| {
                    panic!("cut at op {cut} ({mode:?}): replaying op {i} failed: {e}")
                });
            }
            store.checkpoint().unwrap_or_else(|e| {
                panic!("cut at op {cut} ({mode:?}): final checkpoint failed: {e}")
            });
            assert_eq!(
                &contents(&store),
                full,
                "cut at op {cut} ({mode:?}): continued history diverged"
            );
            drop(store);
            let reopened = DurableKv::open_with_vfs(dyn_vfs, base).unwrap();
            assert_eq!(
                &contents(&reopened),
                full,
                "cut at op {cut} ({mode:?}): reopen after continuation diverged"
            );
        }
        cut += stride;
    }
    assert!(
        boundaries >= 100,
        "sweep covered only {boundaries} boundaries — workload too small?"
    );
}
