//! Crash-torture for the updating store: a mixed read/update/compact
//! workload with a power cut at **every mutating I/O boundary**, under
//! all three [`SurvivalMode`]s.
//!
//! Protocol per cut position and mode:
//!
//! 1. replay the deterministic plan fault-free once, recording the
//!    merged store dump after every committed transaction (`dumps[s]`);
//! 2. rebuild the same filesystem, arm a power cut at the boundary,
//!    rerun the plan until the filesystem dies, noting how many commits
//!    were acknowledged (`A`);
//! 3. restore power, reopen the store (WAL recovery) and assert
//!    **committed-prefix consistency**: the recovered maintenance
//!    sequence `s` is `A` or `A + 1` (a cut can land after the commit
//!    record hit the log but before the call returned) and the merged
//!    dump is byte-identical to `dumps[s]` — never a torn mixture;
//! 4. assert **recovery continues to completion**: re-issue the rest of
//!    the plan from commit `s + 1` and end byte-identical to the
//!    fault-free final state.
//!
//! The plan holds 500+ logical operations (reads dominate, ~60 commits,
//! periodic compactions). Debug builds stride the cut sweep to keep
//! tier-1 fast; the `maintenance` suite and CI run the full sweep in
//! release (`MAINT_TORTURE_STRIDE=1`).
//!
//! The seed persists at the *current* format version, so since v4 the
//! whole sweep tortures a **compressed** store: every recovery dump
//! byte-compare covers blocked posting lists, the DAG document blob and
//! the packed stat tables (`seed_store` asserts the version to keep
//! this guarantee visible).

use invindex::maint::{MaintIndex, MaintOp};
use invindex::{build_streaming, persist};
use kvstore::{DiskKv, Fault, FaultVfs, KvStore, SurvivalMode, Vfs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEED_CORPUS: &str = "<bib>\
    <paper><title>xml keyword search</title></paper>\
    <paper><title>query refinement ranking</title></paper>\
    </bib>";

const READ_POOL: &[&str] = &["xml", "keyword", "query", "stack", "epoch", "absent"];

#[derive(Debug, Clone)]
enum PlanOp {
    Commit(Vec<MaintOp>),
    Compact,
    Read(usize),
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Deterministic mixed workload: 500+ logical ops, ~60 commits with
/// interleaved removes, a compaction every 10 commits, reads between.
/// Remove slots are validated against the simulated record count so the
/// plan replays cleanly from any committed prefix.
fn build_plan() -> Vec<PlanOp> {
    const WORDS: &[&str] = &[
        "xml", "keyword", "query", "stack", "epoch", "wal", "torture",
    ];
    let mut rng = XorShift(0x70CC_0001);
    let mut plan = Vec::new();
    let mut live = 2usize; // records in SEED_CORPUS
    let mut commits = 0usize;
    while commits < 60 {
        for _ in 0..(3 + rng.below(10)) {
            plan.push(PlanOp::Read(rng.below(READ_POOL.len() as u64) as usize));
        }
        let mut ops = Vec::new();
        if live > 1 && rng.below(3) == 0 {
            ops.push(MaintOp::Remove {
                slot: rng.below(live as u64) as usize,
            });
            live -= 1;
        } else {
            let a = WORDS[rng.below(WORDS.len() as u64) as usize];
            let b = WORDS[rng.below(WORDS.len() as u64) as usize];
            ops.push(MaintOp::Add {
                fragment: format!("<paper><title>{a} {b}</title></paper>"),
            });
            live += 1;
        }
        plan.push(PlanOp::Commit(ops));
        commits += 1;
        if commits.is_multiple_of(10) {
            plan.push(PlanOp::Compact);
        }
    }
    assert!(plan.len() >= 500, "plan too small: {} ops", plan.len());
    plan
}

fn seed_store(vfs: &Arc<dyn Vfs>, base: &Path) {
    let built = build_streaming(SEED_CORPUS, 1).unwrap();
    let mut disk = DiskKv::open_with_vfs(vfs, &base.with_extension("db")).unwrap();
    persist::persist(&built, &mut disk).unwrap();
    disk.sync().unwrap();
    // The sweep must exercise the current format.
    assert_eq!(
        disk.get(b"M/version").unwrap().as_deref(),
        Some([persist::FORMAT_VERSION as u8].as_slice()),
        "torture seed is not a current-format store"
    );
}

/// Merged store dump through the current snapshot (pure reads: takes no
/// mutating vfs ops, so it never perturbs the cut alignment).
fn dump(maint: &MaintIndex) -> BTreeMap<Vec<u8>, Vec<u8>> {
    maint
        .snapshot()
        .store_dump()
        .expect("snapshot dump")
        .into_iter()
        .collect()
}

/// Runs the plan to completion (no faults expected). Returns the dump
/// after every commit, keyed by maintenance sequence.
fn reference_run(
    maint: &mut MaintIndex,
    plan: &[PlanOp],
) -> BTreeMap<u64, BTreeMap<Vec<u8>, Vec<u8>>> {
    let mut dumps = BTreeMap::new();
    dumps.insert(maint.seq(), dump(maint));
    for op in plan {
        match op {
            PlanOp::Commit(ops) => {
                let r = maint.commit(ops).expect("fault-free commit");
                dumps.insert(r.seq, dump(maint));
            }
            PlanOp::Compact => {
                maint.compact().expect("fault-free compact");
            }
            PlanOp::Read(i) => {
                let h = maint
                    .snapshot()
                    .list_handle(READ_POOL[*i])
                    .expect("fault-free read");
                drop(h);
            }
        }
    }
    dumps
}

/// Runs the plan until the filesystem dies. Returns acknowledged
/// commits; panics on any error while the filesystem is still up.
fn run_until_dead(vfs: &FaultVfs, maint: &mut MaintIndex, plan: &[PlanOp]) -> u64 {
    let mut acked = maint.seq();
    for op in plan {
        let failed = match op {
            PlanOp::Commit(ops) => match maint.commit(ops) {
                Ok(r) => {
                    acked = r.seq;
                    false
                }
                Err(_) => true,
            },
            PlanOp::Compact => maint.compact().is_err(),
            PlanOp::Read(i) => maint.snapshot().list_handle(READ_POOL[*i]).is_err(),
        };
        if failed {
            assert!(
                vfs.is_dead(),
                "operation failed while the filesystem was up"
            );
            return acked;
        }
    }
    acked
}

/// Re-issues the plan from after the `recovered`-th commit and asserts
/// the final state matches the fault-free final dump.
fn finish_plan(
    maint: &mut MaintIndex,
    plan: &[PlanOp],
    recovered: u64,
    final_dump: &BTreeMap<Vec<u8>, Vec<u8>>,
) {
    let mut commit_no = 0u64;
    for op in plan {
        match op {
            PlanOp::Commit(ops) => {
                commit_no += 1;
                if commit_no <= recovered {
                    continue;
                }
                maint.commit(ops).expect("catch-up commit");
            }
            PlanOp::Compact => {
                if commit_no >= recovered {
                    maint.compact().expect("catch-up compact");
                }
            }
            PlanOp::Read(i) => {
                if commit_no >= recovered {
                    let _ = maint
                        .snapshot()
                        .list_handle(READ_POOL[*i])
                        .expect("catch-up read");
                }
            }
        }
    }
    assert_eq!(&dump(maint), final_dump, "catch-up diverged from reference");
}

fn stride() -> u64 {
    if let Ok(s) = std::env::var("MAINT_TORTURE_STRIDE") {
        return s.parse().expect("MAINT_TORTURE_STRIDE must be a number");
    }
    if cfg!(debug_assertions) {
        17
    } else {
        1
    }
}

#[test]
fn power_cut_at_every_io_boundary_recovers_to_a_committed_prefix() {
    let plan = build_plan();
    let base = PathBuf::from("/torture/store.db");

    // Fault-free reference pass: per-commit dumps + the op-count window.
    let vfs = FaultVfs::new();
    let dynvfs = vfs.as_dyn();
    seed_store(&dynvfs, &base);
    let setup_ops = vfs.op_count();
    let mut maint = MaintIndex::open_with_vfs(Arc::clone(&dynvfs), &base).unwrap();
    let dumps = reference_run(&mut maint, &plan);
    let total_ops = vfs.op_count();
    drop(maint);
    let last_seq = *dumps.keys().next_back().unwrap();
    let final_dump = &dumps[&last_seq];
    assert!(total_ops > setup_ops + 100, "workload too quiet to torture");

    let mut boundaries_cut = 0u64;
    for mode in [
        SurvivalMode::LoseUnsynced,
        SurvivalMode::KeepUnsynced,
        SurvivalMode::TornTail,
    ] {
        let mut cut = setup_ops;
        while cut < total_ops {
            // Fresh filesystem, identical seeding, cut armed at `cut`.
            let vfs = FaultVfs::new();
            let dynvfs = vfs.as_dyn();
            seed_store(&dynvfs, &base);
            assert_eq!(vfs.op_count(), setup_ops, "seeding drifted");
            vfs.set_fault(cut, Fault::PowerCut(mode));

            let acked = match MaintIndex::open_with_vfs(Arc::clone(&dynvfs), &base) {
                Ok(mut maint) => run_until_dead(&vfs, &mut maint, &plan),
                Err(_) => {
                    assert!(vfs.is_dead(), "open failed while the filesystem was up");
                    0
                }
            };
            assert!(vfs.fault_fired(), "cut {cut} ({mode:?}): fault never fired");
            vfs.power_cycle();

            // Committed-prefix consistency.
            let mut maint = MaintIndex::open_with_vfs(Arc::clone(&dynvfs), &base)
                .unwrap_or_else(|e| panic!("cut {cut} ({mode:?}): recovery failed: {e}"));
            let recovered = maint.seq();
            assert!(
                recovered == acked || recovered == acked + 1,
                "cut {cut} ({mode:?}): recovered seq {recovered}, acked {acked}"
            );
            let got = dump(&maint);
            assert_eq!(
                &got, &dumps[&recovered],
                "cut {cut} ({mode:?}): recovered state is not the committed prefix {recovered}"
            );

            // Recovery continues to completion.
            finish_plan(&mut maint, &plan, recovered, final_dump);

            boundaries_cut += 1;
            cut += stride();
        }
    }
    assert!(boundaries_cut >= 3, "sweep never cut anything");
}
