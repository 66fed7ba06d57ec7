//! Shared workload machinery for the fault-injection and crash-recovery
//! torture tests: a deterministic workload of `DurableKv` batches and
//! checkpoints — the two writes the store has — its reference model,
//! and helpers to replay it against a store.
#![allow(
    dead_code,
    reason = "each test binary that includes this module uses a different part of it"
)]

use kvstore::{BatchOp, DurableKv, KvStore};
use std::collections::BTreeMap;

/// One logical store operation of the recorded workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Batch(Vec<BatchOp>),
    Checkpoint,
}

impl Op {
    /// True for operations that change the logical contents. A power cut
    /// during a batch may legitimately persist it whole (its group
    /// reached the platter) or not at all; a checkpoint in flight must
    /// never change what the store contains.
    pub fn is_mutation(&self) -> bool {
        matches!(self, Op::Batch(_))
    }
}

/// xorshift64 — the workspace has no RNG dependency, and the workload
/// must be identical on every run for the sweep to mean anything.
pub struct XorShift(pub u64);

impl XorShift {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A deterministic `n`-operation workload: batches of 1–4 ops over a
/// 48-key pool (~25% deletes, the rest puts, so a batch may touch one
/// key twice), every 16th put value 2-3 KiB so checkpoints also
/// exercise overflow pages, and a checkpoint every 150 operations.
pub fn workload(n: usize) -> Vec<Op> {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut puts = 0usize;
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && i % 150 == 0 {
            ops.push(Op::Checkpoint);
            continue;
        }
        let size = 1 + rng.next() % 4;
        let batch = (0..size)
            .map(|_| {
                let r = rng.next();
                let key = format!("k{:02}", r % 48).into_bytes();
                if r % 100 < 25 {
                    return BatchOp::Delete(key);
                }
                puts += 1;
                let len = if puts % 16 == 5 {
                    2048 + ((r >> 8) % 1024) as usize
                } else {
                    8 + ((r >> 8) % 24) as usize
                };
                BatchOp::Put(key, vec![(r >> 16) as u8; len])
            })
            .collect();
        ops.push(Op::Batch(batch));
    }
    ops
}

/// Logical store contents.
pub type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// `models(ops)[i]` = the contents after exactly the first `i` operations.
pub fn models(ops: &[Op]) -> Vec<Model> {
    let mut snapshots = Vec::with_capacity(ops.len() + 1);
    let mut state = Model::new();
    snapshots.push(state.clone());
    for op in ops {
        if let Op::Batch(batch) = op {
            for op in batch {
                match op {
                    BatchOp::Put(k, v) => {
                        state.insert(k.clone(), v.clone());
                    }
                    BatchOp::Delete(k) => {
                        state.remove(k);
                    }
                }
            }
        }
        snapshots.push(state.clone());
    }
    snapshots
}

/// Applies one workload operation to a live store.
pub fn apply_op(store: &mut DurableKv, op: &Op) -> kvstore::Result<()> {
    match op {
        Op::Batch(batch) => store.apply_batch(batch),
        Op::Checkpoint => store.checkpoint(),
    }
}

/// Full contents of a store, for comparison against a [`Model`]. Also
/// checks the view's live-entry count against them.
pub fn contents(store: &DurableKv) -> Model {
    let view = store.snapshot();
    let model: Model = view
        .scan_range(b"", None)
        .expect("scan of a recovered store")
        .into_iter()
        .collect();
    assert_eq!(
        view.len(),
        model.len() as u64,
        "live count disagrees with contents"
    );
    model
}
