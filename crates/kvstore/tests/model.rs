//! Property-based model tests: the tree-file store must behave exactly
//! like `std::collections::BTreeMap` under any interleaving of puts,
//! deletes, lookups, range scans, syncs and reopens — and the file a
//! sync writes must depend on the entries alone, never on the order of
//! the operations that produced them.

use kvstore::{DiskKv, FaultVfs, KvStore, MemKv, Vfs};
use std::path::Path;
use std::sync::Arc;
use xcheck::prop::{check, Gen};

const PATH: &str = "model.db";

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    ScanPrefix(Vec<u8>),
    ScanRange(Vec<u8>, Option<Vec<u8>>),
    Sync,
    Reopen,
}

fn key(g: &mut Gen) -> Vec<u8> {
    // Small alphabet so operations collide often.
    g.vec(0..6, |g| g.pick(b"abc"))
}

/// A value on either side of the inline/overflow boundary now and then.
fn value(g: &mut Gen) -> Vec<u8> {
    match g.weighted(&[12, 1]) {
        0 => g.vec(0..64, Gen::any::<u8>),
        _ => vec![g.any::<u8>(); g.range(1000usize..5000)],
    }
}

fn op(g: &mut Gen) -> Op {
    match g.weighted(&[5, 3, 3, 2, 2, 1, 1]) {
        0 => Op::Put(key(g), value(g)),
        1 => Op::Delete(key(g)),
        2 => Op::Get(key(g)),
        3 => Op::ScanPrefix(key(g)),
        4 => Op::ScanRange(key(g), g.bool().then(|| key(g))),
        5 => Op::Sync,
        _ => Op::Reopen,
    }
}

fn open(vfs: &Arc<dyn Vfs>) -> DiskKv {
    DiskKv::open_with_vfs(vfs, Path::new(PATH)).unwrap()
}

type Entries = Vec<(Vec<u8>, Vec<u8>)>;

fn dump(store: &dyn KvStore) -> Entries {
    store.scan_range(&[], None).unwrap()
}

/// Runs `ops` against a `DiskKv` over a fresh `FaultVfs` and the model.
/// A reopen drops what the store had not synced, so the model falls back
/// to its state at the last sync.
fn apply(ops: Vec<Op>) {
    let vfs = FaultVfs::new().as_dyn();
    let mut model = MemKv::new();
    let mut synced = MemKv::new();
    let mut store = open(&vfs);
    for op in ops {
        match op {
            Op::Put(k, v) => {
                model.put(&k, &v).unwrap();
                store.put(&k, &v).unwrap();
            }
            Op::Delete(k) => {
                assert_eq!(model.delete(&k).unwrap(), store.delete(&k).unwrap());
            }
            Op::Get(k) => {
                assert_eq!(model.get(&k).unwrap(), store.get(&k).unwrap());
            }
            Op::ScanPrefix(p) => {
                assert_eq!(
                    model.scan_prefix(&p).unwrap(),
                    store.scan_prefix(&p).unwrap()
                );
            }
            Op::ScanRange(s, e) => {
                assert_eq!(
                    model.scan_range(&s, e.as_deref()).unwrap(),
                    store.scan_range(&s, e.as_deref()).unwrap()
                );
            }
            Op::Sync => {
                store.sync().unwrap();
                synced = MemKv::new();
                for (k, v) in dump(&model) {
                    synced.put(&k, &v).unwrap();
                }
            }
            Op::Reopen => {
                drop(store);
                store = open(&vfs);
                model = MemKv::new();
                for (k, v) in dump(&synced) {
                    model.put(&k, &v).unwrap();
                }
            }
        }
        assert_eq!(model.len(), store.len());
    }
    assert_eq!(dump(&model), dump(&store));
}

#[test]
fn btree_matches_btreemap_model() {
    check(64, |g| apply(g.vec(1..200, op)));
}

/// The case the retired proptest regression file pinned: a range scan
/// whose end bound (empty) sorts before its start.
#[test]
fn btree_matches_model_on_an_inverted_scan_range() {
    apply(vec![
        Op::Put(vec![], vec![]),
        Op::ScanRange(vec![b'a'], Some(vec![])),
        Op::Sync,
        Op::ScanRange(vec![b'a'], Some(vec![])),
    ]);
}

#[test]
fn btree_handles_bulk_then_scan() {
    check(64, |g| {
        let keys = g.btree_set(1..300, |g| g.vec(1..32, Gen::any::<u8>));
        let vfs = FaultVfs::new().as_dyn();
        let mut store = open(&vfs);
        for (i, k) in keys.iter().enumerate() {
            store.put(k, &i.to_le_bytes()).unwrap();
        }
        store.sync().unwrap();
        let store = open(&vfs);
        let scanned = store.scan_range(&[], None).unwrap();
        assert_eq!(scanned.len(), keys.len());
        let scanned_keys: Vec<&[u8]> = scanned.iter().map(|(k, _)| k.as_slice()).collect();
        let model_keys: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        assert_eq!(scanned_keys, model_keys);
    });
}

/// The `.db` bytes after a final sync of `ops`, and the entries they hold.
fn final_file(ops: &[Op]) -> (Vec<u8>, Entries) {
    let vfs = FaultVfs::new();
    let dyn_vfs = vfs.as_dyn();
    let mut store = open(&dyn_vfs);
    for op in ops {
        match op {
            Op::Put(k, v) => store.put(k, v).unwrap(),
            Op::Delete(k) => {
                store.delete(k).unwrap();
            }
            Op::Sync => store.sync().unwrap(),
            _ => {}
        }
    }
    store.sync().unwrap();
    (vfs.read_file(Path::new(PATH)).unwrap(), dump(&store))
}

/// A tree file is a pure function of its entries: a store that reaches
/// the same entries through another order of puts, overwrites, deletes
/// and syncs writes the same bytes. (A tree updated in place does not —
/// its split points follow the insertion order.)
#[test]
fn the_same_entries_write_the_same_file_whatever_the_op_order() {
    check(48, |g| {
        let first: Vec<Op> = g.vec(0..120, |g| match g.weighted(&[6, 3, 1]) {
            0 => Op::Put(key(g), value(g)),
            1 => Op::Delete(key(g)),
            _ => Op::Sync,
        });
        let (bytes, entries) = final_file(&first);

        // Another route to `entries`: decoys put and deleted, every
        // surviving key written in reverse order — first with a wrong
        // value, then overwritten — with syncs at random points.
        let mut second = Vec::new();
        for _ in 0..g.range(0usize..8) {
            let decoy = [b"zz".as_slice(), &key(g)].concat();
            second.push(Op::Put(decoy.clone(), value(g)));
            if g.bool() {
                second.push(Op::Sync);
            }
            second.push(Op::Delete(decoy));
        }
        for (k, v) in entries.iter().rev() {
            second.push(Op::Put(k.clone(), value(g)));
            if g.weighted(&[5, 1]) == 1 {
                second.push(Op::Sync);
            }
            second.push(Op::Put(k.clone(), v.clone()));
        }
        let (other_bytes, other_entries) = final_file(&second);
        assert_eq!(other_entries, entries);
        assert!(other_bytes == bytes, "same entries, different tree files");
    });
}

#[derive(Debug, Clone)]
enum DurableOp {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Checkpoint,
    Reopen,
}

fn durable_op(g: &mut Gen) -> DurableOp {
    match g.weighted(&[4, 2, 1, 1]) {
        0 => DurableOp::Put(key(g), g.vec(0..32, Gen::any::<u8>)),
        1 => DurableOp::Delete(key(g)),
        2 => DurableOp::Checkpoint,
        _ => DurableOp::Reopen,
    }
}

/// `DurableKv` against the `BTreeMap` model, with `DurableKv::snapshot`
/// as a second subject: the view taken after every op equals the model,
/// and a view taken a few ops earlier keeps equalling the model as it
/// was then, whatever puts, deletes, checkpoints and reopens follow —
/// the isolation `invindex::MaintIndex`'s pinned readers rely on.
#[test]
fn durable_store_matches_model_across_reopens() {
    use kvstore::DurableKv;
    check(24, |g| {
        let ops = g.vec(1..60, durable_op);
        let case_id: u64 = g.any();
        let dir = std::env::temp_dir().join(format!("durable_prop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join(format!("case_{case_id}"));
        let _ = std::fs::remove_file(base.with_extension("db"));
        let _ = std::fs::remove_file(base.with_extension("wal"));

        let mut model = MemKv::new();
        let mut store = DurableKv::open(&base).unwrap();
        // (snapshot, the model's dump when it was taken), a few ops old.
        let mut pinned = std::collections::VecDeque::new();
        for op in ops {
            match op {
                DurableOp::Put(k, v) => {
                    model.put(&k, &v).unwrap();
                    store.put(&k, &v).unwrap();
                }
                DurableOp::Delete(k) => {
                    assert_eq!(model.delete(&k).unwrap(), store.delete(&k).unwrap());
                }
                DurableOp::Checkpoint => store.checkpoint().unwrap(),
                DurableOp::Reopen => {
                    drop(store);
                    store = DurableKv::open(&base).unwrap();
                }
            }
            assert_eq!(model.len(), store.len());
            let snap = store.snapshot();
            assert_eq!(dump(&snap), dump(&model));
            assert_eq!(snap.len(), model.len());
            pinned.push_back((snap, dump(&model)));
            if pinned.len() > 4 {
                pinned.pop_front();
            }
            for (old, then) in &pinned {
                assert_eq!(&dump(old), then, "a pinned snapshot moved");
                assert_eq!(old.len(), then.len() as u64);
            }
        }
        // final full-state comparison (after one more recovery)
        drop(store);
        let store = DurableKv::open(&base).unwrap();
        assert_eq!(dump(&model), dump(&store));
        for (old, then) in &pinned {
            assert_eq!(&dump(old), then, "a pinned snapshot moved");
        }
        let _ = std::fs::remove_file(base.with_extension("db"));
        let _ = std::fs::remove_file(base.with_extension("wal"));
    });
}
