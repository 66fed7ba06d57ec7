//! Property-based model test: the page-based B+-tree must behave exactly
//! like `std::collections::BTreeMap` under any interleaving of puts,
//! deletes, lookups and range scans.

use kvstore::{KvStore, MemKv, MemTreeKv};
use xcheck::prop::{check, Gen};

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    ScanPrefix(Vec<u8>),
    ScanRange(Vec<u8>, Option<Vec<u8>>),
}

fn key(g: &mut Gen) -> Vec<u8> {
    // Small alphabet so operations collide often.
    g.vec(0..6, |g| g.pick(b"abc"))
}

fn op(g: &mut Gen) -> Op {
    match g.range(0u32..5) {
        0 => Op::Put(key(g), g.vec(0..64, Gen::any::<u8>)),
        1 => Op::Delete(key(g)),
        2 => Op::Get(key(g)),
        3 => Op::ScanPrefix(key(g)),
        _ => Op::ScanRange(key(g), g.bool().then(|| key(g))),
    }
}

fn apply(ops: Vec<Op>) {
    let mut model = MemKv::new();
    let mut tree = MemTreeKv::new().unwrap();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                model.put(&k, &v).unwrap();
                tree.put(&k, &v).unwrap();
            }
            Op::Delete(k) => {
                assert_eq!(model.delete(&k).unwrap(), tree.delete(&k).unwrap());
            }
            Op::Get(k) => {
                assert_eq!(model.get(&k).unwrap(), tree.get(&k).unwrap());
            }
            Op::ScanPrefix(p) => {
                assert_eq!(
                    model.scan_prefix(&p).unwrap(),
                    tree.scan_prefix(&p).unwrap()
                );
            }
            Op::ScanRange(s, e) => {
                assert_eq!(
                    model.scan_range(&s, e.as_deref()).unwrap(),
                    tree.scan_range(&s, e.as_deref()).unwrap()
                );
            }
        }
        assert_eq!(model.len(), tree.len());
    }
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
    ]);
}

#[test]
fn btree_handles_bulk_then_scan() {
    check(64, |g| {
        let keys = g.btree_set(1..300, |g| g.vec(1..32, Gen::any::<u8>));
        let mut tree = MemTreeKv::new().unwrap();
        for (i, k) in keys.iter().enumerate() {
            tree.put(k, &i.to_le_bytes()).unwrap();
        }
        let scanned = tree.scan_range(&[], None).unwrap();
        assert_eq!(scanned.len(), keys.len());
        let scanned_keys: Vec<&[u8]> = scanned.iter().map(|(k, _)| k.as_slice()).collect();
        let model_keys: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        assert_eq!(scanned_keys, model_keys);
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

fn dump(store: &dyn KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    store.scan_range(&[], None).unwrap()
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
