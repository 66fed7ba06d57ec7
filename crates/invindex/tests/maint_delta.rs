//! Per-commit differential test of maintenance: a commit indexes only
//! the records it drops and appends, and after **every** commit the store
//! and the reader must be what a from-scratch build of the corpus gives:
//!
//! * the store dump, minus `M/maint`, equals `persist` of
//!   `build_streaming(full_xml, 1)`;
//! * the reader's node types, symbols and node count, the document
//!   assembled from its chunks, its vocabulary and statistics equal the
//!   build's.
//!
//! The transactions are seeded and random, over a DBLP corpus: adds, a
//! remove of the last slot, a remove of the last few then an add, an add
//! removed again in the same transaction, removes from the middle and the
//! front (which drop every record after the slot and append the
//! survivors again), the corpus emptied to its root, compactions in
//! between, and hand-written fragments that bring new tags, new keywords,
//! attributes, entities and CDATA.

use datagen::{generate_dblp, DblpConfig};
use invindex::maint::{MaintIndex, MaintOp, MAINT_KEY};
use invindex::{build_streaming, persist};
use kvstore::{DiskKv, FaultVfs, KvStore, MemKv, Vfs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fragments written to reach the corners of the merge: a new tag (a new
/// symbol and node type), keywords found nowhere else, attributes,
/// entities, CDATA, mixed content, and one whose tokens all exist in the
/// corpus already.
const HAND_WRITTEN: [&str; 5] = [
    "<author><name>Zyx Quorblat</name><hobby>spelunking</hobby>\
     <gadget kind=\"orrery\">brass &amp; glass</gadget></author>",
    "<author id='a&lt;1&gt;'><name><![CDATA[ Ada <Lovelace> & co ]]></name>\
     <publications><inproceedings><title>caf&#xE9; &#83;emantics</title>\
     <year>1843</year></inproceedings></publications></author>",
    "<author><name>mixed</name>text around <b>bold</b> words\
     <note a=\"x\" b='y \"z\"'/></author>",
    "<author><name>author</name><publications><inproceedings><title>title year\
     </title><year>name</year></inproceedings></publications></author>",
    "<?xml version='1.0'?><!-- a comment --><curator><name>plain</name>\
     <?pi data?><shelf>  spaced   out  </shelf></curator>",
];

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

/// The fragments the transactions add: the author records of a second
/// DBLP corpus, then the hand-written ones.
fn fragment_pool() -> Vec<String> {
    let other = generate_dblp(&DblpConfig {
        authors: 24,
        seed: 0xF00D,
        ..DblpConfig::default()
    });
    let root = other.node(other.root());
    let mut pool: Vec<String> = root
        .children
        .iter()
        .map(|&c| other.subtree_to_xml(c))
        .collect();
    pool.extend(HAND_WRITTEN.iter().map(|f| f.to_string()));
    pool
}

fn seed_store(vfs: &Arc<dyn Vfs>, base: &Path) {
    let corpus = generate_dblp(&DblpConfig {
        authors: 40,
        ..DblpConfig::default()
    });
    let built = build_streaming(&corpus.to_xml(), 1).unwrap();
    let mut disk = DiskKv::open_with_vfs(vfs, &base.with_extension("db")).unwrap();
    persist::persist(&built, &mut disk).unwrap();
    disk.sync().unwrap();
}

/// The store and the reader equal a from-scratch build of the corpus.
fn assert_matches_a_build(maint: &MaintIndex, what: &str) {
    let reader = maint.snapshot();
    let mut live: BTreeMap<Vec<u8>, Vec<u8>> = reader.store_dump().unwrap().into_iter().collect();
    assert!(live.remove(MAINT_KEY).is_some(), "{what}: no M/maint");

    let built = build_streaming(&maint.full_xml(), 1).unwrap();
    let mut scratch = MemKv::new();
    persist::persist(&built, &mut scratch).unwrap();
    let fresh: BTreeMap<Vec<u8>, Vec<u8>> =
        scratch.scan_range(b"", None).unwrap().into_iter().collect();
    assert_eq!(live.len(), fresh.len(), "{what}: entry count differs");
    for ((ka, va), (kb, vb)) in live.iter().zip(&fresh) {
        assert_eq!(
            String::from_utf8_lossy(ka),
            String::from_utf8_lossy(kb),
            "{what}: key sequence diverges"
        );
        assert!(
            va == vb,
            "{what}: value differs at key {:?}",
            String::from_utf8_lossy(ka)
        );
    }

    let assembled = reader.read_document().unwrap();
    assert!(assembled == **built.document(), "{what}: document differs");
    assert!(
        reader.node_types() == built.document().node_types()
            && reader.symbols() == built.document().symbols()
            && reader.node_count() == built.document().len(),
        "{what}: the reader's type and symbol tables differ"
    );
    assert!(
        reader.vocabulary() == built.vocabulary(),
        "{what}: vocabulary differs"
    );
    assert!(reader.stats() == built.stats(), "{what}: statistics differ");
}

fn add(pool: &[String], rng: &mut XorShift) -> MaintOp {
    MaintOp::Add {
        fragment: pool[rng.below(pool.len() as u64) as usize].clone(),
    }
}

/// One seeded transaction over `records` records.
fn transaction(pool: &[String], rng: &mut XorShift, records: usize) -> Vec<MaintOp> {
    let last = |n: usize| MaintOp::Remove { slot: n - 1 };
    match rng.below(8) {
        0 => vec![add(pool, rng)],
        1 => (0..2 + rng.below(3)).map(|_| add(pool, rng)).collect(),
        2 if records > 0 => vec![last(records)],
        3 if records > 0 => {
            let k = 1 + rng.below(records.min(4) as u64) as usize;
            let mut ops: Vec<MaintOp> = (0..k).map(|i| last(records - i)).collect();
            ops.push(add(pool, rng));
            ops
        }
        // An add, and the remove of the slot it filled.
        4 => vec![add(pool, rng), MaintOp::Remove { slot: records }],
        // An add, then a remove of the last current record before it.
        5 if records > 0 => vec![add(pool, rng), last(records)],
        // A remove from the middle: every later record is appended again.
        6 if records > 0 => {
            let slot = rng.below(records as u64) as usize;
            vec![MaintOp::Remove { slot }, add(pool, rng)]
        }
        // The front record: the whole corpus is dropped and appended.
        7 if records > 0 => vec![MaintOp::Remove { slot: 0 }],
        _ => vec![add(pool, rng)],
    }
}

#[test]
fn every_commit_leaves_what_a_build_from_scratch_leaves() {
    let vfs = FaultVfs::new();
    let dynvfs = vfs.as_dyn();
    let base = PathBuf::from("/delta/store.db");
    seed_store(&dynvfs, &base);
    let mut maint = MaintIndex::open_with_vfs(Arc::clone(&dynvfs), &base).unwrap();
    let pool = fragment_pool();

    // Every hand-written fragment once, in one transaction each.
    for (i, fragment) in HAND_WRITTEN.iter().enumerate() {
        maint
            .commit(&[MaintOp::Add {
                fragment: fragment.to_string(),
            }])
            .unwrap();
        assert_matches_a_build(&maint, &format!("hand-written fragment {i}"));
    }

    let mut rng = XorShift(0xDE17_A5EE);
    for t in 0..60 {
        let records = maint.record_count();
        let ops = transaction(&pool, &mut rng, records);
        let report = maint.commit(&ops).unwrap();
        assert_eq!(report.records, maint.record_count(), "txn {t}");
        assert_matches_a_build(&maint, &format!("txn {t}: {ops:?}"));
        if t % 5 == 4 {
            maint.compact().unwrap();
            assert_matches_a_build(&maint, &format!("compaction after txn {t}"));
        }
    }

    // Down to the root alone, a few records a transaction, then back up.
    while maint.record_count() > 0 {
        let records = maint.record_count();
        let k = records.min(1 + rng.below(7) as usize);
        let ops: Vec<MaintOp> = (0..k)
            .map(|i| MaintOp::Remove {
                slot: records - 1 - i,
            })
            .collect();
        maint.commit(&ops).unwrap();
        assert_matches_a_build(&maint, &format!("emptying, {records} records left"));
    }
    for fragment in [&pool[0], &pool[pool.len() - 1]] {
        maint
            .commit(&[MaintOp::Add {
                fragment: fragment.clone(),
            }])
            .unwrap();
        assert_matches_a_build(&maint, "refilling the empty corpus");
    }
    maint.compact().unwrap();
    assert_matches_a_build(&maint, "compaction of the refilled corpus");
}
