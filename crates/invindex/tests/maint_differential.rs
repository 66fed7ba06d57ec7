//! Differential oracle for online maintenance: an incrementally updated
//! index must be indistinguishable from a from-scratch rebuild of the
//! same final corpus.
//!
//! The strongest form (and the one checked first) is **store byte
//! identity**: after any interleaved sequence of add/remove commits,
//! dumping the maintained `DurableKv` (minus its `M/maint` bookkeeping
//! key) must equal the persisted store of a from-scratch build of the
//! final corpus by both builders — the DOM oracle (`Index::build`),
//! which shares no code with the commit path, and `build_streaming` at
//! 1 and at 3 ingest threads. On top of that the pinned snapshot must
//! *answer* like an in-memory index built from the final document
//! (lists, stats, and co-occurrence counted here from the oracle's
//! lists), and a reopen of the store must restore
//! the exact same state.

use invindex::maint::{MaintIndex, MaintOp, MAINT_KEY};
use invindex::reader::typed_ancestors_in;
use invindex::{build_streaming, persist, Index};
use kvstore::{DiskKv, DurableKv, FaultVfs, KvStore, MemKv, Vfs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xmldom::parse_document;

const SEED_CORPUS: &str = "<bib>\
    <paper><title>xml keyword search</title><year>2003</year></paper>\
    <paper><title>effective query refinement</title><year>2009</year></paper>\
    <paper><title>stack based slca</title><year>2005</year></paper>\
    </bib>";

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

fn fragment(rng: &mut XorShift) -> String {
    const WORDS: &[&str] = &[
        "xml",
        "keyword",
        "query",
        "refinement",
        "index",
        "stack",
        "stream",
        "dewey",
        "slca",
        "ranking",
        "maintenance",
        "snapshot",
        "epoch",
        "compaction",
    ];
    let n = 2 + rng.below(4) as usize;
    let title: Vec<&str> = (0..n)
        .map(|_| WORDS[rng.below(WORDS.len() as u64) as usize])
        .collect();
    format!(
        "<paper><title>{}</title><year>{}</year></paper>",
        title.join(" "),
        1990 + rng.below(30)
    )
}

fn seed_store(vfs: &Arc<dyn Vfs>, base: &Path) {
    let built = build_streaming(SEED_CORPUS, 1).unwrap();
    let mut disk = DiskKv::open_with_vfs(vfs, &base.with_extension("db")).unwrap();
    persist::persist(&built, &mut disk).unwrap();
    disk.sync().unwrap();
}

/// Dump of the maintained durable store without its maintenance key.
fn maintained_dump(vfs: &Arc<dyn Vfs>, base: &Path) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let durable = DurableKv::open_with_vfs(Arc::clone(vfs), base).unwrap();
    let mut dump: BTreeMap<Vec<u8>, Vec<u8>> = durable
        .snapshot()
        .scan_range(b"", None)
        .unwrap()
        .into_iter()
        .collect();
    assert!(
        dump.remove(MAINT_KEY).is_some(),
        "maintained store lost its M/maint entry"
    );
    dump
}

/// Runs `txns` maintenance transactions (interleaving adds and removes,
/// compacting every few commits) and returns the final corpus XML.
fn run_workload(maint: &mut MaintIndex, rng: &mut XorShift, txns: usize) -> String {
    let mut live = maint.record_count();
    for t in 0..txns {
        let mut ops = Vec::new();
        for _ in 0..=rng.below(2) {
            // Bias toward adds so the corpus keeps material to delete,
            // but always interleave removes once records accumulate.
            if live > 1 && rng.below(3) == 0 {
                ops.push(MaintOp::Remove {
                    slot: rng.below(live as u64) as usize,
                });
                live -= 1;
            } else {
                ops.push(MaintOp::Add {
                    fragment: fragment(rng),
                });
                live += 1;
            }
        }
        let report = maint.commit(&ops).unwrap();
        assert_eq!(report.records, live, "txn {t}: record count drifted");
        if t % 4 == 3 {
            maint.compact().unwrap();
        }
    }
    maint.full_xml()
}

#[test]
fn maintained_store_is_byte_identical_to_scratch_rebuild_at_1_and_3_threads() {
    for seed in 0..4u64 {
        let vfs = FaultVfs::new();
        let dynvfs = vfs.as_dyn();
        let base = PathBuf::from("/diff/store.db");
        seed_store(&dynvfs, &base);

        let mut maint = MaintIndex::open_with_vfs(Arc::clone(&dynvfs), &base).unwrap();
        let mut rng = XorShift(0xD1FF_0000 + seed + 1);
        let final_xml = run_workload(&mut maint, &mut rng, 14);
        drop(maint);

        let live = maintained_dump(&dynvfs, &base);
        // The commit builds with `build_streaming`, so the DOM builder
        // is the reference that shares no code with the writer.
        let dom = Index::build(Arc::new(parse_document(&final_xml).unwrap()));
        let mut references = vec![("dom".to_string(), dom)];
        for threads in [1usize, 3] {
            let rebuilt = build_streaming(&final_xml, threads)
                .unwrap_or_else(|e| panic!("seed {seed}: streaming ({threads}t): {e}"));
            references.push((format!("stream {threads}t"), rebuilt));
        }
        for (name, rebuilt) in &references {
            let mut scratch = MemKv::new();
            persist::persist(rebuilt, &mut scratch).unwrap();
            let fresh: BTreeMap<Vec<u8>, Vec<u8>> =
                scratch.scan_range(b"", None).unwrap().into_iter().collect();
            assert_eq!(
                live.len(),
                fresh.len(),
                "seed {seed} ({name}): entry count differs"
            );
            for ((ka, va), (kb, vb)) in live.iter().zip(fresh.iter()) {
                assert_eq!(ka, kb, "seed {seed} ({name}): key sequence diverges");
                assert_eq!(
                    va,
                    vb,
                    "seed {seed} ({name}): value differs at key {:?}",
                    String::from_utf8_lossy(ka)
                );
            }
        }
    }
}

#[test]
fn snapshot_answers_like_an_in_memory_index_of_the_final_corpus() {
    let vfs = FaultVfs::new();
    let dynvfs = vfs.as_dyn();
    let base = PathBuf::from("/diff/store.db");
    seed_store(&dynvfs, &base);

    let mut maint = MaintIndex::open_with_vfs(Arc::clone(&dynvfs), &base).unwrap();
    let mut rng = XorShift(0xD1FF_CAFE);
    let final_xml = run_workload(&mut maint, &mut rng, 10);

    let doc = Arc::new(parse_document(&final_xml).unwrap());
    let oracle = Index::build(Arc::clone(&doc));
    let snap = maint.snapshot();

    assert_eq!(snap.vocabulary().len(), oracle.vocabulary().len());
    for (id, text) in oracle.vocabulary().iter() {
        let h = snap.list_handle(text).unwrap();
        assert_eq!(
            h.run_postings().flatten().cloned().collect::<Vec<_>>(),
            oracle.list(text).unwrap().as_slice(),
            "list mismatch for {text:?}"
        );
        // Per-type statistics drive ranking: compare for every type.
        for t in doc.node_types().iter() {
            assert_eq!(
                snap.stats().tf(t, id),
                oracle.stats().tf(t, id),
                "tf mismatch for {text:?}"
            );
        }
    }
    for t in doc.node_types().iter() {
        assert_eq!(snap.stats().n_nodes(t), oracle.stats().n_nodes(t));
    }
    // Co-occurrence agrees with f^T_{ki,kj} counted from the oracle's
    // lists: the sorted intersection of the two keywords' distinct
    // T-typed ancestors.
    let v = oracle.vocabulary();
    let words = ["xml", "keyword", "query", "2003", "paper"];
    for t in doc.node_types().iter() {
        let ancestors = |kw: &str| {
            oracle
                .list(kw)
                .map(|l| typed_ancestors_in(doc.node_types(), l.as_slice(), t))
                .unwrap_or_default()
        };
        for ki in words {
            for kj in words {
                let (Some(a), Some(b)) = (v.get(ki), v.get(kj)) else {
                    continue;
                };
                let bj = ancestors(kj);
                let expected = ancestors(ki)
                    .iter()
                    .filter(|d| bj.binary_search(d).is_ok())
                    .count() as u64;
                assert_eq!(snap.co_occur(t, a, b), expected, "f^{t:?}({ki}, {kj})");
            }
        }
    }
}

#[test]
fn reopen_restores_the_maintained_state_exactly() {
    let vfs = FaultVfs::new();
    let dynvfs = vfs.as_dyn();
    let base = PathBuf::from("/diff/store.db");
    seed_store(&dynvfs, &base);

    let (final_xml, seq, records) = {
        let mut maint = MaintIndex::open_with_vfs(Arc::clone(&dynvfs), &base).unwrap();
        let mut rng = XorShift(0x5EED_5EED);
        let xml = run_workload(&mut maint, &mut rng, 8);
        (xml, maint.seq(), maint.records())
    };

    let reopened = MaintIndex::open_with_vfs(Arc::clone(&dynvfs), &base).unwrap();
    assert_eq!(reopened.seq(), seq);
    assert_eq!(reopened.records(), records);
    assert_eq!(reopened.full_xml(), final_xml);

    // And the reopened snapshot serves the final corpus.
    let oracle = Index::build(Arc::new(parse_document(&final_xml).unwrap()));
    let snap = reopened.snapshot();
    for (_, text) in oracle.vocabulary().iter() {
        assert_eq!(
            (snap.list_handle(text).unwrap().run_postings().flatten())
                .cloned()
                .collect::<Vec<_>>(),
            oracle.list(text).unwrap().as_slice()
        );
    }
}
