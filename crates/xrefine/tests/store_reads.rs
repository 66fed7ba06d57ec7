//! What the query path reads of the document, by key. Over `bench_e2e`'s
//! corpus_s (300 authors) and its 280-query pool, through a store that
//! counts every key it is asked for: `KvBackedIndex::open` and every
//! pool query answered through `answer_query` read `D/types` and no
//! record's chunk (`D/<ordinal>`), and scan no `D/` range. Rendering a
//! result reads the one chunk its label falls in.
//!
//! The commit side (an add puts one chunk, a remove of the last slot
//! deletes one, neither reads a chunk it keeps) is pinned in
//! `invindex::maint`'s unit tests.

use datagen::{generate_dblp, generate_workload, DblpConfig, WorkloadConfig};
use invindex::{build_streaming, persist, KvBackedIndex};
use kvstore::{KvStore, MemKv, Result};
use std::sync::{Arc, Mutex};
use xrefine::{EngineConfig, Query, XRefineEngine};

/// `bench_e2e`'s frozen corpus and pool seeds.
const CORPUS_SEED: u64 = 0xD8B1;
const POOL_SEED: u64 = 0x9E37_79B9;

/// The keys a [`Counting`] store was asked for: point reads, and the
/// starts of range and prefix scans.
#[derive(Default)]
struct Reads {
    gets: Vec<Vec<u8>>,
    scans: Vec<Vec<u8>>,
}

impl Reads {
    /// Point reads of `D/` keys other than `D/types`.
    fn chunk_gets(&self) -> Vec<String> {
        (self.gets.iter())
            .filter(|k| k.starts_with(b"D/") && k.as_slice() != b"D/types")
            .map(|k| format!("{k:?}"))
            .collect()
    }

    /// Scans that can reach a `D/` key.
    fn document_scans(&self) -> Vec<String> {
        (self.scans.iter())
            .filter(|start| b"D/".starts_with(start) || start.starts_with(b"D/"))
            .map(|k| format!("{k:?}"))
            .collect()
    }
}

/// A store that records every key it is asked for.
struct Counting {
    inner: MemKv,
    reads: Arc<Mutex<Reads>>,
}

impl KvStore for Counting {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.reads.lock().unwrap().gets.push(key.to_vec());
        self.inner.get(key)
    }
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.inner.put(key, value)
    }
    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        self.inner.delete(key)
    }
    fn contains(&self, key: &[u8]) -> Result<bool> {
        self.reads.lock().unwrap().gets.push(key.to_vec());
        self.inner.contains(key)
    }
    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.reads.lock().unwrap().scans.push(start.to_vec());
        self.inner.scan_range(start, end)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.reads.lock().unwrap().scans.push(prefix.to_vec());
        self.inner.scan_prefix(prefix)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
}

#[test]
fn open_and_the_query_pool_read_no_record_chunk() {
    let doc = generate_dblp(&DblpConfig {
        authors: 300,
        seed: CORPUS_SEED,
        ..Default::default()
    });
    let pool = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 40,
            seed: POOL_SEED,
            ..Default::default()
        },
    );
    assert_eq!(pool.len(), 280);
    let mut inner = MemKv::new();
    persist::persist(&build_streaming(&doc.to_xml(), 1).unwrap(), &mut inner).unwrap();
    let reads = Arc::new(Mutex::new(Reads::default()));
    let store = Counting {
        inner,
        reads: Arc::clone(&reads),
    };

    let reader = KvBackedIndex::open(Box::new(store)).unwrap();
    {
        let opened = reads.lock().unwrap();
        let types = opened.gets.iter().filter(|k| k.as_slice() == b"D/types");
        assert_eq!(types.count(), 1, "open reads D/types once");
        assert_eq!(opened.chunk_gets(), Vec::<String>::new(), "open");
        assert_eq!(opened.document_scans(), Vec::<String>::new(), "open");
    }
    assert_eq!(reader.record_count(), 300);
    assert_eq!(reader.node_count(), doc.len());

    let engine = XRefineEngine::from_reader(Arc::new(reader), EngineConfig::default());
    let mut answered = 0;
    for q in &pool {
        let outcome = engine
            .answer_query(Query::from_keywords(q.keywords.iter().cloned()))
            .expect("a healthy store answers");
        answered += usize::from(outcome.best().is_some());
    }
    assert!(answered > 0, "no pool query had an answer");
    {
        let after = reads.lock().unwrap();
        assert_eq!(after.chunk_gets(), Vec::<String>::new(), "the query pool");
        assert_eq!(
            after.document_scans(),
            Vec::<String>::new(),
            "the query pool"
        );
    }

    // Rendering a result below the root reads its record's chunk alone.
    let label: xmldom::Dewey = "0.7.1".parse().unwrap();
    let xml = engine.render(&label).unwrap().expect("0.7.1 names a node");
    let doc_record = doc.node_by_dewey(&label).unwrap();
    assert_eq!(xml, doc.subtree_to_xml(doc_record));
    let rendered = reads.lock().unwrap();
    assert_eq!(
        rendered.chunk_gets(),
        [format!("{:?}", persist_key(7))],
        "render"
    );
}

/// The `D/` key of record `ordinal`: `D/` and the ordinal, 4 bytes big
/// endian.
fn persist_key(ordinal: u32) -> Vec<u8> {
    [b"D/".as_slice(), &ordinal.to_be_bytes()].concat()
}
