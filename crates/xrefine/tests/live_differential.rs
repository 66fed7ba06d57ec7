//! Engine-level differential oracle for online maintenance: a
//! [`LiveEngine`] that reached its corpus through incremental commits
//! must answer every query **identically** to an engine built from
//! scratch over the same final document — outcomes compared by their
//! full `Debug` rendering (refinements, scores, SLCAs, scan counters).

use kvstore::{DiskKv, FaultVfs, KvStore, Vfs};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xrefine::{EngineConfig, LiveEngine, XRefineEngine};

use invindex::maint::MaintOp;
use invindex::{build_streaming, persist};

const SEED_CORPUS: &str = "<bib>\
    <paper><title>xml keyword search</title><year>2003</year></paper>\
    <paper><title>effective query refinement</title><year>2009</year></paper>\
    <paper><title>stack based slca computation</title><year>2005</year></paper>\
    </bib>";

const QUERIES: &[&str] = &[
    "xml keyword",
    "query refinement",
    "stack slca",
    "xml ranking",
    "snapshot epoch",
    "keyword maintenance",
    "xml query stack",
    "absentword",
];

fn seed(vfs: &Arc<dyn Vfs>, base: &Path) {
    let built = build_streaming(SEED_CORPUS, 1).unwrap();
    let mut disk = DiskKv::open_with_vfs(vfs, &base.with_extension("db")).unwrap();
    persist::persist(&built, &mut disk).unwrap();
    disk.sync().unwrap();
}

#[test]
fn incrementally_updated_engine_answers_like_a_scratch_engine() {
    let vfs = FaultVfs::new().as_dyn();
    let base = PathBuf::from("/live-diff/store.db");
    seed(&vfs, &base);

    let live = LiveEngine::open_with_vfs(Arc::clone(&vfs), &base, EngineConfig::default()).unwrap();

    // A maintenance history with adds, an interleaved remove and a
    // compaction mid-stream.
    live.update(&[MaintOp::Add {
        fragment: "<paper><title>snapshot epoch handoff</title><year>2024</year></paper>".into(),
    }])
    .unwrap();
    live.update(&[
        MaintOp::Add {
            fragment: "<paper><title>keyword maintenance ranking</title><year>2025</year></paper>"
                .into(),
        },
        MaintOp::Remove { slot: 1 },
    ])
    .unwrap();
    live.compact().unwrap();
    live.update(&[MaintOp::Add {
        fragment: "<paper><title>xml snapshot ranking</title><year>2026</year></paper>".into(),
    }])
    .unwrap();

    let final_xml = live.maint().full_xml();
    let scratch = XRefineEngine::from_xml(&final_xml, EngineConfig::default()).unwrap();
    let engine = live.engine();

    for q in QUERIES {
        let got = engine.answer_detailed(q);
        let want = scratch.answer_detailed(q);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "outcome diverged for query {q:?}"
        );
    }
}

#[test]
fn reopened_live_engine_still_matches_the_scratch_engine() {
    let vfs = FaultVfs::new().as_dyn();
    let base = PathBuf::from("/live-diff/store.db");
    seed(&vfs, &base);

    let final_xml = {
        let live =
            LiveEngine::open_with_vfs(Arc::clone(&vfs), &base, EngineConfig::default()).unwrap();
        live.update(&[MaintOp::Add {
            fragment: "<paper><title>durable reopen check</title></paper>".into(),
        }])
        .unwrap();
        live.update(&[MaintOp::Remove { slot: 0 }]).unwrap();
        let xml = live.maint().full_xml();
        xml
    };

    let live = LiveEngine::open_with_vfs(Arc::clone(&vfs), &base, EngineConfig::default()).unwrap();
    assert_eq!(live.maint().full_xml(), final_xml);
    let scratch = XRefineEngine::from_xml(&final_xml, EngineConfig::default()).unwrap();
    let engine = live.engine();
    for q in QUERIES {
        assert_eq!(
            format!("{:?}", engine.answer_detailed(q)),
            format!("{:?}", scratch.answer_detailed(q)),
            "reopened outcome diverged for query {q:?}"
        );
    }
}

/// `Document::node_by_dewey` resolves exactly the labels `doc` holds.
fn assert_lookup_is_exact(doc: &xmldom::Document) {
    let mut nothing: Vec<xmldom::Dewey> = vec!["1".parse().unwrap()];
    for (id, n) in doc.nodes() {
        assert_eq!(doc.node_by_dewey(&n.dewey), Some(id), "{}", n.dewey);
        // one past the last child; for a leaf, one level below it
        nothing.push(n.dewey.child(n.children.len() as u32));
    }
    for label in nothing {
        assert_eq!(doc.node_by_dewey(&label), None, "{label}");
    }
}

#[test]
fn node_lookup_is_exact_on_stored_and_live_documents() {
    let vfs = FaultVfs::new().as_dyn();
    let base = PathBuf::from("/live-diff/store.db");
    seed(&vfs, &base);

    // A document decoded from a v4 store's `D/doc` record.
    let stored = XRefineEngine::from_store_with_vfs(&vfs, &base, EngineConfig::default()).unwrap();
    assert_eq!(stored.document().len(), 10);
    assert_lookup_is_exact(stored.document());

    // The live engine's document after a remove shifted later siblings:
    // what was `0.2` is `0.1` now, and `0.2` names nothing.
    let live = LiveEngine::open_with_vfs(Arc::clone(&vfs), &base, EngineConfig::default()).unwrap();
    live.update(&[MaintOp::Remove { slot: 1 }]).unwrap();
    let engine = live.engine();
    let doc = engine.document();
    assert_eq!(doc.len(), 7);
    let shifted = doc.node_by_dewey(&"0.1.0".parse().unwrap()).unwrap();
    assert_eq!(doc.node(shifted).text, "stack based slca computation");
    assert_eq!(doc.node_by_dewey(&"0.2".parse().unwrap()), None);
    assert_lookup_is_exact(doc);
}
