//! Exhaustive at-rest corruption sweep over a persisted index, checked
//! end to end through the engine: for *every* document (`D/types`,
//! `D/<ordinal>`), vocabulary (`V/`), posting list (`L/`) and statistics
//! (`S/`) value in the store, flip each byte in turn and require that
//! every query either
//!
//! * fails to open / answer with a structured `Corrupt` error, or
//! * answers **identically** to the pristine store, or
//! * answers differently but *says so* (`RefineOutcome::degraded` is
//!   non-empty) — the graceful-degradation path for damage confined to
//!   generated keywords.
//!
//! A panic or a silently different Top-K list is a failure. A record's
//! chunk is read by no query (only rendering reads it), so a flip there
//! must leave every answer as it was, and `verify_store` must name the
//! chunk's key. This is the engine-level counterpart of the per-value
//! framing tests in `invindex::persist`.
//!
//! Debug builds stride the byte offsets to keep `cargo test` quick; the
//! CI fault job runs this in release, where every byte is flipped.

use std::sync::Arc;
use xrefine_repro::invindex::{persist, verify_store, KvBackedIndex};
use xrefine_repro::kvstore::{KvStore, MemKv};
use xrefine_repro::prelude::*;

const QUERIES: [&str; 4] = [
    "john fishing",
    "on line data base",
    "xml john 2003",
    "article online database",
];

/// The comparable part of an outcome: whether the original sufficed and
/// the Top-K refinements' keyword sets and result lists. Rank scores are
/// intentionally excluded: a run that drops a generated keyword re-ranks
/// the survivors, and must flag itself as degraded instead.
type Signature = (bool, Vec<(Vec<String>, Vec<String>)>);

fn signature(out: &RefineOutcome) -> Signature {
    (
        out.original_ok,
        out.refinements
            .iter()
            .map(|r| {
                (
                    r.candidate.keywords.clone(),
                    r.slcas.iter().map(|d| d.to_string()).collect(),
                )
            })
            .collect(),
    )
}

fn store_of(pairs: &[(Vec<u8>, Vec<u8>)]) -> MemKv {
    let mut store = MemKv::new();
    for (k, v) in pairs {
        store.put(k, v).unwrap();
    }
    store
}

fn engine_over(
    pairs: &[(Vec<u8>, Vec<u8>)],
) -> Result<XRefineEngine, xrefine_repro::kvstore::KvError> {
    let reader = KvBackedIndex::open(Box::new(store_of(pairs)))?;
    Ok(XRefineEngine::from_reader(
        Arc::new(reader),
        EngineConfig::default(),
    ))
}

#[test]
fn every_single_byte_flip_is_loud_or_harmless() {
    // Pristine store and baseline answers.
    let doc = Arc::new(xrefine_repro::xmldom::fixtures::figure1());
    let built = Index::build(Arc::clone(&doc));
    let mut store = MemKv::new();
    persist::persist(&built, &mut store).unwrap();
    let pairs = store.scan_range(b"", None).unwrap();

    let baseline_engine = engine_over(&pairs).unwrap();
    let baseline: Vec<Signature> = QUERIES
        .iter()
        .map(|q| signature(&baseline_engine.answer(q).unwrap()))
        .collect();
    drop(baseline_engine);

    let mut flips = 0u64;
    let mut corrupt_opens = 0u64;
    let mut corrupt_queries = 0u64;
    let mut degraded_answers = 0u64;
    let mut chunk_flips = 0u64;

    for (ki, (key, value)) in pairs.iter().enumerate() {
        let class = key.first().copied();
        if !matches!(class, Some(b'D') | Some(b'V') | Some(b'L') | Some(b'S')) {
            continue;
        }
        // `D/` and a 4-byte ordinal: one record's chunk.
        let chunk = (key.len() == 6 && key.starts_with(b"D/"))
            .then(|| u32::from_be_bytes(key[2..].try_into().unwrap()));
        let step = if cfg!(debug_assertions) { 3 } else { 1 };
        for off in (0..value.len()).step_by(step) {
            flips += 1;
            let mut damaged = pairs.to_vec();
            damaged[ki].1[off] ^= 0xFF;

            if let Some(ordinal) = chunk {
                chunk_flips += 1;
                let report = verify_store(&store_of(&damaged));
                let named = report
                    .sections
                    .iter()
                    .flat_map(|s| &s.damaged)
                    .map(|(entry, _)| entry.as_str())
                    .collect::<Vec<_>>();
                assert_eq!(named, [format!("D/{ordinal}")], "chunk byte {off}");
                let engine = engine_over(&damaged).expect("no open reads a chunk");
                for (q, base) in QUERIES.iter().zip(&baseline) {
                    let out = engine.answer(q).expect("no query reads a chunk");
                    assert_eq!(
                        &signature(&out),
                        base,
                        "D/{ordinal} byte {off}, query {q:?}"
                    );
                }
                continue;
            }

            let engine = match engine_over(&damaged) {
                Ok(e) => e,
                Err(e) => {
                    assert!(
                        e.is_corrupt(),
                        "key {key:?} byte {off}: open failed with non-Corrupt: {e}"
                    );
                    corrupt_opens += 1;
                    continue;
                }
            };
            for (q, base) in QUERIES.iter().zip(&baseline) {
                match engine.answer_detailed(q) {
                    Err(failure) => {
                        assert!(
                            failure.error.is_corrupt(),
                            "key {key:?} byte {off}, query {q:?}: non-Corrupt failure: {failure}"
                        );
                        corrupt_queries += 1;
                    }
                    Ok(out) => {
                        if &signature(&out) != base {
                            assert!(
                                !out.degraded.is_empty(),
                                "key {key:?} byte {off}, query {q:?}: answer changed silently"
                            );
                            degraded_answers += 1;
                        }
                    }
                }
            }
        }
    }

    // The sweep must have actually exercised every failure path.
    assert!(flips > 500, "only {flips} flips — store unexpectedly small");
    assert!(chunk_flips > 0, "no record chunk was flipped");
    assert!(corrupt_opens > 0, "no flip was fatal at open");
    assert!(corrupt_queries > 0, "no flip failed a query");
    assert!(degraded_answers > 0, "no flip degraded an answer");
}
