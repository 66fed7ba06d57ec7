//! Work done in re-exec'd children, so that what it allocates never
//! counts towards the workload process's `peak_rss_mb`: generating the
//! inputs with their oracle, and building a store.

use std::path::Path;

use invindex::{build_streaming, persist};
use kvstore::{DiskKv, KvStore};
use xrefine::{EngineConfig, XRefineEngine};

use crate::common::{fail, Outcome};
use crate::consts::INGEST_THREADS;
use crate::inputs;
use crate::stats;

fn parse<T: std::str::FromStr>(args: &[String], at: usize, what: &str) -> Outcome<T> {
    args.get(at)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("child: argument {at} must be {what}"))
}

/// `child-inputs <authors> <corpus_seed> <dir> <pool_per_kind>
/// <cycle_len>`: writes `corpus.xml` and, when `pool_per_kind` > 0,
/// `queries.tsv`.
///
/// The oracle answers every pool query a run can ask
/// (`inputs::asked_ranks`) through a resident engine —
/// `from_index`, no store, no cache, no HTTP — and records the hash of
/// the body `render_outcome` gives. Whatever the served path returns
/// has to hash the same.
pub fn inputs(args: &[String]) -> Outcome<()> {
    let authors: usize = parse(args, 0, "the author count")?;
    let corpus_seed: u64 = parse(args, 1, "the corpus seed")?;
    let dir = Path::new(args.get(2).ok_or("child: missing output directory")?);
    let pool_per_kind: usize = parse(args, 3, "queries per kind")?;
    let cycle_len: usize = parse(args, 4, "the cycle length")?;

    let doc = inputs::corpus(authors, corpus_seed);
    let xml = doc.to_xml();
    std::fs::write(dir.join("corpus.xml"), &xml).map_err(|e| format!("corpus.xml: {e}"))?;
    if pool_per_kind == 0 {
        return Ok(());
    }

    let mut pool = inputs::pool(&doc, pool_per_kind);
    let index =
        build_streaming(&xml, INGEST_THREADS).map_err(|e| format!("oracle ingest: {e:?}"))?;
    let engine = XRefineEngine::from_index(index, EngineConfig::default());
    let answer = |ranks: &[usize]| -> Outcome<Vec<u64>> {
        ranks
            .iter()
            .map(|&rank| {
                let text = &pool[rank].text;
                let outcome = engine
                    .answer_detailed(text)
                    .map_err(|e| format!("oracle cannot answer {text:?}: {e}"))?;
                Ok(stats::fnv1a(
                    xserve::service::render_outcome(text, &outcome).as_bytes(),
                ))
            })
            .collect()
    };
    let asked = inputs::asked_ranks(&inputs::cycle(pool.len(), cycle_len), pool.len());
    let (front, back) = asked.split_at(asked.len() / 2);
    let (front_hashes, back_hashes) = std::thread::scope(|s| {
        let other = s.spawn(|| answer(back));
        (answer(front), other.join().expect("oracle thread panicked"))
    });
    for (&rank, hash) in asked
        .iter()
        .zip(front_hashes?.into_iter().chain(back_hashes?))
    {
        pool[rank].body_hash = hash;
    }
    inputs::write_pool(&dir.join("queries.tsv"), &pool).map_err(|e| format!("queries.tsv: {e}"))
}

/// `child-store <corpus.xml> <store.db>`: the ingest path a deployment
/// runs — `build_streaming`, `persist` (format v4), `sync`.
pub fn store(args: &[String]) -> Outcome<()> {
    let (Some(xml_path), Some(store_path)) = (args.first(), args.get(1)) else {
        return fail("child-store: expected <corpus.xml> <store.db>");
    };
    let xml = std::fs::read_to_string(xml_path).map_err(|e| format!("{xml_path}: {e}"))?;
    ingest_into(&xml, Path::new(store_path)).map(|_| ())
}

/// One ingest: XML text to a synced v4 store file. Returns the open
/// store so the ingest workload can check what was written.
pub fn ingest_into(xml: &str, store_path: &Path) -> Outcome<DiskKv> {
    let index = build_streaming(xml, INGEST_THREADS).map_err(|e| format!("ingest: {e:?}"))?;
    let mut disk =
        DiskKv::open(store_path).map_err(|e| format!("{}: {e}", store_path.display()))?;
    persist::persist(&index, &mut disk).map_err(|e| format!("persist: {e}"))?;
    disk.sync().map_err(|e| format!("sync: {e}"))?;
    Ok(disk)
}
