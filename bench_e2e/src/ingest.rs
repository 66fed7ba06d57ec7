//! `ingest`: corpus_m XML from a file to a synced v4 store, over and
//! over. Only `xmldom::scan`, `invindex::stream`/`dfpass`/`persist` and
//! `kvstore` writes run; the query side does nothing. The corpus is
//! generated from `--seed`: ingest cost is a sum over thousands of
//! records, so unlike query cost it does not move with the seed.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

use invindex::{build_streaming, persist, verify_store};
use kvstore::{DiskKv, KvStore};

use crate::children::ingest_into;
use crate::common::{
    end_to_end, fail, make_inputs, repeat_setup, round_stats, Opts, Outcome, Round, Sample, WorkDir,
};
use crate::consts::{INGEST_REPS_PER_ROUND, INGEST_THREADS};
use crate::metrics::{obs_layers, Report};
use crate::stats;
use crate::timedkv::TimedKv;

/// Fingerprint of everything in the store, in key order.
fn dump_hash(store: &dyn KvStore) -> Outcome<u64> {
    let entries = store
        .scan_range(b"", None)
        .map_err(|e| format!("store dump: {e}"))?;
    Ok(entries.iter().fold(stats::fnv1a(b""), |h, (k, v)| {
        stats::fnv1a_extend(stats::fnv1a_extend(h, k), v)
    }))
}

/// Every rep must leave the same, clean store: a rep that differs means
/// ingest is not a function of its input, and its time means nothing.
fn check_store(
    store: &dyn KvStore,
    first_hash: &mut Option<u64>,
    report: &mut Report,
) -> Outcome<()> {
    report.attempted += 1;
    if !verify_store(store).is_clean() {
        report.failed += 1;
    }
    let hash = dump_hash(store)?;
    match *first_hash {
        None => *first_hash = Some(hash),
        Some(first) if first != hash => {
            return fail(format!(
                "rep {} wrote a store that hashes {hash:016x}; the first rep's hashed {first:016x}",
                report.attempted
            ))
        }
        Some(_) => {}
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Outcome<Report> {
    let scale = &opts.scale;
    let dir = WorkDir::create(opts.workload)?;
    let xml_path = dir.join("corpus.xml");
    let store_path = dir.join("store.db");
    // Set-up is generating the corpus (in a child), reading it back, and
    // one ingest that is thrown away, as the serving workloads' warm-up is.
    let set_up = || {
        make_inputs(&dir, scale.corpus_m_authors, opts.seed, 0, 0)?;
        let xml = std::fs::read_to_string(&xml_path)
            .map_err(|e| format!("{}: {e}", xml_path.display()))?;
        let _ = std::fs::remove_file(&store_path);
        ingest_into(&xml, &store_path)?;
        Ok(xml)
    };
    let (xml, setup_s) = repeat_setup(
        opts,
        || {
            let started = Instant::now();
            set_up()?;
            Ok(started.elapsed().as_secs_f64())
        },
        set_up,
    )?;
    let xml_mb = xml.len() as f64 / 1e6;

    let mut report = Report::default();
    let mut first_hash = None;
    let window = Instant::now();
    if !opts.traced {
        let mut rounds: Vec<Round> = Vec::new();
        while window.elapsed().as_secs_f64() < opts.seconds {
            let mut round = Round::default();
            while round.samples.len() < INGEST_REPS_PER_ROUND {
                let _ = std::fs::remove_file(&store_path);
                let started = Instant::now();
                let store = ingest_into(&xml, &store_path)?;
                let elapsed = started.elapsed();
                round.samples.push(Sample {
                    rank: 0,
                    ms: elapsed.as_secs_f64() * 1e3,
                });
                round.wall += elapsed;
                check_store(&store, &mut first_hash, &mut report)?;
            }
            rounds.push(round);
        }
        let timed = round_stats(&rounds)?;
        if timed.samples < scale.min_ingest_reps {
            return fail(format!(
                "{} ingest reps in the window, below the floor of {}",
                timed.samples, scale.min_ingest_reps
            ));
        }
        end_to_end(&mut report, &timed, setup_s)?;
        return Ok(report);
    }

    // Traced: the same rep, with a clock around each public call.
    let before = obs::global().snapshot();
    let (mut build_s, mut persist_s, mut put_s, mut sync_s, mut rep_s) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut store_bytes = 0u64;
    while window.elapsed().as_secs_f64() < opts.seconds {
        let rep = traced_rep(&xml, &store_path)?;
        build_s.push(rep.build_s);
        persist_s.push(rep.persist_s);
        put_s.push(rep.put_s);
        sync_s.push(rep.sync_s);
        rep_s.push(rep.build_s + rep.persist_s + rep.sync_s);
        store_bytes = rep.put_bytes;
        check_store(&rep.store, &mut first_hash, &mut report)?;
    }
    let delta = obs::global().snapshot().delta_since(&before);
    let reps = rep_s.len() as f64;
    obs_layers(&mut report, &delta, reps, 0.0);
    let per_rep = |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64 / reps;
    report.set("invindex.build_s", stats::mean(&build_s));
    report.set(
        "invindex.persist_self_s",
        stats::mean(&persist_s) - stats::mean(&put_s),
    );
    report.set("kvstore.put_s", stats::mean(&put_s));
    report.set("kvstore.sync_s", stats::mean(&sync_s));
    report.set(
        "invindex.encoded_bytes",
        per_rep("compress_encoded_bytes_total"),
    );
    report.set("invindex.dedup_hits", per_rep("compress_dedup_hits_total"));
    report.set(
        "kvstore.page_writes",
        per_rep("kvstore_pager_page_writes_total"),
    );
    report.set(
        "kvstore.btree_splits",
        per_rep("kvstore_btree_splits_total"),
    );
    report.set(
        "kvstore.store_bytes_per_input_byte",
        store_bytes as f64 / xml.len() as f64,
    );
    report.set("client.ingest_mb_per_s", xml_mb / stats::median(&rep_s));
    report.set("client.samples", reps);
    report.set("client.timed_s", rep_s.iter().sum());

    // The scanner alone, against a sink that keeps nothing: no ingest
    // can be faster than this.
    let before = obs::global().snapshot();
    let scans: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(xmldom::scan::check_document(std::hint::black_box(&xml)).is_ok());
            started.elapsed().as_secs_f64()
        })
        .collect();
    let scanned = obs::global().snapshot().delta_since(&before);
    report.set("xmldom.scan_mb_per_s", xml_mb / stats::median(&scans));
    let events = scanned
        .counters
        .get("xmldom_events_total")
        .copied()
        .unwrap_or(0);
    report.set(
        "xmldom.events_per_mb",
        events as f64 / (xml_mb * scans.len() as f64),
    );
    Ok(report)
}

struct TracedRep {
    store: DiskKv,
    build_s: f64,
    /// `persist::persist`, the puts it makes included.
    persist_s: f64,
    put_s: f64,
    sync_s: f64,
    /// Σ key + value bytes put: what the store holds.
    put_bytes: u64,
}

fn traced_rep(xml: &str, store_path: &Path) -> Outcome<TracedRep> {
    let _ = std::fs::remove_file(store_path);
    let started = Instant::now();
    let index = build_streaming(xml, INGEST_THREADS).map_err(|e| format!("ingest: {e:?}"))?;
    let build_s = started.elapsed().as_secs_f64();
    let disk = DiskKv::open(store_path).map_err(|e| format!("{}: {e}", store_path.display()))?;
    let (mut timed, totals) = TimedKv::new(disk);
    let started = Instant::now();
    persist::persist(&index, &mut timed).map_err(|e| format!("persist: {e}"))?;
    let persist_s = started.elapsed().as_secs_f64();
    timed.sync().map_err(|e| format!("sync: {e}"))?;
    Ok(TracedRep {
        store: timed.into_inner(),
        build_s,
        persist_s,
        put_s: totals.put_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        sync_s: totals.sync_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        put_bytes: totals.put_bytes.load(Ordering::Relaxed),
    })
}
