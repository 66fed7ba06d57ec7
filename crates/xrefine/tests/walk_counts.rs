//! Count gate of Algorithm 2's walk, over the benchmark's serving inputs:
//! corpus_m (2 500 authors) and the `generate_workload(per_kind 40)`
//! query pool, with the seeds `bench_e2e` freezes for them. The walk
//! visits only the partitions that hold a keyword set which can still
//! reach an admission trial (`partition.rs`, module docs), so summed
//! over the pool:
//!
//! * the partitions visited are at least 10× fewer than the partitions
//!   the `KS` lists reach, which a walk over every partition visits;
//! * the posting advances are at least 10× fewer than the lists' total
//!   length, which such a walk advances over;
//! * no query makes more DP calls than such a walk would: one per
//!   distinct mask among the partitions the lists reach.
//!
//! It prints the share of queries whose walk ever fell back to visiting
//! every partition (too many admissible keyword sets to enumerate), and
//! the time of a 32-keyword query (`MAX_QUERY_KEYWORDS`) made of the
//! pool's first distinct words. Counts only: no timing is asserted.
//!
//! Release only: building corpus_m in a debug build takes minutes.
#![cfg(not(debug_assertions))]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use datagen::{generate_dblp, generate_workload, DblpConfig, WorkloadConfig};
use invindex::{ListHandle, HEAD_AT_ROOT};
use xrefine::partition::partition_refine_reporting_fallback;
use xrefine::{EngineConfig, PartitionOptions, Query, RefineSession, XRefineEngine};

/// `bench_e2e`'s frozen corpus and pool seeds.
const CORPUS_SEED: u64 = 0xD8B1;
const POOL_SEED: u64 = 0x9E37_79B9;

fn counter(name: &str) -> u64 {
    obs::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// The partitions the lists reach, each with the lists holding it, read
/// from their run tables.
fn reached(lists: &[ListHandle]) -> BTreeMap<u64, Vec<usize>> {
    let mut partitions: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, list) in lists.iter().enumerate() {
        let mut runs = list.partition_runs();
        runs.seek(HEAD_AT_ROOT + 1);
        while let Some((head, _)) = runs.current() {
            partitions.entry(head).or_default().push(i);
            runs.seek(head + 1);
        }
    }
    partitions
}

#[test]
fn the_walk_visits_ten_times_fewer_partitions_and_postings() {
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors: 2500,
        seed: CORPUS_SEED,
        ..Default::default()
    }));
    let pool = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 40,
            seed: POOL_SEED,
            ..Default::default()
        },
    );
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    let options = PartitionOptions {
        k: EngineConfig::default().k,
        ..Default::default()
    };

    let (mut visited, mut reachable, mut advances, mut postings) = (0u64, 0u64, 0u64, 0u64);
    let (mut dp_calls, mut every_partition_dp_calls, mut fell_back) = (0u64, 0u64, 0usize);
    for q in &pool {
        let query = Query::from_keywords(q.keywords.iter().cloned());
        let rules = engine.rules_for(&query);
        let session = RefineSession::new(engine.index(), query, rules).unwrap();
        let partitions = reached(&session.lists);
        let masks: BTreeSet<&Vec<usize>> = partitions.values().collect();

        let (scanned, calls) = (
            counter("xrefine_partitions_scanned_total"),
            counter("xrefine_dp_calls_total"),
        );
        let (out, fallback) = partition_refine_reporting_fallback(&session, &options);
        let calls = counter("xrefine_dp_calls_total") - calls;
        assert!(
            calls <= masks.len() as u64,
            "{:?}: {calls} DP calls, a walk over every partition makes {}",
            q.keywords,
            masks.len()
        );

        visited += counter("xrefine_partitions_scanned_total") - scanned;
        reachable += partitions.len() as u64;
        advances += out.advances;
        postings += session.total_list_len() as u64;
        dp_calls += calls;
        every_partition_dp_calls += masks.len() as u64;
        fell_back += usize::from(fallback);
    }

    let n = pool.len() as f64;
    println!(
        "{} queries: {:.2} partitions visited per query of {:.2} reached, \
         {:.2} advances of {:.2} postings, {:.2} DP calls of {:.2}; \
         {fell_back} ({:.1} %) fell back to visiting every partition",
        pool.len(),
        visited as f64 / n,
        reachable as f64 / n,
        advances as f64 / n,
        postings as f64 / n,
        dp_calls as f64 / n,
        every_partition_dp_calls as f64 / n,
        100.0 * fell_back as f64 / n,
    );
    assert!(
        visited * 10 <= reachable,
        "{visited} partitions visited of {reachable} reached"
    );
    assert!(
        advances * 10 <= postings,
        "{advances} advances of {postings} postings"
    );

    // The widest query the server admits, made of the pool's first
    // distinct words.
    let mut words: Vec<String> = Vec::new();
    for w in pool.iter().flat_map(|q| &q.keywords) {
        if words.len() < 32 && !words.contains(w) {
            words.push(w.clone());
        }
    }
    let query = Query::from_keywords(words);
    let rules = engine.rules_for(&query);
    let session = RefineSession::new(engine.index(), query, rules).unwrap();
    #[expect(
        clippy::disallowed_methods,
        reason = "reports the wide query's time; nothing is asserted on it"
    )]
    let started = std::time::Instant::now();
    let (_, fallback) = partition_refine_reporting_fallback(&session, &options);
    println!(
        "32-keyword query: {:.1} ms, {}",
        started.elapsed().as_secs_f64() * 1e3,
        if fallback {
            "fell back"
        } else {
            "never fell back"
        }
    );
}
