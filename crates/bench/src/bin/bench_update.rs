//! Online-maintenance bench: update throughput through the WAL-backed
//! [`LiveEngine`] and — the number the epoch/snapshot handoff exists
//! for — read latency while a writer commits, against the idle
//! baseline. Emits `results/BENCH_update.json` and exits non-zero when
//! the concurrent read p99 exceeds `2 × idle p99` (plus a small noise
//! floor): a committing writer must not block readers.
//!
//! Also reports the at-rest store footprint of the seed corpus — store
//! bytes and cache resident bytes at a fixed budget
//! (`bench::store_footprint`) — under the `store` key.
//!
//! Knobs (environment): `UPDATE_BENCH_SECS` per-phase duration (default
//! 2), `UPDATE_BENCH_READERS` reader threads (default 4),
//! `UPDATE_BENCH_RECORDS` seed corpus records (default 150),
//! `UPDATE_BENCH_COMPACT_EVERY` commits per compaction (default 16),
//! `UPDATE_BENCH_CACHE_BYTES` footprint cache budget (default 32768).

use bench::{percentile, store_footprint};
use invindex::maint::MaintOp;
use invindex::{build_streaming, persist};
use kvstore::{DiskKv, FaultVfs, KvStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use xrefine::{EngineConfig, LiveEngine};

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
    "wal",
    "durable",
    "torture",
    "handoff",
    "generation",
    "overlay",
];

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn seed_corpus(records: usize) -> String {
    let mut xml = String::from("<bib>");
    for i in 0..records {
        let a = WORDS[i % WORDS.len()];
        let b = WORDS[(i / WORDS.len() + i) % WORDS.len()];
        let c = WORDS[(i * 7 + 3) % WORDS.len()];
        xml.push_str(&format!(
            "<paper><title>{a} {b} {c}</title><year>{}</year></paper>",
            1990 + (i % 35)
        ));
    }
    xml.push_str("</bib>");
    xml
}

fn queries() -> Vec<String> {
    let mut qs = Vec::new();
    for i in 0..WORDS.len() {
        qs.push(format!("{} {}", WORDS[i], WORDS[(i + 5) % WORDS.len()]));
    }
    qs
}

/// `readers` threads answering queries round-robin for `secs`. Returns
/// all observed latencies.
fn read_phase(live: &Arc<LiveEngine>, readers: usize, secs: f64) -> Vec<Duration> {
    let qs = Arc::new(queries());
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..readers)
        .map(|r| {
            let live = Arc::clone(live);
            let qs = Arc::clone(&qs);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut lat = Vec::new();
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    let q = &qs[i % qs.len()];
                    i += 1;
                    let t0 = Instant::now();
                    live.engine().answer(q).expect("bench read");
                    lat.push(t0.elapsed());
                }
                lat
            })
        })
        .collect();
    thread::sleep(Duration::from_secs_f64(secs));
    stop.store(true, Ordering::Relaxed);
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().expect("reader thread"));
    }
    all
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn latency_json(latencies: &mut [Duration]) -> String {
    latencies.sort_unstable();
    let max = latencies.last().copied().unwrap_or(Duration::ZERO);
    format!(
        "{{\"samples\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_ms\": {:.3}}}",
        latencies.len(),
        ms(percentile(latencies, 0.50)),
        ms(percentile(latencies, 0.99)),
        ms(max),
    )
}

fn main() {
    let secs = env_f64("UPDATE_BENCH_SECS", 2.0);
    let readers = env_usize("UPDATE_BENCH_READERS", 4);
    let records = env_usize("UPDATE_BENCH_RECORDS", 150);
    let compact_every = env_usize("UPDATE_BENCH_COMPACT_EVERY", 16).max(1);
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_update.json".to_string());

    // The store lives on the in-memory fault VFS: the bench measures
    // the maintenance pipeline (rebuild-diff, WAL append, epoch
    // publish), not host disk jitter.
    let vfs = FaultVfs::new().as_dyn();
    let base = PathBuf::from("/bench/store.db");
    let built = build_streaming(&seed_corpus(records), 1).expect("seed build");
    let mut disk = DiskKv::open_with_vfs(&vfs, &base.with_extension("db")).expect("seed open");
    persist::persist(&built, &mut disk).expect("seed persist");
    disk.sync().expect("seed sync");
    let live = Arc::new(
        LiveEngine::open_with_vfs(vfs, &base, EngineConfig::default()).expect("open live engine"),
    );
    println!(
        "corpus: {records} records; {readers} reader(s); {secs}s per phase; \
         compact every {compact_every} commit(s)"
    );

    // At-rest footprint of the seed index, measured before the metric
    // snapshot so the footprint warm-up pass doesn't pollute the
    // update-phase counter deltas.
    let keyword_sets: Vec<Vec<String>> = queries()
        .iter()
        .map(|q| q.split_whitespace().map(str::to_string).collect())
        .collect();
    let cache_budget = env_usize("UPDATE_BENCH_CACHE_BYTES", 32 * 1024);
    let footprint = store_footprint(&built, &keyword_sets, cache_budget);
    println!(
        "store: {} B; cache resident {} B of {} B (hit rate {:.3})",
        footprint.v4_bytes,
        footprint.cache.cached_bytes,
        cache_budget,
        footprint.cache_hit_rate(),
    );

    let before = obs::global().snapshot();

    // Phase 1 — idle baseline: readers only.
    let mut idle = read_phase(&live, readers, secs);
    idle.sort_unstable();
    let idle_p99 = percentile(&idle, 0.99);
    println!(
        "idle reads: {} samples, p50 {:.3} ms, p99 {:.3} ms",
        idle.len(),
        ms(percentile(&idle, 0.50)),
        ms(idle_p99)
    );

    // Phase 2 — a writer commits add/remove transactions (compacting
    // periodically) while the same readers run.
    let stop_writer = Arc::new(AtomicBool::new(false));
    let writer = {
        let live = Arc::clone(&live);
        let stop = Arc::clone(&stop_writer);
        thread::spawn(move || {
            let mut commits = 0u64;
            let mut commit_lat = Vec::new();
            let mut n = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let op = if n.is_multiple_of(2) {
                    MaintOp::Add {
                        fragment: format!(
                            "<paper><title>{} {} inserted</title></paper>",
                            WORDS[n % WORDS.len()],
                            WORDS[(n + 11) % WORDS.len()]
                        ),
                    }
                } else {
                    // Remove the record the previous iteration added,
                    // keeping the corpus size (and read cost) steady.
                    MaintOp::Remove {
                        slot: live.maint().record_count() - 1,
                    }
                };
                let t0 = Instant::now();
                live.update(&[op]).expect("bench commit");
                commit_lat.push(t0.elapsed());
                commits += 1;
                n += 1;
                if commits.is_multiple_of(compact_every as u64) {
                    live.compact().expect("bench compact");
                }
            }
            (commits, commit_lat)
        })
    };
    let mut concurrent = read_phase(&live, readers, secs);
    stop_writer.store(true, Ordering::Relaxed);
    let (commits, mut commit_lat) = writer.join().expect("writer thread");
    concurrent.sort_unstable();
    let concurrent_p99 = percentile(&concurrent, 0.99);
    let update_tps = commits as f64 / secs;
    println!(
        "concurrent reads: {} samples, p50 {:.3} ms, p99 {:.3} ms; \
         writer: {commits} commit(s) ({update_tps:.1}/s)",
        concurrent.len(),
        ms(percentile(&concurrent, 0.50)),
        ms(concurrent_p99)
    );

    let metrics = obs::global().snapshot().delta_since(&before);
    let json = format!(
        "{{\n  \"corpus_records\": {records},\n  \"readers\": {readers},\n  \
         \"phase_secs\": {secs:.1},\n  \
         \"idle_reads\": {},\n  \"concurrent_reads\": {},\n  \
         \"writer\": {{\"commits\": {commits}, \"updates_per_sec\": {update_tps:.2}, \
         \"commit_latency\": {}}},\n  \
         \"p99_ratio\": {:.3},\n  \"store\": {},\n  \"metrics\": {}\n}}\n",
        latency_json(&mut idle),
        latency_json(&mut concurrent),
        latency_json(&mut commit_lat),
        concurrent_p99.as_secs_f64() / idle_p99.as_secs_f64().max(1e-9),
        footprint.json(),
        metrics.render_json(),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write BENCH_update.json");
    println!("wrote {out_path}");

    // Acceptance gate: a committing writer must leave the read tail
    // within 2× of idle (plus 5 ms of scheduler noise floor).
    let ceiling = idle_p99 * 2 + Duration::from_millis(5);
    if concurrent_p99 > ceiling {
        eprintln!(
            "READ TAIL VIOLATION: concurrent p99 {:.3} ms > 2x idle p99 {:.3} ms + 5 ms",
            ms(concurrent_p99),
            ms(idle_p99)
        );
        std::process::exit(1);
    }
}
