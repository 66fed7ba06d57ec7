//! Observability overhead bench: the concurrent-queries workload run
//! with the metrics/trace layer enabled vs. disabled (the `obs` kill
//! switch), one worker per available core. The inputs are the end-to-end
//! benchmark's serve inputs: its small corpus (300 DBLP authors) and its
//! 280-query pool. A rep alternates passes over the pool in the two
//! configurations until each has run at least [`MIN_REP`], so one rep's
//! timing is neither a few milliseconds of scheduler noise nor a second
//! of host drift that only one configuration saw.
//! Emits `results/BENCH_obs.json` with both throughputs, the relative
//! overhead — the median of the per-rep overheads, so one slow rep
//! cannot decide it, with their quartiles beside it to show the spread —
//! and the metrics snapshot accumulated by the instrumented run. The
//! acceptance gate is overhead < 5% (DESIGN.md "Observability").
//!
//! Knob (environment): `OBS_BENCH_REPS`, the interleaved repetitions
//! (default 4).

use datagen::{generate_dblp, generate_workload, DblpConfig, WorkloadConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xrefine::{EngineConfig, Query, XRefineEngine};

/// The end-to-end benchmark's small serve corpus: authors and seed.
const CORPUS_AUTHORS: usize = 300;
const CORPUS_SEED: u64 = 0xD8B1;
/// Its query pool: 40 queries of each of the 7 kinds, and their seed.
const POOL_PER_KIND: usize = 40;
const POOL_SEED: u64 = 0x9E37_79B9;
/// The shortest a rep of one configuration runs.
const MIN_REP: Duration = Duration::from_secs(1);

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Answers the whole workload once, striped over `threads` workers;
/// returns the wall-clock spent.
fn run_once(engine: &Arc<XRefineEngine>, workload: &[Vec<String>], threads: usize) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let engine = Arc::clone(engine);
            s.spawn(move || {
                for kw in workload.iter().skip(tid).step_by(threads) {
                    let q = Query::from_keywords(kw.iter().cloned());
                    black_box(engine.answer_query(q).expect("query answered"));
                }
            });
        }
    });
    start.elapsed()
}

/// One rep: passes over the workload with the layer enabled and disabled
/// in turn, until each configuration has run at least [`MIN_REP`].
/// Alternating pass by pass lets both see the same host: on a shared
/// machine throughput drifts by tens of percent over seconds. Returns the
/// queries answered per second enabled and disabled.
fn rep(engine: &Arc<XRefineEngine>, workload: &[Vec<String>], threads: usize) -> (f64, f64) {
    let (mut on, mut off, mut passes) = (Duration::ZERO, Duration::ZERO, 0);
    while on.min(off) < MIN_REP {
        obs::set_enabled(true);
        on += run_once(engine, workload, threads);
        obs::set_enabled(false);
        off += run_once(engine, workload, threads);
        passes += 1;
    }
    obs::set_enabled(true);
    let answered = (workload.len() * passes) as f64;
    (answered / on.as_secs_f64(), answered / off.as_secs_f64())
}

/// The `q`-quantile of sorted `xs`, interpolated between neighbours
/// (`q = 0.5` is the median).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let Some(last) = xs.len().checked_sub(1) else {
        return f64::NAN;
    };
    let at = q * last as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

fn main() {
    let reps = env_usize("OBS_BENCH_REPS", 4);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_obs.json".to_string());

    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors: CORPUS_AUTHORS,
        seed: CORPUS_SEED,
        ..Default::default()
    }));
    let workload: Vec<Vec<String>> = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: POOL_PER_KIND,
            seed: POOL_SEED,
            ..Default::default()
        },
    )
    .into_iter()
    .map(|q| q.keywords)
    .collect();
    println!(
        "corpus: {} nodes; workload: {} queries; {threads} thread(s); {reps} rep(s)",
        doc.len(),
        workload.len()
    );

    let engine = Arc::new(XRefineEngine::from_document(
        Arc::clone(&doc),
        EngineConfig::default(),
    ));
    // Warm the cache so both configurations see the same steady-state
    // store: the quantity under test is instrumentation overhead, not
    // first-touch decoding.
    run_once(&engine, &workload, 1);

    let before = obs::global().snapshot();
    let (mut on, mut off) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut overheads = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (qps_on, qps_off) = rep(&engine, &workload, threads);
        on.push(qps_on);
        off.push(qps_off);
        // The throughput lost to instrumentation in this rep.
        overheads.push((1.0 - qps_on / qps_off) * 100.0);
    }
    let metrics = obs::global().snapshot().delta_since(&before);

    for xs in [&mut on, &mut off, &mut overheads] {
        xs.sort_by(f64::total_cmp);
    }
    let (qps_on, qps_off) = (quantile(&on, 0.5), quantile(&off, 0.5));
    let (p25, overhead, p75) = (
        quantile(&overheads, 0.25),
        quantile(&overheads, 0.5),
        quantile(&overheads, 0.75),
    );
    println!(
        "enabled: {qps_on:.1} q/s  disabled: {qps_off:.1} q/s  \
         overhead: {overhead:.2}% (p25 {p25:.2}%, p75 {p75:.2}%)"
    );

    let json = format!(
        "{{\n  \"workload_queries\": {},\n  \"threads\": {},\n  \"reps\": {},\n  \
         \"corpus_nodes\": {},\n  \"qps_enabled\": {:.2},\n  \
         \"qps_disabled\": {:.2},\n  \"overhead_percent\": {:.3},\n  \
         \"overhead_p25_percent\": {:.3},\n  \"overhead_p75_percent\": {:.3},\n  \
         \"metrics\": {}\n}}\n",
        workload.len(),
        threads,
        reps,
        doc.len(),
        qps_on,
        qps_off,
        overhead,
        p25,
        p75,
        metrics.render_json()
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write BENCH_obs.json");
    println!("wrote {out_path}");
}
