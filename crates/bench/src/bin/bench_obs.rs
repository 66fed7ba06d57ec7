//! Observability overhead bench: the concurrent-queries workload run
//! with the metrics/trace layer enabled vs. disabled (the `obs` kill
//! switch), interleaved to cancel drift, one worker per available core.
//! Emits `results/BENCH_obs.json` with both throughputs, the relative
//! overhead — the median of the per-rep overheads, so one slow rep
//! cannot decide it — and the metrics snapshot accumulated by the
//! instrumented run. The acceptance gate is overhead < 5% (DESIGN.md
//! "Observability").
//!
//! Knobs (environment): `OBS_BENCH_FRACTION` scales the DBLP corpus
//! (default 0.05), `OBS_BENCH_REPS` the interleaved repetitions
//! (default 4).

use bench::dblp;
use datagen::{generate_workload, WorkloadConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xrefine::{EngineConfig, Query, XRefineEngine};

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

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn main() {
    let fraction = env_f64("OBS_BENCH_FRACTION", 0.05);
    let reps = env_usize("OBS_BENCH_REPS", 4);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_obs.json".to_string());

    let doc = dblp(fraction);
    let workload: Vec<Vec<String>> = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 3,
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
    let mut on = Duration::ZERO;
    let mut off = Duration::ZERO;
    let mut overheads = Vec::with_capacity(reps);
    // Interleave the configurations so thermal / scheduler drift hits
    // both equally.
    for _ in 0..reps {
        obs::set_enabled(true);
        let rep_on = run_once(&engine, &workload, threads);
        obs::set_enabled(false);
        let rep_off = run_once(&engine, &workload, threads);
        on += rep_on;
        off += rep_off;
        // The throughput lost to instrumentation in this rep.
        overheads.push((1.0 - rep_off.as_secs_f64() / rep_on.as_secs_f64()) * 100.0);
    }
    obs::set_enabled(true);
    let metrics = obs::global().snapshot().delta_since(&before);

    let answered = (workload.len() * reps) as f64;
    let qps_on = answered / on.as_secs_f64();
    let qps_off = answered / off.as_secs_f64();
    let overhead = median(&mut overheads);
    println!("enabled: {qps_on:.1} q/s  disabled: {qps_off:.1} q/s  overhead: {overhead:.2}%");

    let json = format!(
        "{{\n  \"workload_queries\": {},\n  \"threads\": {},\n  \"reps\": {},\n  \
         \"corpus_nodes\": {},\n  \"qps_enabled\": {:.2},\n  \"qps_disabled\": {:.2},\n  \
         \"overhead_percent\": {:.3},\n  \"metrics\": {}\n}}\n",
        workload.len(),
        threads,
        reps,
        doc.len(),
        qps_on,
        qps_off,
        overhead,
        metrics.render_json()
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write BENCH_obs.json");
    println!("wrote {out_path}");
}
