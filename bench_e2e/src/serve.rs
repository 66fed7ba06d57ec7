//! `serve_warm` and `serve_cold`: `GET /query` over HTTP against an
//! in-process `xserve` on a persisted v4 store. The two differ in one
//! number, the list-cache budget handed to `KvBackedIndex`.
//!
//! The service is built exactly as `xrefine-serve --store` builds it —
//! `DiskKv::open` → `KvBackedIndex::open` → `XRefineEngine::from_reader`
//! → `EngineService` → `xserve::start` — except for `with_cache_budget`,
//! which the binary has no flag for.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use invindex::{KvBackedIndex, ListHandle};
use kvstore::DiskKv;
use xmldom::Dewey;
use xrefine::{
    partition_refine, Algorithm, EngineConfig, PartitionOptions, Query, RefineSession,
    XRefineEngine,
};
use xserve::http::{parse_request, write_response, Parse, Response};
use xserve::service::render_outcome;
use xserve::{EngineService, QueryService};

use crate::common::{
    build_store, end_to_end, fail, make_inputs, output_root, query_rounds, repeat_setup,
    round_stats, setup_in_child, warm_up, Opts, Outcome, Round, Serving, WorkDir, Workload,
};
use crate::consts::{CORPUS_SEED, PARITY_QUERIES};
use crate::http::{encode_query, Connection};
use crate::inputs::{self, PoolQuery};
use crate::metrics::{obs_layers, Report};
use crate::timedkv::{KvTotals, TimedKv};
use crate::{spans, stats};

/// Opens the store as the serving binary does. `budget` `None` keeps
/// `KvBackedIndex`'s default (64 MiB); `timed` interposes a `TimedKv`.
fn open_engine(
    store: &Path,
    budget: Option<usize>,
    timed: bool,
) -> Outcome<(Arc<XRefineEngine>, Option<Arc<KvTotals>>)> {
    let disk = DiskKv::open(store).map_err(|e| format!("{}: {e}", store.display()))?;
    let (boxed, totals): (Box<dyn kvstore::KvStore>, _) = if timed {
        let (kv, totals) = TimedKv::new(disk);
        (Box::new(kv), Some(totals))
    } else {
        (Box::new(disk), None)
    };
    let mut index = KvBackedIndex::open(boxed).map_err(|e| format!("{}: {e}", store.display()))?;
    if let Some(bytes) = budget {
        index = index.with_cache_budget(bytes);
    }
    let engine = XRefineEngine::from_reader(Arc::new(index), EngineConfig::default());
    Ok((Arc::new(engine), totals))
}

fn resident_bytes(engine: &XRefineEngine) -> f64 {
    engine.index().cache_stats().map_or(0, |s| s.cached_bytes) as f64
}

/// Everything before the first timed request: ingest into a fresh
/// store (in a child), open it, start the server, connect, and ask every
/// query of the cycle once.
fn set_up(
    opts: &Opts,
    dir: &Path,
    pool: &[PoolQuery],
    cycle: &[usize],
    report: &mut Report,
) -> Outcome<(Serving, Arc<XRefineEngine>)> {
    let store = dir.join("store.db");
    build_store(&dir.join("corpus.xml"), &store)?;
    let (engine, _) = open_engine(&store, budget(opts), false)?;
    let mut serving = Serving::start(Arc::new(EngineService::new(Arc::clone(&engine))))?;
    warm_up(&mut serving.conn, pool, cycle, report);
    Ok((serving, engine))
}

/// `child-setup`: one set-up, torn down again, for its seconds alone.
pub fn set_up_and_discard(opts: &Opts, dir: &Path) -> Outcome<f64> {
    let pool = inputs::read_pool(&dir.join("queries.tsv"))?;
    let cycle = inputs::cycle(pool.len(), opts.scale.cycle_len);
    let started = Instant::now();
    let (serving, _engine) = set_up(opts, dir, &pool, &cycle, &mut Report::default())?;
    let seconds = started.elapsed().as_secs_f64();
    serving.shutdown()?;
    Ok(seconds)
}

fn budget(opts: &Opts) -> Option<usize> {
    (opts.workload == Workload::ServeCold).then_some(opts.scale.cold_budget_bytes)
}

pub fn run(opts: &Opts) -> Outcome<Report> {
    let scale = &opts.scale;
    let dir = WorkDir::create(opts.workload)?;
    make_inputs(
        &dir,
        scale.corpus_m_authors,
        CORPUS_SEED,
        scale.pool_per_kind,
        scale.cycle_len,
    )?;
    let pool = inputs::read_pool(&dir.join("queries.tsv"))?;
    let cycle = inputs::cycle(pool.len(), scale.cycle_len);
    let store = dir.join("store.db");

    let mut report = Report::default();
    let ((mut serving, engine), setup_s) = repeat_setup(
        opts,
        || setup_in_child(opts, &dir),
        || set_up(opts, dir.path(), &pool, &cycle, &mut report),
    )?;

    let window = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let before = obs::global().snapshot();
    let rounds = query_rounds(&mut serving.conn, &pool, &cycle, opts.seed, window);
    let delta = obs::global().snapshot().delta_since(&before);
    let resident = resident_bytes(&engine);
    serving.shutdown()?;
    drop(engine);

    let timed = round_stats(&rounds)?;
    report.attempted += (rounds.len() * cycle.len()) as u64;
    report.failed += timed.failed;
    let evictions = delta
        .counters
        .get("invindex_cache_evictions_total")
        .copied()
        .unwrap_or(0);
    if opts.workload == Workload::ServeWarm && evictions > 0 {
        return fail(format!(
            "serve_warm evicted {evictions} list(s) in the timed window: the corpus no longer fits the default list cache, so this is not the warm regime"
        ));
    }

    if !opts.traced {
        if timed.samples < scale.min_requests {
            return fail(format!(
                "{} timed requests, below the floor of {}: percentiles would not repeat",
                timed.samples, scale.min_requests
            ));
        }
        end_to_end(&mut report, &timed, setup_s)?;
        return Ok(report);
    }

    obs_layers(&mut report, &delta, timed.samples as f64, 0.0);
    report.set("invindex.cache_resident_bytes", resident);
    client_layers(&mut report, &rounds, &pool);
    let http_mean_us = stats::mean(&all_ms(&rounds)) * 1e3;

    let replay = staged_replay(&store, budget(opts), &pool, &cycle, opts)?;
    report.attempted += replay.requests;
    report.failed += replay.mismatches;
    replay.layers(&mut report, http_mean_us);
    let trace_path = output_root().join(format!("{}.trace.json", opts.workload.name()));
    std::fs::write(&trace_path, spans::to_json(&replay.spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "trace: {} spans of {} requests in {}",
        replay.spans.len(),
        replay.requests,
        trace_path.display()
    );
    let gap = report.get("trace.identity_gap");
    if gap * 100.0 > f64::from(scale.max_identity_gap_pct) {
        return fail(format!(
            "trace.identity_gap is {gap:.3}: the stages do not add up to the direct answer within {} hundredths, so the attribution is not to be believed",
            scale.max_identity_gap_pct
        ));
    }

    if opts.workload == Workload::ServeWarm {
        parity_pass(&store, &pool, &mut report)?;
    }
    Ok(report)
}

fn all_ms(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.ms))
        .collect()
}

/// What the load generator saw, over every request of the window.
pub fn client_layers(report: &mut Report, rounds: &[Round], pool: &[PoolQuery]) {
    let mut ms = all_ms(rounds);
    if ms.is_empty() {
        return;
    }
    stats::sort(&mut ms);
    let timed_s: f64 = rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
    report.set("client.samples", ms.len() as f64);
    report.set("client.timed_s", timed_s);
    report.set("client.query_p50_ms", stats::percentile(&ms, 0.50));
    report.set("client.query_p95_ms", stats::percentile(&ms, 0.95));
    report.set("client.query_p99_ms", stats::percentile(&ms, 0.99));
    report.set("client.queries_per_s", ms.len() as f64 / timed_s);
    let mut by_kind: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for sample in rounds.iter().flat_map(|r| &r.samples) {
        by_kind
            .entry(&pool[sample.rank].kind)
            .or_default()
            .push(sample.ms);
    }
    for (kind, values) in by_kind {
        report.set(
            &format!("client.class.{kind}.p50_ms"),
            stats::median(&values),
        );
    }
}

/// `PartitionOptions.slca` is a plain `fn` pointer, so the SLCA scan can
/// be given a span without touching `xrefine` or `slca`.
fn traced_slca(lists: &[ListHandle]) -> Vec<Dewey> {
    spans::span("slca.scan", || slca::slca_scan_eager(lists))
}

struct Replay {
    spans: Vec<spans::Span>,
    requests: u64,
    mismatches: u64,
    /// Σ `outcome.advances` over the staged requests.
    advances: u64,
    /// Σ wall time of `EngineService::answer` on the twin engine.
    direct_nanos: u64,
    kv_reads: u64,
    kv_value_bytes: u64,
}

/// The traced run: one round of the request stream again,
/// single-threaded, taken apart at every public-function boundary
/// between the socket and the store. A twin engine on the same store
/// answers each request whole, right before or after (alternating), so
/// both see the same host.
fn staged_replay(
    store: &Path,
    budget: Option<usize>,
    pool: &[PoolQuery],
    cycle: &[usize],
    opts: &Opts,
) -> Outcome<Replay> {
    let (staged, totals) = open_engine(store, budget, true)?;
    let totals = totals.expect("timed engine has totals");
    let (twin, _) = open_engine(store, budget, false)?;
    if staged.config().algorithm != Algorithm::Partition {
        return fail("the staged replay takes apart Algorithm::Partition, which is no longer the engine's default");
    }
    let twin_service = EngineService::new(twin);
    // Warmed identically, and as the served engine was: every query of
    // the cycle once. Side by side, to halve the wait.
    let warm: Vec<&str> = inputs::asked_ranks(cycle, pool.len())
        .into_iter()
        .map(|r| pool[r].text.as_str())
        .collect();
    std::thread::scope(|s| {
        let twin = s.spawn(|| warm.iter().for_each(|q| drop(twin_service.answer(q))));
        let warmed = warm.iter().try_for_each(|q| {
            staged
                .answer_detailed(q)
                .map(drop)
                .map_err(|e| format!("warm-up {q:?}: {e}"))
        });
        twin.join().expect("warm-up thread panicked");
        warmed
    })?;
    let reads_before = totals.reads.load(Ordering::Relaxed);
    let bytes_before = totals.read_value_bytes.load(Ordering::Relaxed);

    let mut replay = Replay {
        spans: Vec::new(),
        requests: 0,
        mismatches: 0,
        advances: 0,
        direct_nanos: 0,
        kv_reads: 0,
        kv_value_bytes: 0,
    };
    let direct = |text: &str, replay: &mut Replay| {
        let started = Instant::now();
        std::hint::black_box(twin_service.answer(text));
        replay.direct_nanos += started.elapsed().as_nanos() as u64;
    };
    spans::start();
    for rank in inputs::run_order(cycle, opts.seed) {
        let query = &pool[rank];
        let staged_first = replay.requests & 1 == 0;
        if !staged_first {
            direct(&query.text, &mut replay);
        }
        spans::set_request(replay.requests);
        let (body, advances) = staged_request(&staged, &query.text)?;
        if staged_first {
            direct(&query.text, &mut replay);
        }
        replay.requests += 1;
        replay.advances += advances;
        replay.mismatches += u64::from(stats::fnv1a(&body) != query.body_hash);
    }
    replay.spans = spans::finish();
    replay.kv_reads = totals.reads.load(Ordering::Relaxed) - reads_before;
    replay.kv_value_bytes = totals.read_value_bytes.load(Ordering::Relaxed) - bytes_before;
    Ok(replay)
}

/// One request, stage by stage: what `conn::handle`, `EngineService`
/// and `XRefineEngine::answer_phases` do, with a span around each call.
fn staged_request(engine: &XRefineEngine, text: &str) -> Outcome<(Vec<u8>, u64)> {
    let raw = format!(
        "GET /query?q={} HTTP/1.1\r\nHost: bench\r\n\r\n",
        encode_query(text)
    );
    spans::span("request", || {
        let request = match spans::span("xserve.parse", || parse_request(raw.as_bytes())) {
            Parse::Ready(request) => request,
            other => {
                return fail(format!(
                    "the server's parser refused a benchmark request: {other:?}"
                ))
            }
        };
        let q = request.param("q").map(str::trim).unwrap_or_default();
        let query = Query::parse(q);
        let rules = spans::span("lexicon.rules", || engine.rules_for(&query));
        let session = spans::span("invindex.session", || {
            RefineSession::with_search_for(
                engine.index(),
                query,
                rules,
                &engine.config().search_for,
            )
        })
        .map_err(|e| format!("session for {q:?}: {e}"))?;
        let outcome = spans::span("xrefine.algorithm", || {
            partition_refine(
                &session,
                &PartitionOptions {
                    k: engine.config().k,
                    slca: traced_slca,
                    ranking: engine.config().ranking.clone(),
                },
            )
        });
        let body = spans::span("xserve.render", || render_outcome(q, &outcome));
        let mut wire = Vec::with_capacity(body.len() + 128);
        let response = Response::json(200, body);
        spans::span("xserve.write", || {
            write_response(&mut wire, &response, false)
        })
        .map_err(|e| format!("write: {e}"))?;
        Ok((response.body, outcome.advances))
    })
}

impl Replay {
    fn layers(&self, report: &mut Report, http_mean_us: f64) {
        let totals = spans::totals(&self.spans);
        let n = self.requests as f64;
        let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64) / n / 1e3;
        let self_us = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64) / n / 1e3;
        report.set("xserve.parse_us", total_us("xserve.parse"));
        report.set("xserve.render_us", total_us("xserve.render"));
        report.set("xserve.write_us", total_us("xserve.write"));
        report.set("lexicon.rules_us", total_us("lexicon.rules"));
        report.set("invindex.session_self_us", self_us("invindex.session"));
        report.set("kvstore.get_us", total_us("kvstore.get"));
        report.set("kvstore.gets_per_query", self.kv_reads as f64 / n);
        report.set(
            "kvstore.value_bytes_per_query",
            self.kv_value_bytes as f64 / n,
        );
        report.set("xrefine.algorithm_self_us", self_us("xrefine.algorithm"));
        report.set("slca.scan_us", total_us("slca.scan"));
        if self.advances > 0 {
            let algorithm_ns = totals
                .get("xrefine.algorithm")
                .map_or(0.0, |t| t.total_ns as f64);
            report.set(
                "invindex.ns_per_advance",
                algorithm_ns / self.advances as f64,
            );
        }

        // The stages `EngineService::answer` covers, against that call.
        let staged_us = total_us("lexicon.rules")
            + total_us("invindex.session")
            + total_us("xrefine.algorithm")
            + total_us("xserve.render");
        let direct_us = self.direct_nanos as f64 / n / 1e3;
        report.set("trace.requests", n);
        report.set("trace.overhead_ratio", staged_us / direct_us);
        report.set(
            "trace.identity_gap",
            (staged_us - direct_us).abs() / direct_us,
        );
        // What HTTP costs on top of answering: queue wait, the hand-off
        // between connection and worker threads, the socket, and sharing
        // two cores with the clients.
        let transport =
            http_mean_us - direct_us - total_us("xserve.parse") - total_us("xserve.write");
        report.set("xserve.transport_us", transport.max(0.0));
    }
}

/// Evidence that serving in-process is the same thing as the shipped
/// binary: when an `xrefine-serve` executable sits beside this one, it
/// is started on the same store and must answer byte for byte what the
/// oracle expects. Untimed.
fn parity_pass(store: &Path, pool: &[PoolQuery], report: &mut Report) -> Outcome<()> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let binary = exe.with_file_name("xrefine-serve");
    if !binary.is_file() {
        println!(
            "parity: skipped, no {} (build it with `cargo build --release -p xserve`)",
            binary.display()
        );
        return Ok(());
    }
    let mut child = Command::new(&binary)
        .args(["--store", &store.to_string_lossy(), "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    // Kept open until the child exits: it prints on its way out, and a
    // closed pipe would turn that into a panic.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let outcome: Outcome<()> = (|| {
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("xrefine-serve: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("xrefine-serve listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("xrefine-serve said {line:?} instead of its address"))?;
        let mut conn =
            Connection::open(addr).map_err(|e| format!("xrefine-serve at {addr}: {e}"))?;
        let mut wrong = 0;
        for query in pool.iter().take(PARITY_QUERIES) {
            report.attempted += 1;
            wrong += u64::from(!crate::common::ask(&mut conn, query, Some(query.body_hash)).1);
        }
        report.failed += wrong;
        conn.post_drain()
            .map_err(|e| format!("xrefine-serve drain: {e}"))?;
        println!(
            "parity: {} of {} answers from {} differ from the oracle's",
            wrong,
            PARITY_QUERIES.min(pool.len()),
            binary.display()
        );
        Ok(())
    })();
    if outcome.is_err() {
        let _ = child.kill();
    }
    let _ = std::io::copy(&mut stdout, &mut std::io::sink());
    let status = child.wait().map_err(|e| format!("xrefine-serve: {e}"))?;
    outcome?;
    if !status.success() {
        return fail(format!("xrefine-serve exited with {status} after drain"));
    }
    Ok(())
}
