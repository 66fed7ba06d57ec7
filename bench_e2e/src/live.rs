//! `live_update` and `live_commit`: the store used the other way round.
//! A v4 store on real files (WAL fsync per commit, the code's own
//! policy) is served through `LiveEngineService`; one connection sends
//! `op=add` of an `<author>` subtree, `op=remove` of the slot it filled,
//! and `op=compact` every `COMPACT_EVERY` commits.
//!
//! * `live_update` puts such a pair of commits before every
//!   `QUERIES_PER_PAIR` queries of the query rounds, and its operation
//!   is the query: reads of a store whose generation, overlay and list
//!   cache a commit has just changed.
//! * `live_commit` sends commits only, and its operation is the commit.
//!
//! Both keep one request in flight at a time. Reads racing a writer on
//! the host's two cores were tried first and did not repeat (README,
//! "One request in flight").

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use xrefine::{EngineConfig, LiveEngine, XRefineEngine};
use xserve::service::render_outcome;
use xserve::LiveEngineService;

use crate::common::{
    ask, build_store, end_to_end, fail, make_inputs, repeat_setup, round_stats, setup_in_child,
    warm_up, Opts, Outcome, Round, Sample, Serving, WorkDir, Workload,
};
use crate::consts::{
    COMMITS_PER_ROUND, COMPACT_EVERY, CORPUS_SEED, END_CHECK_QUERIES, QUERIES_PER_PAIR,
};
use crate::http::Connection;
use crate::inputs::{self, PoolQuery};
use crate::metrics::{obs_layers, Report};
use crate::serve::client_layers;
use crate::{json, stats};

/// What the commits did and saw.
#[derive(Default)]
struct WriteLog {
    /// Add/remove commits; a round's wall time includes its compactions.
    rounds: Vec<Round>,
    compact_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Σ bytes of the fragments added.
    fragment_bytes: u64,
    overlay_max: i64,
    /// Sequence number of the last acknowledged commit.
    seq: u64,
}

/// One `POST /admin/update`; `expect` is the `(seq, records)` the reply
/// must acknowledge, `None` for `op=compact`.
fn post(
    conn: &mut Connection,
    params: &str,
    body: &str,
    expect: Option<(u64, usize)>,
    log: &mut WriteLog,
) -> f64 {
    log.attempted += 1;
    let Ok(reply) = conn.post_update(params, body) else {
        log.failed += 1;
        return 0.0;
    };
    let acknowledged = std::str::from_utf8(&reply.body)
        .ok()
        .and_then(|b| json::parse(b).ok());
    let ok = reply.status == 200
        && match (expect, &acknowledged) {
            (Some((seq, records)), Some(ack)) => {
                ack.get("seq").and_then(json::Value::as_f64) == Some(seq as f64)
                    && ack.get("records").and_then(json::Value::as_f64) == Some(records as f64)
            }
            (None, Some(ack)) => ack.get("compacted").is_some(),
            (_, None) => false,
        };
    if !ok {
        log.failed += 1;
    }
    reply.elapsed.as_secs_f64() * 1e3
}

/// The corpus as set-up left it, and what is added to it.
struct Updates<'a> {
    fragments: &'a [String],
    base_records: usize,
}

impl Updates<'_> {
    /// One add and the remove of the slot it filled, as two commits
    /// pushed onto `round`, then a compaction if one is due. The corpus
    /// is back at `base_records` afterwards. Fragment and compaction
    /// follow from how far `round` has got, so every round commits the
    /// same fragments and compacts after the same commits.
    fn commit_pair(&self, conn: &mut Connection, round: &mut Round, log: &mut WriteLog) {
        let started = Instant::now();
        let failed_before = log.failed;
        let fragment = &self.fragments[round.samples.len() / 2 % self.fragments.len()];
        log.fragment_bytes += fragment.len() as u64;
        let add_ms = post(
            conn,
            "op=add",
            fragment,
            Some((log.seq + 1, self.base_records + 1)),
            log,
        );
        let slot = format!("op=remove&slot={}", self.base_records);
        let remove_ms = post(conn, &slot, "", Some((log.seq + 2, self.base_records)), log);
        log.seq += 2;
        round.samples.push(Sample {
            rank: 0,
            ms: add_ms,
        });
        round.samples.push(Sample {
            rank: 0,
            ms: remove_ms,
        });
        log.overlay_max = log
            .overlay_max
            .max(obs::global().gauge("maint_overlay_entries").get());
        if round.samples.len().is_multiple_of(COMPACT_EVERY) {
            let compact_ms = post(conn, "op=compact", "", None, log);
            log.compact_ms.push(compact_ms);
            round.other_ms.push(compact_ms);
        }
        round.failed += log.failed - failed_before;
        round.wall += started.elapsed();
    }
}

/// `live_commit`'s window: rounds of `COMMITS_PER_ROUND` commits until
/// `seconds` have passed; the round in flight is finished.
fn commit_rounds(conn: &mut Connection, updates: &Updates<'_>, seconds: f64, log: &mut WriteLog) {
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let mut round = Round::default();
        while round.samples.len() < COMMITS_PER_ROUND {
            updates.commit_pair(conn, &mut round, log);
        }
        log.rounds.push(round);
    }
}

/// `live_update`'s window: the query rounds, with a pair of commits
/// before every `QUERIES_PER_PAIR` queries. A query round's wall time is
/// the time spent on its queries. Bodies are not compared with the
/// oracle: the expected body changes with every commit.
fn update_rounds(
    conn: &mut Connection,
    updates: &Updates<'_>,
    pool: &[PoolQuery],
    cycle: &[usize],
    opts: &Opts,
    log: &mut WriteLog,
) -> Vec<Round> {
    let order = inputs::run_order(cycle, opts.seed);
    let started = Instant::now();
    let mut reads = Vec::new();
    while started.elapsed().as_secs_f64() < opts.seconds {
        let (mut queries, mut commits) = (Round::default(), Round::default());
        for chunk in order.chunks(QUERIES_PER_PAIR) {
            updates.commit_pair(conn, &mut commits, log);
            for &rank in chunk {
                let (ms, ok) = ask(conn, &pool[rank], None);
                if ok {
                    queries.samples.push(Sample { rank, ms });
                    queries.wall += std::time::Duration::from_secs_f64(ms / 1e3);
                } else {
                    queries.failed += 1;
                }
            }
        }
        reads.push(queries);
        log.rounds.push(commits);
    }
    reads
}

fn open_live(base: &Path) -> Outcome<Arc<LiveEngine>> {
    LiveEngine::open(base, EngineConfig::default())
        .map(Arc::new)
        .map_err(|e| format!("{}: {e}", base.display()))
}

/// Everything before the first timed request: ingest into a fresh
/// store (in a child), open it for maintenance, start the server,
/// connect, ask every query of the cycle once, and commit once.
fn set_up(
    dir: &Path,
    pool: &[PoolQuery],
    cycle: &[usize],
    fragments: &[String],
    report: &mut Report,
) -> Outcome<(Serving, Arc<LiveEngine>)> {
    let base = dir.join("live");
    for stale in ["wal", "db.new"] {
        let _ = std::fs::remove_file(base.with_extension(stale));
    }
    build_store(&dir.join("corpus.xml"), &base.with_extension("db"))?;
    let live = open_live(&base)?;
    let mut serving = Serving::start(Arc::new(LiveEngineService::new(Arc::clone(&live))))?;
    // Nothing has been committed yet, so the oracle still holds.
    warm_up(&mut serving.conn, pool, cycle, report);
    // One round trip of the write path, so that the first timed commit
    // is not the first commit.
    let mut warm = WriteLog::default();
    let updates = Updates {
        fragments,
        base_records: live.maint().record_count(),
    };
    updates.commit_pair(&mut serving.conn, &mut Round::default(), &mut warm);
    report.attempted += warm.attempted;
    report.failed += warm.failed;
    Ok((serving, live))
}

/// `child-setup`: one set-up, torn down again, for its seconds alone.
pub fn set_up_and_discard(opts: &Opts, dir: &Path) -> Outcome<f64> {
    let pool = inputs::read_pool(&dir.join("queries.tsv"))?;
    let cycle = inputs::cycle(pool.len(), opts.scale.cycle_len);
    let fragments = inputs::fragments(opts.seed, opts.scale.fragment_authors);
    let started = Instant::now();
    let (serving, _live) = set_up(dir, &pool, &cycle, &fragments, &mut Report::default())?;
    let seconds = started.elapsed().as_secs_f64();
    serving.shutdown()?;
    Ok(seconds)
}

pub fn run(opts: &Opts) -> Outcome<Report> {
    let scale = &opts.scale;
    let dir = WorkDir::create(opts.workload)?;
    make_inputs(
        &dir,
        scale.corpus_s_authors,
        CORPUS_SEED,
        scale.pool_per_kind,
        scale.cycle_len,
    )?;
    let pool = inputs::read_pool(&dir.join("queries.tsv"))?;
    let cycle = inputs::cycle(pool.len(), scale.cycle_len);
    let fragments = inputs::fragments(opts.seed, scale.fragment_authors);
    let base = dir.join("live");

    let mut report = Report::default();
    let ((mut serving, live), setup_s) = repeat_setup(
        opts,
        || setup_in_child(opts, &dir),
        || set_up(dir.path(), &pool, &cycle, &fragments, &mut report),
    )?;

    let updates = Updates {
        fragments: &fragments,
        base_records: live.maint().record_count(),
    };
    let mut log = WriteLog {
        seq: live.maint().seq(),
        ..WriteLog::default()
    };
    let before = obs::global().snapshot();
    let conn = &mut serving.conn;
    let reads = if opts.workload == Workload::LiveUpdate {
        update_rounds(conn, &updates, &pool, &cycle, opts, &mut log)
    } else {
        commit_rounds(conn, &updates, opts.seconds, &mut log);
        Vec::new()
    };
    let delta = obs::global().snapshot().delta_since(&before);
    let resident = live.maint().cache().stats().cached_bytes as f64;
    serving.shutdown()?;
    drop(live);

    let commits: usize = log.rounds.iter().map(|r| r.samples.len()).sum();
    report.attempted += log.attempted + (reads.len() * cycle.len()) as u64;
    report.failed += log.failed + reads.iter().map(|r| r.failed).sum::<u64>();
    end_check(&base, log.seq, updates.base_records, &pool, &mut report)?;

    if commits < scale.min_commits {
        return fail(format!(
            "{commits} commits in the window, below the floor of {}: commit percentiles would not repeat",
            scale.min_commits
        ));
    }
    if !opts.traced {
        let timed = if opts.workload == Workload::LiveUpdate {
            let timed = round_stats(&reads)?;
            if timed.samples < scale.min_requests {
                return fail(format!(
                    "{} timed requests, below the floor of {}: percentiles would not repeat",
                    timed.samples, scale.min_requests
                ));
            }
            timed
        } else {
            round_stats(&log.rounds)?
        };
        end_to_end(&mut report, &timed, setup_s)?;
        return Ok(report);
    }

    let queries: usize = reads.iter().map(|r| r.samples.len()).sum();
    obs_layers(&mut report, &delta, queries as f64, commits as f64);
    report.set("invindex.cache_resident_bytes", resident);
    client_layers(&mut report, &reads, &pool);
    let mut commit_ms: Vec<f64> = log
        .rounds
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.ms))
        .collect();
    stats::sort(&mut commit_ms);
    let writer_s: f64 = log.rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
    report.set("client.commit_p50_ms", stats::percentile(&commit_ms, 0.50));
    report.set("client.commit_p90_ms", stats::percentile(&commit_ms, 0.90));
    report.set("client.commits_per_s", commits as f64 / writer_s);
    if queries == 0 {
        report.set("client.samples", commits as f64);
        report.set("client.timed_s", writer_s);
    }
    report.set("invindex.compaction_mean_ms", stats::mean(&log.compact_ms));
    report.set("invindex.overlay_entries_max", log.overlay_max as f64);
    let wal_bytes = delta
        .counters
        .get("kvstore_wal_appended_bytes_total")
        .copied()
        .unwrap_or(0);
    report.set(
        "kvstore.wal_bytes_per_fragment_byte",
        wal_bytes as f64 / log.fragment_bytes as f64,
    );
    Ok(report)
}

/// Durability and read-after-reopen: with the service gone, the store
/// reopened from its files must hold exactly what was acknowledged, and
/// answer as an engine built from scratch over the same records does.
fn end_check(
    base: &Path,
    acknowledged_seq: u64,
    records: usize,
    pool: &[PoolQuery],
    report: &mut Report,
) -> Outcome<()> {
    let reopened = open_live(base)?;
    let maint = reopened.maint();
    if maint.seq() != acknowledged_seq || maint.record_count() != records {
        return fail(format!(
            "after reopening, the store is at seq {} with {} records; seq {acknowledged_seq} with {records} records was acknowledged",
            maint.seq(),
            maint.record_count()
        ));
    }
    let rebuilt = XRefineEngine::from_xml(&maint.full_xml(), EngineConfig::default())
        .map_err(|e| format!("the reopened store's full_xml does not parse: {e:?}"))?;
    let engine = reopened.engine();
    for query in pool.iter().take(END_CHECK_QUERIES) {
        report.attempted += 1;
        let body = |engine: &XRefineEngine| {
            engine
                .answer_detailed(&query.text)
                .map(|o| render_outcome(&query.text, &o))
                .ok()
        };
        let (from_store, from_scratch) = (body(&engine), body(&rebuilt));
        if from_store.is_none() || from_store != from_scratch {
            report.failed += 1;
        }
    }
    Ok(())
}
