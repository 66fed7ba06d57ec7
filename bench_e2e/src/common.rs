//! What every workload shares: options, the scratch directory, child
//! processes, the served instance and the query rounds.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xserve::{QueryService, ServeConfig, ServerHandle};

use crate::consts::{Scale, QUEUE_CAPACITY, WORKERS};
use crate::http::Connection;
use crate::inputs::PoolQuery;
use crate::metrics::Report;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeWarm,
    ServeCold,
    LiveUpdate,
    LiveCommit,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ServeWarm,
        Workload::ServeCold,
        Workload::LiveUpdate,
        Workload::LiveCommit,
        Workload::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve_warm",
            Workload::ServeCold => "serve_cold",
            Workload::LiveUpdate => "live_update",
            Workload::LiveCommit => "live_commit",
            Workload::Ingest => "ingest",
        }
    }

    /// The one-sentence reason `BENCHMARK.json` records.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeWarm => "GET /query, Zipf over 280 queries, every list a cache hit: rule generation, the SLCA scan, the DP and xserve do all the work, the store none",
            Workload::ServeCold => "same store and request stream, list cache an eighth of the working set: the Zipf tail is re-read through B+-tree, pager and v4 block decode",
            Workload::LiveUpdate => "the same queries with an add/remove commit pair before every 16 and a compaction every 16 commits: reads after writes, invalidation, a generation change per commit",
            Workload::LiveCommit => "the writer alone, op = one add or remove commit with WAL fsync: the write path with nothing else on the two cores",
            Workload::Ingest => "XML file to synced v4 store, repeated: only scan, tokenize, merge, v4 encode and kvstore writes run, the query side does nothing",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
}

/// A broken assumption: the run exits non-zero naming it, instead of
/// printing a number that no longer means what its name says.
pub type Outcome<T> = Result<T, String>;

pub fn fail<T>(what: impl Into<String>) -> Outcome<T> {
    Err(what.into())
}

/// Scratch directory under the build directory (so inside the checkout
/// and ignored by git), removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

pub fn output_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("bench_e2e")
}

impl WorkDir {
    pub fn create(workload: Workload) -> Outcome<WorkDir> {
        let path = output_root().join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Re-executes this binary with `args`, waits for it, and fails unless
/// it exits 0. The child inherits stderr; its stdout is returned.
pub fn run_child(args: &[&str]) -> Outcome<String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(&exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return fail(format!(
            "child `{}` exited with {}",
            args.join(" "),
            out.status
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output is not UTF-8: {e}"))
}

/// Generates a corpus (and, with `pool_per_kind` > 0, the query pool and
/// its oracle) into `dir`, in a child so the resident index the oracle
/// needs never counts towards this process's peak RSS.
pub fn make_inputs(
    dir: &WorkDir,
    authors: usize,
    corpus_seed: u64,
    pool_per_kind: usize,
    cycle_len: usize,
) -> Outcome<()> {
    run_child(&[
        "child-inputs",
        &authors.to_string(),
        &corpus_seed.to_string(),
        &dir.join("").to_string_lossy(),
        &pool_per_kind.to_string(),
        &cycle_len.to_string(),
    ])
    .map(|_| ())
}

/// Ingests `xml` into a fresh v4 store at `store`, in a child for the
/// same reason.
pub fn build_store(xml: &Path, store: &Path) -> Outcome<()> {
    let _ = std::fs::remove_file(store);
    run_child(&[
        "child-store",
        &xml.to_string_lossy(),
        &store.to_string_lossy(),
    ])
    .map(|_| ())
}

/// `VmHWM` of this process, in MB (10^6 bytes).
fn peak_rss_mb() -> Outcome<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// A started server and the closed loop's one connection to it.
pub struct Serving {
    handle: ServerHandle,
    pub conn: Connection,
}

impl Serving {
    pub fn start(service: Arc<dyn QueryService>) -> Outcome<Serving> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            ..ServeConfig::default()
        };
        let handle = xserve::start(config, service).map_err(|e| format!("cannot bind: {e}"))?;
        let addr = handle.addr();
        let conn = Connection::open(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        Ok(Serving { handle, conn })
    }

    /// Closes the connection, drains the server and waits for every
    /// thread it started.
    pub fn shutdown(self) -> Outcome<()> {
        drop(self.conn);
        match self.handle.join() {
            0 => Ok(()),
            n => fail(format!("{n} connection(s) still open after drain")),
        }
    }
}

/// One timed request of a round.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Pool rank of the query.
    pub rank: usize,
    pub ms: f64,
}

/// One pass over the workload's fixed sequence of timed steps. Every
/// round of a run takes the same steps in the same order from the same
/// state, so step `i` of one round and step `i` of the next are the same
/// work.
#[derive(Debug, Default)]
pub struct Round {
    /// The operations that succeeded, in the order taken.
    pub samples: Vec<Sample>,
    /// Timed steps that are not operations but that the operations
    /// cannot do without: `live_commit`'s compactions.
    pub other_ms: Vec<f64>,
    pub failed: u64,
    pub wall: Duration,
}

/// Sends one pool query and checks the reply against the oracle (a
/// `None` hash checks only that the body is the answer to this query:
/// under live updates the expected body changes with every commit).
pub fn ask(conn: &mut Connection, query: &PoolQuery, expect_hash: Option<u64>) -> (f64, bool) {
    match conn.get_query(&query.text) {
        Ok(reply) => {
            let ok = reply.status == 200
                && match expect_hash {
                    Some(hash) => stats::fnv1a(&reply.body) == hash,
                    None => reply.body.starts_with(
                        format!("{{\"query\":{}", obs::metrics::json_string(&query.text))
                            .as_bytes(),
                    ),
                };
            (reply.elapsed.as_secs_f64() * 1e3, ok)
        }
        Err(_) => (0.0, false),
    }
}

/// One round: every request of `order`, one after the other, each
/// checked against the oracle. Closed loop, one request in flight: the
/// next is sent when the previous reply has been read in full.
pub fn run_round(conn: &mut Connection, pool: &[PoolQuery], order: &[usize]) -> Round {
    let mut round = Round::default();
    let started = Instant::now();
    for &rank in order {
        let query = &pool[rank];
        let (ms, ok) = ask(conn, query, Some(query.body_hash));
        if ok {
            round.samples.push(Sample { rank, ms });
        } else {
            round.failed += 1;
        }
    }
    round.wall = started.elapsed();
    round
}

/// The warm-up pass: every query the rounds will ask, once.
pub fn warm_up(conn: &mut Connection, pool: &[PoolQuery], cycle: &[usize], report: &mut Report) {
    let order = crate::inputs::asked_ranks(cycle, pool.len());
    let round = run_round(conn, pool, &order);
    report.attempted += order.len() as u64;
    report.failed += round.failed;
}

/// Rounds of queries for `seconds`, each asking for the cycle in the
/// run's order; a round in flight when the time is up is finished.
pub fn query_rounds(
    conn: &mut Connection,
    pool: &[PoolQuery],
    cycle: &[usize],
    seed: u64,
    seconds: f64,
) -> Vec<Round> {
    let order = crate::inputs::run_order(cycle, seed);
    let started = Instant::now();
    let mut rounds = Vec::new();
    while started.elapsed().as_secs_f64() < seconds {
        rounds.push(run_round(conn, pool, &order));
    }
    rounds
}

/// Latency and throughput of the rounds. Step `i` is the same work in
/// every round, so its times are repeated measurements of one quantity,
/// and what differs between them is the host: a shared host only ever
/// adds time, for seconds at a stretch. So each step is given its
/// lowest time over the rounds; the percentiles are taken over the
/// operations of one round so timed, and the rate is those operations
/// over the sum of all the round's steps. (Percentiles of whole rounds —
/// best round, median round — were tried first: with a twentieth of a
/// round's requests caught in a slow stretch its p95 is the host's, and
/// no round of `live_commit` escaped. README, "Repeatability".)
///
/// What this cannot see is work that lands on a different step in every
/// round; `client.*` of the traced run, over every request, does.
pub struct RoundStats {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub per_s: f64,
    pub samples: usize,
    pub failed: u64,
}

pub fn round_stats(rounds: &[Round]) -> Outcome<RoundStats> {
    // A round that lost a request no longer lines up with the others.
    let whole: Vec<&Round> = rounds.iter().filter(|r| r.failed == 0).collect();
    let first = whole
        .first()
        .ok_or("no round of the timed window went through without a failure")?;
    let (ops, others) = (first.samples.len(), first.other_ms.len());
    if ops == 0
        || whole
            .iter()
            .any(|r| r.samples.len() != ops || r.other_ms.len() != others)
    {
        return fail("the rounds of the timed window do not take the same steps");
    }
    let mut op_ms: Vec<f64> = (0..ops)
        .map(|i| {
            whole
                .iter()
                .map(|r| r.samples[i].ms)
                .fold(f64::MAX, f64::min)
        })
        .collect();
    let other_ms: f64 = (0..others)
        .map(|i| whole.iter().map(|r| r.other_ms[i]).fold(f64::MAX, f64::min))
        .sum();
    let round_ms = op_ms.iter().sum::<f64>() + other_ms;
    stats::sort(&mut op_ms);
    Ok(RoundStats {
        p50_ms: stats::percentile(&op_ms, 0.50),
        p95_ms: stats::percentile(&op_ms, 0.95),
        per_s: ops as f64 * 1e3 / round_ms,
        samples: rounds.iter().map(|r| r.samples.len()).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
    })
}

/// The untraced run's result: the five end-to-end metrics.
pub fn end_to_end(report: &mut Report, timed: &RoundStats, setup_s: f64) -> Outcome<()> {
    report.set("op_p50_ms", timed.p50_ms);
    report.set("op_p95_ms", timed.p95_ms);
    report.set("ops_per_s", timed.per_s);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb()?);
    Ok(())
}

/// Set-up, repeated `SETUP_REPS` times: `setup_s` is the median. Only
/// the last repetition's instance is measured, and only it may live in
/// this process — an earlier instance, even dropped, leaves the
/// allocator in a state that moves `peak_rss_mb` by a third — so
/// `earlier` performs a whole set-up elsewhere and returns its seconds.
///
/// A traced run reports no `setup_s` and sets up once.
pub fn repeat_setup<T>(
    opts: &Opts,
    mut earlier: impl FnMut() -> Outcome<f64>,
    last: impl FnOnce() -> Outcome<T>,
) -> Outcome<(T, f64)> {
    let mut seconds = Vec::new();
    for _ in 1..if opts.traced {
        1
    } else {
        crate::consts::SETUP_REPS
    } {
        seconds.push(earlier()?);
    }
    let started = Instant::now();
    let kept = last()?;
    seconds.push(started.elapsed().as_secs_f64());
    Ok((kept, stats::median(&seconds)))
}

/// One whole set-up of `opts.workload` in a child, over the inputs
/// already in `dir`. The child prints its seconds as its last line.
pub fn setup_in_child(opts: &Opts, dir: &WorkDir) -> Outcome<f64> {
    let smoke = if opts.scale == crate::consts::SMOKE {
        "1"
    } else {
        "0"
    };
    let out = run_child(&[
        "child-setup",
        opts.workload.name(),
        &opts.seed.to_string(),
        smoke,
        &dir.join("").to_string_lossy(),
    ])?;
    out.lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("child-setup printed {out:?} instead of its seconds"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(ops: &[f64], other_ms: &[f64], failed: u64) -> Round {
        Round {
            samples: ops.iter().map(|&ms| Sample { rank: 0, ms }).collect(),
            other_ms: other_ms.to_vec(),
            failed,
            wall: Duration::ZERO,
        }
    }

    #[test]
    fn each_step_takes_its_lowest_time_over_the_whole_rounds() {
        let rounds = [
            round(&[4.0, 9.0, 2.0, 8.0], &[10.0], 0),
            round(&[5.0, 3.0, 6.0, 7.0], &[6.0], 0),
            // Lost a request: its steps no longer line up.
            round(&[1.0, 1.0, 1.0], &[1.0], 1),
        ];
        let stats = round_stats(&rounds).unwrap();
        // Steps at their lowest: 4, 3, 2, 7, and the compaction 6.
        assert_eq!((stats.p50_ms, stats.p95_ms), (3.0, 7.0));
        assert_eq!(stats.per_s, 4.0 * 1e3 / 22.0);
        assert_eq!((stats.samples, stats.failed), (11, 1));

        let uneven = [round(&[1.0, 2.0], &[], 0), round(&[1.0], &[], 0)];
        assert!(round_stats(&uneven).is_err());
        assert!(round_stats(&[round(&[1.0], &[], 1)]).is_err());
    }
}
