//! Frozen constants. Every value here is part of the measurement's
//! definition: it is written into each result file's header, and
//! `compare` refuses two files whose constants differ. The values were
//! calibrated once on the host recorded in the README.
//!
//! Not here because it is not a number: every workload keeps one request
//! in flight on one keep-alive connection (README, "One request in
//! flight").

/// `xserve` query workers.
pub const WORKERS: usize = 2;
/// `xserve` total queued-request capacity.
pub const QUEUE_CAPACITY: usize = 64;
/// Tokenizer threads handed to `build_streaming`.
pub const INGEST_THREADS: usize = 2;
/// Ingest reps per round of `ingest`.
pub const INGEST_REPS_PER_ROUND: usize = 8;
/// Zipf exponent of query popularity.
pub const ZIPF_S: f64 = 1.0;
/// `op=compact` is sent after this many commits.
pub const COMPACT_EVERY: usize = 16;
/// `live_update` commits an add/remove pair before every this many
/// queries.
pub const QUERIES_PER_PAIR: usize = 16;
/// Commits per round of `live_commit`: whole compaction cycles, so that
/// every round starts from a compacted store.
pub const COMMITS_PER_ROUND: usize = 64;
const _: () = assert!(COMMITS_PER_ROUND.is_multiple_of(COMPACT_EVERY));
/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Seeds of the frozen serving inputs. Per-query cost is heavy-tailed:
/// a different corpus or pool moves the median latency by tens of
/// percent (README, "What --seed reaches"), far beyond any bound, so
/// `--seed` may not reach these.
pub const CORPUS_SEED: u64 = 0xD8B1;
pub const POOL_SEED: u64 = 0x9E37_79B9;
pub const CYCLE_SEED: u64 = 0xC1C1_E5EE;
/// Query-pool end checks of the live workloads compare this many queries.
pub const END_CHECK_QUERIES: usize = 20;
/// Queries of the parity pass against a sibling `xrefine-serve`.
pub const PARITY_QUERIES: usize = 20;

/// Sizes that differ between the measured scale and `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Authors of corpus_m (serve_warm, serve_cold, ingest).
    pub corpus_m_authors: usize,
    /// Authors of corpus_s (live_update, live_commit).
    pub corpus_s_authors: usize,
    /// `generate_workload(per_kind)`: the pool holds 7 times this.
    pub pool_per_kind: usize,
    /// Requests per round: a fixed multiset drawn once from Zipf.
    pub cycle_len: usize,
    /// List-cache budget of serve_cold, in encoded bytes: an eighth of
    /// the `invindex.cache_resident_bytes` serve_warm reaches.
    pub cold_budget_bytes: usize,
    /// Authors of the second corpus that update fragments are cut from.
    pub fragment_authors: usize,
    /// Sample floors; a run below them exits non-zero.
    pub min_requests: usize,
    pub min_commits: usize,
    pub min_ingest_reps: usize,
    /// A traced run fails when `trace.identity_gap` exceeds this many
    /// hundredths.
    pub max_identity_gap_pct: u32,
}

pub const FULL: Scale = Scale {
    corpus_m_authors: 2500,
    corpus_s_authors: 300,
    pool_per_kind: 40,
    cycle_len: 256,
    cold_budget_bytes: 530_622 / 8,
    fragment_authors: 64,
    min_requests: 500,
    min_commits: 100,
    min_ingest_reps: 10,
    max_identity_gap_pct: 10,
};

/// `--smoke`: the same code at a size a debug build finishes in seconds.
/// Numbers from it are discarded.
pub const SMOKE: Scale = Scale {
    corpus_m_authors: 100,
    corpus_s_authors: 40,
    pool_per_kind: 4,
    cycle_len: 32,
    cold_budget_bytes: 4 * 1024,
    fragment_authors: 8,
    min_requests: 1,
    min_commits: 1,
    min_ingest_reps: 1,
    // A few dozen sub-millisecond requests: the gap is timer noise.
    max_identity_gap_pct: u32::MAX,
};

impl Scale {
    /// The header lines `compare` matches on.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("workers", WORKERS.to_string()),
            ("queue_capacity", QUEUE_CAPACITY.to_string()),
            ("ingest_threads", INGEST_THREADS.to_string()),
            ("ingest_reps_per_round", INGEST_REPS_PER_ROUND.to_string()),
            ("zipf_s", ZIPF_S.to_string()),
            ("compact_every", COMPACT_EVERY.to_string()),
            ("commits_per_round", COMMITS_PER_ROUND.to_string()),
            ("queries_per_pair", QUERIES_PER_PAIR.to_string()),
            ("setup_reps", SETUP_REPS.to_string()),
            ("corpus_seed", CORPUS_SEED.to_string()),
            ("pool_seed", POOL_SEED.to_string()),
            ("cycle_seed", CYCLE_SEED.to_string()),
            ("corpus_m_authors", self.corpus_m_authors.to_string()),
            ("corpus_s_authors", self.corpus_s_authors.to_string()),
            ("pool_per_kind", self.pool_per_kind.to_string()),
            ("cycle_len", self.cycle_len.to_string()),
            ("cold_budget_bytes", self.cold_budget_bytes.to_string()),
            ("fragment_authors", self.fragment_authors.to_string()),
        ]
    }
}
