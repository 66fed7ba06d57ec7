//! `bench` — shared infrastructure for the table/figure regeneration
//! binaries (one per experiment; see DESIGN.md §3) and the Criterion
//! benches.

use datagen::{generate_baseball, generate_dblp, BaseballConfig, DblpConfig};
use invindex::reader::IndexReader;
use invindex::{persist, CacheStats, Index, KvBackedIndex};
use kvstore::{KvStore, MemKv};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmldom::Document;
use xrefine::{Algorithm, EngineConfig, Query, RankingConfig, XRefineEngine};

/// The standard DBLP corpus used by the experiment binaries. ~2000
/// authors keeps a single experiment run under a minute while preserving
/// the frequency skew the algorithms exploit.
pub fn dblp_config() -> DblpConfig {
    DblpConfig {
        authors: 2000,
        ..Default::default()
    }
}

/// Builds the standard DBLP corpus (optionally scaled, Figure 6).
pub fn dblp(fraction: f64) -> Arc<Document> {
    Arc::new(generate_dblp(&dblp_config().scaled(fraction)))
}

/// Builds the standard Baseball corpus.
pub fn baseball() -> Arc<Document> {
    Arc::new(generate_baseball(&BaseballConfig {
        leagues: 2,
        divisions_per_league: 3,
        teams_per_division: 6,
        players_per_team: 20,
        ..Default::default()
    }))
}

/// Builds an engine with the given algorithm and K.
pub fn engine(doc: Arc<Document>, algorithm: Algorithm, k: usize) -> XRefineEngine {
    XRefineEngine::from_document(
        doc,
        EngineConfig {
            algorithm,
            k,
            ranking: RankingConfig::default(),
            ..Default::default()
        },
    )
}

/// Like [`engine`], over an already-built index (e.g. one produced by
/// the streaming ingest pipeline).
pub fn engine_from_index(index: invindex::Index, algorithm: Algorithm, k: usize) -> XRefineEngine {
    XRefineEngine::from_index(
        index,
        EngineConfig {
            algorithm,
            k,
            ranking: RankingConfig::default(),
            ..Default::default()
        },
    )
}

/// Hot-cache timing: one warm-up run, then the mean over `reps`
/// measured runs, in milliseconds.
pub fn time_ms<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    f(); // warm-up (the paper reports hot-cache numbers)
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1000.0 / reps as f64
}

/// Runs a query through the engine's configured algorithm (the quantity
/// the paper times: refinement + SLCA generation end-to-end). Returns the
/// total number of SLCA results across the returned refinements.
pub fn answer(engine: &XRefineEngine, keywords: &[String]) -> usize {
    let out = engine
        .answer_query(Query::from_keywords(keywords.iter().cloned()))
        .expect("query answered");
    out.refinements.iter().map(|r| r.slcas.len()).sum()
}

/// At-rest and resident cost of an index: persisted store size, plus the
/// `ShardedListCache` state after one pass of a query workload over a
/// cache-budgeted reader on that store.
pub struct StoreFootprint {
    pub v4_bytes: usize,
    pub cache_budget: usize,
    pub cache: CacheStats,
}

impl StoreFootprint {
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }

    /// JSON fragment shared by the serving/update benches.
    pub fn json(&self) -> String {
        format!(
            "{{\"compressed_v4_bytes\": {}, \"cache_budget_bytes\": {}, \
             \"cache_resident_bytes\": {}, \"cache_hit_rate\": {:.4}}}",
            self.v4_bytes,
            self.cache_budget,
            self.cache.cached_bytes,
            self.cache_hit_rate(),
        )
    }
}

/// Measures [`StoreFootprint`] for `index`: persists it (counting every
/// key and value byte), then warms a [`KvBackedIndex`] over the store
/// with one pass of `queries` to observe cache residency at the given
/// byte budget.
pub fn store_footprint(
    index: &Index,
    queries: &[Vec<String>],
    cache_budget: usize,
) -> StoreFootprint {
    let mut packed = MemKv::new();
    persist::persist(index, &mut packed).expect("persist");
    let v4_bytes = packed
        .scan_range(b"", None)
        .expect("dump store")
        .iter()
        .map(|(k, v)| k.len() + v.len())
        .sum();

    let reader = Arc::new(
        KvBackedIndex::open(Box::new(packed))
            .expect("open store")
            .with_cache_budget(cache_budget),
    );
    let engine = XRefineEngine::from_reader(
        Arc::clone(&reader) as Arc<dyn IndexReader>,
        EngineConfig::default(),
    );
    for keywords in queries {
        engine
            .answer_query(Query::from_keywords(keywords.iter().cloned()))
            .expect("footprint query");
    }
    StoreFootprint {
        v4_bytes,
        cache_budget,
        cache: reader.cache_stats(),
    }
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Nearest-rank percentile of an ascending-sorted latency list: the
/// smallest value whose rank is at least `q·n`, i.e. `sorted[⌈q·n⌉−1]`
/// (ranks are 1-based). For `q = 0.5` over `1..=100` ms this is 50 ms —
/// the 50th of 100 values, not the 51st. Quantiles are clamped to the
/// list, so `q ≤ 0` yields the minimum and `q ≥ 1` the maximum.
///
/// Shared by the CLI batch reporter and the `bench_serve` load
/// generator so both report identical definitions.
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let n = sorted.len();
    if n == 0 {
        return Duration::ZERO;
    }
    let rank = (q * n as f64).ceil() as usize; // 1-based nearest rank
    sorted[rank.clamp(1, n) - 1]
}

/// [`percentile`] over an unsorted list: sorts a scratch copy first.
/// Convenience for call sites that only need one-shot quantiles.
pub fn percentile_of(latencies: &[Duration], q: f64) -> Duration {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_build() {
        let d = dblp(0.01);
        assert!(d.len() > 50);
        let b = baseball();
        assert!(b.len() > 100);
    }

    #[test]
    fn store_footprint_reports_size_and_cache_state() {
        let doc = dblp(0.02);
        let index = Index::build(Arc::clone(&doc));
        let queries = vec![
            vec!["xml".to_string(), "query".to_string()],
            vec!["database".to_string(), "system".to_string()],
        ];
        let fp = store_footprint(&index, &queries, 16 * 1024);
        assert!(fp.v4_bytes > 0);
        assert!(fp.cache.cached_bytes <= fp.cache_budget);
        assert!((0.0..=1.0).contains(&fp.cache_hit_rate()));
        let json = fp.json();
        assert!(json.contains("\"compressed_v4_bytes\""));
        assert!(json.contains("\"cache_resident_bytes\""));
    }

    #[test]
    fn timing_helper_is_positive() {
        let t = time_ms(
            || {
                std::hint::black_box((0..1000).sum::<u64>());
            },
            3,
        );
        assert!(t >= 0.0);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_checks_columns() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        // Even length: the 50th percentile of 100 values is rank
        // ⌈0.5·100⌉ = 50 — the old round((n−1)·q) overshot to 51 ms.
        assert_eq!(percentile(&ms, 0.50), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&ms, 0.999), Duration::from_millis(100));
        assert_eq!(percentile(&ms, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&ms, 1.0), Duration::from_millis(100));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);

        // Odd length: median of 1..=5 is the 3rd value.
        let odd: Vec<Duration> = (1..=5).map(Duration::from_millis).collect();
        assert_eq!(percentile(&odd, 0.50), Duration::from_millis(3));

        let one = [Duration::from_millis(7)];
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(percentile(&one, q), one[0]);
        }
    }

    #[test]
    fn percentile_of_sorts_first() {
        let ms: Vec<Duration> = [30u64, 10, 20]
            .iter()
            .map(|&v| Duration::from_millis(v))
            .collect();
        assert_eq!(percentile_of(&ms, 1.0), Duration::from_millis(30));
        assert_eq!(percentile_of(&ms, 0.5), Duration::from_millis(20));
    }
}
