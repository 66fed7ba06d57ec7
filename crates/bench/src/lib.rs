//! `bench` — shared infrastructure for the table/figure regeneration
//! binaries (one per experiment; see DESIGN.md §3) and the `dp_bench`
//! timing main.

use datagen::{generate_baseball, generate_dblp, BaseballConfig, DblpConfig};
use std::sync::Arc;
use std::time::Instant;
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

/// Hot-cache timing of a call too quick for a few runs to measure: one
/// warm-up run, then batches of doubling size until the runs together
/// took at least `total_ms`; the mean over all of them, in milliseconds.
pub fn time_ms_over<F: FnMut()>(mut f: F, total_ms: f64) -> f64 {
    f();
    let start = Instant::now();
    let (mut reps, mut batch) = (0u64, 1u64);
    loop {
        for _ in 0..batch {
            f();
        }
        reps += batch;
        let elapsed = start.elapsed().as_secs_f64() * 1000.0;
        if elapsed >= total_ms {
            return elapsed / reps as f64;
        }
        batch *= 2;
    }
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
}
