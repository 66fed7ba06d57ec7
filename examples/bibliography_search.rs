//! Bibliography search over a synthetic DBLP corpus: the paper's primary
//! workload. Demonstrates the full pipeline — generate data, build the
//! index, inspect search-for inference, run Top-K refinement with each
//! algorithm, and verify the one-scan instrumentation.
//!
//! ```text
//! cargo run --release --example bibliography_search
//! ```

use std::sync::Arc;
use xrefine_repro::datagen::{generate_dblp, DblpConfig};
use xrefine_repro::prelude::*;
use xrefine_repro::slca::{infer_search_for, SearchForConfig};

fn main() {
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors: 300,
        ..Default::default()
    }));
    println!("generated bibliography with {} elements", doc.len());

    let engine = XRefineEngine::from_document(
        Arc::clone(&doc),
        EngineConfig {
            algorithm: Algorithm::Partition,
            k: 3,
            ..Default::default()
        },
    );

    // Search-for inference (Formula 1): what entity does a query target?
    let index = engine.index();
    let q = Query::parse("xml keyword search");
    let ids: Vec<_> = q
        .keywords()
        .iter()
        .filter_map(|k| index.vocabulary().get(k))
        .collect();
    println!("\nsearch-for candidates for {q}:");
    let candidates = infer_search_for(
        index.document(),
        index.stats(),
        &ids,
        &SearchForConfig::default(),
    );
    for (t, conf) in candidates {
        println!(
            "  {}  (confidence {:.3})",
            doc.node_types().display(t, doc.symbols()),
            conf
        );
    }

    // A realistic broken query: a typo plus a vocabulary mismatch.
    let broken = "xml keyward serach";
    println!("\nanswering broken query {{{broken}}}:");
    let out = engine.answer(broken).unwrap();
    assert!(!out.original_ok);
    for (i, r) in out.refinements.iter().enumerate() {
        println!(
            "  RQ{} = {{{}}}  dSim={}  {} result(s)",
            i + 1,
            r.candidate.keywords.join(", "),
            r.candidate.dissimilarity,
            r.slcas.len()
        );
    }
    println!(
        "  scan budget: {} advances over {} total postings, {} random accesses",
        out.advances,
        index
            .vocabulary()
            .iter()
            .map(|(k, _)| index.list_handle_by_id(k).map(|h| h.len()).unwrap_or(0))
            .sum::<usize>(),
        out.random_accesses
    );

    // Compare the three algorithms on the same query.
    println!("\nalgorithm agreement on the optimal dissimilarity:");
    let mut engine = engine;
    for alg in [
        Algorithm::StackRefine,
        Algorithm::Partition,
        Algorithm::ShortListEager,
    ] {
        engine.config_mut().algorithm = alg;
        let out = engine.answer(broken).unwrap();
        let ds = out
            .best()
            .map(|r| r.candidate.dissimilarity)
            .unwrap_or(f64::NAN);
        println!("  {alg:?}: optimal dSim = {ds}");
    }
}
