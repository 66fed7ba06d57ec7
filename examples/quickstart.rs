//! Quickstart: index the paper's Figure 1 bibliography and run the
//! motivating queries of §I (Example 1 and query Q4 of Table I).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use xrefine_repro::prelude::*;

fn main() {
    // The paper's Figure 1 document ships as a fixture; any XML string
    // works through `XRefineEngine::from_xml`.
    let engine = XRefineEngine::from_document(
        Arc::new(xrefine_repro::xmldom::fixtures::figure1()),
        EngineConfig {
            algorithm: Algorithm::Partition,
            k: 3,
            ..Default::default()
        },
    );

    // Example 1: {database, publication}. The data uses "proceedings",
    // "article" and "inproceedings", never "publication", so the query as
    // stated has no result — the engine must refine it automatically.
    println!("== Example 1: {{database, publication}} ==");
    let out = engine.answer("database publication").unwrap();
    assert!(!out.original_ok, "the query must need refinement");
    for (i, r) in out.refinements.iter().enumerate() {
        println!(
            "  RQ{} = {{{}}}  dSim={}  rank={:.3}  {} result(s)",
            i + 1,
            r.candidate.keywords.join(", "),
            r.candidate.dissimilarity,
            r.rank_score,
            r.slcas.len()
        );
    }

    // Q4 of Table I: {XML, John, 2003} — every keyword exists, but only
    // the document root covers them all, which is meaningless to a user.
    println!("\n== Q4: {{xml, john, 2003}} ==");
    let out = engine.answer("xml john 2003").unwrap();
    assert!(!out.original_ok);
    println!("  needs refinement: only the root covers all three keywords");
    let best = out.best().expect("a refinement exists");
    println!(
        "  best RQ = {{{}}} with {} meaningful result(s):",
        best.candidate.keywords.join(", "),
        best.slcas.len()
    );
    for d in &best.slcas {
        println!("--- result at {d} ---");
        let xml = engine.render(d).expect("an in-memory store reads");
        print!("{}", xml.expect("a result label names a node"));
    }

    // A query that is fine as-is returns its own results untouched.
    println!("\n== {{john, fishing}} ==");
    let out = engine.answer("john fishing").unwrap();
    assert!(out.original_ok);
    println!(
        "  no refinement needed; {} meaningful result(s)",
        out.best().unwrap().slcas.len()
    );
}
