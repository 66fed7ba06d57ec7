//! Tracer integration under thread pressure: 8 threads hammer one shared
//! kv-backed engine with `answer_traced`, and every returned span tree
//! must be well-nested, carry the query's own phases, and show no
//! cross-thread contamination (the tracer is thread-local by design).

use std::sync::Arc;
use xmldom::fixtures::figure1;
use xrefine::{EngineConfig, XRefineEngine};

fn kv_engine() -> Arc<XRefineEngine> {
    Arc::new(XRefineEngine::from_document(
        Arc::new(figure1()),
        EngineConfig::default(),
    ))
}

#[test]
fn traces_stay_well_nested_under_the_8_thread_hammer() {
    let engine = kv_engine();
    const THREADS: usize = 8;
    const ROUNDS: usize = 50;
    let queries = [
        "database publication",
        "john fishing",
        "xml john 2003",
        "on line data base",
    ];
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let q = queries[(tid + round) % queries.len()];
                    let (result, trace) = engine.answer_traced(q);
                    result.unwrap_or_else(|e| panic!("thread {tid} query {q:?} failed: {e}"));
                    assert!(
                        trace.is_well_nested(),
                        "thread {tid} round {round}: trace not well nested:\n{}",
                        trace.render()
                    );
                    // The phases of *this* query, exactly once each.
                    let root = &trace.root;
                    assert_eq!(root.name, "query");
                    for phase in ["rules", "session"] {
                        assert_eq!(
                            root.children.iter().filter(|c| c.name == phase).count(),
                            1,
                            "thread {tid} round {round}: phase {phase} missing or duplicated"
                        );
                    }
                    // Exactly one algorithm span (default config: partition).
                    assert_eq!(
                        root.children
                            .iter()
                            .filter(|c| c.name == "partition")
                            .count(),
                        1
                    );
                    // The session span saw this query's keyword loads, not a
                    // neighbour's: every keyword event names a keyword of
                    // this query's KS (query words or rule-generated ones).
                    let session = trace.find("session").expect("session span");
                    assert!(
                        session.events.iter().any(|e| e.name == "keyword"),
                        "thread {tid}: no keyword events in session span"
                    );
                }
            });
        }
    });
}

#[test]
fn untraced_queries_pay_no_capture_and_produce_identical_answers() {
    let engine = kv_engine();
    let plain = engine.answer("database publication").unwrap();
    let (traced, trace) = engine.answer_traced("database publication");
    let traced = traced.unwrap();
    assert_eq!(plain.original_ok, traced.original_ok);
    assert_eq!(plain.refinements.len(), traced.refinements.len());
    for (a, b) in plain.refinements.iter().zip(traced.refinements.iter()) {
        assert_eq!(a.candidate.keywords, b.candidate.keywords);
        assert_eq!(a.slcas, b.slcas);
    }
    assert!(trace.is_well_nested());
    assert!(trace.root.duration > std::time::Duration::ZERO);
}
