//! Robustness fuzzing: the engine must never panic, whatever the query
//! text, and its outputs must uphold their structural invariants.

use std::sync::Arc;
use xcheck::prop::{check, Gen};
use xrefine_repro::prelude::*;
use xrefine_repro::xrefine::NarrowOptions;

fn engine(alg: Algorithm) -> XRefineEngine {
    XRefineEngine::from_document(
        Arc::new(xrefine_repro::xmldom::fixtures::figure1()),
        EngineConfig {
            algorithm: alg,
            k: 2,
            ..Default::default()
        },
    )
}

#[test]
fn answer_never_panics_and_keeps_invariants() {
    check(64, |g| {
        let query = g.string(0..=40, Gen::printable_char);
        for alg in [
            Algorithm::StackRefine,
            Algorithm::Partition,
            Algorithm::ShortListEager,
        ] {
            let e = engine(alg);
            let out = e.answer(&query).expect("a healthy store answers");
            // invariants
            if out.original_ok {
                assert!(!out.refinements.is_empty());
                assert_eq!(out.refinements[0].candidate.dissimilarity, 0.0);
            }
            for r in &out.refinements {
                assert!(r.candidate.dissimilarity >= 0.0);
                assert!(!r.candidate.keywords.is_empty());
                // every result renders (is a real node)
                for d in &r.slcas {
                    assert!(e.render(d).is_some(), "dangling result {d}");
                }
                // results are document-ordered and distinct
                assert!(r.slcas.windows(2).all(|w| w[0] < w[1]));
            }
        }
    });
}

#[test]
fn narrow_never_panics() {
    check(64, |g| {
        // `[a-z ]{0,30}`
        let query = g.string(0..=30, |g| match g.range(0u32..27) {
            26 => ' ',
            _ => g.char_in('a'..='z'),
        });
        let e = engine(Algorithm::Partition);
        let _ = e.narrow(&query, &NarrowOptions::default());
    });
}

#[test]
fn keyword_heavy_queries_stay_bounded() {
    const WORDS: [&str; 11] = [
        "xml", "database", "john", "2003", "on", "line", "data", "base", "fishing", "title", "zzz",
    ];
    check(64, |g| {
        let words = g.vec(0..10, |g| g.pick(&WORDS));
        let e = engine(Algorithm::Partition);
        let out = e
            .answer_query(Query::from_keywords(words.iter().map(|s| s.to_string())))
            .expect("a healthy store answers");
        assert!(out.refinements.len() <= 2 || out.original_ok);
    });
}
