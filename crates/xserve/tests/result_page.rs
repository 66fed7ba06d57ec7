//! The served page against the full result set. Over the benchmark's
//! corpus_s (300 authors) and its 280-query pool, built with
//! `bench_e2e`'s frozen seeds, for K = 1 and 3: every refinement of a
//! `/query` body lists exactly the first `RESULT_PAGE` labels of its full
//! result set, `more` is true exactly when the set has more, and no body
//! lists more than `RESULT_PAGE` labels per refinement.
//!
//! The body comes from `EngineService::answer`, the served path, which
//! computes only the page; the full set from reading a second answer's
//! `slcas` whole, which runs the session's SLCA method over the lists
//! (`refinement_results_reference` holds that set to a brute-force
//! oracle). `bench_e2e`'s oracle renders through the same
//! `render_outcome`, so it cannot tell a wrong page from a right one.

use std::sync::Arc;

use datagen::{generate_dblp, generate_workload, DblpConfig, WorkloadConfig};
use xrefine::{EngineConfig, XRefineEngine, RESULT_PAGE};
use xserve::{EngineService, QueryService};

/// `bench_e2e`'s frozen corpus and pool seeds.
const CORPUS_SEED: u64 = 0xD8B1;
const POOL_SEED: u64 = 0x9E37_79B9;

/// Each refinement of a `/query` body: its `more` flag and the labels it
/// lists, in order.
fn listed(body: &str) -> Vec<(bool, Vec<String>)> {
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find(",\"more\":") {
        rest = &rest[at + ",\"more\":".len()..];
        let more = rest.starts_with("true");
        let open = rest.find(",\"slcas\":[").expect("`slcas` follows `more`");
        rest = &rest[open + ",\"slcas\":[".len()..];
        let close = rest.find(']').expect("a closed label array");
        let labels = (rest[..close].split(','))
            .filter(|l| !l.is_empty())
            .map(|l| l.trim_matches('"').to_string())
            .collect();
        out.push((more, labels));
        rest = &rest[close..];
    }
    out
}

#[test]
fn every_served_page_is_the_head_of_the_full_set() {
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors: 300,
        seed: CORPUS_SEED,
        ..Default::default()
    }));
    let pool = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 40,
            seed: POOL_SEED,
            ..Default::default()
        },
    );
    assert_eq!(pool.len(), 280);
    let (mut refinements, mut paged) = (0usize, 0usize);
    for k in [1, 3] {
        let engine = Arc::new(XRefineEngine::from_document(
            Arc::clone(&doc),
            EngineConfig {
                k,
                ..Default::default()
            },
        ));
        let service = EngineService::new(Arc::clone(&engine));
        for q in &pool {
            let text = q.keywords.join(" ");
            let reply = service.answer(&text);
            assert_eq!(reply.status, 200, "{text:?}: {}", reply.body);
            let outcome = engine.answer_detailed(&text).expect("a healthy store");
            let served = listed(&reply.body);
            assert_eq!(served.len(), outcome.refinements.len(), "{text:?}");
            for ((more, labels), r) in served.iter().zip(&outcome.refinements) {
                let full: Vec<String> = r.slcas.iter().map(|d| d.to_string()).collect();
                let head = &full[..full.len().min(RESULT_PAGE)];
                let what = format!("k={k} {text:?} -> {}", r.candidate);
                assert!(
                    labels.len() <= RESULT_PAGE,
                    "{what}: {} listed",
                    labels.len()
                );
                assert_eq!(labels.as_slice(), head, "{what}");
                assert_eq!(*more, full.len() > RESULT_PAGE, "{what}: {}", full.len());
                refinements += 1;
                paged += usize::from(*more);
            }
        }
    }
    println!("{refinements} refinements, {paged} with results past the page");
    assert!(paged > 0, "no refinement reached past the page");
}
