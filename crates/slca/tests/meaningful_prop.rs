//! Property tests for meaningful-SLCA semantics over generated corpora:
//! the filter's verdicts must agree with Definition 3.3 computed from
//! first principles.

use invindex::Index;
use slca::{infer_search_for, slca_scan_eager, MeaningfulFilter, SearchForConfig};
use std::sync::Arc;
use xcheck::prop::{check, Gen};
use xmldom::DocumentBuilder;

/// A small random two-level corpus: root -> entities -> fields.
fn corpus(g: &mut Gen) -> Arc<xmldom::Document> {
    const FIELDS: [(&str, &str); 5] = [
        ("title", "alpha beta"),
        ("title", "beta gamma"),
        ("year", "2001"),
        ("year", "2002"),
        ("note", "gamma delta"),
    ];
    let entities = g.vec(1..6, |g| g.vec(1..4, |g| g.pick(&FIELDS)));
    let mut b = DocumentBuilder::new();
    b.open_element("root");
    for fields in &entities {
        b.open_element("item");
        for (tag, text) in fields {
            b.leaf(tag, text);
        }
        b.close_element();
    }
    b.close_element();
    Arc::new(b.finish())
}

#[test]
fn filter_agrees_with_first_principles() {
    check(128, |g| {
        let doc = corpus(g);
        let q = g.vec(1..3, |g| {
            g.pick(&["alpha", "beta", "gamma", "2001", "item"])
        });
        let index = Index::build(Arc::clone(&doc));
        let ids: Vec<_> = q.iter().filter_map(|w| index.vocabulary().get(w)).collect();
        let config = SearchForConfig::default();
        let filter = MeaningfulFilter::infer(&index, &ids, &config);
        let candidates = infer_search_for(&index, &ids, &config);

        // candidate list from Formula 1 and the filter must agree
        let cand_types: Vec<_> = candidates.iter().map(|(t, _)| *t).collect();
        assert_eq!(filter.candidates(), cand_types.as_slice());

        // verdicts: a node is meaningful iff its type path extends some
        // candidate's path (Definition 3.3)
        let types = doc.node_types();
        for (id, node) in doc.nodes() {
            let verdict = filter.is_meaningful(&node.dewey);
            let first_principles = cand_types
                .iter()
                .any(|&c| node.node_type == c || types.is_descendant_type(node.node_type, c));
            assert_eq!(verdict, first_principles, "node {}", doc.tag_name(id));
        }

        // whatever SLCAs exist, filtering is a subset and order-preserving
        let lists: Vec<&[invindex::Posting]> = q
            .iter()
            .map(|w| index.list(w).map(|l| l.as_slice()).unwrap_or(&[]))
            .collect();
        let slcas = slca_scan_eager(&lists);
        let kept = filter.filter(slcas.clone());
        assert!(kept.len() <= slcas.len());
        assert!(kept.iter().all(|d| slcas.contains(d)));
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
    });
}

#[test]
fn confidence_is_monotone_in_df_sum() {
    check(128, |g| {
        let (sum_a, sum_b) = (g.range(0u64..1000), g.range(0u64..1000));
        let depth = g.range(0u32..6);
        let (lo, hi) = if sum_a <= sum_b {
            (sum_a, sum_b)
        } else {
            (sum_b, sum_a)
        };
        let c_lo = slca::confidence_with(lo, depth as f64, 0.8);
        let c_hi = slca::confidence_with(hi, depth as f64, 0.8);
        assert!(c_lo <= c_hi);
        assert!(c_lo >= 0.0);
    });
}
