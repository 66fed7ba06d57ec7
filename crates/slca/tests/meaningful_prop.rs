//! Property tests for meaningful-SLCA semantics over generated corpora:
//! the filter's verdicts must agree with Definition 3.3 computed from
//! first principles, and typing a result by a posting inside it must
//! agree with looking the result's own node up.

use invindex::{Index, ListHandle, Posting};
use slca::{infer_search_for, slca_scan_eager, MeaningfulFilter, SearchForConfig};
use std::sync::Arc;
use xcheck::prop::{check, Gen};
use xmldom::DocumentBuilder;

/// A small random corpus: root -> entities -> fields, some of an
/// entity's fields wrapped in a `group`, so one tag sits at two depths.
fn corpus(g: &mut Gen) -> Arc<xmldom::Document> {
    const FIELDS: [(&str, &str); 5] = [
        ("title", "alpha beta"),
        ("title", "beta gamma"),
        ("year", "2001"),
        ("year", "2002"),
        ("note", "gamma delta"),
    ];
    let entities = g.vec(1..6, |g| {
        let fields = g.vec(1..4, |g| g.pick(&FIELDS));
        let grouped = g.vec(0..3, |g| g.pick(&FIELDS));
        (fields, grouped)
    });
    let mut b = DocumentBuilder::new();
    b.open_element("root");
    for (fields, grouped) in &entities {
        b.open_element("item");
        for (tag, text) in fields {
            b.leaf(tag, text);
        }
        if !grouped.is_empty() {
            b.open_element("group");
            for (tag, text) in grouped {
                b.leaf(tag, text);
            }
            b.close_element();
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
            g.pick(&["alpha", "beta", "gamma", "2001", "item", "group"])
        });
        let index = Index::build(Arc::clone(&doc));
        let ids: Vec<_> = q.iter().filter_map(|w| index.vocabulary().get(w)).collect();
        let config = SearchForConfig::default();
        let filter = MeaningfulFilter::infer(&doc, index.stats(), &ids, &config);
        let candidates = infer_search_for(&doc, index.stats(), &ids, &config);

        // candidate list from Formula 1 and the filter must agree
        let cand_types: Vec<_> = candidates.iter().map(|(t, _)| *t).collect();
        assert_eq!(filter.candidates(), cand_types.as_slice());

        // verdicts: a node is meaningful iff its type path extends some
        // candidate's path (Definition 3.3)
        let types = doc.node_types();
        for (id, node) in doc.nodes() {
            let verdict = filter.is_meaningful(&node.dewey);
            let path = types.path(node.node_type);
            let first_principles = (cand_types.iter()).any(|&c| path.starts_with(types.path(c)));
            assert_eq!(verdict, first_principles, "node {}", doc.tag_name(id));
        }

        // the type-threshold verdict: a node judged by any node inside
        // it (a posting there) is judged as by its own node's lookup
        for (_, node) in doc.nodes() {
            let verdict = filter.is_meaningful(&node.dewey);
            let inside = doc.nodes().map(|(_, n)| n);
            for n in inside.filter(|n| node.dewey.is_ancestor_or_self_of(&n.dewey)) {
                let mut typed = vec![node.dewey.clone()];
                let posting = Posting::new(n.dewey.clone(), n.node_type);
                let admitted = filter.types().admits(node.dewey.components(), &posting);
                assert_eq!(admitted, verdict, "{} by {}", node.dewey, n.dewey);
                filter.types().retain_meaningful(&mut typed, &[posting]);
                assert_eq!(!typed.is_empty(), verdict, "{} by {}", node.dewey, n.dewey);
            }
        }

        // whatever SLCAs exist, filtering is a subset and order-preserving,
        // and typing them by any one of the lists keeps the same ones
        let lists: Vec<ListHandle> = (q.iter())
            .map(|w| {
                let list = index.list(w).map(|l| l.as_slice().to_vec());
                ListHandle::from_postings(list.unwrap_or_default())
            })
            .collect();
        let slcas = slca_scan_eager(&lists);
        let kept = filter.filter(slcas.clone());
        assert!(kept.len() <= slcas.len());
        assert!(kept.iter().all(|d| slcas.contains(d)));
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        for list in &lists {
            let mut typed = slcas.clone();
            filter.types().retain_meaningful(&mut typed, list);
            assert_eq!(typed, kept);
        }
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
