//! Property tests for meaningful-SLCA semantics over generated corpora:
//! the filter's verdicts — a result typed by a posting inside it, and the
//! lookup judge — must agree with Definition 3.3 computed from the
//! document's tag names alone, never from the type table under test; and
//! the type table must number types as a table of whole tag paths would.

use datagen::{generate_baseball, generate_dblp, BaseballConfig, DblpConfig};
use invindex::{Index, ListHandle, Posting};
use slca::{infer_search_for, slca_scan_eager, MeaningfulFilter, SearchForConfig};
use std::collections::HashMap;
use std::sync::Arc;
use xcheck::prop::{check, Gen};
use xmldom::{fixtures::figure1, Document, DocumentBuilder, NodeId};

/// The tag names from the root down to `id`, read by walking the
/// document's parent links.
fn tag_path(doc: &Document, id: NodeId) -> Vec<&str> {
    let mut path: Vec<&str> = std::iter::successors(Some(id), |&n| doc.node(n).parent)
        .map(|n| doc.tag_name(n))
        .collect();
    path.reverse();
    path
}

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
        let types = doc.node_types();
        let filter = MeaningfulFilter::infer(types, index.stats(), &ids, &config);
        let candidates = infer_search_for(types, index.stats(), &ids, &config);

        // candidate list from Formula 1 and the filter must agree
        let cand_types: Vec<_> = candidates.iter().map(|(t, _)| *t).collect();
        assert_eq!(filter.candidates(), cand_types.as_slice());

        // Definition 3.3 from tag names: a node is meaningful iff its tag
        // path extends the tag path of a node of some candidate type
        let cand_paths: Vec<Vec<&str>> = (cand_types.iter())
            .map(|&c| {
                let (id, _) = doc.nodes().find(|(_, n)| n.node_type == c).unwrap();
                tag_path(&doc, id)
            })
            .collect();
        let first_principles = |id| (cand_paths.iter()).any(|c| tag_path(&doc, id).starts_with(c));

        // every judge agrees with it: the lookup judge on the node's own
        // label, and the posting judges through any node inside it
        for (id, node) in doc.nodes() {
            let expected = first_principles(id);
            let verdict = filter.is_meaningful(&doc, &node.dewey);
            assert_eq!(verdict, expected, "node {}", doc.tag_name(id));
            let inside = doc.nodes().map(|(_, n)| n);
            for n in inside.filter(|n| node.dewey.is_ancestor_or_self_of(&n.dewey)) {
                let mut typed = vec![node.dewey.clone()];
                let posting = Posting::new(n.dewey.clone(), n.node_type);
                let admitted = filter.admits(node.dewey.components(), &posting);
                assert_eq!(admitted, expected, "{} by {}", node.dewey, n.dewey);
                filter.retain_meaningful_in(&mut typed, [std::slice::from_ref(&posting)]);
                assert_eq!(!typed.is_empty(), expected, "{} by {}", node.dewey, n.dewey);
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
        let kept = filter.filter(&doc, slcas.clone());
        assert!(kept.len() <= slcas.len());
        assert!(kept.iter().all(|d| slcas.contains(d)));
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        for list in &lists {
            let mut typed = slcas.clone();
            filter.retain_meaningful_in(&mut typed, list.run_postings());
            assert_eq!(typed, kept);
        }
    });
}

/// The type table interns (parent type, tag) pairs; a table of whole tag
/// paths would number the distinct paths in the order a pre-order walk
/// first meets them. Stats keys and stored bytes depend on the ids, so
/// both numberings must be the same.
#[test]
fn types_are_numbered_as_a_path_interner_would() {
    let corpora = [
        figure1(),
        generate_baseball(&BaseballConfig::default()),
        generate_dblp(&DblpConfig {
            authors: 300,
            ..Default::default()
        }),
    ];
    for doc in &corpora {
        let mut first_seen: HashMap<Vec<&str>, usize> = HashMap::new();
        let mut paths: Vec<String> = Vec::new();
        for (id, node) in doc.nodes() {
            let path = tag_path(doc, id);
            let joined = path.join("/");
            let next = first_seen.len();
            let ordinal = *first_seen.entry(path).or_insert(next);
            if ordinal == next {
                paths.push(joined);
            }
            assert_eq!(node.node_type.0 as usize, ordinal, "node {}", node.dewey);
        }
        let types = doc.node_types();
        let displayed: Vec<String> = (types.iter())
            .map(|t| types.display(t, doc.symbols()))
            .collect();
        assert_eq!(displayed, paths);
    }
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
