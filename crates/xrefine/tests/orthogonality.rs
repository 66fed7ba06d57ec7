//! Lemma 3 (§VI-B): the partition and short-list-eager algorithms are
//! orthogonal to the SLCA computation method — plugging in any of the
//! four implementations yields identical refinements and results.

use invindex::{Index, KvBackedIndex};
use lexicon::RuleSet;
use std::sync::Arc;
use xrefine::{partition_refine, sle_refine, PartitionOptions, Query, RefineSession, SleOptions};

fn queries() -> Vec<Vec<&'static str>> {
    vec![
        vec!["on", "line", "data", "base"],
        vec!["database", "publication"],
        vec!["xml", "john", "2003"],
        vec!["john", "fishing"],
        vec!["mecin", "learning"],
    ]
}

fn methods() -> Vec<(&'static str, xrefine::SlcaMethod)> {
    vec![
        ("scan_eager", slca::slca_scan_eager),
        ("indexed_lookup_eager", slca::slca_indexed_lookup_eager),
        ("stack", slca::slca_stack),
        ("multiway", slca::slca_multiway),
    ]
}

fn render(out: &xrefine::RefineOutcome) -> Vec<(Vec<String>, f64, Vec<String>)> {
    out.refinements
        .iter()
        .map(|r| {
            (
                r.candidate.keywords.clone(),
                r.candidate.dissimilarity,
                r.slcas.iter().map(|d| d.to_string()).collect(),
            )
        })
        .collect()
}

#[test]
fn partition_is_orthogonal_to_the_slca_method() {
    let idx = KvBackedIndex::from_built(Index::build(Arc::new(xmldom::fixtures::figure1())));
    for q in queries() {
        let mut reference: Option<Vec<_>> = None;
        for (name, method) in methods() {
            let session = RefineSession::new(
                &idx,
                Query::from_keywords(q.iter().map(|s| s.to_string())),
                RuleSet::table2(),
            )
            .unwrap();
            let out = partition_refine(
                &session,
                &PartitionOptions {
                    k: 2,
                    slca: method,
                    ..Default::default()
                },
            );
            let r = render(&out);
            match &reference {
                None => reference = Some(r),
                Some(expected) => {
                    assert_eq!(expected, &r, "method {name} diverged on {q:?}")
                }
            }
        }
    }
}

#[test]
fn sle_is_orthogonal_to_the_slca_method() {
    let idx = KvBackedIndex::from_built(Index::build(Arc::new(xmldom::fixtures::figure1())));
    for q in queries() {
        let mut reference: Option<Vec<_>> = None;
        for (name, method) in methods() {
            let session = RefineSession::new(
                &idx,
                Query::from_keywords(q.iter().map(|s| s.to_string())),
                RuleSet::table2(),
            )
            .unwrap();
            let out = sle_refine(
                &session,
                &SleOptions {
                    k: 2,
                    slca: method,
                    ..Default::default()
                },
            );
            let r = render(&out);
            match &reference {
                None => reference = Some(r),
                Some(expected) => {
                    assert_eq!(expected, &r, "method {name} diverged on {q:?}")
                }
            }
        }
    }
}
