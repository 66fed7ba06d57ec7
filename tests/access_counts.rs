//! The list accesses Algorithms 1 and 3 make, pinned exactly.
//!
//! `one_scan_theorems.rs` bounds the advances and asks SLE for some
//! random access; this file holds, for each query of the same pool (60
//! DBLP authors, three queries per perturbation kind), the
//! `(advances, random_accesses)` of `stack_refine` and of `sle_refine`
//! at K = 3. A change in how either algorithm reads its lists that moves
//! one count fails here; `ablation_sle_smart`'s "avg random accesses"
//! column is SLE's second number averaged over a larger pool.

use std::sync::Arc;
use xrefine_repro::datagen::{generate_dblp, generate_workload, DblpConfig, WorkloadConfig};
use xrefine_repro::prelude::*;
use xrefine_repro::xrefine::{sle_refine, stack_refine, RefineSession, SleOptions};

/// Query, then Algorithm 1's and Algorithm 3's `(advances,
/// random_accesses)`.
type Row<'a> = (&'a str, (u64, u64), (u64, u64));

const EXPECTED: &[Row<'static>] = &[
    (
        "retrieval 1995 system web inproceedings",
        (368, 0),
        (300, 196),
    ),
    ("ling proceedings", (251, 0), (261, 180)),
    ("natural keyword painting", (36, 0), (72, 48)),
    (
        "parallel analysis network scalable name",
        (362, 0),
        (103, 66),
    ),
    ("title name database 1995 is", (421, 0), (444, 76)),
    ("2001 cube year petrov distributed", (281, 0), (825, 72)),
    ("dasfaa parallel patel data base", (362, 0), (616, 50)),
    ("cidr name 1999 datab ase", (598, 0), (842, 110)),
    ("in proceedings cache computation", (261, 0), (540, 32)),
    ("mike name2008 title", (325, 0), (1216, 180)),
    ("webbooktitle title author", (553, 0), (1321, 240)),
    ("titlejohnson sigmod", (260, 0), (780, 120)),
    ("search efficienq author parallel", (142, 0), (470, 240)),
    (
        "kumar publicationsp name computation 2004",
        (377, 0),
        (595, 30),
    ),
    ("informatnion system title 2004 tods", (378, 0), (922, 80)),
    ("cleaning fragment venue workflow 342", (12, 0), (33, 12)),
    ("search publication", (341, 0), (732, 300)),
    ("database writer tran twig 2008", (191, 0), (573, 44)),
    ("streams 30 2003 1997", (58, 0), (174, 45)),
    ("title publication machine booktitle", (786, 0), (1549, 154)),
    ("approximates name title web jacm", (342, 0), (1010, 56)),
];

fn session<'a>(engine: &'a XRefineEngine, keywords: &[String]) -> RefineSession<'a> {
    let q = Query::from_keywords(keywords.iter().cloned());
    let rules = engine.rules_for(&q);
    RefineSession::new(engine.index(), q, rules).expect("a healthy store answers")
}

#[test]
fn algorithms_1_and_3_make_the_pinned_list_accesses() {
    let doc = Arc::new(generate_dblp(&DblpConfig {
        authors: 60,
        ..Default::default()
    }));
    let queries = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 3,
            ..Default::default()
        },
    );
    let engine = XRefineEngine::from_document(doc, EngineConfig::default());
    let texts: Vec<String> = queries.iter().map(|wq| wq.keywords.join(" ")).collect();
    let mut got: Vec<Row<'_>> = Vec::new();
    for (wq, text) in queries.iter().zip(&texts) {
        let stack = stack_refine(&session(&engine, &wq.keywords));
        let sle = sle_refine(
            &session(&engine, &wq.keywords),
            &SleOptions {
                k: 3,
                ..Default::default()
            },
        );
        got.push((
            text,
            (stack.advances, stack.random_accesses),
            (sle.advances, sle.random_accesses),
        ));
    }
    if got != EXPECTED {
        for (q, stack, sle) in &got {
            println!("    ({q:?}, {stack:?}, {sle:?}),");
        }
    }
    assert_eq!(got, EXPECTED, "the rows above are this build's counts");
}
