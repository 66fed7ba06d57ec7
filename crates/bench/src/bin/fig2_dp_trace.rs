//! Figure 2: the dynamic-programming array `C` filled by
//! `getOptimalRQ(Q, T)` on the paper's Example 3.

use bench::Table;
use lexicon::{RefineOp, Rule, RuleSet, RuleSource};
use std::collections::BTreeSet;
use xrefine::{get_top_optimal_rqs, Query};

fn main() {
    // Example 3: Q = {WWW, article, machine, learn, ing},
    // T = {machine, inproceedings, learning, world, wide, web},
    // rules r3, r4, r6 of Table II, deletion cost 2.
    let q = Query::from_keywords(["www", "article", "machine", "learn", "ing"]);
    let mut rules = RuleSet::new().with_deletion_cost(2.0);
    rules.add(Rule::new(
        &["article"],
        &["inproceedings"],
        RefineOp::Substitute,
        RuleSource::Synonym,
        1.0,
    ));
    rules.add(Rule::new(
        &["learn", "ing"],
        &["learning"],
        RefineOp::Merge,
        RuleSource::Merging,
        1.0,
    ));
    rules.add(Rule::new(
        &["www"],
        &["world", "wide", "web"],
        RefineOp::Substitute,
        RuleSource::Acronym,
        1.0,
    ));
    let t: BTreeSet<&str> = [
        "machine",
        "inproceedings",
        "learning",
        "world",
        "wide",
        "web",
    ]
    .into_iter()
    .collect();
    let avail = |w: &str| t.contains(w);

    println!("Q = {q}");
    println!("T = {t:?}\n");
    let res = get_top_optimal_rqs(&q, &avail, &rules, 4);

    let mut table = Table::new(&["prefix S[1..i]", "C[i]"]);
    for (i, c) in res.prefix_costs.iter().enumerate() {
        let prefix = if i == 0 {
            "(empty)".to_string()
        } else {
            q.keywords()[..i].join(",")
        };
        table.row(vec![prefix, format!("{c}")]);
    }
    table.print();

    println!("\nTop candidates:");
    for cand in &res.candidates {
        println!("  {cand}");
    }
    assert_eq!(res.prefix_costs, vec![0.0, 1.0, 2.0, 2.0, 4.0, 3.0]);
    println!("\ntrace matches the paper's Figure 2 recurrence (C = [0,1,2,2,4,3])");
}
