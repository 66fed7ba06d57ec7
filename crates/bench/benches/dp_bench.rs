//! `getOptimalRQ` (§V) scaling: the paper gives its complexity as
//! `O(|Q|^2 log |R|)`; this sweeps query length and rule-set size and
//! prints the mean time per call. Run with `cargo bench -p bench`.

use bench::{f3, time_ms, Table};
use lexicon::{RefineOp, Rule, RuleSet, RuleSource};
use std::collections::HashSet;
use std::hint::black_box;
use xrefine::{get_top_optimal_rqs, Query};

const REPS: usize = 200;

fn rule_set(n: usize) -> RuleSet {
    let mut rs = RuleSet::new();
    for i in 0..n {
        rs.add(Rule::new(
            &[&format!("w{i}")],
            &[&format!("v{i}")],
            RefineOp::Substitute,
            RuleSource::Spelling,
            1.0,
        ));
    }
    rs
}

/// Mean microseconds per `get_top_optimal_rqs` call on a `len`-keyword
/// query whose every keyword has one applicable rule among `rules`.
fn dp_us(len: usize, rules: usize) -> f64 {
    let q = Query::from_keywords((0..len).map(|i| format!("w{i}")));
    let rule_table = rule_set(rules);
    let avail_set: HashSet<String> = (0..rules).map(|i| format!("v{i}")).collect();
    let avail = |w: &str| avail_set.contains(w);
    let call = || {
        black_box(get_top_optimal_rqs(black_box(&q), &avail, &rule_table, 4));
    };
    time_ms(call, REPS) * 1000.0
}

fn main() {
    let mut table = Table::new(&["sweep", "|Q|", "|R|", "us/call"]);
    for len in [2usize, 4, 8, 16] {
        let us = dp_us(len, 64);
        table.row(vec![
            "query_length".into(),
            len.to_string(),
            "64".into(),
            f3(us),
        ]);
    }
    for rules in [8usize, 64, 512] {
        let us = dp_us(6, rules);
        table.row(vec![
            "rule_count".into(),
            "6".into(),
            rules.to_string(),
            f3(us),
        ]);
    }
    table.print();
}
