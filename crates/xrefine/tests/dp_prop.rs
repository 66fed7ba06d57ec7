//! Property tests for the §V dynamic program: optimality against the
//! brute-force enumerator (Lemma 2) under random queries, rule sets and
//! availability.

use lexicon::{RefineOp, Rule, RuleSet, RuleSource};
use std::collections::HashSet;
use xcheck::prop::{check, Gen};
use xrefine::{brute_force_rqs, get_top_optimal_rqs, Query};

/// A compact universe so rules/availability collide frequently.
const UNIVERSE: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];

fn word(g: &mut Gen) -> String {
    g.pick(&UNIVERSE).to_string()
}

#[derive(Debug, Clone)]
struct RuleSpec {
    lhs: Vec<String>,
    rhs: Vec<String>,
    ds: f64,
}

fn rule(g: &mut Gen) -> RuleSpec {
    RuleSpec {
        lhs: g.vec(1..3, word),
        rhs: g.vec(1..3, word),
        ds: g.range(1u32..4) as f64 * 0.5,
    }
}

#[test]
fn dp_optimum_equals_brute_force() {
    check(256, |g| {
        let query = g.vec(1..5, word);
        let rule_specs = g.vec(0..6, rule);
        let available = g.btree_set(0..6, word);

        let q = Query::from_keywords(query);
        let mut rules = RuleSet::new();
        for spec in &rule_specs {
            let lhs: Vec<&str> = spec.lhs.iter().map(|s| s.as_str()).collect();
            let rhs: Vec<&str> = spec.rhs.iter().map(|s| s.as_str()).collect();
            rules.add(Rule::new(
                &lhs,
                &rhs,
                RefineOp::Substitute,
                RuleSource::Manual,
                spec.ds,
            ));
        }
        let avail_set: HashSet<String> = available.into_iter().collect();
        let avail = |w: &str| avail_set.contains(w);

        let dp = get_top_optimal_rqs(&q, &avail, &rules, 8);
        let bf = brute_force_rqs(&q, &avail, &rules);

        match (dp.candidates.first(), bf.first()) {
            (Some(d), Some(b)) => {
                // Lemma 2(2): the DP's best has the minimum dissimilarity.
                assert_eq!(
                    d.dissimilarity, b.dissimilarity,
                    "dp={:?} bf={:?}",
                    dp.candidates, bf
                );
                // Lemma 2(1): the optimal RQ only uses available keywords.
                for w in &d.keywords {
                    assert!(avail(w), "{w} unavailable in {d:?}");
                }
            }
            (None, None) => {}
            (d, b) => panic!("existence mismatch: dp={d:?} bf={b:?}"),
        }

        // every reported candidate carries its true minimal cost and is a
        // subset of T
        for c in &dp.candidates {
            for w in &c.keywords {
                assert!(avail(w));
            }
            match bf.iter().find(|b| b.keywords == c.keywords) {
                Some(reference) => assert_eq!(c.dissimilarity, reference.dissimilarity),
                None => panic!("DP invented candidate {c:?}"),
            }
        }

        // prefix costs are monotone in the sense that C[0] = 0 and each
        // step adds at most the deletion cost
        assert_eq!(dp.prefix_costs[0], 0.0);
        for w in dp.prefix_costs.windows(2) {
            assert!(w[1] <= w[0] + rules.deletion_cost() + 1e-9);
        }
    });
}

#[test]
fn dp_is_insensitive_to_keyword_order_for_the_optimum() {
    check(256, |g| {
        let mut query = g.vec(1..5, word);
        let available = g.btree_set(1..6, word);
        // With no rules (deletion/keep only), the optimal dissimilarity is
        // permutation-invariant (the paper notes getOptimalRQ is
        // insensitive to keyword order).
        let rules = RuleSet::new();
        let avail_set: HashSet<String> = available.into_iter().collect();
        let avail = |w: &str| avail_set.contains(w);
        let a = get_top_optimal_rqs(&Query::from_keywords(query.clone()), &avail, &rules, 1);
        query.reverse();
        let b = get_top_optimal_rqs(&Query::from_keywords(query), &avail, &rules, 1);
        match (a.candidates.first(), b.candidates.first()) {
            (Some(x), Some(y)) => {
                assert_eq!(x.dissimilarity, y.dissimilarity);
                assert_eq!(x.keywords, y.keywords);
            }
            (None, None) => {}
            other => panic!("{other:?}"),
        }
    });
}
