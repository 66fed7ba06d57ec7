//! Differential oracle for the `getOptimalRQ` dynamic program: random
//! small instances (≤ 4 keywords × ≤ 4 rules) compared against the
//! exponential `brute_force_rqs` enumeration.
//!
//! Plain seeded `#[test]` loops with a stated case count (>= 500 per
//! property); `dp_prop.rs` holds the shrinking properties. Rule costs
//! are drawn from dyadic values, so both implementations sum them
//! exactly and costs compare with `==`.

use lexicon::{RefineOp, Rule, RuleSet, RuleSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use xrefine::dp::{brute_force_rqs, get_optimal_rq, get_top_optimal_rqs};
use xrefine::Query;

const VOCAB: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta",
];

struct Instance {
    query: Query,
    rules: RuleSet,
    available: HashSet<String>,
}

fn random_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let qlen = rng.random_range(1..=4usize);
    let keywords: Vec<String> = (0..qlen)
        .map(|_| VOCAB[rng.random_range(0..6usize)].to_string())
        .collect();

    let mut rules = RuleSet::new().with_deletion_cost([1.0, 2.0][rng.random_range(0..2usize)]);
    let nrules = rng.random_range(0..=4usize);
    for _ in 0..nrules {
        let lhs: Vec<&str> = (0..rng.random_range(1..=2usize))
            .map(|_| VOCAB[rng.random_range(0..6usize)])
            .collect();
        let rhs: Vec<&str> = (0..rng.random_range(1..=2usize))
            .map(|_| VOCAB[rng.random_range(0..8usize)])
            .collect();
        let op =
            [RefineOp::Substitute, RefineOp::Merge, RefineOp::Split][rng.random_range(0..3usize)];
        // Dyadic costs, duplicates allowed: exercises exact-cost ties.
        let cost = [0.5, 1.0, 1.5, 2.0][rng.random_range(0..4usize)];
        rules.add(Rule::new(&lhs, &rhs, op, RuleSource::Manual, cost));
    }

    let available: HashSet<String> = VOCAB
        .iter()
        .filter(|_| rng.random_range(0..2u32) == 0)
        .map(|w| w.to_string())
        .collect();

    Instance {
        query: Query::from_keywords(keywords),
        rules,
        available,
    }
}

#[test]
fn dp_optimum_matches_brute_force_on_random_instances() {
    const CASES: u64 = 700;
    for seed in 0..CASES {
        let inst = random_instance(seed);
        let avail = |w: &str| inst.available.contains(w);
        let bf = brute_force_rqs(&inst.query, &avail, &inst.rules);
        let dp = get_optimal_rq(&inst.query, &avail, &inst.rules);
        let ctx = format!(
            "seed={seed} query={:?} available={:?}",
            inst.query.keywords(),
            inst.available
        );
        match (dp, bf.first()) {
            (None, None) => {}
            (Some(dp), Some(bf)) => {
                assert_eq!(
                    dp.dissimilarity, bf.dissimilarity,
                    "optimum cost differs: {ctx}"
                );
                assert_eq!(dp.keywords, bf.keywords, "optimum RQ differs: {ctx}");
            }
            (dp, bf) => panic!("reachability differs: dp={dp:?} bf={bf:?} ({ctx})"),
        }
    }
}

#[test]
fn every_dp_candidate_cost_is_the_brute_force_cost_for_that_set() {
    const CASES: u64 = 500;
    for seed in 10_000..10_000 + CASES {
        let inst = random_instance(seed);
        let avail = |w: &str| inst.available.contains(w);
        let bf = brute_force_rqs(&inst.query, &avail, &inst.rules);
        let dp = get_top_optimal_rqs(&inst.query, &avail, &inst.rules, 8);
        let ctx = format!(
            "seed={seed} query={:?} available={:?}",
            inst.query.keywords(),
            inst.available
        );
        assert!(
            dp.candidates
                .windows(2)
                .all(|w| w[0].dissimilarity <= w[1].dissimilarity),
            "candidates not cost-ordered: {ctx}"
        );
        for c in &dp.candidates {
            let reference = bf
                .iter()
                .find(|b| b.keywords == c.keywords)
                .unwrap_or_else(|| {
                    panic!("DP emitted a set brute force cannot reach: {c:?} {ctx}")
                });
            assert_eq!(
                c.dissimilarity, reference.dissimilarity,
                "cost mismatch for {:?}: {ctx}",
                c.keywords
            );
        }
    }
}
