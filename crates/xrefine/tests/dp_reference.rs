//! The DP that serves equals the DP that was.
//!
//! `reference` below is the recurrence of `dp.rs` as it stood before the
//! dynamic program moved onto interned keys — `BTreeSet<String>` states,
//! a cloned `AppliedOp` history per state, rules matched by string on
//! every call — kept verbatim as a test-only oracle. The properties
//! compare it with the serving code (`get_top_optimal_rqs`,
//! `explain_rq`) on inputs built to hit what an interned representation
//! could get wrong: repeated query keywords, rule right-hand sides that
//! name query keywords, multi-keyword sides, dyadic costs that tie, and
//! beams narrow enough (`m = 1`) that the tie order decides what
//! survives a prune.

use lexicon::{RefineOp, Rule, RuleSet, RuleSource};
use std::collections::BTreeSet;
use xcheck::prop::{check, Gen};
use xrefine::{explain_rq, get_top_optimal_rqs, AppliedOp, Query, RqCandidate};

mod reference {
    use super::*;

    #[derive(Debug, Clone)]
    pub struct State {
        pub cost: f64,
        pub kws: BTreeSet<String>,
        pub ops: Vec<AppliedOp>,
    }

    pub struct DpResult {
        pub candidates: Vec<RqCandidate>,
        pub prefix_costs: Vec<f64>,
    }

    pub fn run_dp(
        query: &Query,
        available: &dyn Fn(&str) -> bool,
        rules: &RuleSet,
        m: usize,
    ) -> (DpResult, Vec<State>) {
        let cap = (4 * m).max(8);
        let s = query.keywords();
        let mut layers: Vec<Vec<State>> = Vec::with_capacity(s.len() + 1);
        layers.push(vec![State {
            cost: 0.0,
            kws: BTreeSet::new(),
            ops: Vec::new(),
        }]);

        for i in 1..=s.len() {
            let ki = &s[i - 1];
            let mut next: Vec<State> = Vec::new();

            // Option 1: keep k_i when it exists in T.
            if available(ki) {
                for st in &layers[i - 1] {
                    let mut kws = st.kws.clone();
                    kws.insert(ki.clone());
                    let mut ops = st.ops.clone();
                    ops.push(AppliedOp::Kept(ki.clone()));
                    next.push(State {
                        cost: st.cost,
                        kws,
                        ops,
                    });
                }
            }
            // Option 2: delete k_i.
            for st in &layers[i - 1] {
                let mut ops = st.ops.clone();
                ops.push(AppliedOp::Deleted(ki.clone()));
                next.push(State {
                    cost: st.cost + rules.deletion_cost(),
                    kws: st.kws.clone(),
                    ops,
                });
            }
            // Option 3: rules whose LHS is the query segment ending at i.
            for (_, rule) in rules.rules_ending_with(ki) {
                let l = rule.lhs.len();
                if l > i {
                    continue;
                }
                if s[i - l..i] != rule.lhs[..] {
                    continue;
                }
                if !rule.rhs.iter().all(|w| available(w)) {
                    continue;
                }
                for st in &layers[i - l] {
                    let mut kws = st.kws.clone();
                    kws.extend(rule.rhs.iter().cloned());
                    let mut ops = st.ops.clone();
                    ops.push(AppliedOp::Rule {
                        lhs: rule.lhs.clone(),
                        rhs: rule.rhs.clone(),
                        op: rule.op,
                        cost: rule.dissimilarity,
                    });
                    next.push(State {
                        cost: st.cost + rule.dissimilarity,
                        kws,
                        ops,
                    });
                }
            }

            prune(&mut next, cap);
            layers.push(next);
        }

        let prefix_costs = layers
            .iter()
            .map(|layer| layer.iter().map(|st| st.cost).fold(f64::INFINITY, f64::min))
            .collect();

        let mut candidates: Vec<RqCandidate> = layers
            .last()
            .expect("at least the empty layer")
            .iter()
            .filter(|st| !st.kws.is_empty())
            .map(|st| RqCandidate::new(st.kws.iter().cloned().collect(), st.cost))
            .collect();
        candidates.sort_by(|a, b| {
            a.dissimilarity
                .partial_cmp(&b.dissimilarity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.keywords.cmp(&b.keywords))
        });
        candidates.truncate(m);
        let final_states = layers.pop().expect("final layer");
        (
            DpResult {
                candidates,
                prefix_costs,
            },
            final_states,
        )
    }

    pub fn explain_rq(
        query: &Query,
        available: &dyn Fn(&str) -> bool,
        rules: &RuleSet,
        target: &[String],
    ) -> Option<(f64, Vec<AppliedOp>)> {
        let want: BTreeSet<&str> = target.iter().map(|s| s.as_str()).collect();
        let result = run_dp(query, available, rules, 64).1;
        result
            .into_iter()
            .find(|st| st.kws.iter().map(|s| s.as_str()).collect::<BTreeSet<_>>() == want)
            .map(|st| (st.cost, st.ops))
    }

    fn prune(states: &mut Vec<State>, cap: usize) {
        states.sort_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.kws.cmp(&b.kws))
        });
        let mut seen: Vec<&BTreeSet<String>> = Vec::new();
        let mut keep = vec![false; states.len()];
        for (i, st) in states.iter().enumerate() {
            if seen.len() >= cap {
                break;
            }
            if seen.iter().any(|s| **s == st.kws) {
                continue;
            }
            keep[i] = true;
            seen.push(&st.kws);
        }
        let mut i = 0;
        states.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }
}

/// A compact universe so repeated keywords, rules that apply and
/// right-hand sides that name query keywords are all frequent; the
/// spellings sort differently from the order they are listed in, so a
/// set order taken from anything but the strings shows.
const UNIVERSE: [&str; 9] = ["m", "b", "zz", "a", "k", "ba", "z", "c", "ab"];

fn word(g: &mut Gen) -> String {
    g.pick(&UNIVERSE).to_string()
}

struct Instance {
    query: Query,
    rules: RuleSet,
    available: BTreeSet<String>,
}

fn instance(g: &mut Gen) -> Instance {
    let query = g.vec(1..8, word);
    let mut rules = RuleSet::new().with_deletion_cost(g.pick(&[0.5, 1.0, 2.0]));
    for _ in 0..g.range(0usize..10) {
        // Most left-hand sides are cut out of the query so they apply;
        // the rest are random and mostly do not.
        let lhs: Vec<String> = if g.weighted(&[3, 1]) == 0 {
            let len = g.range(1usize..4).min(query.len());
            let start = g.range(0..query.len() - len + 1);
            query[start..start + len].to_vec()
        } else {
            g.vec(1..3, word)
        };
        let rhs = g.vec(1..4, word);
        let lhs: Vec<&str> = lhs.iter().map(String::as_str).collect();
        let rhs: Vec<&str> = rhs.iter().map(String::as_str).collect();
        // Dyadic and few: sums are exact and ties are the common case.
        let cost = g.pick(&[0.0, 0.5, 0.5, 1.0, 1.0, 1.5, 2.0]);
        let op = g.pick(&[RefineOp::Substitute, RefineOp::Merge, RefineOp::Split]);
        rules.add(Rule::new(&lhs, &rhs, op, RuleSource::Manual, cost));
    }
    let available = UNIVERSE
        .iter()
        .filter(|_| g.weighted(&[1, 2]) == 1)
        .map(|w| w.to_string())
        .collect();
    Instance {
        query: Query::from_keywords(query),
        rules,
        available,
    }
}

fn bits(costs: &[f64]) -> Vec<u64> {
    costs.iter().map(|c| c.to_bits()).collect()
}

#[test]
fn candidates_and_prefix_costs_equal_the_reference() {
    check(600, |g| {
        let inst = instance(g);
        let avail = |w: &str| inst.available.contains(w);
        for m in [1, 3, 14] {
            let (expected, _) = reference::run_dp(&inst.query, &avail, &inst.rules, m);
            let got = get_top_optimal_rqs(&inst.query, &avail, &inst.rules, m);
            let keywords = |cs: &[RqCandidate]| -> Vec<Vec<String>> {
                cs.iter().map(|c| c.keywords.clone()).collect()
            };
            let costs =
                |cs: &[RqCandidate]| -> Vec<f64> { cs.iter().map(|c| c.dissimilarity).collect() };
            assert_eq!(
                keywords(&got.candidates),
                keywords(&expected.candidates),
                "m={m} {} T={:?}",
                inst.query,
                inst.available
            );
            assert_eq!(
                bits(&costs(&got.candidates)),
                bits(&costs(&expected.candidates)),
                "m={m}: dissimilarities are not bit-equal"
            );
            assert_eq!(
                bits(&got.prefix_costs),
                bits(&expected.prefix_costs),
                "m={m}: prefix costs"
            );
        }
    });
}

#[test]
fn explanations_equal_the_reference() {
    check(300, |g| {
        let inst = instance(g);
        let avail = |w: &str| inst.available.contains(w);
        // Every keyword set the widened beam ends on, a duplicate-laden
        // spelling of one of them, and a target nothing reaches.
        let (_, finals) = reference::run_dp(&inst.query, &avail, &inst.rules, 64);
        let mut targets: Vec<Vec<String>> = finals
            .iter()
            .map(|st| st.kws.iter().cloned().collect())
            .collect();
        if let Some(first) = targets.iter().find(|t| !t.is_empty()).cloned() {
            let mut doubled = first.clone();
            doubled.extend(first.into_iter().rev());
            targets.push(doubled);
        }
        targets.push(vec!["not-a-keyword".to_string()]);
        targets.truncate(12);
        for target in &targets {
            let expected = reference::explain_rq(&inst.query, &avail, &inst.rules, target);
            let got = explain_rq(&inst.query, &avail, &inst.rules, target);
            match (got, expected) {
                (Some((cost, ops)), Some((ref_cost, ref_ops))) => {
                    assert_eq!(cost.to_bits(), ref_cost.to_bits(), "{target:?}");
                    assert_eq!(ops, ref_ops, "{} -> {target:?}", inst.query);
                }
                (None, None) => {}
                (got, expected) => panic!(
                    "{} -> {target:?}: explain_rq {got:?}, reference {expected:?}",
                    inst.query
                ),
            }
        }
    });
}
