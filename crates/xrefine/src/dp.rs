//! The dynamic program of §V: `getOptimalRQ`.
//!
//! Given the original query `S = Q`, a set `T` of keywords known to exist
//! (in the whole document, in one partition, or in one subtree — the
//! algorithms instantiate `T` differently), and the pertinent rule set
//! `R`, find the refined query `RQ ⊆ T` minimizing `dSim(Q, RQ)`
//! (Formula 11), together with a ranked list of runner-up candidates (the
//! "side product" the paper reuses for Top-K refinement — explicitly an
//! *approximate* Top-2K list, §VI-B).
//!
//! The recurrence over prefixes `S[1..i]` has three options:
//!
//! 1. `k_i ∈ T` — keep it, cost unchanged;
//! 2. delete `k_i` at the deletion cost;
//! 3. apply a rule whose LHS is the contiguous query segment ending at
//!    `i` and whose RHS exists entirely within `T`, at cost `ds_r`.
//!
//! We run a *k-best* variant: each prefix keeps up to `cap` cheapest
//! states (distinct keyword sets), so the optimum is exact and the
//! runner-up list is best-effort within `cap`.

use crate::query::{Query, RqCandidate};
use lexicon::{RefineOp, RuleSet};
use std::collections::BTreeSet;

/// One step of a refinement sequence (Definition 3.6). A candidate's step
/// list replays the exact derivation `Q -> RQ` the dynamic program chose.
#[derive(Debug, Clone, PartialEq)]
pub enum AppliedOp {
    /// The keyword exists in `T` and was kept unchanged.
    Kept(String),
    /// The keyword was deleted (at the rule set's deletion cost).
    Deleted(String),
    /// A refinement rule rewrote `lhs` into `rhs`.
    Rule {
        lhs: Vec<String>,
        rhs: Vec<String>,
        op: RefineOp,
        cost: f64,
    },
}

impl std::fmt::Display for AppliedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppliedOp::Kept(k) => write!(f, "keep \"{k}\""),
            AppliedOp::Deleted(k) => write!(f, "delete \"{k}\""),
            AppliedOp::Rule { lhs, rhs, op, cost } => write!(
                f,
                "{op} \"{}\" -> \"{}\" (ds {cost})",
                lhs.join(" "),
                rhs.join(" ")
            ),
        }
    }
}

/// Result of the dynamic program.
#[derive(Debug, Clone)]
pub struct DpResult {
    /// Candidates sorted by dissimilarity (ties by keyword set); the first
    /// is the optimal RQ. Empty only if every candidate degenerates to the
    /// empty keyword set.
    pub candidates: Vec<RqCandidate>,
    /// `C[i]` of Formula 11: minimum dissimilarity for each query prefix
    /// (including the empty prefix `C\[0\] = 0`). For the Figure 2 trace.
    pub prefix_costs: Vec<f64>,
}

#[derive(Debug, Clone)]
struct State {
    cost: f64,
    kws: BTreeSet<String>,
    ops: Vec<AppliedOp>,
}

/// `getOptimalRQ` extended to the Top-`m` variant (`getTopOptimalRQ`).
///
/// `available` answers `k ∈ T`. `m` is the number of candidates to return;
/// the internal beam keeps `4·m` states per prefix to cushion the
/// approximation.
pub fn get_top_optimal_rqs(
    query: &Query,
    available: &dyn Fn(&str) -> bool,
    rules: &RuleSet,
    m: usize,
) -> DpResult {
    run_dp(query, available, rules, m).0
}

/// Internal: final-layer states (for [`explain_rq`]).
fn get_top_optimal_rqs_with_states(
    query: &Query,
    available: &dyn Fn(&str) -> bool,
    rules: &RuleSet,
    m: usize,
) -> Vec<State> {
    run_dp(query, available, rules, m).1
}

fn run_dp(
    query: &Query,
    available: &dyn Fn(&str) -> bool,
    rules: &RuleSet,
    m: usize,
) -> (DpResult, Vec<State>) {
    obs::counter!("xrefine_dp_calls_total").inc();
    obs::trace::count("dp.calls", 1);
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

/// Explains how `target` (a refined-query keyword set) derives from the
/// query: the cheapest refinement sequence reaching exactly that keyword
/// set, or `None` if the DP (with a widened beam) cannot reach it.
pub fn explain_rq(
    query: &Query,
    available: &dyn Fn(&str) -> bool,
    rules: &RuleSet,
    target: &[String],
) -> Option<(f64, Vec<AppliedOp>)> {
    let want: BTreeSet<&str> = target.iter().map(|s| s.as_str()).collect();
    let result = get_top_optimal_rqs_with_states(query, available, rules, 64);
    result
        .into_iter()
        .find(|st| st.kws.iter().map(|s| s.as_str()).collect::<BTreeSet<_>>() == want)
        .map(|st| (st.cost, st.ops))
}

/// Convenience: just the optimal RQ (`getOptimalRQ` proper).
pub fn get_optimal_rq(
    query: &Query,
    available: &dyn Fn(&str) -> bool,
    rules: &RuleSet,
) -> Option<RqCandidate> {
    get_top_optimal_rqs(query, available, rules, 1)
        .candidates
        .into_iter()
        .next()
}

/// Keeps the `cap` cheapest states with distinct keyword sets (the
/// cheapest cost per set).
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

/// Brute-force reference for `dSim`: enumerates every refinement sequence
/// (keep / delete / rule per position) without pruning and returns the
/// cheapest cost per distinct RQ keyword set, sorted. Exponential — test
/// use only.
// xlint::allow(unused-export): the dSim oracle the DP and Top-K reference tests compare against
pub fn brute_force_rqs(
    query: &Query,
    available: &dyn Fn(&str) -> bool,
    rules: &RuleSet,
) -> Vec<RqCandidate> {
    use std::collections::HashMap;
    let s = query.keywords();
    let mut best: HashMap<Vec<String>, f64> = HashMap::new();

    fn recurse(
        s: &[String],
        i: usize,
        cost: f64,
        kws: &mut BTreeSet<String>,
        available: &dyn Fn(&str) -> bool,
        rules: &RuleSet,
        best: &mut std::collections::HashMap<Vec<String>, f64>,
    ) {
        if i == s.len() {
            if !kws.is_empty() {
                let key: Vec<String> = kws.iter().cloned().collect();
                let e = best.entry(key).or_insert(f64::INFINITY);
                if cost < *e {
                    *e = cost;
                }
            }
            return;
        }
        let ki = &s[i];
        // keep
        if available(ki) {
            let inserted = kws.insert(ki.clone());
            recurse(s, i + 1, cost, kws, available, rules, best);
            if inserted {
                kws.remove(ki);
            }
        }
        // delete
        recurse(
            s,
            i + 1,
            cost + rules.deletion_cost(),
            kws,
            available,
            rules,
            best,
        );
        // rules: LHS starts at i
        for (_, rule) in rules.iter() {
            let l = rule.lhs.len();
            if i + l > s.len() || s[i..i + l] != rule.lhs[..] {
                continue;
            }
            if !rule.rhs.iter().all(|w| available(w)) {
                continue;
            }
            let added: Vec<String> = rule
                .rhs
                .iter()
                .filter(|w| kws.insert((*w).clone()))
                .cloned()
                .collect();
            recurse(
                s,
                i + l,
                cost + rule.dissimilarity,
                kws,
                available,
                rules,
                best,
            );
            for w in added {
                kws.remove(&w);
            }
        }
    }

    let mut kws = BTreeSet::new();
    recurse(s, 0, 0.0, &mut kws, available, rules, &mut best);
    let mut out: Vec<RqCandidate> = best
        .into_iter()
        .map(|(k, c)| RqCandidate::new(k, c))
        .collect();
    out.sort_by(|a, b| {
        a.dissimilarity
            .partial_cmp(&b.dissimilarity)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.keywords.cmp(&b.keywords))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexicon::{RefineOp, Rule, RuleSet, RuleSource};
    use std::collections::HashSet;

    fn avail(words: &[&str]) -> impl Fn(&str) -> bool {
        let set: HashSet<String> = words.iter().map(|s| s.to_string()).collect();
        move |w: &str| set.contains(w)
    }

    /// The paper's Example 3 / Figure 2: Q = {WWW, article, machine,
    /// learn, ing}, T = {machine, inproceedings, learning, world, wide,
    /// web}, rules r3 (article→inproceedings), r4 (learn,ing→learning),
    /// r6 (www→world wide web), deletion cost 2.
    fn example3() -> (Query, RuleSet, Vec<&'static str>) {
        let q = Query::from_keywords(["www", "article", "machine", "learn", "ing"]);
        let mut rs = RuleSet::new().with_deletion_cost(2.0);
        rs.add(Rule::new(
            &["article"],
            &["inproceedings"],
            RefineOp::Substitute,
            RuleSource::Synonym,
            1.0,
        ));
        rs.add(Rule::new(
            &["learn", "ing"],
            &["learning"],
            RefineOp::Merge,
            RuleSource::Merging,
            1.0,
        ));
        rs.add(Rule::new(
            &["www"],
            &["world", "wide", "web"],
            RefineOp::Substitute,
            RuleSource::Acronym,
            1.0,
        ));
        let t = vec![
            "machine",
            "inproceedings",
            "learning",
            "world",
            "wide",
            "web",
        ];
        (q, rs, t)
    }

    #[test]
    fn example3_trace_matches_figure2() {
        let (q, rs, t) = example3();
        let a = avail(&t);
        let res = get_top_optimal_rqs(&q, &a, &rs, 4);
        // C = [0, 1, 2, 2, 4, 3]
        assert_eq!(res.prefix_costs, vec![0.0, 1.0, 2.0, 2.0, 4.0, 3.0]);
        let best = &res.candidates[0];
        assert_eq!(best.dissimilarity, 3.0);
        assert_eq!(
            best.keywords,
            [
                "inproceedings",
                "learning",
                "machine",
                "web",
                "wide",
                "world"
            ]
        );
    }

    #[test]
    fn keeps_original_query_at_zero_cost_when_fully_available() {
        let q = Query::from_keywords(["xml", "john"]);
        let rs = RuleSet::new();
        let a = avail(&["xml", "john"]);
        let best = get_optimal_rq(&q, &a, &rs).unwrap();
        assert_eq!(best.dissimilarity, 0.0);
        assert_eq!(best.keywords, ["john", "xml"]);
    }

    #[test]
    fn deletion_is_the_fallback_for_missing_keywords() {
        let q = Query::from_keywords(["xml", "ghost"]);
        let rs = RuleSet::new();
        let a = avail(&["xml"]);
        let best = get_optimal_rq(&q, &a, &rs).unwrap();
        assert_eq!(best.dissimilarity, 2.0);
        assert_eq!(best.keywords, ["xml"]);
    }

    #[test]
    fn all_keywords_missing_yields_no_candidate() {
        let q = Query::from_keywords(["a", "b"]);
        let rs = RuleSet::new();
        let a = avail(&[]);
        assert!(get_optimal_rq(&q, &a, &rs).is_none());
    }

    #[test]
    fn rule_beats_deletion_when_cheaper() {
        // Example 4 flavour: {on, line} with merge rule and "online" in T.
        let q = Query::from_keywords(["on", "line"]);
        let rs = RuleSet::table2();
        let a = avail(&["online"]);
        let best = get_optimal_rq(&q, &a, &rs).unwrap();
        assert_eq!(best.keywords, ["online"]);
        assert_eq!(best.dissimilarity, 1.0);
    }

    #[test]
    fn runner_up_candidates_are_ordered() {
        let q = Query::from_keywords(["on", "line", "data", "base"]);
        let rs = RuleSet::table2();
        let a = avail(&["online", "database", "line", "base"]);
        let res = get_top_optimal_rqs(&q, &a, &rs, 8);
        assert!(res.candidates.len() >= 3);
        assert!(res
            .candidates
            .windows(2)
            .all(|w| w[0].dissimilarity <= w[1].dissimilarity));
        // optimum: both merges = cost 2
        assert_eq!(res.candidates[0].keywords, ["database", "online"]);
        assert_eq!(res.candidates[0].dissimilarity, 2.0);
    }

    #[test]
    fn dp_optimum_matches_brute_force_on_example3() {
        let (q, rs, t) = example3();
        let a = avail(&t);
        let dp = get_top_optimal_rqs(&q, &a, &rs, 16);
        let bf = brute_force_rqs(&q, &a, &rs);
        assert_eq!(dp.candidates[0].dissimilarity, bf[0].dissimilarity);
        assert_eq!(dp.candidates[0].keywords, bf[0].keywords);
        // every DP candidate's cost is exactly the brute-force optimum for
        // that keyword set (no overestimates)
        for c in &dp.candidates {
            let reference = bf
                .iter()
                .find(|b| b.keywords == c.keywords)
                .expect("DP emitted a set brute force knows");
            assert_eq!(c.dissimilarity, reference.dissimilarity);
        }
    }

    #[test]
    fn insensitive_to_unrelated_rules() {
        let q = Query::from_keywords(["machine"]);
        let mut rs = RuleSet::new();
        rs.add(Rule::new(
            &["zzz"],
            &["yyy"],
            RefineOp::Substitute,
            RuleSource::Manual,
            0.5,
        ));
        let a = avail(&["machine", "yyy"]);
        let best = get_optimal_rq(&q, &a, &rs).unwrap();
        assert_eq!(best.dissimilarity, 0.0);
        assert_eq!(best.keywords, ["machine"]);
    }

    #[test]
    fn empty_query_yields_nothing() {
        let q = Query::from_keywords(Vec::<String>::new());
        let rs = RuleSet::new();
        let a = avail(&["x"]);
        let res = get_top_optimal_rqs(&q, &a, &rs, 4);
        assert!(res.candidates.is_empty());
        assert_eq!(res.prefix_costs, vec![0.0]);
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use lexicon::RuleSet;
    use std::collections::HashSet;

    fn avail(words: &[&str]) -> impl Fn(&str) -> bool {
        let set: HashSet<String> = words.iter().map(|s| s.to_string()).collect();
        move |w: &str| set.contains(w)
    }

    #[test]
    fn explanation_replays_to_the_target() {
        let q = Query::from_keywords(["on", "line", "data", "base"]);
        let rules = RuleSet::table2();
        let a = avail(&["online", "database", "line", "base"]);
        let target = vec!["database".to_string(), "online".to_string()];
        let (cost, ops) = explain_rq(&q, &a, &rules, &target).expect("explainable");
        assert_eq!(cost, 2.0);
        // two merge rules, nothing else
        let rule_count = ops
            .iter()
            .filter(|o| matches!(o, AppliedOp::Rule { .. }))
            .count();
        assert_eq!(rule_count, 2);
        // replay: ops' outputs produce exactly the target set and the
        // costs sum to the dissimilarity
        let mut produced: Vec<String> = Vec::new();
        let mut total = 0.0;
        for op in &ops {
            match op {
                AppliedOp::Kept(k) => produced.push(k.clone()),
                AppliedOp::Deleted(_) => total += rules.deletion_cost(),
                AppliedOp::Rule { rhs, cost, .. } => {
                    produced.extend(rhs.iter().cloned());
                    total += cost;
                }
            }
        }
        produced.sort();
        produced.dedup();
        assert_eq!(produced, target);
        assert_eq!(total, cost);
    }

    #[test]
    fn explanation_of_pure_deletion() {
        let q = Query::from_keywords(["xml", "ghost"]);
        let rules = RuleSet::new();
        let a = avail(&["xml"]);
        let (cost, ops) = explain_rq(&q, &a, &rules, &["xml".to_string()]).unwrap();
        assert_eq!(cost, 2.0);
        assert_eq!(
            ops,
            vec![
                AppliedOp::Kept("xml".to_string()),
                AppliedOp::Deleted("ghost".to_string())
            ]
        );
    }

    #[test]
    fn unreachable_target_is_none() {
        let q = Query::from_keywords(["xml"]);
        let rules = RuleSet::new();
        let a = avail(&["xml"]);
        assert!(explain_rq(&q, &a, &rules, &["mars".to_string()]).is_none());
    }

    #[test]
    fn ops_render_for_humans() {
        let op = AppliedOp::Rule {
            lhs: vec!["on".into(), "line".into()],
            rhs: vec!["online".into()],
            op: lexicon::RefineOp::Merge,
            cost: 1.0,
        };
        assert_eq!(op.to_string(), "merge \"on line\" -> \"online\" (ds 1)");
        assert_eq!(AppliedOp::Kept("x".into()).to_string(), "keep \"x\"");
        assert_eq!(AppliedOp::Deleted("y".into()).to_string(), "delete \"y\"");
    }
}
