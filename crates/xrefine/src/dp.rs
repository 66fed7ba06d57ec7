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
//!
//! **One recurrence, on interned keys.** `DpPlan` resolves a query and
//! its rule set against the key set `KS` once — the `KS` index of every
//! query position, the rules whose LHS is the segment ending at each
//! position with their RHS as `KS` indices, the string rank of every
//! `KS` entry — and `DpPlan::run` takes `T` as a [`KeyMask`] over `KS`.
//! A state is a cost, a keyword set (ascending string ranks in an arena
//! shared by the call) and a pointer to the state it extends; nothing in
//! the loop compares, hashes or clones a string, and comparing two rank
//! lists orders the states exactly as comparing the sorted keyword sets
//! as strings would, for a `KS` of any width. The derivation of a
//! candidate is rebuilt from the pointers only when [`explain_rq`] asks.
//! A `RefineSession` builds the plan once and Algorithms 1-3 run it on
//! their masks; the string-keyed entry points below are an adapter onto
//! the same core (`tests/dp_reference.rs` keeps the string-set
//! recurrence this replaced as the oracle).

use crate::query::{Query, RqCandidate};
use crate::session::key_set;
use crate::util::KeyMask;
use lexicon::{RefineOp, RuleId, RuleSet};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

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

/// A rule that applies at one query position: its LHS is the query
/// segment ending there.
struct PlanRule {
    lhs_len: usize,
    /// `KS` indices of the RHS keywords, in [`DpPlan::rhs_pool`].
    rhs: Range<usize>,
    cost: f64,
    id: RuleId,
}

/// Everything the recurrence needs of one query and its rule set,
/// resolved once against the key set `KS`: no call compares, hashes or
/// clones a keyword string.
pub(crate) struct DpPlan {
    /// `KS` index of the keyword at each query position.
    positions: Vec<usize>,
    /// The rules applying at position `i` are
    /// `rules[rule_start[i]..rule_start[i + 1]]`, in
    /// `RuleSet::rules_ending_with` order.
    rules: Vec<PlanRule>,
    rule_start: Vec<usize>,
    rhs_pool: Vec<usize>,
    deletion_cost: f64,
    /// `rank[i]`: where `KS[i]` stands in the string order of `KS`. A
    /// state's keyword set is an ascending list of ranks, so comparing
    /// two lists compares the sorted keyword sets as strings.
    rank: Vec<u32>,
    /// Inverse of `rank`.
    by_rank: Vec<usize>,
}

/// How a state extends the one it points back to.
#[derive(Clone, Copy)]
enum Choice {
    Start,
    Keep,
    Delete,
    /// Index into [`DpPlan::rules`].
    Rule(u32),
}

#[derive(Clone, Copy)]
struct State {
    cost: f64,
    /// The keyword set: `len` ascending string ranks at `sets[at..]`.
    at: u32,
    len: u32,
    /// The state this one extends (index into [`DpScratch::states`]).
    from: u32,
    /// Push order within the layer: what a stable sort would preserve.
    seq: u32,
    choice: Choice,
}

/// The recurrence's working memory, reusable across calls: all layers'
/// surviving states in one vector, their keyword sets in one arena.
#[derive(Default)]
pub(crate) struct DpScratch {
    states: Vec<State>,
    /// Layer `i` (the states of prefix `S[1..i]`) is
    /// `states[layer_start[i]..layer_start[i + 1]]`.
    layer_start: Vec<usize>,
    sets: Vec<u32>,
    /// The layer under construction, before pruning.
    next: Vec<State>,
}

impl DpScratch {
    fn set(&self, st: &State) -> &[u32] {
        set_of(&self.sets, st)
    }

    fn layer(&self, i: usize) -> &[State] {
        &self.states[self.layer_start[i]..self.layer_start[i + 1]]
    }
}

fn set_of<'a>(sets: &'a [u32], st: &State) -> &'a [u32] {
    &sets[st.at as usize..(st.at + st.len) as usize]
}

impl DpPlan {
    /// Resolves `query` and `rules` against the key set `ks` (`pos` maps
    /// a keyword to its index; every query keyword must be in it). A rule
    /// naming an RHS keyword outside `KS` can never apply and is left out.
    pub(crate) fn new(
        query: &Query,
        rules: &RuleSet,
        ks: &[String],
        pos: &HashMap<String, usize>,
    ) -> DpPlan {
        let s = query.keywords();
        let mut by_rank: Vec<usize> = (0..ks.len()).collect();
        by_rank.sort_unstable_by(|&a, &b| ks[a].cmp(&ks[b]));
        let mut rank = vec![0u32; ks.len()];
        for (r, &i) in by_rank.iter().enumerate() {
            rank[i] = r as u32;
        }

        let mut plan = DpPlan {
            positions: s.iter().map(|k| pos[k]).collect(),
            rules: Vec::new(),
            rule_start: Vec::with_capacity(s.len() + 1),
            rhs_pool: Vec::new(),
            deletion_cost: rules.deletion_cost(),
            rank,
            by_rank,
        };
        for (i, ki) in s.iter().enumerate() {
            plan.rule_start.push(plan.rules.len());
            for (id, rule) in rules.rules_ending_with(ki) {
                let l = rule.lhs.len();
                if l > i + 1 || s[i + 1 - l..=i] != rule.lhs[..] {
                    continue;
                }
                let at = plan.rhs_pool.len();
                let known = rule.rhs.iter().map_while(|w| pos.get(w).copied());
                plan.rhs_pool.extend(known);
                if plan.rhs_pool.len() - at != rule.rhs.len() {
                    plan.rhs_pool.truncate(at);
                    continue;
                }
                plan.rules.push(PlanRule {
                    lhs_len: l,
                    rhs: at..plan.rhs_pool.len(),
                    cost: rule.dissimilarity,
                    id,
                });
            }
        }
        plan.rule_start.push(plan.rules.len());
        plan
    }

    /// Where `KS[i]` stands in the string order of `KS`.
    pub(crate) fn rank(&self, i: usize) -> u32 {
        self.rank[i]
    }

    /// `getOptimalRQ` proper: the optimal RQ over `available`, as its
    /// dissimilarity and its `KS` indices in keyword order.
    pub(crate) fn optimum<'a>(
        &'a self,
        available: &KeyMask,
        scratch: &'a mut DpScratch,
    ) -> Option<(f64, impl Iterator<Item = usize> + 'a)> {
        self.run(available, 1, scratch).candidates().next()
    }

    /// The recurrence of Formula 11 over the keywords `available` marks
    /// (`getTopOptimalRQ`): each prefix keeps the `max(4·m, 8)` cheapest
    /// states with distinct keyword sets. A state is a cost, a keyword
    /// set and a pointer to the state it extends — the derivation is
    /// rebuilt from the pointers only when [`explain_rq`] asks.
    pub(crate) fn run<'a>(
        &'a self,
        available: &KeyMask,
        m: usize,
        scratch: &'a mut DpScratch,
    ) -> DpRun<'a> {
        obs::counter!("xrefine_dp_calls_total").inc();
        obs::trace::count("dp.calls", 1);
        let cap = (4 * m).max(8);
        let DpScratch {
            states,
            layer_start,
            sets,
            next,
        } = &mut *scratch;
        states.clear();
        layer_start.clear();
        sets.clear();
        states.push(State {
            cost: 0.0,
            at: 0,
            len: 0,
            from: 0,
            seq: 0,
            choice: Choice::Start,
        });
        layer_start.extend([0, 1]);

        for i in 1..=self.positions.len() {
            next.clear();
            let previous = layer_start[i - 1]..layer_start[i];
            let mut extend = |sets: &mut Vec<u32>,
                              states: &[State],
                              from: usize,
                              added: &[usize],
                              cost: f64,
                              choice: Choice| {
                let st = states[from];
                // A state that adds nothing shares the set it extends.
                let (at, len) = if added.is_empty() {
                    (st.at, st.len)
                } else {
                    let at = sets.len();
                    sets.extend_from_within(st.at as usize..(st.at + st.len) as usize);
                    for &j in added {
                        let r = self.rank[j];
                        if let Err(p) = sets[at..].binary_search(&r) {
                            sets.insert(at + p, r);
                        }
                    }
                    (at as u32, (sets.len() - at) as u32)
                };
                next.push(State {
                    // `+ 0.0` for a kept keyword leaves the bits alone.
                    cost: st.cost + cost,
                    at,
                    len,
                    from: from as u32,
                    seq: next.len() as u32,
                    choice,
                });
            };

            // Option 1: keep k_i when it exists in T.
            let ki = self.positions[i - 1];
            if available.get(ki) {
                for from in previous.clone() {
                    extend(sets, states, from, &[ki], 0.0, Choice::Keep);
                }
            }
            // Option 2: delete k_i.
            for from in previous {
                extend(sets, states, from, &[], self.deletion_cost, Choice::Delete);
            }
            // Option 3: rules whose LHS is the query segment ending at i
            // and whose RHS exists entirely within T.
            for n in self.rule_start[i - 1]..self.rule_start[i] {
                let rule = &self.rules[n];
                let rhs = &self.rhs_pool[rule.rhs.clone()];
                if !rhs.iter().all(|&j| available.get(j)) {
                    continue;
                }
                let base = i - rule.lhs_len;
                for from in layer_start[base]..layer_start[base + 1] {
                    extend(sets, states, from, rhs, rule.cost, Choice::Rule(n as u32));
                }
            }

            prune(next, sets, cap, states);
            layer_start.push(states.len());
        }
        DpRun {
            plan: self,
            scratch,
        }
    }
}

/// Keeps the `cap` cheapest states with distinct keyword sets (the
/// cheapest cost per set, the earliest pushed among equals), appending
/// them to `states` in `(cost, keyword set)` order.
fn prune(next: &mut [State], sets: &[u32], cap: usize, states: &mut Vec<State>) {
    next.sort_unstable_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| set_of(sets, a).cmp(set_of(sets, b)))
            .then_with(|| a.seq.cmp(&b.seq))
    });
    let layer = states.len();
    for st in next.iter() {
        if states.len() - layer >= cap {
            break;
        }
        let set = set_of(sets, st);
        if states[layer..].iter().any(|kept| set_of(sets, kept) == set) {
            continue;
        }
        states.push(*st);
    }
}

/// The layers one [`DpPlan::run`] left in its scratch.
pub(crate) struct DpRun<'a> {
    plan: &'a DpPlan,
    scratch: &'a DpScratch,
}

impl<'a> DpRun<'a> {
    /// The final layer's non-empty keyword sets, cheapest first (ties by
    /// keyword set — the order the layer was pruned in), each as its
    /// dissimilarity and its `KS` indices in keyword order. The caller
    /// takes the `m` it asked for.
    pub(crate) fn candidates(
        &self,
    ) -> impl Iterator<Item = (f64, impl Iterator<Item = usize> + 'a)> + 'a {
        let DpRun { plan, scratch } = *self;
        scratch
            .layer(plan.positions.len())
            .iter()
            .filter(|st| st.len > 0)
            .map(move |st| {
                let ks = scratch
                    .set(st)
                    .iter()
                    .map(move |&r| plan.by_rank[r as usize]);
                (st.cost, ks)
            })
    }

    /// `C[i]` of Formula 11 for every prefix.
    fn prefix_costs(&self) -> Vec<f64> {
        (0..=self.plan.positions.len())
            .map(|i| {
                self.scratch
                    .layer(i)
                    .iter()
                    .map(|st| st.cost)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// The cheapest final state whose keyword set is exactly `want`
    /// (ascending string ranks), as its cost and its derivation.
    fn explain(
        &self,
        query: &Query,
        rules: &RuleSet,
        want: &[u32],
    ) -> Option<(f64, Vec<AppliedOp>)> {
        let s = query.keywords();
        let scratch = self.scratch;
        let found = scratch
            .layer(s.len())
            .iter()
            .find(|st| scratch.set(st) == want)?;
        let mut ops = Vec::new();
        let (mut st, mut i) = (found, s.len());
        loop {
            match st.choice {
                Choice::Start => break,
                Choice::Keep => {
                    ops.push(AppliedOp::Kept(s[i - 1].clone()));
                    i -= 1;
                }
                Choice::Delete => {
                    ops.push(AppliedOp::Deleted(s[i - 1].clone()));
                    i -= 1;
                }
                Choice::Rule(n) => {
                    let applied = &self.plan.rules[n as usize];
                    let rule = rules.get(applied.id);
                    ops.push(AppliedOp::Rule {
                        lhs: rule.lhs.clone(),
                        rhs: rule.rhs.clone(),
                        op: rule.op,
                        cost: rule.dissimilarity,
                    });
                    i -= applied.lhs_len;
                }
            }
            st = &scratch.states[st.from as usize];
        }
        ops.reverse();
        Some((found.cost, ops))
    }
}

/// The string-keyed entry points' adapter onto the core: a key set local
/// to the call — the query's keywords and the RHS of every rule whose
/// LHS ends in one of them (no other rule can apply) — one `available`
/// probe per keyword of it, one run.
fn with_run<R>(
    query: &Query,
    available: &dyn Fn(&str) -> bool,
    rules: &RuleSet,
    m: usize,
    read: impl FnOnce(&DpRun<'_>, &[String], &HashMap<String, usize>) -> R,
) -> R {
    let s = query.keywords();
    let reachable = s.iter().flat_map(|k| rules.rules_ending_with(k));
    let (ks, pos) = key_set(s.iter().chain(reachable.flat_map(|(_, rule)| &rule.rhs)));
    let plan = DpPlan::new(query, rules, &ks, &pos);
    let mut mask = KeyMask::empty(ks.len());
    for (i, k) in ks.iter().enumerate() {
        if available(k) {
            mask.set(i);
        }
    }
    let mut scratch = DpScratch::default();
    read(&plan.run(&mask, m, &mut scratch), &ks, &pos)
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
    with_run(query, available, rules, m, |run, ks, _| DpResult {
        candidates: run
            .candidates()
            .take(m)
            .map(|(dissimilarity, set)| RqCandidate {
                keywords: set.map(|i| ks[i].clone()).collect(),
                dissimilarity,
            })
            .collect(),
        prefix_costs: run.prefix_costs(),
    })
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
    with_run(query, available, rules, 64, |run, _, pos| {
        // A keyword outside KS is in no state's set.
        let mut want: Vec<u32> = target
            .iter()
            .map(|w| pos.get(w).map(|&i| run.plan.rank(i)))
            .collect::<Option<_>>()?;
        want.sort_unstable();
        want.dedup();
        run.explain(query, rules, &want)
    })
}

/// Convenience: just the optimal RQ (`getOptimalRQ` proper).
// xlint::allow(unused-export): the paper's getOptimalRQ under its own name for string-keyed callers — the algorithms run `DpPlan::optimum` on their masks; `dp_oracle` holds this to brute force
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
    use std::collections::BTreeSet;
    let s = query.keywords();
    let mut best: HashMap<Vec<String>, f64> = HashMap::new();

    fn recurse<'a>(
        s: &'a [String],
        i: usize,
        cost: f64,
        kws: &mut BTreeSet<&'a str>,
        available: &dyn Fn(&str) -> bool,
        rules: &'a RuleSet,
        best: &mut HashMap<Vec<String>, f64>,
    ) {
        if i == s.len() {
            if !kws.is_empty() {
                let key: Vec<String> = kws.iter().map(|w| w.to_string()).collect();
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
            let inserted = kws.insert(ki);
            recurse(s, i + 1, cost, kws, available, rules, best);
            if inserted {
                kws.remove(ki.as_str());
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
            let added: Vec<&str> = rule
                .rhs
                .iter()
                .map(String::as_str)
                .filter(|w| kws.insert(w))
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
                kws.remove(w);
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
