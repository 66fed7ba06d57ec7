//! Algorithm 1: stack-based query refinement.
//!
//! Extends the stack-based SLCA algorithm of \[3\] to the full key set `KS`
//! (original plus rule-generated keywords). The merged stream of all `KS`
//! inverted lists is consumed once; every popped stack entry denotes a
//! node `n` whose witness mask records exactly the keywords contained in
//! `subtree(n)`. At each *meaningful* popped node the dynamic program of
//! §V is invoked with `T =` that witness set, maintaining the running
//! optimal refined query `RQ_min`.
//!
//! SLCA exactness: each entry also keeps the witness masks of its
//! completed child subtrees, so a popped node is recorded as an SLCA of
//! `RQ_min` only when no single child subtree already contained all of
//! `RQ_min`'s keywords (the paper approximates this with selective
//! witness resets; the mask check implements the same intent exactly).

use crate::dp::DpScratch;
use crate::query::RqCandidate;
use crate::results::{RefineOutcome, Refinement};
use crate::session::RefineSession;
use crate::util::KeyMask;
use invindex::ListCursor;
use xmldom::Dewey;

struct Entry {
    component: u32,
    witness: KeyMask,
    child_masks: Vec<KeyMask>,
}

/// Runs Algorithm 1, returning the optimal refined query (possibly the
/// original, at dissimilarity 0) and its meaningful SLCA results.
pub fn stack_refine(session: &RefineSession<'_>) -> RefineOutcome {
    let width = session.width();
    let mut cursors: Vec<ListCursor<'_>> = session
        .lists
        .iter()
        .map(|l| ListCursor::new(l, session.scan_stats.clone()))
        .collect();

    let mut stack: Vec<Entry> = Vec::new();
    let mut best: Option<RqCandidate> = None;
    let mut best_mask = KeyMask::empty(width);
    let mut results: Vec<Dewey> = Vec::new();

    let mut dp_scratch = DpScratch::default();
    // Reusable closure state for pops.
    let mut process_pop = |stack: &mut Vec<Entry>,
                           target: usize,
                           best: &mut Option<RqCandidate>,
                           best_mask: &mut KeyMask,
                           results: &mut Vec<Dewey>| {
        while stack.len() > target {
            let entry = stack.pop().expect("len > target");
            let mut comps: Vec<u32> = stack.iter().map(|e| e.component).collect();
            comps.push(entry.component);
            let dewey = Dewey::new(comps).expect("non-empty");

            if session.filter.is_meaningful(&dewey) {
                // T = the witness set: the session's plan runs on the
                // mask itself.
                if let Some((dissimilarity, ks)) =
                    session.plan.optimum(&entry.witness, &mut dp_scratch)
                {
                    let improved = best
                        .as_ref()
                        .map(|b| dissimilarity < b.dissimilarity)
                        .unwrap_or(true);
                    if improved {
                        // Strictly better: no already-popped node contained
                        // a refined query this cheap, so `dewey` is an
                        // SLCA of the candidate (see module docs).
                        let mut keywords = Vec::new();
                        *best_mask = KeyMask::empty(width);
                        for i in ks {
                            best_mask.set(i);
                            keywords.push(session.ks[i].clone());
                        }
                        *best = Some(RqCandidate {
                            keywords,
                            dissimilarity,
                        });
                        results.clear();
                        results.push(dewey.clone());
                    } else if best.is_some()
                        && best_mask.is_subset_of(&entry.witness)
                        && !entry.child_masks.iter().any(|c| best_mask.is_subset_of(c))
                    {
                        // This node also contains RQ_min fully and no single
                        // child did: another SLCA of RQ_min.
                        results.push(dewey.clone());
                    }
                }
            }

            if let Some(parent) = stack.last_mut() {
                parent.witness.or_assign(&entry.witness);
                parent.child_masks.push(entry.witness);
            }
        }
    };

    loop {
        // k-way merge: smallest head among cursors, with its list index.
        let mut smallest: Option<(usize, &Dewey)> = None;
        for (i, c) in cursors.iter().enumerate() {
            if let Some(p) = c.peek() {
                match smallest {
                    None => smallest = Some((i, &p.dewey)),
                    Some((_, d)) if p.dewey < *d => smallest = Some((i, &p.dewey)),
                    _ => {}
                }
            }
        }
        let Some((list_idx, _)) = smallest else { break };
        let posting = cursors[list_idx].next().expect("peeked");
        let comps = posting.dewey.components();

        let mut p = 0;
        while p < stack.len() && p < comps.len() && stack[p].component == comps[p] {
            p += 1;
        }
        process_pop(&mut stack, p, &mut best, &mut best_mask, &mut results);
        for &c in &comps[p..] {
            stack.push(Entry {
                component: c,
                witness: KeyMask::empty(width),
                child_masks: Vec::new(),
            });
        }
        if let Some(top) = stack.last_mut() {
            top.witness.set(list_idx);
        }
    }
    process_pop(&mut stack, 0, &mut best, &mut best_mask, &mut results);

    results.sort();
    results.dedup();
    let refinements = match best {
        Some(cand) => vec![Refinement {
            candidate: cand,
            rank_score: 0.0,
            slcas: results,
        }],
        None => Vec::new(),
    };
    let original_ok = refinements
        .first()
        .map(|r| r.candidate.dissimilarity == 0.0)
        .unwrap_or(false);
    RefineOutcome {
        original_ok,
        refinements,
        advances: session.scan_stats.advances(),
        random_accesses: session.scan_stats.random_accesses(),
        degraded: session.degraded.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use invindex::{Index, KvBackedIndex};
    use lexicon::RuleSet;
    use std::sync::Arc;
    use xmldom::fixtures::figure1;

    fn session(q: &[&str]) -> (Arc<KvBackedIndex>, Query, RuleSet) {
        let idx = Arc::new(KvBackedIndex::from_built(Index::build(Arc::new(figure1()))));
        (
            idx,
            Query::from_keywords(q.iter().map(|s| s.to_string())),
            RuleSet::table2(),
        )
    }

    #[test]
    fn original_query_with_meaningful_result_needs_no_refinement() {
        let (idx, q, rules) = session(&["john", "fishing"]);
        let s = RefineSession::new(idx.as_ref(), q, rules).unwrap();
        let out = stack_refine(&s);
        assert!(out.original_ok);
        let best = out.best().unwrap();
        assert_eq!(best.candidate.dissimilarity, 0.0);
        assert!(!best.slcas.is_empty());
        // the SLCA is inside author 0.1
        for d in &best.slcas {
            assert!(d.to_string().starts_with("0.1"));
        }
    }

    #[test]
    fn example4_merges_on_line_data_base() {
        // Example 4 flavour: {on, line, data, base} has no match for "on".
        // In the Figure 1 fixture the cheapest repair is a single merge
        // (on+line -> online) keeping "data" and "base", which all occur
        // under author 0.0 (dSim = 1); the two-merge {online, database}
        // (dSim = 2) is the runner-up.
        let (idx, q, rules) = session(&["on", "line", "data", "base"]);
        let s = RefineSession::new(idx.as_ref(), q, rules).unwrap();
        let out = stack_refine(&s);
        assert!(!out.original_ok);
        let best = out.best().unwrap();
        assert_eq!(best.candidate.keywords, ["base", "data", "online"]);
        assert_eq!(best.candidate.dissimilarity, 1.0);
        assert!(!best.slcas.is_empty());
        assert!(best.slcas.iter().all(|d| d.to_string().starts_with("0.0")));
    }

    #[test]
    fn one_scan_guarantee_theorem1() {
        let (idx, q, rules) = session(&["on", "line", "data", "base"]);
        let s = RefineSession::new(idx.as_ref(), q, rules).unwrap();
        let budget = s.total_list_len() as u64;
        let out = stack_refine(&s);
        assert!(out.advances <= budget, "{} > {budget}", out.advances);
        assert_eq!(out.random_accesses, 0);
    }

    #[test]
    fn no_candidate_when_nothing_matches() {
        let (idx, q, _) = session(&["qqq", "zzz"]);
        let s = RefineSession::new(idx.as_ref(), q, RuleSet::new()).unwrap();
        let out = stack_refine(&s);
        assert!(out.refinements.is_empty());
        assert!(!out.original_ok);
    }

    #[test]
    fn root_only_cover_is_not_meaningful() {
        // {xml, john, 2003}: only the root covers all three; the optimal
        // meaningful refinement must therefore drop a keyword.
        let (idx, q, rules) = session(&["xml", "john", "2003"]);
        let s = RefineSession::new(idx.as_ref(), q, rules).unwrap();
        let out = stack_refine(&s);
        assert!(!out.original_ok);
        let best = out.best().unwrap();
        assert!(best.candidate.dissimilarity > 0.0);
        assert!(!best.slcas.is_empty());
        for d in &best.slcas {
            assert_ne!(d.to_string(), "0");
        }
    }
}
