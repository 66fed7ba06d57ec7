//! Algorithm 3: short-list eager Top-K query refinement.
//!
//! Step 1 explores refined-query candidates starting from the keyword with
//! the shortest inverted list: for every partition containing that
//! keyword, the other lists are probed by random access to assemble the
//! partition's available keyword set `T`, and the dynamic program
//! proposes candidates. After a keyword's iteration, every refined query
//! containing it is known, so its list is removed; the loop stops early
//! once even the optimistic dissimilarity of the remaining keyword set
//! (`C_potential`, the session's DP plan run on the mask of the
//! remaining keywords) cannot beat the current list. Step 2 computes the
//! SLCAs of the candidates that are returned with an existing SLCA
//! method over the full lists.
//!
//! Candidates, the Top-2K list and the results use the scheme of
//! Algorithm 2 (`partition.rs`): the session's `DpMemo` interns each
//! distinct candidate once, everything is keyed by that id, and the
//! shared `finalize` ranks the list's members before any has results.
//! Step 2 is its materialise step: a member is rescanned when the walk
//! in rank order reaches it, and — unlike in Algorithm 2, where
//! admission already proved a meaningful result — one whose lists share
//! none is skipped and the next one asked, until K are found. The
//! `advances` of an outcome count the rescans made.
//!
//! The "smart choice" of §VI-C is implemented: among remaining keywords,
//! prefer those that appear on the RHS of the pertinent rules or in the
//! original query (keywords needing no refinement), breaking ties by list
//! length.

use crate::dp::DpScratch;
use crate::partition::{finalize, DpMemo, SlcaMethod};
use crate::ranking::RankingConfig;
use crate::results::RefineOutcome;
use crate::rqlist::RqSortedList;
use crate::session::RefineSession;
use crate::util::KeyMask;
use invindex::ListHandle;
use std::collections::HashSet;
use xmldom::Dewey;

/// Options of the short-list eager algorithm.
pub struct SleOptions {
    pub k: usize,
    /// SLCA method for step 2.
    pub slca: SlcaMethod,
    pub ranking: RankingConfig,
    /// Enable the §VI-C smart keyword-choice heuristic.
    pub smart_choice: bool,
}

impl Default for SleOptions {
    fn default() -> Self {
        SleOptions {
            k: 1,
            slca: slca::slca_scan_eager,
            ranking: RankingConfig::default(),
            smart_choice: true,
        }
    }
}

/// Runs Algorithm 3.
pub fn sle_refine(session: &RefineSession<'_>, options: &SleOptions) -> RefineOutcome {
    let k = options.k.max(1);
    let mut rq_list = RqSortedList::new(2 * k);
    let mut dp_memo = DpMemo::new();

    // KSet: indices of keywords with non-empty lists (keywords absent from
    // the document can appear in no refined query).
    let mut remaining: Vec<usize> = (0..session.width())
        .filter(|&i| !session.lists[i].is_empty())
        .collect();

    // Keywords that appear on some rule's RHS (they are "already refined")
    // or in the original query: preferred anchors under the smart choice.
    let stable: HashSet<usize> = {
        let mut s: HashSet<usize> = session
            .rules
            .rhs_keywords()
            .iter()
            .filter_map(|w| session.pos(w))
            .collect();
        for w in session.query.keywords() {
            let in_lhs = session
                .rules
                .iter()
                .any(|(_, r)| r.lhs.iter().any(|l| l == w));
            if !in_lhs {
                if let Some(i) = session.pos(w) {
                    s.insert(i);
                }
            }
        }
        s
    };

    let mut processed_partitions: HashSet<Dewey> = HashSet::new();
    let mut potential_scratch = DpScratch::default();
    // Flushed as one atomic add per query (hot-loop discipline).
    let mut partitions_probed = 0u64;
    let mut early_stops = 0u64;

    while !remaining.is_empty() {
        // Stop condition (line 4): even the best refined query over the
        // remaining keywords cannot enter the list.
        if rq_list.is_full() {
            let mut mask = KeyMask::empty(session.width());
            remaining.iter().for_each(|&i| mask.set(i));
            let c_potential = (session.plan.optimum(&mask, &mut potential_scratch))
                .map_or(f64::INFINITY, |(dissimilarity, _)| dissimilarity);
            if c_potential > rq_list.admission_threshold() {
                early_stops += 1;
                break;
            }
        }

        // Choose k_i: smart preference, then shortest list.
        let pick_pos = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| {
                let smart_penalty = usize::from(options.smart_choice && !stable.contains(&i));
                (smart_penalty, session.lists[i].len(), i)
            })
            .map(|(p, _)| p)
            .expect("remaining non-empty");
        let ki = remaining.swap_remove(pick_pos);

        // Walk S_i sequentially; each new partition is probed once.
        for posting in session.lists[ki].iter() {
            // sequential advance over the anchor list
            session_advance(session);
            let Some(pid) = posting.dewey.partition() else {
                continue;
            };
            if !processed_partitions.insert(pid.clone()) {
                continue;
            }
            partitions_probed += 1;
            // Random-access probes: which keywords occur in this partition?
            let mut mask = KeyMask::empty(session.width());
            mask.set(ki);
            for (j, list) in session.lists.iter().enumerate() {
                if j == ki || list.is_empty() {
                    continue;
                }
                session_random(session);
                let range = list.partition_range(&pid);
                if !range.is_empty() {
                    mask.set(j);
                }
            }
            let candidates = dp_memo.candidates(session, &mask, 2 * k + 8);
            for &(id, dissimilarity) in candidates.iter() {
                dp_memo.admit(session, &mut rq_list, id, dissimilarity);
            }
        }
    }

    obs::counter!("xrefine_partitions_scanned_total").add(partitions_probed);
    obs::counter!("xrefine_sle_early_stops_total").add(early_stops);
    dp_memo.flush_hits();
    obs::trace::count("partitions.scanned", partitions_probed);

    step_two(session, rq_list, &dp_memo, options)
}

/// Step 2: SLCAs over the full lists, for the candidates returned. A
/// candidate of Algorithm 3 was never tried against the document, so one
/// whose lists turn out to share no meaningful result is skipped and the
/// next in rank order asked; only the rescans made are counted.
fn step_two(
    session: &RefineSession<'_>,
    rq_list: RqSortedList,
    dp_memo: &DpMemo,
    options: &SleOptions,
) -> RefineOutcome {
    let mut lists: Vec<ListHandle> = Vec::new();
    finalize(
        session,
        rq_list,
        dp_memo,
        options.k.max(1),
        &options.ranking,
        |id| {
            for &i in dp_memo.ks(id) {
                session
                    .scan_stats
                    .record_advances(session.lists[i].len() as u64);
            }
            dp_memo.materialise(session, id, options.slca, &mut lists)
        },
    )
}

fn session_advance(session: &RefineSession<'_>) {
    session.scan_stats.record_advance();
}

fn session_random(session: &RefineSession<'_>) {
    session.scan_stats.record_random_access();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_refine, PartitionOptions};
    use crate::query::{Query, RqCandidate};
    use invindex::{Index, KvBackedIndex};
    use lexicon::RuleSet;
    use std::sync::Arc;
    use xmldom::fixtures::figure1;

    #[allow(dead_code)]
    fn run(q: &[&str], k: usize) -> RefineOutcome {
        let idx = KvBackedIndex::from_built(Index::build(Arc::new(figure1())));
        let query = Query::from_keywords(q.iter().map(|s| s.to_string()));
        let session = RefineSession::new(&idx, query, RuleSet::table2()).unwrap();
        sle_refine(
            &session,
            &SleOptions {
                k,
                ..Default::default()
            },
        )
    }

    #[test]
    fn finds_same_optimum_as_partition() {
        for q in [
            vec!["on", "line", "data", "base"],
            vec!["xml", "john", "2003"],
            vec!["john", "fishing"],
            vec!["database", "publication"],
        ] {
            let idx = KvBackedIndex::from_built(Index::build(Arc::new(figure1())));
            let query = Query::from_keywords(q.iter().map(|s| s.to_string()));
            let s1 = RefineSession::new(&idx, query.clone(), RuleSet::table2()).unwrap();
            let s2 = RefineSession::new(&idx, query, RuleSet::table2()).unwrap();
            let a = partition_refine(
                &s1,
                &PartitionOptions {
                    k: 2,
                    ..Default::default()
                },
            );
            let b = sle_refine(
                &s2,
                &SleOptions {
                    k: 2,
                    ..Default::default()
                },
            );
            assert_eq!(a.original_ok, b.original_ok, "query {q:?}");
            match (a.best(), b.best()) {
                (Some(x), Some(y)) => assert_eq!(
                    x.candidate.dissimilarity, y.candidate.dissimilarity,
                    "query {q:?}"
                ),
                (None, None) => {}
                other => panic!("disagreement on {q:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn example6_term_deletion_refinements() {
        // Example 6: Q4 = {xml, john, 2003}, deletion-only refinement.
        let idx = KvBackedIndex::from_built(Index::build(Arc::new(figure1())));
        let query = Query::from_keywords(["xml", "john", "2003"]);
        let session = RefineSession::new(&idx, query, RuleSet::new()).unwrap();
        let out = sle_refine(
            &session,
            &SleOptions {
                k: 2,
                ..Default::default()
            },
        );
        assert!(!out.original_ok);
        assert!(!out.refinements.is_empty());
        // Both surviving refinements delete exactly one keyword (dSim 2).
        for r in &out.refinements {
            assert_eq!(r.candidate.dissimilarity, 2.0);
            assert_eq!(r.candidate.keywords.len(), 2);
            assert!(!r.slcas.is_empty());
        }
    }

    #[test]
    fn a_member_without_a_meaningful_result_is_skipped_and_only_the_rescans_made_count() {
        use crate::ranking::Ranker;
        use crate::util::KeyMask;

        // {xml, john, 2003}: only the document root covers all three, so
        // the full set has no meaningful result; its subsets do. The list
        // is built by hand: the full set cheapest (so it ranks first),
        // then the three pairs, then a single keyword that K = 2 never
        // reaches.
        let idx = KvBackedIndex::from_built(Index::build(Arc::new(figure1())));
        let query = Query::from_keywords(["xml", "john", "2003"]);
        let session = RefineSession::new(&idx, query.clone(), RuleSet::new()).unwrap();
        let mut memo = DpMemo::new();
        let mut mask = KeyMask::empty(session.width());
        (0..session.width()).for_each(|i| mask.set(i));
        let all = memo.candidates(&session, &mask, 10);
        let by_width = |n: usize| -> Vec<usize> {
            (all.iter().map(|&(id, _)| id))
                .filter(|&id| memo.ks(id).len() == n)
                .collect()
        };
        let (full, pairs, single) = (by_width(3)[0], by_width(2), by_width(1)[0]);
        assert_eq!(pairs.len(), 3);
        let mut list = RqSortedList::new(5);
        assert!(memo.admit(&session, &mut list, full, 1.0));
        for &pair in &pairs {
            assert!(memo.admit(&session, &mut list, pair, 2.0));
        }
        assert!(memo.admit(&session, &mut list, single, 4.0));

        // What the ranking model makes of the five, by itself.
        let keywords = |id: usize| -> Vec<String> {
            (memo.ks(id).iter().map(|&i| session.ks[i].clone())).collect()
        };
        let ranker = Ranker::new(&idx, &query, RankingConfig::default());
        let ranked = ranker.rank_all(
            (list.iter())
                .map(|(dissimilarity, id)| RqCandidate {
                    keywords: keywords(id),
                    dissimilarity,
                })
                .collect(),
        );
        assert_eq!(
            ranked[0].0.keywords,
            keywords(full),
            "the full set ranks first"
        );
        assert_eq!(ranked[1].0.keywords.len(), 2);
        assert_eq!(ranked[2].0.keywords.len(), 2);

        let options = SleOptions {
            k: 2,
            ..Default::default()
        };
        let out = step_two(&session, list, &memo, &options);
        // The best-ranked member is skipped, the next two are returned …
        assert!(!out.original_ok);
        let returned: Vec<&Vec<String>> = out
            .refinements
            .iter()
            .map(|r| &r.candidate.keywords)
            .collect();
        assert_eq!(returned, [&ranked[1].0.keywords, &ranked[2].0.keywords]);
        assert!(out.refinements.iter().all(|r| !r.slcas.is_empty()));
        // … and the rescans counted are the three made: the full set's
        // lists once, the two pairs', and nothing for the two members
        // never asked.
        let len = |w: &String| session.lists[session.pos(w).unwrap()].len() as u64;
        let rescans: u64 = (ranked[..3].iter())
            .flat_map(|(c, _)| c.keywords.iter().map(len))
            .sum();
        assert_eq!(out.advances, rescans);
        assert_eq!(out.random_accesses, 0);
    }

    #[test]
    fn uses_random_accesses_unlike_full_scans() {
        let idx = KvBackedIndex::from_built(Index::build(Arc::new(figure1())));
        let query = Query::from_keywords(["xml", "john", "2003"]);
        let session = RefineSession::new(&idx, query, RuleSet::new()).unwrap();
        let out = sle_refine(&session, &SleOptions::default());
        assert!(out.random_accesses > 0);
    }
}
