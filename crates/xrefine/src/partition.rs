//! Algorithm 2: partition-based Top-K query refinement.
//!
//! The document is consumed as its ordered partitions (Definition 6.1 —
//! the subtrees rooted at the children of the document root). Per
//! partition, one dynamic-program invocation yields the approximate
//! Top-2K refined-query candidates whose keywords all occur inside the
//! partition. A candidate that beats the running `RQSortedList`
//! threshold gets its SLCAs computed *within the partition* by a
//! pluggable SLCA method (scan-eager by default — Lemma 3's
//! orthogonality) and is admitted when one of them is meaningful. A
//! final pass applies the full ranking model (Formula 10) to pick the
//! Top-K.
//!
//! **Admit once, materialise once.** Every distinct candidate the DP
//! proposes is interned once per session ([`DpMemo`]); the list, the
//! admission records and the results are keyed by that id. From the
//! moment a candidate is admitted it costs one membership test per
//! partition: its per-keyword list offsets at admission are recorded,
//! and after the scan each candidate still in the list gets **one**
//! SLCA call over `[offset, end)` of its lists. Any non-root node that
//! contains all of a candidate's keywords lies in exactly one
//! partition, and SLCA minimality is decided inside that node's
//! subtree, so the one call returns exactly the union of the
//! per-partition results from the admission partition on (DESIGN.md §4,
//! "Deferred result materialisation"). No results are ever computed for
//! a candidate that is evicted and stays out. One that is evicted and
//! later admitted again — the threshold never rises, but the DP's beam
//! can price one keyword set lower under another mask — keeps the
//! offsets of its *first* admission, so its one call covers both
//! membership windows.
//!
//! The scan allocates per admission trial, not per partition: the
//! availability mask, the per-list partition ranges and the SLCA
//! argument vector are buffers reused across partitions, and the
//! smallest head is borrowed, its partition compared as components.
//!
//! Root-level matches (postings on the document root itself) belong to no
//! partition and are skipped — the root is never a meaningful result.

use crate::dp::get_top_optimal_rqs;
use crate::query::RqCandidate;
use crate::ranking::{Ranker, RankingConfig};
use crate::results::{RefineOutcome, Refinement};
use crate::rqlist::{RqId, RqSortedList};
use crate::session::RefineSession;
use crate::util::KeyMask;
use invindex::{ListCursor, ListHandle};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use xmldom::Dewey;

/// One distinct refined-query candidate of a session.
struct Interned {
    /// Canonical (sorted, deduplicated) keyword set.
    keywords: Vec<String>,
    /// `KS` index of each keyword, in `keywords` order.
    ks: Vec<usize>,
    /// Where each keyword's list stood when Algorithm 2 first admitted
    /// the candidate (in `ks` order). Kept across an eviction.
    admitted_at: Option<Vec<usize>>,
    /// Meaningful SLCA results, once materialised.
    slcas: Vec<Dewey>,
}

/// Per-session state of the dynamic program, shared by Algorithms 2
/// and 3.
///
/// *Memoised per mask*: the DP's output depends only on the
/// available-keyword mask `T`. Algorithm 2's advantage (3) —
/// "`getOptimalRQ` is employed once for RQ candidates that have multiple
/// matching results" — generalizes across partitions, and under
/// Zipf-skewed data many partitions expose identical keyword sets. The
/// memo keeps, per mask, the candidates as `(id, dissimilarity)` pairs
/// in the DP's order.
///
/// *Interned per session*: each distinct keyword set the DP ever
/// proposes gets one [`RqId`] and one arena entry holding everything
/// about the candidate — its keywords, their `KS` indices, where
/// Algorithm 2 admitted it and (later) its results — so nothing
/// downstream compares, hashes or clones keyword strings.
pub(crate) struct DpMemo {
    memo: HashMap<KeyMask, Rc<[(RqId, f64)]>>,
    ids: HashMap<Vec<usize>, RqId>,
    arena: Vec<Interned>,
}

impl DpMemo {
    pub(crate) fn new() -> Self {
        DpMemo {
            memo: HashMap::new(),
            ids: HashMap::new(),
            arena: Vec::new(),
        }
    }

    /// The Top-`m` candidates over the keywords available in `mask`.
    pub(crate) fn candidates(
        &mut self,
        session: &RefineSession<'_>,
        mask: &KeyMask,
        m: usize,
    ) -> Rc<[(RqId, f64)]> {
        if let Some(c) = self.memo.get(mask) {
            obs::counter!("xrefine_dp_memo_hits_total").inc();
            return Rc::clone(c);
        }
        let availability = |w: &str| session.pos(w).map(|i| mask.get(i)).unwrap_or(false);
        let dp = get_top_optimal_rqs(&session.query, &availability, &session.rules, m);
        let rc: Rc<[(RqId, f64)]> = dp
            .candidates
            .into_iter()
            .map(|cand| (self.intern(session, cand.keywords), cand.dissimilarity))
            .collect();
        self.memo.insert(mask.clone(), Rc::clone(&rc));
        rc
    }

    fn intern(&mut self, session: &RefineSession<'_>, keywords: Vec<String>) -> RqId {
        // `KS` holds each keyword once, so the index vector names the set.
        let ks: Vec<usize> = keywords
            .iter()
            .map(|w| session.pos(w).expect("the DP draws keywords from KS"))
            .collect();
        if let Some(&id) = self.ids.get(&ks) {
            return id;
        }
        let id = self.arena.len();
        self.ids.insert(ks.clone(), id);
        self.arena.push(Interned {
            keywords,
            ks,
            admitted_at: None,
            slcas: Vec::new(),
        });
        id
    }

    /// `KS` indices of a candidate's keywords.
    pub(crate) fn ks(&self, id: RqId) -> &[usize] {
        &self.arena[id].ks
    }

    /// Inserts into the Top-2K list, ties broken by keyword set; `false`
    /// when the list does not take the candidate.
    pub(crate) fn admit(&self, list: &mut RqSortedList, id: RqId, dissimilarity: f64) -> bool {
        list.insert(id, dissimilarity, |a, b| {
            self.arena[a].keywords.cmp(&self.arena[b].keywords)
        })
    }

    /// Records where a candidate's lists stood (`ranges`, one per `KS`
    /// keyword) when Algorithm 2 admitted it. Only the first admission
    /// counts: a candidate that was evicted and comes back at a lower
    /// price keeps its earlier offsets.
    fn record_admission(&mut self, id: RqId, ranges: &[Range<usize>]) {
        let c = &mut self.arena[id];
        if c.admitted_at.is_none() {
            c.admitted_at = Some(c.ks.iter().map(|&i| ranges[i].start).collect());
        }
    }

    /// Materialises a candidate's results: one `slca` call over its
    /// keywords' lists — each from where it stood at the candidate's
    /// first admission, or whole when none was recorded (Algorithm 3) —
    /// reduced to the meaningful, non-root results. `slices` is the
    /// caller's reusable argument buffer.
    pub(crate) fn materialise(
        &mut self,
        session: &RefineSession<'_>,
        id: RqId,
        slca: SlcaMethod,
        slices: &mut Vec<ListHandle>,
    ) {
        let c = &mut self.arena[id];
        slices.clear();
        slices.extend(c.ks.iter().enumerate().map(|(n, &i)| {
            let list = &session.lists[i];
            let from = c.admitted_at.as_ref().map_or(0, |at| at[n]);
            list.slice(from..list.len())
        }));
        c.slcas = meaningful_slcas(session, slca, slices);
    }
}

/// `slca` over `lists`, reduced to the meaningful results below the
/// document root.
fn meaningful_slcas(
    session: &RefineSession<'_>,
    slca: SlcaMethod,
    lists: &[ListHandle],
) -> Vec<Dewey> {
    let mut found = session.filter.filter(slca(lists));
    found.retain(|d| d.len() > 1);
    found
}

/// A pluggable SLCA computation over per-keyword posting slices. The
/// slices are [`ListHandle`] views, so they work identically for resident
/// and kv-backed lists; any generic `fn<S: AsRef<[Posting]>>(&[S])`
/// algorithm from the `slca` crate coerces to this type.
///
/// [`Posting`]: invindex::Posting
pub type SlcaMethod = fn(&[ListHandle]) -> Vec<Dewey>;

/// Options of the partition algorithm.
pub struct PartitionOptions {
    /// K of Top-K.
    pub k: usize,
    /// SLCA method used inside partitions (Lemma 3: any method works).
    pub slca: SlcaMethod,
    /// Ranking model applied in the final re-ranking pass.
    pub ranking: RankingConfig,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            k: 1,
            slca: slca::slca_scan_eager,
            ranking: RankingConfig::default(),
        }
    }
}

/// Runs Algorithm 2.
pub fn partition_refine(session: &RefineSession<'_>, options: &PartitionOptions) -> RefineOutcome {
    let k = options.k.max(1);
    let mut rq_list = RqSortedList::new(2 * k);
    let mut dp_memo = DpMemo::new();

    let mut cursors: Vec<ListCursor<'_>> = session
        .lists
        .iter()
        .map(|l| ListCursor::new(l, session.scan_stats.clone()))
        .collect();

    // Reused across partitions.
    let mut mask = KeyMask::empty(session.width());
    let mut ranges: Vec<Range<usize>> = vec![0..0; cursors.len()];
    let mut slices: Vec<ListHandle> = Vec::new();

    // Hot-loop counters are accumulated locally and flushed with one
    // atomic add per query (see DESIGN.md "Observability").
    let mut partitions_scanned = 0u64;
    let mut rqs_pruned = 0u64;

    // v_s: the smallest head across all cursors (line 5).
    while let Some(v) = cursors
        .iter()
        .filter_map(|c| c.peek())
        .map(|p| &p.dewey)
        .min()
    {
        let Some(pid) = v.components().get(..2) else {
            // A match on the document root itself: advance past it.
            for c in cursors.iter_mut() {
                if c.peek().is_some_and(|p| p.dewey == *v) {
                    c.next();
                }
            }
            continue;
        };

        // Each list's range inside the partition, the cursors advanced
        // past it (lines 6-8), and T: the keywords with a non-empty
        // range (line 9).
        mask.clear();
        for (i, c) in cursors.iter_mut().enumerate() {
            let range = c.skip_partition(pid);
            if !range.is_empty() {
                mask.set(i);
            }
            ranges[i] = range;
        }
        partitions_scanned += 1;

        // Candidates within this partition (line 10), memoized on T. We
        // request more than 2K because candidates can fail the
        // meaningful-SLCA check below; the surviving ones fill the Top-2K
        // list (the paper's list is "approximate" for the same reason).
        let candidates = dp_memo.candidates(session, &mask, 2 * k + 8);
        for &(id, dissimilarity) in candidates.iter() {
            if rq_list.contains(id) {
                // Admitted earlier: its results come from the one call
                // after the scan.
                continue;
            }
            if dissimilarity >= rq_list.admission_threshold() {
                // Worse than the current Top-2K: skip even the SLCA
                // computation (the paper's key optimization).
                rqs_pruned += 1;
                continue;
            }
            // Admission requires a meaningful SLCA inside this partition.
            slices.clear();
            slices.extend(
                dp_memo
                    .ks(id)
                    .iter()
                    .map(|&i| session.lists[i].slice(ranges[i].clone())),
            );
            if meaningful_slcas(session, options.slca, &slices).is_empty() {
                continue;
            }
            if dp_memo.admit(&mut rq_list, id, dissimilarity) {
                dp_memo.record_admission(id, &ranges);
            }
        }
    }

    obs::counter!("xrefine_partitions_scanned_total").add(partitions_scanned);
    obs::counter!("xrefine_rqs_pruned_total").add(rqs_pruned);
    obs::trace::count("partitions.scanned", partitions_scanned);
    obs::trace::count("rqs.pruned", rqs_pruned);

    // One SLCA call per candidate still in the list, over its lists from
    // where they stood at its first admission.
    for (_, id) in rq_list.iter() {
        dp_memo.materialise(session, id, options.slca, &mut slices);
    }

    finalize(session, rq_list, dp_memo, k, &options.ranking)
}

/// Shared final ranking pass (also used by short-list eager): ranks the
/// list's candidates that have results and keeps the Top-K.
pub(crate) fn finalize(
    session: &RefineSession<'_>,
    rq_list: RqSortedList,
    dp_memo: DpMemo,
    k: usize,
    ranking: &RankingConfig,
) -> RefineOutcome {
    let mut arena = dp_memo.arena;
    let members: Vec<(f64, RqId)> = rq_list
        .iter()
        .filter(|&(_, id)| !arena[id].slcas.is_empty())
        .collect();
    let candidates: Vec<RqCandidate> = members
        .iter()
        .map(|&(dissimilarity, id)| RqCandidate {
            keywords: arena[id].keywords.clone(),
            dissimilarity,
        })
        .collect();
    // The "elaborate ranking" of Algorithm 2 line 19.
    let ranker = Ranker::new(session.index, &session.query, ranking.clone());
    let mut refinements: Vec<Refinement> = ranker
        .rank_all(candidates)
        .into_iter()
        .map(|(candidate, rank_score)| {
            // One id per keyword set, so the keywords name the member.
            let id = members
                .iter()
                .map(|&(_, id)| id)
                .find(|&id| arena[id].keywords == candidate.keywords)
                .expect("ranked candidates are list members");
            let mut slcas = std::mem::take(&mut arena[id].slcas);
            slcas.sort();
            slcas.dedup();
            Refinement {
                candidate,
                rank_score,
                slcas,
            }
        })
        .collect();

    // The zero-dissimilarity candidate is the original query: when present
    // it wins outright (no refinement was needed), regardless of rank.
    let original = refinements
        .iter()
        .position(|r| r.candidate.dissimilarity == 0.0);
    match original {
        Some(ipos) => {
            refinements.swap(0, ipos);
            refinements.truncate(1);
        }
        None => refinements.truncate(k),
    }
    RefineOutcome {
        original_ok: original.is_some(),
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
    use invindex::Index;
    use lexicon::RuleSet;
    use std::sync::Arc;
    use xmldom::fixtures::figure1;

    fn run(q: &[&str], k: usize) -> RefineOutcome {
        let idx = Index::build(Arc::new(figure1()));
        let query = Query::from_keywords(q.iter().map(|s| s.to_string()));
        let session = RefineSession::new(&idx, query, RuleSet::table2()).unwrap();
        let options = PartitionOptions {
            k,
            ..Default::default()
        };
        partition_refine(&session, &options)
    }

    #[test]
    fn meaningful_original_query_short_circuits() {
        let out = run(&["john", "fishing"], 2);
        assert!(out.original_ok);
        assert_eq!(out.refinements.len(), 1);
        assert_eq!(out.best().unwrap().candidate.dissimilarity, 0.0);
        assert!(!out.best().unwrap().slcas.is_empty());
    }

    #[test]
    fn example5_top2_refinements() {
        // Example 5: {article, online, database}. "article" exists (two
        // nodes), online/database exist under author 0.0. Candidates with
        // meaningful SLCAs are found per partition.
        let out = run(&["article", "online", "database"], 2);
        assert!(!out.original_ok || out.best().unwrap().candidate.dissimilarity == 0.0);
        assert!(!out.refinements.is_empty());
        for r in &out.refinements {
            assert!(!r.slcas.is_empty());
            // all results live inside partitions, never at the root
            for d in &r.slcas {
                assert!(d.len() >= 2);
            }
        }
    }

    #[test]
    fn one_scan_guarantee_theorem2() {
        let idx = Index::build(Arc::new(figure1()));
        let query = Query::from_keywords(["on", "line", "data", "base"]);
        let session = RefineSession::new(&idx, query, RuleSet::table2()).unwrap();
        let budget = session.total_list_len() as u64;
        let out = partition_refine(&session, &PartitionOptions::default());
        assert!(out.advances <= budget, "{} > {budget}", out.advances);
        assert_eq!(out.random_accesses, 0);
        assert!(!out.original_ok);
        assert_eq!(
            out.best().unwrap().candidate.keywords,
            ["base", "data", "online"]
        );
        assert_eq!(out.best().unwrap().candidate.dissimilarity, 1.0);
    }

    #[test]
    fn agrees_with_stack_refine_on_optimum() {
        use crate::stack_refine::stack_refine;
        for q in [
            vec!["on", "line", "data", "base"],
            vec!["xml", "john", "2003"],
            vec!["database", "publication"],
            vec!["john", "fishing"],
        ] {
            let idx = Index::build(Arc::new(figure1()));
            let query = Query::from_keywords(q.iter().map(|s| s.to_string()));
            let s1 = RefineSession::new(&idx, query.clone(), RuleSet::table2()).unwrap();
            let s2 = RefineSession::new(&idx, query, RuleSet::table2()).unwrap();
            let a = stack_refine(&s1);
            let b = partition_refine(&s2, &PartitionOptions::default());
            match (a.best(), b.best()) {
                (Some(x), Some(y)) => {
                    assert_eq!(
                        x.candidate.dissimilarity, y.candidate.dissimilarity,
                        "query {q:?}"
                    );
                }
                (None, None) => {}
                other => panic!("disagreement on {q:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_readmitted_candidate_keeps_its_first_offsets() {
        // The DP's beam can offer an evicted candidate again at a lower
        // price under another mask. Driven by hand here: id 0 is the
        // (meaningful) query itself, 1 and 2 its one-keyword subsets.
        let idx = Index::build(Arc::new(figure1()));
        let query = Query::from_keywords(["john", "fishing"]);
        let session = RefineSession::new(&idx, query, RuleSet::new()).unwrap();
        let mut memo = DpMemo::new();
        let mut mask = KeyMask::empty(session.width());
        (0..session.width()).for_each(|i| mask.set(i));
        assert_eq!(memo.candidates(&session, &mask, 10).len(), 3);

        let starts: Vec<Range<usize>> = vec![0..0; session.width()];
        let ends: Vec<Range<usize>> = session.lists.iter().map(|l| l.len()..l.len()).collect();
        let mut list = RqSortedList::new(2);
        assert!(memo.admit(&mut list, 0, 5.0));
        memo.record_admission(0, &starts);
        assert!(memo.admit(&mut list, 1, 4.0));
        assert!(memo.admit(&mut list, 2, 3.0));
        assert!(!list.contains(0), "evicted");
        // offered again, cheaper than everything in the list
        assert!(memo.admit(&mut list, 0, 1.0));
        memo.record_admission(0, &ends);
        assert_eq!(memo.arena[0].admitted_at, Some(vec![0; memo.ks(0).len()]));

        // so its one call still covers the first membership window
        let mut slices = Vec::new();
        memo.materialise(&session, 0, slca::slca_scan_eager, &mut slices);
        let whole: Vec<ListHandle> = memo
            .ks(0)
            .iter()
            .map(|&i| session.lists[i].clone())
            .collect();
        let expected = meaningful_slcas(&session, slca::slca_scan_eager, &whole);
        assert!(!expected.is_empty());
        assert_eq!(memo.arena[0].slcas, expected);
    }

    #[test]
    fn k_bounds_result_count() {
        let out = run(&["xml", "john", "2003"], 3);
        assert!(out.refinements.len() <= 3);
        assert!(!out.refinements.is_empty());
        // ranked descending by score
        assert!(out
            .refinements
            .windows(2)
            .all(|w| w[0].rank_score >= w[1].rank_score));
    }
}
