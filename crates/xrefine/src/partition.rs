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
//! **Admit once, rank, materialise what is returned.** Every distinct
//! candidate the DP proposes is interned once per session ([`DpMemo`]);
//! the list and the admission records are keyed by that id. From the
//! moment a candidate is admitted it costs one membership test per
//! partition: its per-keyword list offsets at admission are recorded,
//! and after the scan `finalize` ranks the list's members — the ranking
//! model reads keywords and dissimilarities, never results — and only
//! the K it returns get **one** SLCA call each over `[offset, end)` of
//! their lists. Any non-root node that contains all of a candidate's
//! keywords lies in exactly one partition, and SLCA minimality is
//! decided inside that node's subtree, so the one call returns exactly
//! the union of the per-partition results from the admission partition
//! on (DESIGN.md §4, "Deferred result materialisation"); it is never
//! empty, because the meaningful SLCA the candidate was admitted on lies
//! at or after its offsets. No results are ever computed for a list
//! member that is not returned, nor for a candidate that is evicted and
//! stays out. One that is evicted and later admitted again — the
//! threshold never rises, but the DP's beam can price one keyword set
//! lower under another mask — keeps the offsets of its *first*
//! admission, so its one call covers both membership windows.
//!
//! **The walk runs on integers and touches only the lists in the
//! partition** (`PartitionWalk`). Every decoded list carries its
//! partition runs, and each cursor stands in one of them: its head
//! partition is an integer kept beside it, the next partition is the
//! minimum of those integers, and only the cursors standing in it skip
//! their run — an assignment, no label is read — and have their integer
//! refreshed. A partition holds a handful of postings and most `KS`
//! lists have none in it: those contribute a clear mask bit and nothing
//! else. So a partition costs one pass over the `KS` integers plus O(1)
//! per list present, and the memo lookup of its mask hashes the mask's
//! words with the Fx hasher. The scan allocates per admission trial,
//! not per partition: the mask, the per-list ranges and the SLCA
//! argument vector are buffers reused across partitions.
//!
//! Root-level matches (postings on the document root itself) belong to no
//! partition and are skipped — the root is never a meaningful result.

use crate::dp::DpScratch;
use crate::query::RqCandidate;
use crate::ranking::{Ranker, RankingConfig};
use crate::results::{RefineOutcome, Refinement};
use crate::rqlist::{RqId, RqSortedList};
use crate::session::RefineSession;
use crate::util::KeyMask;
use invindex::fxhash::FxMap;
use invindex::{ListCursor, ListHandle, ScanStats, HEAD_AT_END, HEAD_AT_ROOT};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;
use xmldom::Dewey;

/// One distinct refined-query candidate of a session.
struct Interned {
    /// `KS` index of each keyword, in keyword (string) order: `KS` holds
    /// each keyword once, so the index vector names the set.
    ks: Vec<usize>,
    /// Where each keyword's list stood when Algorithm 2 first admitted
    /// the candidate (in `ks` order). Kept across an eviction.
    admitted_at: Option<Vec<usize>>,
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
/// proposes gets one [`RqId`] and one arena entry holding its `KS`
/// indices and where Algorithm 2 admitted it, so nothing downstream
/// compares, hashes or clones keyword strings. A miss runs the session's
/// [`DpPlan`](crate::dp::DpPlan) on the mask itself, in working memory
/// kept here for the session; the strings of a candidate are first
/// written when `finalize` ranks it.
///
/// A lookup happens once per partition and almost always hits, so the
/// memo is keyed through the Fx hasher (a mask is one word per 64 `KS`
/// keywords) and its hits are counted here and published once per query
/// by [`DpMemo::flush_hits`]. Fx has no defence against crafted
/// collisions; the memo does not need one, because it lives for one query
/// and holds at most one entry per partition, so collisions could slow
/// only the query that made them.
pub(crate) struct DpMemo {
    memo: FxMap<KeyMask, Rc<[(RqId, f64)]>>,
    /// Memo hits not yet published.
    hits: u64,
    ids: HashMap<Vec<usize>, RqId>,
    arena: Vec<Interned>,
    scratch: DpScratch,
    /// Reused lookup key for `ids`.
    key: Vec<usize>,
}

impl DpMemo {
    pub(crate) fn new() -> Self {
        DpMemo {
            memo: FxMap::default(),
            hits: 0,
            ids: HashMap::new(),
            arena: Vec::new(),
            scratch: DpScratch::default(),
            key: Vec::new(),
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
            self.hits += 1;
            return Rc::clone(c);
        }
        let DpMemo {
            ids,
            arena,
            scratch,
            key,
            ..
        } = self;
        let rc: Rc<[(RqId, f64)]> = session
            .plan
            .run(mask, m, scratch)
            .candidates()
            .take(m)
            .map(|(dissimilarity, ks)| {
                key.clear();
                key.extend(ks);
                let id = match ids.get(key.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = arena.len();
                        ids.insert(key.clone(), id);
                        arena.push(Interned {
                            ks: key.clone(),
                            admitted_at: None,
                        });
                        id
                    }
                };
                (id, dissimilarity)
            })
            .collect();
        self.memo.insert(mask.clone(), Rc::clone(&rc));
        rc
    }

    /// Publishes the memo hits counted since the last flush: one atomic
    /// add per query, not one per partition.
    pub(crate) fn flush_hits(&mut self) {
        obs::counter!("xrefine_dp_memo_hits_total").add(self.hits);
        self.hits = 0;
    }

    /// `KS` indices of a candidate's keywords, in keyword order.
    pub(crate) fn ks(&self, id: RqId) -> &[usize] {
        &self.arena[id].ks
    }

    /// Inserts into the Top-2K list, ties broken by keyword set (compared
    /// through the session's string ranks of `KS`); `false` when the list
    /// does not take the candidate.
    pub(crate) fn admit(
        &self,
        session: &RefineSession<'_>,
        list: &mut RqSortedList,
        id: RqId,
        dissimilarity: f64,
    ) -> bool {
        let ranks = |id: RqId| self.arena[id].ks.iter().map(|&i| session.plan.rank(i));
        list.insert(id, dissimilarity, |a, b| ranks(a).cmp(ranks(b)))
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

    /// A candidate's results: one `slca` call over its keywords' lists —
    /// each from where it stood at the candidate's first admission, or
    /// whole when none was recorded (Algorithm 3) — reduced to the
    /// meaningful, non-root results. `slices` is the caller's reusable
    /// argument buffer.
    pub(crate) fn materialise(
        &self,
        session: &RefineSession<'_>,
        id: RqId,
        slca: SlcaMethod,
        slices: &mut Vec<ListHandle>,
    ) -> Vec<Dewey> {
        let c = &self.arena[id];
        slices.clear();
        slices.extend(c.ks.iter().enumerate().map(|(n, &i)| {
            let list = &session.lists[i];
            let from = c.admitted_at.as_ref().map_or(0, |at| at[n]);
            list.slice(from..list.len())
        }));
        meaningful_slcas(session, slca, slices)
    }
}

/// `slca` over `lists`, reduced to the meaningful results below the
/// document root. Each result is typed by a posting of the shortest list
/// inside it, so no document node is looked up.
fn meaningful_slcas(
    session: &RefineSession<'_>,
    slca: SlcaMethod,
    lists: &[ListHandle],
) -> Vec<Dewey> {
    let mut found = slca(lists);
    found.retain(|d| d.len() > 1);
    let shortest = lists
        .iter()
        .min_by_key(|l| l.len())
        .map(ListHandle::postings);
    (session.filter).retain_meaningful(&mut found, shortest.unwrap_or_default());
    found
}

/// A pluggable SLCA computation over per-keyword posting slices. The
/// slices are [`ListHandle`] views over decoded lists, shared with the
/// list cache; any generic `fn<S: AsRef<[Posting]>>(&[S])`
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

/// The partition walk of Algorithm 2 (lines 5-9): one cursor per `KS`
/// list, consumed partition by partition in document order.
///
/// Each cursor's [`ListCursor::head_partition`] is kept beside it, so
/// finding the next partition is a minimum over integers, and only the
/// cursors standing in that partition are moved, by
/// [`ListCursor::skip_run`] — the others are not looked at. No label is
/// read.
struct PartitionWalk<'a> {
    cursors: Vec<ListCursor<'a>>,
    /// `head_partition()` of each cursor, refreshed whenever it moves.
    heads: Vec<u64>,
    /// `T` of the current partition: the lists with a posting inside it.
    mask: KeyMask,
    /// Each list's range inside the current partition. Written for the
    /// lists in `mask` only: the entry of an absent list is left over
    /// from an earlier partition and must not be read. Nothing does —
    /// the DP proposes only available keywords, so the admission trial
    /// and `record_admission` index the lists of `mask`.
    ranges: Vec<Range<usize>>,
}

impl<'a> PartitionWalk<'a> {
    fn new(lists: &'a [ListHandle], stats: &Arc<ScanStats>) -> Self {
        let cursors: Vec<ListCursor<'a>> = lists
            .iter()
            .map(|l| ListCursor::new(l, Arc::clone(stats)))
            .collect();
        PartitionWalk {
            heads: cursors.iter().map(|c| c.head_partition()).collect(),
            mask: KeyMask::empty(lists.len()),
            ranges: vec![0..0; lists.len()],
            cursors,
        }
    }

    /// Moves past the next partition holding a posting and returns its
    /// integer (`i + 1` for the partition `0.i`, as
    /// [`ListCursor::head_partition`] reports it), with `mask` and
    /// `ranges` describing it; `None` when every list is exhausted.
    fn next_partition(&mut self) -> Option<u64> {
        loop {
            // v_s: the smallest head across all cursors (line 5).
            let (first, head) = (self.heads.iter().copied().enumerate())
                .min_by_key(|&(_, head)| head)
                .filter(|&(_, head)| head != HEAD_AT_END)?;
            if head == HEAD_AT_ROOT {
                // A match on the document root itself belongs to no
                // partition: step over it.
                for (cursor, h) in self.cursors.iter_mut().zip(&mut self.heads).skip(first) {
                    if *h == head {
                        cursor.next();
                        *h = cursor.head_partition();
                    }
                }
                continue;
            }
            // The ranges of the lists standing in the partition, their
            // cursors advanced past it (lines 6-8), and T (line 9).
            self.mask.clear();
            for (i, (cursor, h)) in (self.cursors.iter_mut().zip(&mut self.heads))
                .enumerate()
                .skip(first)
            {
                if *h == head {
                    self.ranges[i] = cursor.skip_run();
                    *h = cursor.head_partition();
                    self.mask.set(i);
                }
            }
            return Some(head);
        }
    }
}

/// Runs Algorithm 2.
pub fn partition_refine(session: &RefineSession<'_>, options: &PartitionOptions) -> RefineOutcome {
    let k = options.k.max(1);
    let mut rq_list = RqSortedList::new(2 * k);
    let mut dp_memo = DpMemo::new();
    let mut walk = PartitionWalk::new(&session.lists, &session.scan_stats);
    // Reused across admission trials.
    let mut slices: Vec<ListHandle> = Vec::new();

    // Hot-loop counters are accumulated locally and flushed with one
    // atomic add per query (see DESIGN.md "Observability").
    let mut partitions_scanned = 0u64;
    let mut rqs_pruned = 0u64;

    while walk.next_partition().is_some() {
        partitions_scanned += 1;

        // Candidates within this partition (line 10), memoized on T. We
        // request more than 2K because candidates can fail the
        // meaningful-SLCA check below; the surviving ones fill the Top-2K
        // list (the paper's list is "approximate" for the same reason).
        let candidates = dp_memo.candidates(session, &walk.mask, 2 * k + 8);
        for &(id, dissimilarity) in candidates.iter() {
            if rq_list.contains(id) {
                // Admitted earlier: its results, if it is returned, come
                // from one call after the scan.
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
                    .map(|&i| session.lists[i].slice(walk.ranges[i].clone())),
            );
            if meaningful_slcas(session, options.slca, &slices).is_empty() {
                continue;
            }
            if dp_memo.admit(session, &mut rq_list, id, dissimilarity) {
                dp_memo.record_admission(id, &walk.ranges);
            }
        }
    }

    obs::counter!("xrefine_partitions_scanned_total").add(partitions_scanned);
    obs::counter!("xrefine_rqs_pruned_total").add(rqs_pruned);
    dp_memo.flush_hits();
    obs::trace::count("partitions.scanned", partitions_scanned);
    obs::trace::count("rqs.pruned", rqs_pruned);

    // One SLCA call per candidate returned, over its lists from where
    // they stood at its first admission.
    finalize(session, rq_list, &dp_memo, k, &options.ranking, |id| {
        let slcas = dp_memo.materialise(session, id, options.slca, &mut slices);
        debug_assert!(
            !slcas.is_empty(),
            "a member was admitted on a meaningful SLCA at or after its offsets"
        );
        slcas
    })
}

/// The final ranking pass Algorithms 2 and 3 share (Algorithm 2 line
/// 19): ranks every member of the list — the ranking model reads
/// keywords and dissimilarities, never results — then walks the members
/// in rank order, has the caller `materialise` each one's results and
/// keeps the first K whose result set is not empty. So results exist
/// only for what is returned.
pub(crate) fn finalize(
    session: &RefineSession<'_>,
    rq_list: RqSortedList,
    dp_memo: &DpMemo,
    k: usize,
    ranking: &RankingConfig,
    mut materialise: impl FnMut(RqId) -> Vec<Dewey>,
) -> RefineOutcome {
    let members: Vec<(f64, RqId)> = rq_list.iter().collect();
    let candidates: Vec<RqCandidate> = members
        .iter()
        .map(|&(dissimilarity, id)| RqCandidate {
            keywords: (dp_memo.ks(id).iter())
                .map(|&i| session.ks[i].clone())
                .collect(),
            dissimilarity,
        })
        .collect();
    let ranker = Ranker::new(session.index, &session.query, ranking.clone());
    let mut ranked = ranker.rank_all(candidates);
    // The zero-dissimilarity candidate is the original query: when it has
    // results it wins outright (no refinement was needed), regardless of
    // rank. So it is asked first (the sort is stable).
    ranked.sort_by_key(|(candidate, _)| candidate.dissimilarity != 0.0);

    let mut refinements: Vec<Refinement> = Vec::with_capacity(k);
    let mut original_ok = false;
    for (candidate, rank_score) in ranked {
        // One id per keyword set, so the keywords name the member.
        let id = (members.iter())
            .map(|&(_, id)| id)
            .find(|&id| (dp_memo.ks(id).iter().map(|&i| &session.ks[i])).eq(&candidate.keywords))
            .expect("ranked candidates are list members");
        let slcas = materialise(id);
        if slcas.is_empty() {
            continue;
        }
        debug_assert!(
            slcas.windows(2).all(|w| w[0] < w[1]),
            "materialised results are the SLCA method's sorted, deduplicated output"
        );
        original_ok = candidate.dissimilarity == 0.0;
        refinements.push(Refinement {
            candidate,
            rank_score,
            slcas,
        });
        if original_ok || refinements.len() == k {
            break;
        }
    }
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

    fn run(q: &[&str], k: usize) -> RefineOutcome {
        let idx = KvBackedIndex::from_built(Index::build(Arc::new(figure1())));
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
        let idx = KvBackedIndex::from_built(Index::build(Arc::new(figure1())));
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
            let idx = KvBackedIndex::from_built(Index::build(Arc::new(figure1())));
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
        let idx = KvBackedIndex::from_built(Index::build(Arc::new(figure1())));
        let query = Query::from_keywords(["john", "fishing"]);
        let session = RefineSession::new(&idx, query, RuleSet::new()).unwrap();
        let mut memo = DpMemo::new();
        let mut mask = KeyMask::empty(session.width());
        (0..session.width()).for_each(|i| mask.set(i));
        assert_eq!(memo.candidates(&session, &mask, 10).len(), 3);

        let starts: Vec<Range<usize>> = vec![0..0; session.width()];
        let ends: Vec<Range<usize>> = session.lists.iter().map(|l| l.len()..l.len()).collect();
        let mut list = RqSortedList::new(2);
        assert!(memo.admit(&session, &mut list, 0, 5.0));
        memo.record_admission(0, &starts);
        assert!(memo.admit(&session, &mut list, 1, 4.0));
        assert!(memo.admit(&session, &mut list, 2, 3.0));
        assert!(!list.contains(0), "evicted");
        // offered again, cheaper than everything in the list
        assert!(memo.admit(&session, &mut list, 0, 1.0));
        memo.record_admission(0, &ends);
        assert_eq!(memo.arena[0].admitted_at, Some(vec![0; memo.ks(0).len()]));

        // so its one call still covers the first membership window
        let mut slices = Vec::new();
        let found = memo.materialise(&session, 0, slca::slca_scan_eager, &mut slices);
        let whole: Vec<ListHandle> = memo
            .ks(0)
            .iter()
            .map(|&i| session.lists[i].clone())
            .collect();
        let expected = meaningful_slcas(&session, slca::slca_scan_eager, &whole);
        assert!(!expected.is_empty());
        assert_eq!(found, expected);
    }

    /// What Algorithm 2's walk is defined as, on labels alone: the
    /// smallest head label names the partition `0.i` (reported as
    /// `i + 1`), and *every* list's postings in it are found by binary
    /// search ([`ListHandle::partition_range`]) — no cursor and no run
    /// table involved. Each posting is accounted as one advance.
    fn walk_by_definition(
        lists: &[ListHandle],
        stats: &Arc<ScanStats>,
    ) -> Vec<(u64, KeyMask, Vec<Range<usize>>)> {
        let mut at = vec![0usize; lists.len()];
        let mut partitions = Vec::new();
        while let Some(v) = (lists.iter().zip(&at))
            .filter_map(|(l, &a)| l.get(a))
            .map(|p| p.dewey.clone())
            .min()
        {
            let Some(root) = v.partition() else {
                for (l, a) in lists.iter().zip(&mut at) {
                    if l.get(*a).is_some_and(|p| p.dewey == v) {
                        *a += 1;
                        stats.record_advance();
                    }
                }
                continue;
            };
            let mut mask = KeyMask::empty(lists.len());
            let mut ranges = Vec::new();
            for (i, (l, a)) in lists.iter().zip(&mut at).enumerate() {
                let range = l.partition_range(&root);
                if !range.is_empty() {
                    mask.set(i);
                    stats.record_advances(range.len() as u64);
                    *a = range.end;
                }
                ranges.push(range);
            }
            partitions.push((u64::from(root.components()[1]) + 1, mask, ranges));
        }
        partitions
    }

    #[test]
    fn the_walk_moves_only_the_lists_in_the_partition_and_sees_what_skipping_all_sees() {
        use invindex::Posting;
        use xcheck::prop::check;
        use xmldom::NodeTypeId;

        check(400, |g| {
            // 1-6 lists over at most 12 partitions: empty lists, lists
            // with a posting on the root itself, lists ending early and
            // partitions only some (or one) of the lists reach.
            let lists: Vec<ListHandle> = g
                .vec(1..=6, |g| {
                    let mut labels: Vec<Vec<u32>> = g.vec(0..=10, |g| {
                        let mut label = vec![0, g.range(0u32..12)];
                        label.extend(g.vec(0..=2, |g| g.range(0u32..3)));
                        label
                    });
                    if g.weighted(&[3, 1]) == 1 {
                        labels.push(vec![0]);
                    }
                    labels.sort();
                    labels.dedup();
                    let postings = labels
                        .into_iter()
                        .map(|l| Posting::new(Dewey::new(l).unwrap(), NodeTypeId(0)))
                        .collect();
                    ListHandle::from_postings(postings)
                })
                .into_iter()
                .collect();

            let expected_stats = ScanStats::new();
            let expected = walk_by_definition(&lists, &expected_stats);

            let stats = ScanStats::new();
            let mut walk = PartitionWalk::new(&lists, &stats);
            let mut seen = 0;
            while let Some(pid) = walk.next_partition() {
                let (want_pid, want_mask, want_ranges) = expected
                    .get(seen)
                    .unwrap_or_else(|| panic!("partition {pid:?} the definition does not have"));
                assert_eq!(pid, *want_pid);
                assert_eq!(&walk.mask, want_mask, "T of {pid:?}");
                for i in (0..lists.len()).filter(|&i| want_mask.get(i)) {
                    assert_eq!(walk.ranges[i], want_ranges[i], "list {i} in {pid:?}");
                }
                seen += 1;
            }
            assert_eq!(seen, expected.len(), "partitions walked");
            assert_eq!(stats.advances(), expected_stats.advances());
            assert_eq!(
                stats.advances(),
                lists.iter().map(|l| l.len() as u64).sum::<u64>()
            );
            assert_eq!(stats.random_accesses(), 0);
        });
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
