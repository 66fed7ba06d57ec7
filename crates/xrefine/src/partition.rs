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
//! candidate the DP proposes is interned once per session (`DpMemo`);
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
//! at or after its offsets. That call is Scan Eager stopped at the page:
//! it yields the first [`RESULT_PAGE`] meaningful results and whether
//! there are more, and the rest are computed, by the session's SLCA
//! method over the same lists, only when something reads the whole set
//! ([`ResultSet`]). No results are ever computed for a list
//! member that is not returned, nor for a candidate that is evicted and
//! stays out. One that is evicted and later admitted again — the
//! threshold never rises, but the DP's beam can price one keyword set
//! lower under another mask — keeps the offsets of its *first*
//! admission, so its one call covers both membership windows.
//!
//! **The walk visits only the partitions where a trial can happen.** A
//! partition changes the list, the admissions and the answer only
//! through an admission trial, and a trial needs a candidate that is no
//! list member and is priced below the list's admission threshold θ
//! (`+∞` while the list is not full). A derivation that yields exactly
//! the keyword set `S` uses only keywords of `S`, so its cost does not
//! depend on the partition's mask `T` as long as `S ⊆ T`; the DP's beam
//! may price `S` above its exact cost `dSim*(S)`, never below. So with
//! `A` the non-member sets whose `dSim*` is below θ, a partition can
//! reach a trial only if its mask contains some `S` in `A` — and every
//! other partition is passed without being read. `A` is enumerated by
//! the DP without its beam, cut at θ (`DpPlan::admissible`), and
//! refiltered whenever the list changes, and only then: the threshold
//! never rises, so one enumeration that fits serves the rest of the
//! query, and an eviction can bring a set back into `A`. Before the
//! first admission `A` is every derivable set, so a query whose list
//! never fills stops once its few candidates are members. An
//! enumeration fits when its prefixes hold no more sets in all than
//! `ADMISSIBLE_BUDGET`, than the partitions the lists span, or than half
//! their partition runs — past those it costs more than the walk it
//! would save — and `KS` has at most 128 keywords. When it does not fit,
//! `A` is unknown and the walk visits every partition until the next
//! list change; when `A` is empty, or no partition left holds any of its
//! sets, the walk stops.
//!
//! **The walk runs on integers** (`PartitionWalk`). Every list carries
//! its partition runs — a stored list, those of each block it has
//! decoded — and the walk holds one run cursor
//! ([`PartitionRuns`]) per `KS` list. The next partition holding some
//! `S` in `A` is found by leapfrogging `S`'s lists, shortest first, by
//! galloping `seek`s over their runs — integer compares, no label read,
//! forward only — and each set keeps the partition it found until the
//! walk gets there. At a partition it visits, the walk moves every `KS`
//! list's cursor to it, so the mask and the per-list ranges are exactly
//! those of a walk over every partition, and the memo lookup, the DP,
//! the trials and `record_admission` run unchanged. With `A` unknown,
//! the next partition is the minimum of the cursors' partitions. A
//! partition visited is accounted as the advances over its postings,
//! one counter add; the postings of a partition sought past are never
//! read and not counted, so `advances` stays within Theorem 2's one scan
//! and `random_accesses` stays 0. The memo lookup of a mask hashes the
//! mask's words with the Fx hasher. The scan allocates per admission
//! trial and per change of the list, not per partition: the mask, the
//! per-list ranges and the SLCA argument vector are buffers reused
//! across partitions.
//!
//! Root-level matches (postings on the document root itself) belong to no
//! partition and are skipped — the root is never a meaningful result.

use crate::dp::{DpScratch, KeyBits};
use crate::query::RqCandidate;
use crate::ranking::{Ranker, RankingConfig};
use crate::results::{RefineOutcome, Refinement, ResultSet, RESULT_PAGE};
use crate::rqlist::{RqId, RqSortedList};
use crate::session::RefineSession;
use crate::util::KeyMask;
use invindex::fxhash::FxMap;
use invindex::{ListHandle, PartitionRuns, ScanStats, HEAD_AT_ROOT};
use slca::MeaningfulFilter;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;
use std::rc::Rc;
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
/// A lookup happens once per partition visited. Since the walk visits
/// only the partitions where a trial can happen, few lookups hit: 5.2 %
/// on the benchmark's warm serving stream (`xrefine.dp_memo_hit_ratio`
/// 0.052). The memo is keyed through the Fx hasher (a mask is one word
/// per 64 `KS` keywords) and its hits are counted here and published once
/// per query by [`DpMemo::flush_hits`]. Fx has no defence against crafted
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

    /// A candidate's meaningful, non-root results over its keywords'
    /// lists — each from where it stood at the candidate's first
    /// admission, or whole when none was recorded (Algorithm 3). The page
    /// is one call of Scan Eager stopped past it; when there are more,
    /// the whole set is one `slca` call over the same lists, made when it
    /// is first read. `slices` is the caller's reusable argument buffer.
    pub(crate) fn materialise(
        &self,
        session: &RefineSession<'_>,
        id: RqId,
        slca: SlcaMethod,
        slices: &mut Vec<ListHandle>,
    ) -> ResultSet {
        let c = &self.arena[id];
        slices.clear();
        slices.extend(c.ks.iter().enumerate().map(|(n, &i)| {
            let list = &session.lists[i];
            let from = c.admitted_at.as_ref().map_or(0, |at| at[n]);
            list.slice(from..list.len())
        }));
        let filter = &session.filter;
        let (page, more) = slca::slca_scan_eager_page(slices, RESULT_PAGE, |label, inside| {
            filter.admits(label, inside)
        });
        if !more {
            return ResultSet::from(page);
        }
        ResultSet::deferred(page, slices.clone(), filter.clone(), slca)
    }
}

/// `slca` over `lists`, reduced to the meaningful results below the
/// document root. Each result is typed by a posting of the shortest list
/// inside it, so no document node is looked up.
pub(crate) fn meaningful_slcas(
    filter: &MeaningfulFilter,
    slca: SlcaMethod,
    lists: &[ListHandle],
) -> Vec<Dewey> {
    let mut found = slca(lists);
    found.retain(|d| d.len() > 1);
    match lists.iter().min_by_key(|l| l.len()) {
        Some(shortest) => filter.retain_meaningful_in(&mut found, shortest.run_postings()),
        None => found.clear(),
    }
    found
}

/// A pluggable SLCA computation over per-keyword posting lists: the
/// [`ListHandle`] views over stored lists, shared with the list cache.
/// `slca_scan_eager` and `slca_stack` are of this type; a slice
/// algorithm of the `slca` crate is plugged in by a function that copies
/// the handles' `run_postings()` into vectors first.
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

/// A cursor's partition once it has no run left: after every partition.
const AT_END: u64 = u64::MAX;

/// The most keyword sets the prefixes of an enumeration of the sets
/// that can reach a trial may hold in all. Past it the sets are not
/// enumerated and the walk visits every partition until the list changes
/// again.
const ADMISSIBLE_BUDGET: usize = 1024;

/// The partition walk of Algorithm 2 (lines 5-9): one run cursor per `KS`
/// list, moved forward in document order to the partitions the caller
/// visits — the next one any list holds, or the next one holding every
/// list of a keyword set.
struct PartitionWalk<'a> {
    runs: Vec<PartitionRuns<'a>>,
    /// The partition each cursor stands in, [`AT_END`] past its last
    /// run: the first one at or after `from` that its list holds.
    heads: Vec<u64>,
    /// The first partition the walk has not passed.
    from: u64,
    stats: &'a ScanStats,
    /// `T` of the current partition: the lists with a posting inside it.
    mask: KeyMask,
    /// Each list's range inside the current partition. Written for the
    /// lists in `mask` only: the entry of an absent list is left over
    /// from an earlier partition and must not be read. Nothing does —
    /// the DP proposes only available keywords, so the admission trial
    /// and `record_admission` index the lists of `mask`.
    ranges: Vec<Range<usize>>,
    /// Copies of cursors leapfrogging in [`first_holding`](Self::first_holding).
    seekers: Vec<PartitionRuns<'a>>,
}

impl<'a> PartitionWalk<'a> {
    fn new(lists: &'a [ListHandle], stats: &'a ScanStats) -> Self {
        let from = HEAD_AT_ROOT + 1;
        // A match on the document root itself belongs to no partition.
        let runs: Vec<PartitionRuns<'a>> = (lists.iter())
            .map(|l| {
                let mut runs = l.partition_runs();
                runs.seek(from);
                runs
            })
            .collect();
        PartitionWalk {
            heads: runs.iter().map(head).collect(),
            runs,
            from,
            stats,
            mask: KeyMask::empty(lists.len()),
            ranges: vec![0..0; lists.len()],
            seekers: Vec::new(),
        }
    }

    /// v_s (line 5): the first partition at or after `from` that any list
    /// holds.
    fn first_any(&self) -> u64 {
        self.heads.iter().copied().min().unwrap_or(AT_END)
    }

    /// A lower bound on [`first_holding`](Self::first_holding)`(ks)`: the
    /// latest partition one of the lists first holds. A load per list.
    fn lower_bound(&self, ks: impl IntoIterator<Item = usize>) -> u64 {
        (ks.into_iter())
            .map(|i| self.heads[i])
            .max()
            .unwrap_or(AT_END)
    }

    /// The first partition at or after `from` that holds every list of
    /// `ks` ([`AT_END`] for none): the lower bound when every list first
    /// holds it, else where copies of the cursors, leapfrogging from it
    /// in the order of `ks`, agree.
    fn first_holding(&mut self, ks: &[usize]) -> u64 {
        let bound = self.lower_bound(ks.iter().copied());
        if bound == AT_END || ks.iter().all(|&i| self.heads[i] == bound) {
            return bound;
        }
        self.seekers.clear();
        self.seekers
            .extend(ks.iter().map(|&i| self.runs[i].clone()));
        leapfrog(&mut self.seekers, bound)
    }

    /// Visits the partition `at` (at or after `from`; `i + 1` for the
    /// partition `0.i`, as its runs' `head` has it): every cursor moved
    /// to it, the ranges of the lists standing in it and their cursors
    /// moved past it (lines 6-8), and `mask` set to T (line 9).
    fn visit(&mut self, at: u64) {
        self.mask.clear();
        let mut advances = 0;
        for (i, (runs, h)) in self.runs.iter_mut().zip(&mut self.heads).enumerate() {
            if *h < at {
                runs.seek(at);
                *h = head(runs);
            }
            if *h == at {
                if let Some((_, range)) = runs.current() {
                    advances += range.len() as u64;
                    self.ranges[i] = range;
                    self.mask.set(i);
                }
                runs.seek(at + 1);
                *h = head(runs);
            }
        }
        self.stats.record_advances(advances);
        self.from = at + 1;
    }
}

/// The partition a run cursor stands in.
fn head(runs: &PartitionRuns<'_>) -> u64 {
    runs.head().unwrap_or(AT_END)
}

/// Moves every cursor to the first partition at or after `from` that all
/// of them hold, and returns it ([`AT_END`] when there is none): each
/// cursor in turn seeks to the latest partition any has reached, until
/// all stand in one.
fn leapfrog(runs: &mut [PartitionRuns<'_>], from: u64) -> u64 {
    if runs.is_empty() {
        return AT_END;
    }
    let (mut at, mut agreed) = (from, 0);
    for i in (0..runs.len()).cycle() {
        runs[i].seek(at);
        match head(&runs[i]) {
            AT_END => return AT_END,
            h if h > at => (at, agreed) = (h, 1),
            _ => agreed += 1,
        }
        if agreed == runs.len() {
            break;
        }
    }
    at
}

/// The `KS` indices of the keywords in `set`, ascending.
fn keywords_in(mut set: KeyBits) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = set.trailing_zeros();
        set &= set.wrapping_sub(1);
        (i < KeyBits::BITS).then_some(i as usize)
    })
}

/// One keyword set that can reach a trial while the threshold is above
/// its dissimilarity.
struct AdmissibleSet {
    /// Its exact dissimilarity.
    cost: f64,
    /// Its keywords, as bits over `KS`.
    keywords: KeyBits,
    /// Its `KS` indices, shortest list first; filled when it is first
    /// sought.
    lists: Vec<usize>,
    /// The first partition holding it at or after the walk's `from` as it
    /// stood when this was found; still that while it is not behind
    /// `from`.
    next: u64,
}

/// A set in [`Admissible::queue`]: its `next` when `exact`, else a lower
/// bound on it, and its index.
type Queued = Reverse<(u64, bool, usize)>;

/// The keyword sets a partition must hold for a trial to happen there
/// (module docs): the non-members of the list whose exact dissimilarity
/// is below its admission threshold.
struct Admissible {
    /// The keywords some partition holds: no other can be in a mask.
    available: KeyMask,
    /// The length of each `KS` list.
    lengths: Vec<usize>,
    /// How many sets the prefixes of an enumeration may hold in all.
    budget: Budget,
    /// The sets of the one enumeration that fit the budget, fewest
    /// keywords first, below the threshold it was made at — a superset of
    /// the sets below any later threshold, as the threshold never rises.
    /// Empty until an enumeration fits.
    sets: Vec<AdmissibleSet>,
    /// Whether `sets` holds an enumeration.
    known: bool,
    /// The threshold of the last enumeration that did not fit.
    overflowed_at: Option<f64>,
    /// The sets a trial can be on — those of `sets` below the threshold
    /// that are not list members — by index in `sets`, but for any that
    /// holds another of them: a partition holding it holds the other.
    active: Vec<usize>,
    /// The list's members when `active` was last brought up to date.
    members: Option<Vec<KeyBits>>,
    /// The `active` sets by the partition they are next held in, or a
    /// lower bound on it; built again after every change of `active`.
    queue: BinaryHeap<Queued>,
    /// Whether `active` changed since `queue` was built.
    stale: bool,
}

impl Admissible {
    /// `budget` caps the sets an enumeration may hold; so do the number
    /// of partitions between the first and the last any list holds, and
    /// half the number of the lists' partition runs. Those bound what the
    /// walk over every partition costs, and an enumeration past them costs
    /// more than it can save (measured: the query
    /// `2008 online cidr 601 bench mark` at 300 authors enumerates 213 sets
    /// where its lists hold 246 runs, and ran 4 % slower than walking
    /// every partition until the cap held it back).
    fn new(lists: &[ListHandle], budget: usize) -> Self {
        let mut available = KeyMask::empty(lists.len());
        let (mut first, mut last, mut runs) = (AT_END, HEAD_AT_ROOT, (0, 0));
        for (i, list) in lists.iter().enumerate() {
            let mut cursor = list.partition_runs();
            cursor.seek(HEAD_AT_ROOT + 1);
            if let Some(head) = cursor.head() {
                available.set(i);
                let (lo, hi) = list.partition_bounds();
                runs = (runs.0 + lo, runs.1 + hi);
                first = first.min(head);
                // The last posting stands in the list's last partition.
                last = last.max(list.last_partition().unwrap_or(head));
            }
        }
        let spanned = usize::try_from(last.saturating_sub(first).saturating_add(1));
        Admissible {
            available,
            lengths: lists.iter().map(ListHandle::len).collect(),
            budget: Budget {
                sets: budget.min(spanned.unwrap_or(usize::MAX)),
                runs,
            },
            sets: Vec::new(),
            known: false,
            overflowed_at: None,
            active: Vec::new(),
            members: None,
            queue: BinaryHeap::new(),
            stale: true,
        }
    }

    /// Refilters the sets for the list as it stands, enumerating them if
    /// no enumeration has fit yet and the threshold has fallen since the
    /// last that did not. Whether they are known.
    fn update(&mut self, session: &RefineSession<'_>, list: &RqSortedList, memo: &DpMemo) -> bool {
        let theta = list.admission_threshold();
        if !self.known && self.overflowed_at.is_none_or(|at| theta < at) {
            let most = self.budget.most();
            match session.plan.admissible(&self.available, theta, most) {
                Some((mut found, held)) if self.budget.admits(held, &session.lists) => {
                    found.sort_by_key(|&(_, keywords)| keywords.count_ones());
                    self.sets = (found.into_iter())
                        .map(|(cost, keywords)| AdmissibleSet {
                            cost,
                            keywords,
                            lists: Vec::new(),
                            next: HEAD_AT_ROOT,
                        })
                        .collect();
                    self.known = true;
                }
                _ => self.overflowed_at = Some(theta),
            }
        }
        if !self.known {
            return false;
        }
        let members: Vec<KeyBits> = (list.iter())
            .map(|(_, id)| memo.ks(id).iter().fold(0, |b, &i| b | (1 << i)))
            .collect();
        // The minimal sets stay what they were unless an active set became
        // a member or fell to the threshold, or a member left the list. A
        // new member that is not active is no minimal set, and a set it
        // holds still is.
        let Admissible {
            sets,
            active,
            members: was,
            ..
        } = self;
        let moved = was.as_ref().is_none_or(|was| {
            was.iter().any(|m| !members.contains(m))
                || (active.iter())
                    .any(|&n| sets[n].cost >= theta || members.contains(&sets[n].keywords))
        });
        if moved {
            active.clear();
            for (n, set) in sets.iter().enumerate() {
                let held = |&m: &usize| sets[m].keywords & !set.keywords == 0;
                if set.cost < theta && !members.contains(&set.keywords) && !active.iter().any(held)
                {
                    active.push(n);
                }
            }
            self.stale = true;
        }
        self.members = Some(members);
        true
    }

    /// The first partition at or after the walk's `from` that holds one
    /// of the sets ([`AT_END`] for none). A set's partition is sought
    /// only when its lower bound comes first in the queue, and again only
    /// once the walk has passed it.
    fn next(&mut self, walk: &mut PartitionWalk<'_>) -> u64 {
        let Admissible {
            lengths,
            sets,
            active,
            queue,
            ..
        } = self;
        if self.stale {
            queue.clear();
            for &n in active.iter() {
                let set = &sets[n];
                queue.push(Reverse(match set.next >= walk.from {
                    true => (set.next, true, n),
                    false => (walk.lower_bound(keywords_in(set.keywords)), false, n),
                }));
            }
            self.stale = false;
        }
        while let Some(&Reverse((at, exact, n))) = queue.peek() {
            if exact && at >= walk.from {
                return at;
            }
            queue.pop();
            let set = &mut sets[n];
            queue.push(Reverse(match exact {
                // The walk has visited it.
                true => (walk.lower_bound(keywords_in(set.keywords)), false, n),
                false => {
                    if set.lists.is_empty() {
                        set.lists.extend(keywords_in(set.keywords));
                        set.lists.sort_by_key(|&i| lengths[i]);
                    }
                    set.next = walk.first_holding(&set.lists);
                    (set.next, true, n)
                }
            }));
        }
        AT_END
    }
}

/// The most sets the prefixes of an enumeration may hold in all:
/// `sets`, and half the partition runs the lists hold past the root.
/// The runs are known as bounds read off the lists' skip tables; an
/// enumeration the bounds cannot judge decodes the blocks whose bounds
/// are widest until they can ([`PartitionRuns::at_least`]).
struct Budget {
    sets: usize,
    /// Bounds on the runs, read off the skip tables.
    runs: (usize, usize),
}

impl Budget {
    /// No cap but `sets`.
    #[cfg(test)]
    fn sets(sets: usize) -> Self {
        Budget {
            sets,
            runs: (usize::MAX, usize::MAX),
        }
    }

    /// A bound at or above the cap.
    fn most(&self) -> usize {
        self.sets.min(self.runs.1 / 2)
    }

    /// Whether an enumeration whose prefixes hold `held` sets, no more
    /// than [`most`](Self::most), fits the cap.
    fn admits(&self, held: usize, lists: &[ListHandle]) -> bool {
        if held <= self.runs.0 / 2 {
            return true;
        }
        let cursors: Vec<PartitionRuns<'_>> = (lists.iter())
            .map(|list| {
                let mut runs = list.partition_runs();
                runs.seek(HEAD_AT_ROOT + 1);
                runs
            })
            .collect();
        PartitionRuns::at_least(&cursors, held.saturating_mul(2))
    }
}

/// The state Algorithm 2 carries from partition to partition.
struct Scan {
    /// K of Top-K.
    k: usize,
    rq_list: RqSortedList,
    dp_memo: DpMemo,
    /// Reused across admission trials.
    slices: Vec<ListHandle>,
    rqs_pruned: u64,
}

impl Scan {
    fn new(k: usize) -> Self {
        Scan {
            k,
            rq_list: RqSortedList::new(2 * k),
            dp_memo: DpMemo::new(),
            slices: Vec::new(),
            rqs_pruned: 0,
        }
    }

    /// Lines 10-17 on the partition `mask` and `ranges` describe: its
    /// candidates, and a trial for each that is no member and beats the
    /// threshold. `admitted` hears of each admission. Whether the list
    /// changed.
    fn partition(
        &mut self,
        session: &RefineSession<'_>,
        slca: SlcaMethod,
        mask: &KeyMask,
        ranges: &[Range<usize>],
        mut admitted: impl FnMut(&DpMemo, RqId, f64),
    ) -> bool {
        let Scan {
            k,
            rq_list,
            dp_memo,
            slices,
            rqs_pruned,
        } = self;
        let mut changed = false;
        // Memoized on T (line 10). More than 2K are asked for, because
        // candidates can fail the meaningful-SLCA check below; the
        // surviving ones fill the Top-2K list (the paper's list is
        // "approximate" for the same reason).
        let candidates = dp_memo.candidates(session, mask, 2 * *k + 8);
        for &(id, dissimilarity) in candidates.iter() {
            if rq_list.contains(id) {
                // Admitted earlier: its results, if it is returned, come
                // from one call after the scan.
                continue;
            }
            if dissimilarity >= rq_list.admission_threshold() {
                // Worse than the current Top-2K: skip even the SLCA
                // computation (the paper's key optimization).
                *rqs_pruned += 1;
                continue;
            }
            // Admission requires a meaningful SLCA inside this partition.
            slices.clear();
            slices.extend(
                (dp_memo.ks(id).iter()).map(|&i| session.lists[i].slice(ranges[i].clone())),
            );
            if meaningful_slcas(&session.filter, slca, slices).is_empty() {
                continue;
            }
            if dp_memo.admit(session, rq_list, id, dissimilarity) {
                dp_memo.record_admission(id, ranges);
                admitted(dp_memo, id, dissimilarity);
                changed = true;
            }
        }
        changed
    }

    /// Line 19: the counters published, the list ranked, and one call of
    /// Scan Eager stopped past the page per candidate returned, over its
    /// lists from where they stood at its first admission.
    fn finish(mut self, session: &RefineSession<'_>, options: &PartitionOptions) -> RefineOutcome {
        obs::counter!("xrefine_rqs_pruned_total").add(self.rqs_pruned);
        obs::trace::count("rqs.pruned", self.rqs_pruned);
        self.dp_memo.flush_hits();
        let Scan {
            k,
            rq_list,
            dp_memo,
            mut slices,
            ..
        } = self;
        finalize(session, rq_list, &dp_memo, k, &options.ranking, |id| {
            let slcas = dp_memo.materialise(session, id, options.slca, &mut slices);
            debug_assert!(
                !slcas.is_empty(),
                "a member was admitted on a meaningful SLCA at or after its offsets"
            );
            slcas
        })
    }
}

/// Runs Algorithm 2.
pub fn partition_refine(session: &RefineSession<'_>, options: &PartitionOptions) -> RefineOutcome {
    refine(session, options, ADMISSIBLE_BUDGET, |_, _, _, _| {}).0
}

/// [`partition_refine`], and whether its walk ever visited every
/// partition for a while because the keyword sets that could reach a
/// trial were too many to enumerate.
// xlint::allow(unused-export): the walk's count gate reports how often it falls back (`tests/walk_counts.rs`)
pub fn partition_refine_reporting_fallback(
    session: &RefineSession<'_>,
    options: &PartitionOptions,
) -> (RefineOutcome, bool) {
    refine(session, options, ADMISSIBLE_BUDGET, |_, _, _, _| {})
}

/// Algorithm 2, with `budget` sets a prefix for the admissible sets'
/// enumeration, telling `admitted` of each admission: the partition, the
/// memo that interned the candidate, its id and its dissimilarity. Also
/// whether the walk ever fell back to visiting every partition.
fn refine(
    session: &RefineSession<'_>,
    options: &PartitionOptions,
    budget: usize,
    mut admitted: impl FnMut(u64, &DpMemo, RqId, f64),
) -> (RefineOutcome, bool) {
    let mut scan = Scan::new(options.k.max(1));
    let mut walk = PartitionWalk::new(&session.lists, &session.scan_stats);
    let mut admissible = Admissible::new(&session.lists, budget);
    let mut known = admissible.update(session, &scan.rq_list, &scan.dp_memo);

    // Hot-loop counters are accumulated locally and flushed with one
    // atomic add per query (see DESIGN.md "Observability").
    let mut partitions_scanned = 0u64;
    loop {
        let at = match known {
            true => admissible.next(&mut walk),
            false => walk.first_any(),
        };
        if at == AT_END {
            break;
        }
        walk.visit(at);
        partitions_scanned += 1;
        let changed = scan.partition(
            session,
            options.slca,
            &walk.mask,
            &walk.ranges,
            |memo, id, dissimilarity| admitted(at, memo, id, dissimilarity),
        );
        if changed {
            known = admissible.update(session, &scan.rq_list, &scan.dp_memo);
        }
    }

    obs::counter!("xrefine_partitions_scanned_total").add(partitions_scanned);
    obs::trace::count("partitions.scanned", partitions_scanned);
    let fell_back = admissible.overflowed_at.is_some();
    (scan.finish(session, options), fell_back)
}

/// The final ranking pass Algorithms 2 and 3 share (Algorithm 2 line
/// 19): ranks every member of the list — the ranking model reads
/// keywords and dissimilarities, never results — then walks the members
/// in rank order, has the caller `materialise` each one's results and
/// keeps the first K whose result set is not empty. So results exist
/// only for what is returned, and past its page only once read.
pub(crate) fn finalize(
    session: &RefineSession<'_>,
    rq_list: RqSortedList,
    dp_memo: &DpMemo,
    k: usize,
    ranking: &RankingConfig,
    mut materialise: impl FnMut(RqId) -> ResultSet,
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
            slcas.page().windows(2).all(|w| w[0] < w[1]),
            "materialised results are sorted and deduplicated"
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
    use invindex::{Index, KvBackedIndex, Posting, PostingList};
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
        let expected = meaningful_slcas(&session.filter, slca::slca_scan_eager, &whole);
        assert!(!expected.is_empty());
        assert_eq!(found, expected);
    }

    #[test]
    fn a_set_evicted_above_its_exact_cost_is_admissible_again() {
        // The beam can admit a set above its exact cost; once evicted it
        // can be offered again, cheaper, so it must be sought again.
        // Driven by hand: id 0 is the query itself (exact cost 0), 1 and
        // 2 its one-keyword subsets (exact cost 2, the deletion cost).
        let idx = KvBackedIndex::from_built(Index::build(Arc::new(figure1())));
        let query = Query::from_keywords(["john", "fishing"]);
        let session = RefineSession::new(&idx, query, RuleSet::new()).unwrap();
        let mut memo = DpMemo::new();
        let mut mask = KeyMask::empty(session.width());
        (0..session.width()).for_each(|i| mask.set(i));
        assert_eq!(memo.candidates(&session, &mask, 10).len(), 3);
        let admissible_now = |adm: &Admissible| -> Vec<Vec<usize>> {
            let mut sets: Vec<Vec<usize>> = (adm.active.iter())
                .map(|&n| keywords_in(adm.sets[n].keywords).collect())
                .collect();
            sets.sort();
            sets
        };
        let ks = |id: RqId| {
            let mut ks = memo.ks(id).to_vec();
            ks.sort_unstable();
            ks
        };

        let mut list = RqSortedList::new(2);
        let mut adm = Admissible::new(&session.lists, ADMISSIBLE_BUDGET);
        // Figure 1 spans too few partitions for the walk to enumerate;
        // the sets are what is tested here.
        adm.budget = Budget::sets(ADMISSIBLE_BUDGET);
        assert!(adm.update(&session, &list, &memo));
        // The query holds each one-keyword subset: a partition holding it
        // holds them, so only they are sought.
        let singles = {
            let mut singles = vec![ks(1), ks(2)];
            singles.sort();
            singles
        };
        assert_eq!(admissible_now(&adm), singles);
        assert!(memo.admit(&session, &mut list, 0, 5.0));
        assert!(adm.update(&session, &list, &memo));
        assert_eq!(admissible_now(&adm), singles, "the query is a member");
        assert!(memo.admit(&session, &mut list, 1, 4.0));
        assert!(memo.admit(&session, &mut list, 2, 3.0));
        assert!(!list.contains(0), "evicted");
        assert!(adm.update(&session, &list, &memo));
        // θ is 4 now: the query itself (exact cost 0) is back; the two
        // members are not.
        assert_eq!(admissible_now(&adm), vec![ks(0)]);
    }

    #[test]
    fn a_set_evicted_with_no_admissible_subset_is_sought_again() {
        // Only the eviction changes which sets are sought here: the set
        // admitted holds one already sought, the set sought stays below
        // the threshold and no member, and the evicted set has no subset
        // below the threshold. Driven by hand, prices above the exact
        // costs as the beam can give them.
        let idx = KvBackedIndex::from_built(Index::build(Arc::new(figure1())));
        let query = Query::from_keywords(["john", "fishing", "xml"]);
        let session = RefineSession::new(&idx, query, RuleSet::new()).unwrap();
        let mut memo = DpMemo::new();
        let mut mask = KeyMask::empty(session.width());
        (0..session.width()).for_each(|i| mask.set(i));
        assert_eq!(memo.candidates(&session, &mask, 10).len(), 7);
        let id = |words: &[&str]| {
            let mut ks: Vec<usize> = words.iter().map(|w| session.pos(w).unwrap()).collect();
            ks.sort_by_key(|&i| &session.ks[i]);
            (0..7).find(|&id| memo.ks(id) == ks).unwrap()
        };
        let bits = |id: RqId| memo.ks(id).iter().fold(0, |b: KeyBits, &i| b | (1 << i));
        let sought = |adm: &Admissible| -> Vec<KeyBits> {
            let mut sets: Vec<KeyBits> = adm.active.iter().map(|&n| adm.sets[n].keywords).collect();
            sets.sort_unstable();
            sets
        };
        let (all, john_fishing, fishing_xml, john_xml) = (
            id(&["john", "fishing", "xml"]),
            id(&["john", "fishing"]),
            id(&["fishing", "xml"]),
            id(&["john", "xml"]),
        );

        let mut list = RqSortedList::new(2);
        let mut adm = Admissible::new(&session.lists, ADMISSIBLE_BUDGET);
        adm.budget = Budget::sets(ADMISSIBLE_BUDGET);
        assert!(adm.update(&session, &list, &memo));
        for (id, price) in [(fishing_xml, 3.0), (john_fishing, 2.5)] {
            assert!(memo.admit(&session, &mut list, id, price));
            assert!(adm.update(&session, &list, &memo));
        }
        // θ = 3: the sets below it are the query and {john, xml}.
        assert_eq!(sought(&adm), vec![bits(john_xml)]);
        assert!(memo.admit(&session, &mut list, all, 1.0));
        assert!(!list.contains(fishing_xml), "evicted");
        assert!(adm.update(&session, &list, &memo));
        // θ = 2.5: {fishing, xml} (exact cost 2) is back, and its subsets
        // cost 4.
        let mut want = vec![bits(john_xml), bits(fishing_xml)];
        want.sort_unstable();
        assert_eq!(sought(&adm), want);
    }

    /// What Algorithm 2's walk over every partition is defined as, on
    /// labels alone: the smallest head label below the root names the
    /// partition `0.i` (reported as `i + 1`), and *every* list's postings
    /// in it are found by binary search — no cursor and no run table
    /// involved. The lists are the build's ([`built_lists`]).
    fn walk_by_definition(lists: &[&[Posting]]) -> Vec<(u64, KeyMask, Vec<Range<usize>>)> {
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
                    }
                }
                continue;
            };
            let mut mask = KeyMask::empty(lists.len());
            let mut ranges = Vec::new();
            for (i, (l, a)) in lists.iter().zip(&mut at).enumerate() {
                let start = l.partition_point(|p| p.dewey < root);
                let inside = l[start..].partition_point(|p| root.is_ancestor_or_self_of(&p.dewey));
                let range = start..start + inside;
                if !range.is_empty() {
                    mask.set(i);
                    *a = range.end;
                }
                ranges.push(range);
            }
            partitions.push((u64::from(root.components()[1]) + 1, mask, ranges));
        }
        partitions
    }

    /// The build's list of each of the session's keywords, as the store
    /// the session reads was encoded from.
    fn built_lists<'a>(built: &'a Index, session: &RefineSession<'_>) -> Vec<&'a [Posting]> {
        (session.ks.iter())
            .map(|k| built.list(k).map_or(&[][..], PostingList::as_slice))
            .collect()
    }

    /// A family of 0-3 keyword sets over `width` lists, or — one time in
    /// four — none, which lifts the restriction.
    fn target_sets(g: &mut xcheck::prop::Gen, width: usize) -> Option<Vec<Vec<usize>>> {
        (g.weighted(&[1, 3]) == 1).then(|| {
            g.vec(0..=3, |g| {
                let mut set = g.vec(1..=3, |g| g.range(0..width));
                set.sort_unstable();
                set.dedup();
                set
            })
        })
    }

    #[test]
    fn the_walk_visits_the_partitions_holding_a_target_with_the_masks_the_definition_has() {
        use invindex::Posting;
        use xcheck::prop::check;
        use xmldom::NodeTypeId;

        check(400, |g| {
            // 1-6 lists over at most 12 partitions: empty lists, lists
            // with a posting on the root itself, lists ending early and
            // partitions only some (or one) of the lists reach.
            let postings: Vec<Vec<Posting>> = g.vec(1..=6, |g| {
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
                labels
                    .into_iter()
                    .map(|l| Posting::new(Dewey::new(l).unwrap(), NodeTypeId(0)))
                    .collect()
            });
            let lists: Vec<ListHandle> = (postings.iter().cloned())
                .map(ListHandle::from_postings)
                .collect();
            let every = walk_by_definition(&postings.iter().map(Vec::as_slice).collect::<Vec<_>>());

            // The targets change at random points of the walk, as the
            // admissible sets change with the list: from each point on,
            // the walk must visit exactly the partitions whose mask holds
            // a target, and see there what the definition sees.
            let stats = ScanStats::new();
            let mut walk = PartitionWalk::new(&lists, &stats);
            let mut sets = target_sets(g, lists.len());
            let mut rest = every.iter();
            let mut advances = 0;
            loop {
                let holds = |mask: &KeyMask| {
                    (sets.as_ref()).is_none_or(|f| f.iter().any(|s| s.iter().all(|&i| mask.get(i))))
                };
                let want = rest.by_ref().find(|(_, mask, _)| holds(mask));
                let at = match &sets {
                    None => walk.first_any(),
                    Some(f) => f
                        .iter()
                        .map(|s| walk.first_holding(s))
                        .min()
                        .unwrap_or(AT_END),
                };
                let Some((want_pid, want_mask, want_ranges)) = want else {
                    assert_eq!(at, AT_END, "targets {sets:?}");
                    break;
                };
                assert_eq!(at, *want_pid, "targets {sets:?}");
                walk.visit(at);
                assert_eq!(&walk.mask, want_mask, "T of {at}");
                for i in (0..lists.len()).filter(|&i| want_mask.get(i)) {
                    assert_eq!(walk.ranges[i], want_ranges[i], "list {i} in {at}");
                    advances += want_ranges[i].len() as u64;
                }
                if g.bool() {
                    sets = target_sets(g, lists.len());
                }
            }
            // Only the postings of the partitions visited are advanced
            // over; never more than one scan.
            assert_eq!(stats.advances(), advances);
            assert!(advances <= lists.iter().map(|l| l.len() as u64).sum::<u64>());
            assert_eq!(stats.random_accesses(), 0);
        });
    }

    /// Algorithm 2 as it was before the walk skipped partitions: the same
    /// trials on every partition the lists reach, found by
    /// [`walk_by_definition`] on `built`, the build the session's store
    /// was encoded from.
    fn refine_every_partition(
        session: &RefineSession<'_>,
        built: &Index,
        options: &PartitionOptions,
        mut admitted: impl FnMut(u64, &DpMemo, RqId, f64),
    ) -> RefineOutcome {
        let mut scan = Scan::new(options.k.max(1));
        for (at, mask, ranges) in walk_by_definition(&built_lists(built, session)) {
            scan.partition(session, options.slca, &mask, &ranges, |memo, id, ds| {
                admitted(at, memo, id, ds)
            });
        }
        scan.finish(session, options)
    }

    /// An admission as the log compares it: the partition, the keyword
    /// set (ids are interned in the order the DP proposes candidates, so
    /// a walk that runs the DP on fewer masks numbers them differently)
    /// and the dissimilarity's bits.
    type Admission = (u64, Vec<usize>, u64);

    fn logged(
        run: impl FnOnce(&mut dyn FnMut(u64, &DpMemo, RqId, f64)) -> RefineOutcome,
    ) -> (RefineOutcome, Vec<Admission>) {
        let mut log = Vec::new();
        let out = run(&mut |at, memo: &DpMemo, id, ds: f64| {
            log.push((at, memo.ks(id).to_vec(), ds.to_bits()))
        });
        (out, log)
    }

    #[test]
    fn skipping_partitions_changes_no_admission_and_no_answer() {
        use datagen::{generate_dblp, DblpConfig};
        use lexicon::{RefineOp, Rule, RuleSource};
        use xcheck::prop::check;

        // Each corpus's build, and a store encoded from it.
        let docs: Vec<(Index, KvBackedIndex)> = [(8, 1), (30, 2), (80, 3), (150, 4)]
            .into_iter()
            .map(|(authors, seed)| {
                let doc = Arc::new(generate_dblp(&DblpConfig {
                    authors,
                    seed,
                    ..Default::default()
                }));
                let idx = KvBackedIndex::from_built(Index::build(Arc::clone(&doc)));
                (Index::build(doc), idx)
            })
            .collect();
        // Each corpus's 40 most frequent words: they share partitions, so
        // the list fills early and later partitions still admit — the
        // trials a wrongly skipped partition would lose.
        let frequent: Vec<Vec<String>> = (docs.iter())
            .map(|(_, idx)| {
                let mut words: Vec<(usize, String)> = (idx.vocabulary().iter())
                    .map(|(_, w)| (idx.list_handle(w).unwrap().len(), w.to_string()))
                    .collect();
                words.sort_by(|a, b| b.cmp(a));
                words.into_iter().take(40).map(|(_, w)| w).collect()
            })
            .collect();

        check(200, |g| {
            let d = g.range(0..docs.len());
            let (built, idx) = &docs[d];
            // A small universe, so that queries, rules and partitions
            // share keywords: frequent document words and one absent one.
            let mut universe: Vec<String> = g.vec(3..8, |g| g.pick(&frequent[d]));
            universe.push("qqz".to_string());
            // One case in four is wide enough for the DP's beam to
            // misprice a set: it can then be admitted above its exact
            // cost, evicted, and come back.
            let wide = g.weighted(&[3, 1]) == 1;
            let (words, rule_count) = if wide {
                (6..10, 10usize..17)
            } else {
                (1..6, 0..9)
            };
            let query = Query::from_keywords(g.vec(words, |g| g.pick(&universe)));
            let mut rules = RuleSet::new().with_deletion_cost(g.range(1u32..5) as f64 * 0.5);
            for _ in 0..g.range(rule_count) {
                let lhs = g.vec(1..3, |g| g.pick(&universe));
                let rhs = g.vec(1..3, |g| g.pick(&universe));
                let lhs: Vec<&str> = lhs.iter().map(String::as_str).collect();
                let rhs: Vec<&str> = rhs.iter().map(String::as_str).collect();
                let cost = g.range(0u32..6) as f64 * 0.5;
                rules.add(Rule::new(
                    &lhs,
                    &rhs,
                    RefineOp::Substitute,
                    RuleSource::Manual,
                    cost,
                ));
            }
            let options = PartitionOptions {
                k: 1 + g.weighted(&[3, 1, 1]),
                ..Default::default()
            };
            // Small budgets make the enumeration overflow: the walk falls
            // back to every partition, and enumerates again once the
            // threshold falls.
            let budget = [2, 6, ADMISSIBLE_BUDGET][g.weighted(&[1, 1, 2])];
            let session = || RefineSession::new(idx, query.clone(), rules.clone()).unwrap();

            let (s1, s2) = (session(), session());
            let (want, want_log) = logged(|log| {
                refine_every_partition(&s1, built, &options, |a, m, i, d| log(a, m, i, d))
            });
            let (got, got_log) =
                logged(|log| refine(&s2, &options, budget, |a, m, i, d| log(a, m, i, d)).0);

            assert_eq!(got_log, want_log, "admissions of {query:?}");
            assert_eq!(got.original_ok, want.original_ok);
            assert_eq!(got.random_accesses, want.random_accesses);
            assert_eq!(got.degraded.len(), want.degraded.len());
            assert_eq!(got.refinements.len(), want.refinements.len());
            for (a, b) in got.refinements.iter().zip(&want.refinements) {
                assert_eq!(a.candidate.keywords, b.candidate.keywords);
                assert_eq!(
                    a.candidate.dissimilarity.to_bits(),
                    b.candidate.dissimilarity.to_bits()
                );
                assert_eq!(a.rank_score.to_bits(), b.rank_score.to_bits());
                assert_eq!(a.slcas, b.slcas);
            }
            assert!(got.advances <= s2.total_list_len() as u64);
        });
    }

    /// The counting allocator, for the DP's allocation gate: it counts
    /// only on a thread inside `xcheck::alloc::allocations`, so the other
    /// tests of this binary are not counted.
    #[global_allocator]
    static ALLOCATOR: xcheck::alloc::Counting = xcheck::alloc::Counting;

    /// A `DpMemo` miss runs the recurrence on interned keys in working
    /// memory the session keeps, so what it allocates is the memo entry
    /// and the arena rows of candidates not seen before — not, as before
    /// the DP was interned, a `BTreeSet<String>` and an operation history
    /// per state (hundreds of allocations a call). Bracketed here: every
    /// miss over the masks of every partition, on a query wide enough to
    /// make many.
    #[test]
    fn a_dp_call_costs_tens_of_allocations_not_hundreds() {
        use crate::engine::{EngineConfig, XRefineEngine};
        use datagen::{generate_dblp, DblpConfig};
        use xcheck::alloc::allocations;

        let doc = Arc::new(generate_dblp(&DblpConfig {
            authors: 400,
            ..Default::default()
        }));
        let built = Index::build(Arc::clone(&doc));
        let engine = XRefineEngine::from_document(doc, EngineConfig::default());
        let keywords = ["databse", "xml", "key", "word", "serch", "retrieval"];
        let query = Query::from_keywords(keywords);
        let rules = engine.rules_for(&query);
        let session = RefineSession::new(engine.index(), query, rules).unwrap();
        let m = 2 * 3 + 8;

        let mut memo = DpMemo::new();
        let (mut calls, mut allocated) = (0u64, 0u64);
        for (_, mask, _) in walk_by_definition(&built_lists(&built, &session)) {
            if memo.memo.contains_key(&mask) {
                continue;
            }
            let (_, n) = allocations(|| memo.candidates(&session, &mask, m));
            calls += 1;
            allocated += n;
        }
        let per_call = allocated as f64 / calls as f64;
        println!(
            "{keywords:?}: {allocated} allocations in {calls} DP calls, {per_call:.1} per call"
        );
        assert!(calls >= 20, "the query must exercise the DP: {calls}");
        assert!(per_call <= 40.0, "{per_call:.1} allocations per DP call");
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
