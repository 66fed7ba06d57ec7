//! Output types of the refinement algorithms, and the structured failure
//! report of the serving path.

use crate::partition::{meaningful_slcas, SlcaMethod};
use crate::query::RqCandidate;
use invindex::ListHandle;
use slca::MeaningfulFilter;
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;
use xmldom::Dewey;

/// How many of a refinement's results are computed with the answer: the
/// page the `/query` body lists. The rest are computed when read.
pub const RESULT_PAGE: usize = 20;

/// A rule-generated keyword the engine dropped because its on-disk
/// posting list is damaged: the answer was still produced, from the
/// remaining keywords, and this records what was ignored.
#[derive(Debug, Clone)]
pub struct DegradedKeyword {
    pub keyword: String,
    /// What is damaged (the posting list's frame, skip table or block).
    pub reason: String,
}

/// A query the engine could not answer, attributed to the keyword whose
/// storage failed when the failure is attributable at all.
///
/// The split with [`DegradedKeyword`] is the degradation policy: damage
/// to an *original* query keyword's posting list changes what the query
/// means, so it fails the query (this type); damage to a rule-*generated*
/// keyword only narrows the refinement space, so the query proceeds and
/// reports the degradation.
#[derive(Debug)]
pub struct QueryFailure {
    /// The query keyword whose list could not be served, when the
    /// failure is attributable to one keyword (`None` for session-level
    /// failures such as an unreadable store).
    pub keyword: Option<String>,
    pub error: kvstore::KvError,
}

impl fmt::Display for QueryFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.keyword {
            Some(kw) => write!(f, "query keyword {kw:?} cannot be served: {}", self.error),
            None => write!(f, "query cannot be served: {}", self.error),
        }
    }
}

impl std::error::Error for QueryFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<kvstore::KvError> for QueryFailure {
    fn from(error: kvstore::KvError) -> Self {
        QueryFailure {
            keyword: None,
            error,
        }
    }
}

impl From<QueryFailure> for kvstore::KvError {
    fn from(f: QueryFailure) -> Self {
        match (f.keyword, f.error) {
            (Some(kw), kvstore::KvError::Corrupt { page, context }) => kvstore::KvError::Corrupt {
                page,
                context: format!("keyword {kw:?}: {context}"),
            },
            (_, e) => e,
        }
    }
}

/// One refined query with its score and matching results.
#[derive(Debug, Clone)]
pub struct Refinement {
    pub candidate: RqCandidate,
    /// `Rank(RQ)` under the full ranking model (Formula 10); `0.0` when
    /// the algorithm ranks by dissimilarity only (stack-refine).
    pub rank_score: f64,
    /// Meaningful SLCA results, in document order.
    pub slcas: ResultSet,
}

/// A refinement's meaningful results, in document order. The first
/// [`RESULT_PAGE`] come with the answer ([`ResultSet::page`]), with
/// whether there are more ([`ResultSet::more`]). The whole set is what
/// the set derefs to: computed the first time it is read, then kept. A
/// list block that does not decode then is read as empty, so whoever
/// reads the whole set asks [`ResultSet::damage`] whether it is short.
#[derive(Clone)]
pub struct ResultSet {
    page: Vec<Dewey>,
    rest: Rest,
}

#[derive(Clone)]
enum Rest {
    /// The page is the whole set.
    None,
    /// The whole set, known from the start.
    Known(Vec<Dewey>),
    /// The whole set, computed on first read.
    Deferred(OnceLock<Vec<Dewey>>, Whole),
}

/// What a deferred whole set is: `slca` over `lists`, reduced by
/// `filter` to the meaningful results below the root.
#[derive(Clone)]
struct Whole {
    lists: Vec<ListHandle>,
    filter: MeaningfulFilter,
    slca: SlcaMethod,
}

impl ResultSet {
    /// A set of more than [`RESULT_PAGE`] results, known by its first
    /// [`RESULT_PAGE`]: all of them are `slca` over `lists`, reduced by
    /// `filter` to the meaningful ones below the root.
    pub(crate) fn deferred(
        page: Vec<Dewey>,
        lists: Vec<ListHandle>,
        filter: MeaningfulFilter,
        slca: SlcaMethod,
    ) -> Self {
        debug_assert_eq!(page.len(), RESULT_PAGE);
        ResultSet {
            page,
            rest: Rest::Deferred(
                OnceLock::new(),
                Whole {
                    lists,
                    filter,
                    slca,
                },
            ),
        }
    }

    /// Once the whole set has been read, the first damage a decode of
    /// the lists it was computed over found: the set then misses what
    /// the damaged blocks held. `None` before that, and for a set known
    /// whole with the answer.
    pub fn damage(&self) -> Option<kvstore::KvError> {
        match &self.rest {
            Rest::Deferred(all, whole) if all.get().is_some() => {
                whole.lists.iter().find_map(ListHandle::damage)
            }
            _ => None,
        }
    }

    /// The first [`RESULT_PAGE`] results (all of them when there are no
    /// more).
    pub fn page(&self) -> &[Dewey] {
        &self.page
    }

    /// Are there results past the page?
    pub fn more(&self) -> bool {
        !matches!(self.rest, Rest::None)
    }

    /// Is the set empty? Read from the page: computes nothing.
    pub fn is_empty(&self) -> bool {
        self.page.is_empty()
    }
}

impl From<Vec<Dewey>> for ResultSet {
    fn from(all: Vec<Dewey>) -> Self {
        match all.get(..RESULT_PAGE) {
            Some(page) if all.len() > RESULT_PAGE => ResultSet {
                page: page.to_vec(),
                rest: Rest::Known(all),
            },
            _ => ResultSet {
                page: all,
                rest: Rest::None,
            },
        }
    }
}

impl Deref for ResultSet {
    type Target = [Dewey];

    fn deref(&self) -> &[Dewey] {
        match &self.rest {
            Rest::None => &self.page,
            Rest::Known(all) => all,
            Rest::Deferred(all, whole) => all.get_or_init(|| {
                let all = meaningful_slcas(&whole.filter, whole.slca, &whole.lists);
                debug_assert!(
                    all.len() > self.page.len() && all.starts_with(&self.page),
                    "the page is a proper prefix of the whole set"
                );
                all
            }),
        }
    }
}

impl<'a> IntoIterator for &'a ResultSet {
    type Item = &'a Dewey;
    type IntoIter = std::slice::Iter<'a, Dewey>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for ResultSet {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<Dewey>> for ResultSet {
    fn eq(&self, other: &Vec<Dewey>) -> bool {
        **self == **other
    }
}

impl fmt::Debug for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The outcome of processing one query.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// True when the original query itself had meaningful results (its
    /// zero-dissimilarity candidate won): no refinement was necessary
    /// (Definition 3.4).
    pub original_ok: bool,
    /// Ranked refinements (best first). When `original_ok`, the first
    /// entry is the original query with its results.
    pub refinements: Vec<Refinement>,
    /// Sequential posting advances consumed (one-scan verification).
    pub advances: u64,
    /// Random accesses into the lists (SLE's probes).
    pub random_accesses: u64,
    /// Keywords dropped or de-weighted because their on-disk state is
    /// damaged (empty on a healthy store). Filled by the engine from the
    /// session; the algorithms themselves never degrade.
    pub degraded: Vec<DegradedKeyword>,
}

impl RefineOutcome {
    /// The best refinement, if any.
    pub fn best(&self) -> Option<&Refinement> {
        self.refinements.first()
    }

    /// Convenience: does the outcome propose an actual change to the
    /// query?
    pub fn needs_refinement(&self) -> bool {
        !self.original_ok
    }
}
