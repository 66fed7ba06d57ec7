//! Output types of the refinement algorithms, and the structured failure
//! report of the serving path.

use crate::query::RqCandidate;
use std::fmt;
use xmldom::Dewey;

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
    pub slcas: Vec<Dewey>,
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
