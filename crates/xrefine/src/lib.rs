//! `xrefine` — the paper's primary contribution: automatic XML keyword
//! query refinement.
//!
//! During the processing of a query `Q`, the engine decides whether `Q`
//! has any *meaningful SLCA* result (Definitions 3.3/3.4); if not, it
//! finds the Top-K refined queries — assured to have meaningful results —
//! together with those results, within one scan of the keyword inverted
//! lists.
//!
//! * [`query`]: queries and refined-query candidates;
//! * [`dp`]: the dynamic program `getOptimalRQ` of §V (Formula 11);
//! * [`ranking`]: the ranking model of §IV (Formulas 1–10 with the
//!   guideline ablations RS1–RS4 and the α/β weights);
//! * [`rqlist`]: the Top-2K running candidate list, keyed by interned
//!   candidate id;
//! * [`mod@stack_refine`]: Algorithm 1;
//! * [`partition`]: Algorithm 2 (partition-based Top-K);
//! * [`sle`]: Algorithm 3 (short-list eager Top-K);
//! * [`engine`]: the XRefine prototype facade;
//! * [`live`]: the updatable engine over an online-maintained store.

pub mod dp;
pub mod engine;
pub mod live;
pub mod narrow;
pub mod partition;
pub mod query;
pub mod ranking;
pub mod results;
pub mod rqlist;
pub mod session;
pub mod sle;
pub mod stack_refine;
pub mod util;

pub use dp::{
    brute_force_rqs, explain_rq, get_optimal_rq, get_top_optimal_rqs, AppliedOp, DpResult,
};
pub use engine::{Algorithm, EngineConfig, XRefineEngine};
pub use live::LiveEngine;
pub use narrow::{narrow_refine, NarrowOptions, Narrowing};
pub use partition::{partition_refine, PartitionOptions, SlcaMethod};
pub use query::{Query, RqCandidate};
pub use ranking::{Ranker, RankingConfig};
pub use results::{DegradedKeyword, QueryFailure, RefineOutcome, Refinement};
pub use rqlist::{RqId, RqSortedList};
pub use session::RefineSession;
pub use sle::{sle_refine, SleOptions};
pub use stack_refine::stack_refine;
pub use util::KeyMask;
