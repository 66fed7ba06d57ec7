//! `evalkit` — effectiveness evaluation (§VIII-C).
//!
//! * [`cg`]: Cumulated Gain vectors and cross-query averaging;
//! * [`oracle`]: the deterministic graded-relevance oracle substituting
//!   for the paper's six human judges (ground truth comes from the
//!   workload generator);
//! * [`harness`]: runs ranking-model variants (RS0–RS4, α/β sweeps) over
//!   a workload and produces the CG@K rows of Tables IX and X.

pub mod cg;
pub mod harness;
pub mod oracle;

pub use cg::{average_cg, cumulated_gain};
pub use harness::{evaluate_ranking, evaluate_with_engine, refinement_pool, CgRow};
pub use oracle::{gain_vector, grade};
