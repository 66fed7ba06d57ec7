//! `slca` — SLCA computation and meaningful-result semantics.
//!
//! Implements the substrate the paper's refinement algorithms stand on:
//!
//! * [`stack::slca_stack`] — the stack-based algorithm of XKSearch \[3\],
//!   extended by the paper's Algorithm 1;
//! * [`eager::slca_indexed_lookup_eager`] / [`eager::slca_scan_eager`] —
//!   the XKSearch eager algorithms (the paper's `stack-slca` /
//!   `scan-slca` baselines of Figure 4);
//! * [`multiway::slca_multiway`] — Multiway-SLCA \[8\], a pluggable
//!   alternative demonstrating the "orthogonal to any SLCA method" claim;
//! * [`searchfor`] — search-for node inference (Formula 1);
//! * [`meaningful`] — meaningful SLCA and the needs-refinement test
//!   (Definitions 3.3 / 3.4).

pub mod common;
pub mod eager;
pub mod elca;
pub mod meaningful;
pub mod multiway;
pub mod searchfor;
pub mod stack;

pub use common::{closest_match, minimal_candidates, slca_brute_force};
pub use eager::{slca_indexed_lookup_eager, slca_scan_eager};
pub use elca::{elca, elca_brute_force};
pub use meaningful::{needs_refinement, MeaningfulFilter};
pub use multiway::slca_multiway;
pub use searchfor::{confidence_with, infer_search_for, SearchForConfig};
pub use stack::slca_stack;
