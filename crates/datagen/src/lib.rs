//! `datagen` — synthetic corpora and query workloads (the DESIGN.md
//! substitutions for DBLP, Baseball, and the demo query log).
//!
//! * [`zipf`]: seeded Zipf sampler (keyword-frequency skew);
//! * [`vocab`]: bibliographic/baseball term pools;
//! * [`dblp`]: scale-parameterised DBLP-like generator;
//! * [`baseball`]: the shallower Baseball generator;
//! * [`workload`]: valid queries perturbed by the inverse of each
//!   refinement operation, with ground truth by construction;
//! * [`deweygen`]: seeded random Dewey-label corpora for the SLCA
//!   differential-oracle tests.
//!
//! Both corpus generators build an [`xmldom::Document`] through its
//! `DocumentBuilder`; a corpus's XML is `Document::to_xml`, the one
//! renderer.

pub mod baseball;
pub mod dblp;
pub mod deweygen;
pub mod vocab;
pub mod workload;
pub mod zipf;

pub use baseball::{generate_baseball, BaseballConfig};
pub use dblp::{generate_dblp, DblpConfig};
pub use deweygen::{random_dewey_corpus, DeweyCorpusConfig};
pub use workload::{generate_workload, PerturbKind, WorkloadConfig, WorkloadQuery};
pub use zipf::Zipf;
