//! **xrefine-repro** — a from-scratch Rust reproduction of
//! *"Automatic XML Keyword Query Refinement"* (Bao, Lu, Ling, Meng; 2009).
//!
//! This facade re-exports the whole workspace; see the individual crates
//! for the subsystems:
//!
//! * [`xmldom`] — XML parser, Dewey labels, document tree;
//! * [`kvstore`] — page-based B+-tree storage (Berkeley DB substitute);
//! * [`invindex`] — keyword inverted lists + frequency statistics;
//! * [`slca`] — SLCA algorithms and meaningful-SLCA semantics;
//! * [`lexicon`] — edit distance, Porter stemmer, thesaurus, rule
//!   generation;
//! * [`xrefine`] — the refinement engine (ranking model, `getOptimalRQ`
//!   dynamic program, the three refinement algorithms);
//! * [`datagen`] — synthetic DBLP/Baseball corpora and query workloads;
//! * [`evalkit`] — Cumulated-Gain evaluation harness;
//! * [`obs`] — metrics registry and per-query span tracer.
//!
//! # Quickstart
//!
//! ```
//! use xrefine_repro::prelude::*;
//! use std::sync::Arc;
//!
//! let engine = XRefineEngine::from_xml(
//!     "<bib><author><name>Ann</name><hobby>chess</hobby></author></bib>",
//!     EngineConfig::default(),
//! ).unwrap();
//! let out = engine.answer("ann chess").unwrap();
//! assert!(out.original_ok);
//! ```

pub use datagen;
pub use evalkit;
pub use invindex;
pub use kvstore;
pub use lexicon;
pub use obs;
pub use slca;
pub use xmldom;
pub use xrefine;

/// The most common imports in one place.
pub mod prelude {
    pub use invindex::Index;
    pub use lexicon::{RuleSet, Thesaurus};
    pub use xmldom::{parse_document, Dewey, Document};
    pub use xrefine::{
        Algorithm, EngineConfig, Query, RankingConfig, RefineOutcome, Refinement, XRefineEngine,
    };
}
