//! `xmldom` — the XML substrate of the XRefine reproduction.
//!
//! Provides everything the paper assumes of its XML layer (§III, §VII):
//!
//! * [`dewey::Dewey`] labels whose lexicographic order is document order
//!   and whose longest common prefix is the LCA;
//! * an arena [`tree::Document`] with interned tag names and node types
//!   (tag paths, Definition 3.1, each interned as parent type + tag);
//! * the canonical keyword [`fn@tokenize`]r shared by index build and query
//!   parsing;
//! * a streaming zero-copy [`scan`]ner emitting span events over a
//!   borrowed buffer ([`scan_with`] into a [`ScanSink`]), with a
//!   bounded-memory Dewey labeller — the one XML reader in shipped code:
//!   index builds and the live writer's fragment check both run it;
//! * a from-scratch XML 1.0 [`parser`] building the DOM directly, kept
//!   only as the scanner's differential oracle in tests;
//! * the paper's Figure 1 document as a reusable [`fixtures`] fixture.

pub mod dewey;
pub mod fixtures;
pub mod intern;
pub mod parser;
pub mod scan;
pub mod tokenize;
pub mod tree;

pub use dewey::Dewey;
pub use intern::{NodeTypeId, NodeTypeTable, Symbol, SymbolTable};
pub use parser::parse_document;
pub use scan::{
    check_document, decode_text, scan_with, AttrIter, DeweyTracker, ScanError, ScanErrorKind,
    ScanSink, ScanStats, Span, MAX_SCAN_DEPTH,
};
pub use tokenize::{for_each_token, tokenize, tokenize_query};
pub use tree::{Document, DocumentBuilder, Node, NodeId};
