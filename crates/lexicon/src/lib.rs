//! `lexicon` — the lexical machinery behind the refinement operations
//! (§III-B of the paper).
//!
//! * [`edit`]: Levenshtein / Damerau–Levenshtein distances for spelling
//!   rules;
//! * [`stemmer`]: the Porter stemmer for word-stemming substitutions;
//! * [`thesaurus`]: the synonym thesaurus (WordNet substitute) and the
//!   acronym table;
//! * [`rules`]: refinement rules, rule sets, and the paper's Table II;
//! * [`rulegen`]: per-query rule generation against a document vocabulary
//!   (`getNewKeywords`), guaranteeing every generated RHS keyword exists
//!   in the data.

pub mod edit;
pub mod rulegen;
pub mod rules;
pub mod stemmer;
pub mod thesaurus;

pub use edit::{damerau_levenshtein, levenshtein, within_distance};
pub use rulegen::{generate_rules, VocabIndex};
pub use rules::{RefineOp, Rule, RuleId, RuleSet, RuleSource};
pub use stemmer::porter_stem;
pub use thesaurus::{AcronymTable, Thesaurus};
