//! xlint — a from-scratch static analyzer for this workspace.
//!
//! Rustc and clippy enforce language-level invariants — including the
//! panic family, unchecked indexing and overflowing arithmetic on
//! storage/decode paths, a `// SAFETY:` comment on every `unsafe` block
//! and no clock reads in query evaluation — and the `kvstore::Vfs` type
//! offers no rename without its directory sync. xlint enforces the
//! *architecture-level* invariants no compiler check can say:
//!
//! * `no-panic-paths` — no hard `assert!` where a file denies clippy's
//!   panic lints;
//! * `lock-order` — annotated lock sites respect the hierarchy declared
//!   in `obs::lockrank::rank` (read as text from `crates/obs/src/lockrank.rs`);
//! * `metric-catalogue` — metric and span names match DESIGN.md;
//! * `error-context` — corruption errors always say what went wrong;
//! * `unsafe-audit` — a `// SAFETY:` comment states an invariant;
//! * `unused-export` — a `pub`/`pub(crate)` item under `crates/*/src`
//!   that no production code in the workspace names.
//!
//! The analyzer is zero-dependency: a hand-rolled lexer
//! ([`lexer`]) feeds token-pattern rules ([`rules`]) over a per-file
//! model ([`source`]) that tracks test regions, suppression pragmas and
//! lock annotations, plus a workspace model ([`model`]) of exported
//! items for the cross-file rules. Exemptions are
//! `// xlint::allow(rule): why` pragmas with a *required*
//! justification.
//!
//! `cargo run -p xlint -- --workspace` lints the live tree;
//! `-- --fixtures` self-tests the rules against golden fixtures.

pub mod config;
pub mod diag;
pub mod fixtures;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod source;
pub mod workspace;

use config::Config;
use diag::Finding;
use source::{FileKind, SourceFile};

/// Lints one in-memory source text under a workspace-relative path.
/// Cross-file rules run over a degenerate single-file model.
pub fn lint_source(path: &str, text: &str, kind: FileKind, config: &Config) -> Vec<Finding> {
    let file = SourceFile::parse(path, text, kind);
    let mut findings = rules::run_all(&file, config);
    let files = [file];
    let model = model::WorkspaceModel::build(&files);
    rules::run_workspace(&model, config, &mut findings);
    diag::sort_findings(&mut findings);
    findings
}
