//! xlint — a from-scratch static analyzer for this workspace.
//!
//! Rustc and clippy enforce language-level invariants; xlint enforces
//! *architecture-level* ones that only this codebase knows about:
//!
//! * `no-panic-paths` — storage/decode paths return `KvError::Corrupt`,
//!   they never panic;
//! * `lock-order` — annotated lock sites respect the hierarchy declared
//!   in `obs::lockrank::rank` (read as text from `crates/obs/src/lockrank.rs`);
//! * `metric-catalogue` — metric and span names match DESIGN.md;
//! * `no-wallclock-in-hot-paths` — no clock reads in query evaluation;
//! * `error-context` — corruption errors always say what went wrong;
//! * `durability-protocol` — renames in persistence paths are followed
//!   by a parent-directory sync, per the DESIGN.md protocol table;
//! * `unsafe-audit` — every production `unsafe` carries an
//!   `xlint::safety(...)` invariant, inventoried into SAFETY.md;
//! * `checked-arithmetic-on-untrusted` — decode-path arithmetic on
//!   disk/network-derived values uses `checked_*` forms;
//! * `unused-export` — a `pub`/`pub(crate)` item under `crates/*/src`
//!   that no production code in the workspace names.
//!
//! The analyzer is zero-dependency: a hand-rolled lexer
//! ([`lexer`]) feeds token-pattern rules ([`rules`]) over a per-file
//! model ([`source`]) that tracks test regions, suppression pragmas and
//! lock annotations, plus a workspace model ([`model`]) with a
//! name-level call graph for the protocol rules. Exemptions are
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
/// Graph rules run over a degenerate single-file model, so callers must
/// escalate to the caller only within this file.
pub fn lint_source(path: &str, text: &str, kind: FileKind, config: &Config) -> Vec<Finding> {
    let file = SourceFile::parse(path, text, kind);
    let mut findings = rules::run_all(&file, config);
    let files = [file];
    let model = model::WorkspaceModel::build(&files);
    rules::run_workspace(&model, config, &mut findings);
    diag::sort_findings(&mut findings);
    findings
}
