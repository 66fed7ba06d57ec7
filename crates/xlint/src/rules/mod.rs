//! The rule set. Every rule walks the token stream of one
//! [`SourceFile`] and emits [`Finding`]s; suppression, test-code
//! exemptions and path scoping are applied here so the individual rules
//! stay declarative.

pub mod error_context;
pub mod lock_order;
pub mod metric_catalogue;
pub mod no_panic;
pub mod pragma;
pub mod unsafe_audit;
pub mod unused_export;

use crate::config::Config;
use crate::diag::Finding;
use crate::model::WorkspaceModel;
use crate::source::SourceFile;

/// Rule identifiers a pragma may name.
pub const RULE_NAMES: &[&str] = &[
    no_panic::RULE,
    lock_order::RULE,
    metric_catalogue::RULE,
    error_context::RULE,
    unsafe_audit::RULE,
    unused_export::RULE,
];

/// Runs every per-file rule over one file. `findings` come back
/// unsorted.
pub fn run_all(file: &SourceFile, config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    pragma::check(file, &mut out);
    no_panic::check(file, &mut out);
    lock_order::check(file, config, &mut out);
    metric_catalogue::check(file, config, &mut out);
    error_context::check(file, config, &mut out);
    unsafe_audit::check(file, config, &mut out);
    out
}

/// Runs the cross-file rules over the whole-workspace model (or a
/// degenerate single-file model, as the fixtures do).
pub fn run_workspace(model: &WorkspaceModel, config: &Config, out: &mut Vec<Finding>) {
    lock_order::check_declared(model, config, out);
    unused_export::check(model, config, out);
}

/// Emits a finding unless a justified pragma suppresses it. Rules call
/// this for every violation they detect.
pub(crate) fn emit(
    out: &mut Vec<Finding>,
    file: &SourceFile,
    rule: &'static str,
    line: usize,
    col: usize,
    message: String,
    help: String,
) {
    if file.is_suppressed(rule, line) {
        return;
    }
    out.push(Finding {
        rule,
        path: file.path.clone(),
        line,
        col,
        message,
        help,
    });
}
