//! Workspace discovery: find the `.rs` files to lint, classify them as
//! production or test code, and load the config (lock class table +
//! DESIGN.md catalogue) from the tree being linted.

use crate::config::{self, Config};
use crate::diag::Finding;
use crate::model::WorkspaceModel;
use crate::source::{FileKind, SourceFile};
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "node_modules"];

/// The workspace root, resolved from this crate's manifest dir
/// (`crates/xlint` → two levels up).
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Every `.rs` file under `root`, as `(workspace-relative path, kind)`.
/// Files under `tests/`, `benches/` or `examples/` are [`FileKind::Test`];
/// xlint's own golden fixtures are excluded (they contain violations on
/// purpose).
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<(PathBuf, FileKind)>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<(PathBuf, FileKind)>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            if name == "fixtures" && dir.ends_with("crates/xlint/tests") {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let kind = if rel_str.contains("/tests/")
                || rel_str.contains("/benches/")
                || rel_str.contains("/examples/")
                || rel_str.starts_with("tests/")
            {
                FileKind::Test
            } else {
                FileKind::Production
            };
            files.push((rel, kind));
        }
    }
    Ok(())
}

/// Loads the full workspace config: path-scope policy from
/// [`Config::workspace_defaults`], the lock hierarchy from the class
/// table at [`config::LOCK_CLASSES_PATH`], and the metric catalogue from
/// `DESIGN.md`.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let mut cfg = Config::workspace_defaults();
    let classes_path = root.join(config::LOCK_CLASSES_PATH);
    let classes = fs::read_to_string(&classes_path)
        .map_err(|e| format!("cannot read {}: {e}", classes_path.display()))?;
    cfg.locks = config::parse_lock_classes(&classes)?;
    let design_path = root.join("DESIGN.md");
    let design = fs::read_to_string(&design_path)
        .map_err(|e| format!("cannot read {}: {e}", design_path.display()))?;
    cfg.catalogue = config::parse_catalogue(&design)?;
    Ok(cfg)
}

/// Parses every source file in the workspace into the per-file model.
fn parse_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let files = collect_rs_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut parsed = Vec::new();
    for (rel, kind) in files {
        let text = fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("cannot read {}: {e}", rel.display()))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        parsed.push(SourceFile::parse(&rel_str, &text, kind));
    }
    Ok(parsed)
}

/// Lints every source file in the workspace: per-file rules first, then
/// the cross-file rules over the whole-workspace model. Findings come back
/// sorted.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let config = load_config(root)?;
    let parsed = parse_workspace(root)?;
    let mut findings = Vec::new();
    for file in &parsed {
        findings.extend(crate::rules::run_all(file, &config));
    }
    let model = WorkspaceModel::build(&parsed);
    crate::rules::run_workspace(&model, &config, &mut findings);
    crate::diag::sort_findings(&mut findings);
    Ok(findings)
}
