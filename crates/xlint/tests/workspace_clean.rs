//! Meta-test: the live workspace must be xlint-clean. This is the same
//! check CI's `analysis` job runs via `cargo run -p xlint -- --workspace`,
//! kept as a test so plain `cargo test` catches regressions too.

#[test]
fn live_workspace_has_no_findings() {
    let root = xlint::workspace::default_root();
    // When the crate is vendored or built outside the workspace the
    // config files won't exist; that's not a lint failure.
    if !root.join(xlint::config::LOCK_CLASSES_PATH).exists() {
        eprintln!("skipping: {} is not the workspace root", root.display());
        return;
    }
    let findings = xlint::workspace::lint_workspace(&root).expect("workspace lints");
    let rendered: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{} {} — {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        findings.is_empty(),
        "workspace must be xlint-clean, found {}:\n{}",
        findings.len(),
        rendered.join("\n")
    );
}
