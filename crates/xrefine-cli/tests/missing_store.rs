//! `query --store` on a path that does not exist: the process says so
//! and exits non-zero, and the path still does not exist afterwards.

use std::process::{Command, Stdio};

#[test]
fn query_on_a_missing_store_fails_and_creates_nothing() {
    let dir = std::env::temp_dir().join(format!("xref_missing_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let nope = dir.join("nope.db");
    let _ = std::fs::remove_file(&nope);

    let out = Command::new(env!("CARGO_BIN_EXE_xrefine-cli"))
        .args(["query", "--store"])
        .arg(&nope)
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success(), "a missing store was served");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nope.db"), "stderr: {stderr}");
    assert!(!nope.exists(), "the failed open left a file behind");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}
