//! The workspace builds with no registry: every package `Cargo.lock`
//! names is a path package of this checkout. A `source =` or
//! `checksum =` line means a registry dependency came back; the only
//! package allowed besides the workspace members is `rand`, which
//! `[patch.crates-io]` resolves to the in-tree stand-in (DESIGN.md §5).

use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn cargo_lock_names_only_path_packages() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("Cargo.lock is committed");
    for (n, line) in lock.lines().enumerate() {
        assert!(
            !line.starts_with("source =") && !line.starts_with("checksum ="),
            "Cargo.lock:{}: registry package: {line}",
            n + 1
        );
    }

    let mut members: BTreeSet<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("crates/ entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    members.insert(env!("CARGO_PKG_NAME").to_string());
    members.insert("rand".to_string());

    let locked: BTreeSet<String> = lock
        .lines()
        .filter_map(|line| line.strip_prefix("name = \""))
        .map(|rest| rest.trim_end_matches('"').to_string())
        .collect();
    assert_eq!(locked, members);
}
