//! `index` over an existing store replaces it whole. The store being
//! replaced has a committed `update` still in its WAL; after the second
//! `index`, `query --store`, `scrub` and `update` all see the new corpus
//! and nothing of the old one — no old key left in the tree file, no old
//! WAL replayed over it.

use std::path::Path;
use std::process::{Command, Output, Stdio};

fn cli(args: &[&str], stdin: &str) -> Output {
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_xrefine-cli"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

fn ok(args: &[&str], stdin: &str) -> String {
    let out = cli(args, stdin);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The number `scrub` reports for `section <name>`.
fn section_entries(scrub: &str, name: &str) -> usize {
    scrub
        .lines()
        .find_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some("section") && words.next() == Some(name))
                .then(|| words.next().unwrap().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("no `section {name}` line in:\n{scrub}"))
}

#[test]
fn index_replaces_the_store_and_its_wal() {
    let dir = std::env::temp_dir().join(format!("xref_reindex_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("s.db");
    let wal = db.with_extension("wal");
    for stale in [&db, &wal] {
        let _ = std::fs::remove_file(stale);
    }
    let db_str = db.to_str().unwrap();
    let fragment = dir.join("fragment.xml");
    std::fs::write(
        &fragment,
        "<author><name>zyzzyva quux</name><paper><title>fragment only</title></paper></author>",
    )
    .unwrap();

    ok(&["index", "dblp", db_str], "");
    ok(
        &[
            "update",
            "--store",
            db_str,
            "--add",
            fragment.to_str().unwrap(),
        ],
        "",
    );
    assert!(
        std::fs::metadata(&wal).unwrap().len() > 0,
        "the update left no WAL"
    );

    ok(&["index", "figure1", db_str], "");
    assert!(!wal.exists(), "the replaced store's WAL survived `index`");
    assert!(!Path::new(&format!("{db_str}.new")).exists());

    // The file holds exactly what `index figure1` writes into a fresh
    // path, byte for byte.
    let fresh = dir.join("fresh.db");
    let _ = std::fs::remove_file(&fresh);
    ok(&["index", "figure1", fresh.to_str().unwrap()], "");
    assert!(
        std::fs::read(&db).unwrap() == std::fs::read(&fresh).unwrap(),
        "re-indexed store differs from a fresh one"
    );

    let answers = ok(&["query", "--store", db_str], "on line data base\n");
    assert!(answers.contains("{base, data, online}"), "{answers}");
    let scrub = ok(&["scrub", "--store", db_str], "");
    assert!(scrub.contains(": clean ("), "{scrub}");
    assert!(!scrub.contains("maintenance: WAL replayed"), "{scrub}");
    let keywords = section_entries(&scrub, "lists");
    assert_eq!(section_entries(&scrub, "vocabulary"), keywords, "{scrub}");
    assert!(keywords < 100, "figure1 has a few dozen keywords: {scrub}");

    // `update` starts from the new corpus: figure1's root has no fourth
    // child to remove, and the old corpus's slots are gone with it.
    let out = cli(&["update", "--store", db_str, "--remove", "400"], "");
    assert!(!out.status.success(), "slot 400 of the old corpus survived");
    ok(
        &["update", "--store", db_str, "--remove", "0", "--compact"],
        "",
    );

    for file in [&db, &wal, &fresh, &fragment] {
        let _ = std::fs::remove_file(file);
    }
}
