//! An XML file has one way in. The REPL over `--data <file>` and over
//! `index <file> <db>` + `query --store <db>` both index it with
//! `build_streaming`, so they print the same answers, and a malformed
//! file is refused by both with the scanner's own message.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Output, Stdio};

const QUERIES: &str = "john fishing\non line data base\nxml john 2003\nxml\nzzzz qqqq\n";

fn cli(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xrefine-cli"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let written = child.stdin.take().unwrap().write_all(stdin.as_bytes());
    // A child that refuses its input (a malformed `--data` file) may exit
    // before reading it, and the write then meets a closed pipe. What the
    // child printed is what the callers check.
    if let Err(e) = written {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "{e}");
    }
    child.wait_with_output().unwrap()
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn data_file_and_indexed_store_print_the_same_answers() {
    let dir = std::env::temp_dir().join(format!("xref_one_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("figure1.xml");
    let db = dir.join("figure1.db");
    std::fs::write(&xml, xmldom::fixtures::figure1().to_xml()).unwrap();

    let direct = cli(&["--data", path_str(&xml)], QUERIES);
    assert!(direct.status.success(), "{direct:?}");
    let indexed = cli(&["index", path_str(&xml), path_str(&db)], "");
    assert!(indexed.status.success(), "{indexed:?}");
    let stored = cli(&["query", "--store", path_str(&db)], QUERIES);
    assert!(stored.status.success(), "{stored:?}");

    let answers = String::from_utf8(direct.stdout).unwrap();
    assert_eq!(answers, String::from_utf8(stored.stdout).unwrap());
    // One of the queries needed refinement, and got the paper's answer.
    assert!(
        answers.contains("#1 {base, data, online}  dSim=1"),
        "{answers}"
    );
    assert!(answers.contains("no refinement needed"), "{answers}");

    // A malformed file: both entry points name it and quote the scanner.
    let bad = dir.join("bad.xml");
    std::fs::write(&bad, "<bib><paper>unclosed</bib>").unwrap();
    let reject = |out: Output| {
        assert!(!out.status.success());
        let stderr = String::from_utf8(out.stderr).unwrap();
        let line = stderr.lines().find(|l| l.starts_with("scan error in"));
        line.unwrap_or_else(|| panic!("no scan error in: {stderr}"))
            .to_string()
    };
    let from_data = reject(cli(&["--data", path_str(&bad)], QUERIES));
    let from_index = reject(cli(
        &["index", path_str(&bad), path_str(&dir.join("bad.db"))],
        "",
    ));
    assert_eq!(from_data, from_index);
    assert!(from_data.contains("bad.xml"), "{from_data}");

    std::fs::remove_dir_all(&dir).unwrap();
}
