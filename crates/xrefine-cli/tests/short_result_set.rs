//! `query --store` reads every printed refinement's result set whole. A
//! set computed past its first page over a list block that does not
//! decode comes back short, so the REPL reports a `storage error: …`
//! line for it instead of printing a count that is wrong.

use std::path::Path;
use std::process::{Command, Output, Stdio};

use invindex::postings::{read_varint, write_varint};
use invindex::{CompressedList, KvBackedIndex};
use kvstore::{DiskKv, KvStore};

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

/// 300 records, each holding `alpha` three times: 900 postings, so 14
/// full blocks and 4 postings in a 15th.
fn corpus() -> String {
    let mut xml = String::from("<bib>");
    for _ in 0..300 {
        xml.push_str("<paper><title>alpha</title><venue>alpha</venue><note>alpha</note></paper>");
    }
    xml.push_str("</bib>");
    xml
}

/// Rewrites `keyword`'s stored list in the store at `db` with the
/// reserved bit set in its last block's second posting header, under a
/// frame checksum that matches: the list still opens, and that block
/// does not decode.
fn forge_last_block(db: &Path, keyword: &str) {
    let reader = KvBackedIndex::open(Box::new(DiskKv::open(db).unwrap())).unwrap();
    let id = reader.vocabulary().get(keyword).unwrap();
    drop(reader);
    let key = [b"L/".as_slice(), &id.0.to_be_bytes()].concat();
    let mut store = DiskKv::open(db).unwrap();
    let value = store.get(&key).unwrap().unwrap();
    let mut pos = 0;
    let len = read_varint(&value, &mut pos).unwrap() as usize;
    let mut payload = value[pos + 4..].to_vec();
    assert_eq!(payload.len(), len);
    let list = CompressedList::parse(&payload).unwrap();
    let last = list.blocks().last().unwrap();
    assert!(last.count > 1);
    let data_at = payload.len() - list.blocks().iter().map(|m| m.len).sum::<usize>();
    let mut at = data_at + last.offset;
    read_varint(&payload, &mut at).unwrap(); // the first node type
    payload[at] |= 0x80;
    let mut forged = Vec::new();
    write_varint(&mut forged, payload.len() as u64);
    forged.extend_from_slice(&kvstore::crc32(&payload).to_le_bytes());
    forged.extend_from_slice(&payload);
    store.put(&key, &forged).unwrap();
    store.sync().unwrap();
}

#[test]
fn a_result_set_short_of_a_damaged_block_is_a_storage_error() {
    let dir = std::env::temp_dir().join(format!("xref_short_set_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("corpus.xml");
    let db = dir.join("s.db");
    for stale in [db.clone(), db.with_extension("wal")] {
        let _ = std::fs::remove_file(stale);
    }
    std::fs::write(&xml, corpus()).unwrap();
    let (xml_str, db_str) = (xml.to_str().unwrap(), db.to_str().unwrap());
    let indexed = cli(&["index", xml_str, db_str], "");
    assert!(indexed.status.success(), "{indexed:?}");

    let healthy = cli(&["query", "--store", db_str], "alpha\n");
    let stdout = String::from_utf8_lossy(&healthy.stdout);
    assert!(
        stdout.contains("query has 900 meaningful result(s)"),
        "{stdout}"
    );

    forge_last_block(&db, "alpha");
    let damaged = cli(&["query", "--store", db_str], "alpha\n");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&damaged.stdout),
        String::from_utf8_lossy(&damaged.stderr),
    );
    assert!(
        stderr.contains("storage error: ") && stderr.contains("reserved header bit"),
        "stderr: {stderr}"
    );
    assert!(!stdout.contains("meaningful result(s)"), "stdout: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
