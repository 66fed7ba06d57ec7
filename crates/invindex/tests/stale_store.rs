//! A store written by another build fails loudly, never panics: every
//! entry point that opens a persisted index reports a stamped-over
//! `M/version` as `Corrupt`/damage, naming the version it found and the
//! way out (re-index with `xrefine-cli index`).

use invindex::{build_streaming, persist, verify_store, KvBackedIndex, MaintIndex};
use kvstore::{DiskKv, FaultVfs, KvStore, MemKv};
use std::path::Path;

const CORPUS: &str = "<bib>\
    <paper><title>xml keyword search</title><year>2003</year></paper>\
    <paper><title>query refinement</title><year>2009</year></paper>\
    </bib>";

/// `result` must be a `Corrupt` refusal that names the version found
/// and says how to recover.
fn assert_refused<T>(result: kvstore::Result<T>, found: u8, entry_point: &str) {
    match result {
        Err(e) if e.is_corrupt() => assert_names_the_way_out(&e.to_string(), found, entry_point),
        Err(e) => panic!("{entry_point}: v{found}: non-Corrupt error {e}"),
        Ok(_) => panic!("{entry_point}: v{found} store was accepted"),
    }
}

fn assert_names_the_way_out(message: &str, found: u8, entry_point: &str) {
    assert!(
        message.contains(&format!("version {found}")),
        "{entry_point}: message does not name version {found}: {message}"
    );
    assert!(
        message.contains("re-index") && message.contains("xrefine-cli index"),
        "{entry_point}: message does not say how to recover: {message}"
    );
}

#[test]
fn foreign_format_versions_are_refused_at_every_entry_point() {
    let built = build_streaming(CORPUS, 1).unwrap();
    for found in [1u8, 2, 3, 4, 6] {
        // An otherwise valid store whose version record says `found`
        // (a single-byte varint).
        let stamped = || {
            let mut store = MemKv::new();
            persist::persist(&built, &mut store).unwrap();
            store.put(b"M/version", &[found]).unwrap();
            store
        };

        assert_refused(
            KvBackedIndex::open(Box::new(stamped())),
            found,
            "KvBackedIndex::open",
        );

        let report = verify_store(&stamped());
        assert!(!report.is_clean(), "verify_store: v{found} store is clean");
        assert_eq!(report.version, None);
        let meta = report.sections.iter().find(|s| s.name == "meta").unwrap();
        assert_eq!(meta.damaged.len(), 1, "verify_store: v{found}: {meta:?}");
        assert_names_the_way_out(&meta.damaged[0].1, found, "verify_store");

        let vfs = FaultVfs::new().as_dyn();
        let base = Path::new("/stale/store.db");
        let mut disk = DiskKv::open_with_vfs(&vfs, base).unwrap();
        persist::persist(&built, &mut disk).unwrap();
        disk.put(b"M/version", &[found]).unwrap();
        disk.sync().unwrap();
        drop(disk);
        assert_refused(
            MaintIndex::open_with_vfs(vfs, base),
            found,
            "MaintIndex::open",
        );
    }
}
