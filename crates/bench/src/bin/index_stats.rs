//! Index construction statistics (§VII): sizes of the keyword inverted
//! lists vs the frequent table — the paper claims "for real dataset which
//! has well organized structures, the size of the frequent table is
//! comparable to that of the keyword inverted lists" — plus DOM-oracle
//! vs streaming build time and persisted store size.

use bench::{dblp, f3, time_ms, Table};
use invindex::{build_streaming, persist, Index};
use kvstore::{KvStore, MemKv};
use std::sync::Arc;

fn main() {
    let mut t = Table::new(&[
        "scale",
        "elements",
        "keywords",
        "postings",
        "list bytes",
        "freq entries",
        "build dom (ms)",
        "build stream4 (ms)",
    ]);

    for scale in [0.1, 0.25, 0.5] {
        let doc = dblp(scale);
        let seq_ms = time_ms(
            || {
                std::hint::black_box(Index::build(Arc::clone(&doc)));
            },
            2,
        );
        let xml = doc.to_xml();
        let stream_ms = time_ms(
            || {
                std::hint::black_box(build_streaming(&xml, 4).expect("generated corpus scans"));
            },
            2,
        );
        let index = Index::build(Arc::clone(&doc));
        let (mut postings, mut list_bytes) = (0, 0);
        for list in index.vocabulary().iter().filter_map(|(_, w)| index.list(w)) {
            postings += list.len();
            list_bytes += list.encode_compressed().len();
        }
        t.row(vec![
            format!("{:.0}%", scale * 100.0),
            format!("{}", doc.len()),
            format!("{}", index.vocabulary().len()),
            format!("{postings}"),
            format!("{list_bytes}"),
            format!("{}", index.stats().df_entries()),
            f3(seq_ms),
            f3(stream_ms),
        ]);
    }
    println!("== Index construction statistics (§VII) ==\n");
    t.print();

    // Persisted store footprint at one scale.
    let doc = dblp(0.25);
    let index = Index::build(Arc::clone(&doc));
    let mut store = MemKv::new();
    persist::persist(&index, &mut store).unwrap();
    let total_bytes: usize = store
        .scan_range(b"", None)
        .unwrap()
        .iter()
        .map(|(k, v)| k.len() + v.len())
        .sum();
    println!(
        "\npersisted store at 25% scale: {} entries, {} KiB total \
         (lists + frequent table + vocabulary)",
        store.len(),
        total_bytes / 1024
    );
}
