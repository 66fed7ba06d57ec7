//! Allocation budget of the `D/` encoder: a distinct subtree of a record
//! costs one allocation, the key its tuple is looked up by, and nothing
//! else does. A node whose subtree was seen before in its record, a
//! string, an attribute, a child or a record costs none: the string table
//! borrows from the document, each tuple is formed in one reused scratch
//! buffer, and the tables and buffers are cleared between records, never
//! freed, and sized once for the largest record. What is left is a
//! constant that does not grow with the record count: the tables and
//! buffers themselves.
//!
//! The test owns this binary: the counting allocator and the counters are
//! process-wide, and the allocator counts only the thread that asks.

use datagen::{generate_dblp, DblpConfig};
use invindex::persist::encode_document;
use xcheck::alloc::{allocations, Counting};
use xmldom::Document;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations an encode may make on top of one per distinct tuple.
const PER_ENCODE: u64 = 24;

fn corpus(authors: usize) -> Document {
    generate_dblp(&DblpConfig {
        authors,
        seed: 0xD8B1,
        ..Default::default()
    })
}

fn dedup_hits() -> u64 {
    obs::global().counter("compress_dedup_hits_total").get()
}

/// Encodes all of `doc`'s `D/` entries; returns their count and bytes.
fn encode(doc: &Document) -> (u64, usize) {
    let (mut entries, mut bytes) = (0u64, 0usize);
    encode_document(doc, |key, value| {
        entries += 1;
        bytes += key.len() + value.len();
        Ok(())
    })
    .unwrap();
    (entries, bytes)
}

#[test]
fn an_encode_allocates_once_per_distinct_tuple() {
    // The first encode registers the counters' handles; count the rest.
    encode(&corpus(1));
    for authors in [40, 300] {
        let doc = corpus(authors);
        let before = dedup_hits();
        let ((entries, bytes), n) = allocations(|| encode(&doc));
        // Tuples are distinct within a record: summed over the chunks.
        let distinct = doc.len() as u64 - 1 - (dedup_hits() - before);
        println!(
            "{authors} authors: {n} allocations for {} nodes, {distinct} distinct tuples, \
             {entries} entries, {bytes} bytes",
            doc.len(),
        );
        assert_eq!(
            entries,
            authors as u64 + 1,
            "D/types and a chunk per record"
        );
        assert!(
            n <= distinct + PER_ENCODE,
            "{authors} authors: {n} allocations for {distinct} distinct tuples \
             ({} nodes)",
            doc.len()
        );
    }
}
