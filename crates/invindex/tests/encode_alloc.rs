//! Allocation budget of the `D/doc` encoder: a distinct subtree costs one
//! allocation, the key its tuple is looked up by, and nothing else does.
//! A node whose subtree was seen before, a string, an attribute or a
//! child costs none: the string table borrows from the document, and each
//! tuple is formed in one reused scratch buffer. What is left is a
//! constant: the tables and buffers, sized once from the node count, the
//! output, and the few times the scratch buffer (for the widest node) or
//! a payload buffer outgrows its first size.
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

#[test]
fn an_encode_allocates_once_per_distinct_tuple() {
    // The first encode registers the counters' handles; count the rest.
    encode_document(&corpus(1));
    for authors in [40, 300] {
        let doc = corpus(authors);
        let before = dedup_hits();
        let (payload, n) = allocations(|| encode_document(&doc));
        let distinct = doc.len() as u64 - (dedup_hits() - before);
        println!(
            "{authors} authors: {n} allocations for {} nodes, {distinct} distinct tuples, \
             {} payload bytes",
            doc.len(),
            payload.len()
        );
        assert!(
            n <= distinct + PER_ENCODE,
            "{authors} authors: {n} allocations for {distinct} distinct tuples \
             ({} nodes)",
            doc.len()
        );
    }
}
