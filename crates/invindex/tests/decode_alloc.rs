//! Allocation budget of block decoding: a decoded posting allocates
//! nothing. The decoder rewrites the current label in place from each
//! posting's predecessor in an array of `Dewey`'s inline width of seven
//! components on the stack, and builds each label from it with one
//! fixed-size copy, so what a decode costs is a constant however many
//! postings it covers. A standalone block decode makes its output vector
//! and nothing else. A whole-list decode makes the postings vector once
//! — not once per block. A label longer than seven components is built
//! in a heap buffer that the label keeps, so a list of those is allowed
//! one allocation per posting on top.
//!
//! The test owns this binary: the counting allocator is process-wide, so
//! it counts only the thread that asks for it.

use invindex::{CompressedList, Posting, PostingList, BLOCK_POSTINGS};
use xcheck::alloc::{allocations, Counting};
use xmldom::{Dewey, NodeTypeId};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations a standalone block decode may make, whatever its posting
/// count: its output vector. It builds no run table.
const PER_BLOCK: u64 = 1;

/// Allocations a whole-list decode may make, whatever its block count:
/// the postings vector, with room for two more.
const PER_LIST: u64 = 3;

/// `blocks` full blocks and a partial one: sibling runs, labels that
/// deepen and shallow again inside a block (four to six components),
/// node types that change, and a new partition every 45 postings.
fn list(blocks: usize) -> PostingList {
    let postings = (0u32..)
        .map(|i| {
            let (chapter, section, para) = (i / 45, i / 5 % 9, i % 5);
            let mut label = vec![0, chapter, section, para];
            label.resize(4 + (para % 3) as usize, 1);
            Posting::new(Dewey::new(label).unwrap(), NodeTypeId(para % 2))
        })
        .take(blocks * BLOCK_POSTINGS + BLOCK_POSTINGS / 2)
        .collect();
    PostingList::from_sorted(postings)
}

#[test]
fn a_decoded_posting_allocates_nothing() {
    let list = list(10);
    let bytes = list.encode_compressed();
    let parsed = CompressedList::parse(&bytes).unwrap();
    assert!(parsed.blocks().len() > 10);

    for (i, meta) in parsed.blocks().iter().enumerate() {
        let (block, n) = allocations(|| parsed.decode_block(i).unwrap());
        assert_eq!(block.len(), meta.count);
        assert!(
            n <= PER_BLOCK,
            "block {i}: {n} allocations for {} postings",
            meta.count
        );
    }
}

#[test]
fn a_decoded_list_allocates_a_constant_whatever_its_block_count() {
    for blocks in [0, 1, 3, 10, 40] {
        let list = list(blocks);
        let bytes = list.encode_compressed();
        let parsed = CompressedList::parse(&bytes).unwrap();
        assert_eq!(parsed.blocks().len(), blocks + 1);
        let (decoded, n) = allocations(|| parsed.decode_all().unwrap());
        assert_eq!(decoded, list);
        println!("{} blocks: {n} allocations", blocks + 1);
        assert!(
            n <= PER_LIST,
            "{n} allocations for {} postings in {} blocks",
            list.len(),
            blocks + 1
        );
    }
}

/// `blocks` full blocks of labels eight to twelve components long.
fn long_labels(blocks: usize) -> PostingList {
    let postings: Vec<Posting> = (0..(blocks * BLOCK_POSTINGS) as u32)
        .map(|i| {
            let mut label = vec![0, i / 8, i % 8, 1, 2, 3, 4];
            label.extend(std::iter::repeat_n(i % 5, 1 + (i % 5) as usize));
            Posting::new(Dewey::new(label).unwrap(), NodeTypeId(0))
        })
        .collect();
    PostingList::from_sorted(postings)
}

#[test]
fn a_label_longer_than_seven_components_allocates_once() {
    let list = long_labels(1);
    let bytes = list.encode_compressed();
    let parsed = CompressedList::parse(&bytes).unwrap();
    assert_eq!(parsed.blocks().len(), 1);
    let (block, n) = allocations(|| parsed.decode_block(0).unwrap());
    assert_eq!(block, list.as_slice());
    let count = block.len() as u64;
    println!("one block: {n} allocations for {count} long labels");
    assert!(
        n <= count + PER_BLOCK,
        "{n} allocations for {count} postings with long labels"
    );

    let list = long_labels(5);
    let bytes = list.encode_compressed();
    let parsed = CompressedList::parse(&bytes).unwrap();
    let (decoded, n) = allocations(|| parsed.decode_all().unwrap());
    assert_eq!(decoded, list);
    let count = list.len() as u64;
    println!("five blocks: {n} allocations for {count} long labels");
    assert!(
        n <= count + PER_LIST,
        "{n} allocations for {count} postings with long labels"
    );
}
