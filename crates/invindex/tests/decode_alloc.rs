//! Allocation budget of block decoding: a decoded posting allocates
//! nothing. Decoding rewrites one working buffer in place from each
//! posting's predecessor and builds each label from it with
//! `Dewey::from_slice`, which keeps a label of up to seven components
//! inline, so what a block costs is a constant — its output vector and
//! the working buffer (which may grow as labels deepen) — however many
//! postings it holds. A label longer than seven components spills to the
//! heap, so a block of those is allowed one allocation per posting on top.
//!
//! The test owns this binary: the counting allocator is process-wide, so
//! it counts only the thread that asks for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use invindex::{CompressedList, Posting, PostingList, BLOCK_POSTINGS};
use xmldom::{Dewey, NodeTypeId};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting the allocations of a thread that asked for it.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        // SAFETY: as for `alloc` and `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.set(0);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, ALLOCATIONS.get())
}

/// Allocations a block may make, whatever its posting count.
const PER_BLOCK: u64 = 3;

/// Ten blocks and a partial one: sibling runs, labels that deepen and
/// shallow again inside a block (four to six components), and node
/// types that change.
fn list() -> PostingList {
    let mut postings = Vec::new();
    for chapter in 0..15u32 {
        for section in 0..9u32 {
            for para in 0..5u32 {
                let mut label = vec![0, chapter, section, para];
                label.resize(4 + (para % 3) as usize, 1);
                postings.push(Posting::new(
                    Dewey::new(label).unwrap(),
                    NodeTypeId(para % 2),
                ));
            }
        }
    }
    PostingList::from_sorted(postings)
}

#[test]
fn a_decoded_posting_allocates_nothing() {
    let list = list();
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

    // The whole list: its vector and run table on top of the blocks'.
    let (decoded, n) = allocations(|| parsed.decode_all().unwrap());
    assert_eq!(decoded, list);
    let blocks = list.len().div_ceil(BLOCK_POSTINGS) as u64;
    let budget = (PER_BLOCK + 2) * blocks;
    assert!(
        n <= budget,
        "{n} allocations for {} postings in {blocks} blocks (budget {budget})",
        list.len()
    );
}

#[test]
fn a_label_longer_than_seven_components_allocates_once() {
    // One full block of labels eight to twelve components long.
    let postings: Vec<Posting> = (0..BLOCK_POSTINGS as u32)
        .map(|i| {
            let mut label = vec![0, i / 8, i % 8, 1, 2, 3, 4];
            label.extend(std::iter::repeat_n(i % 5, 1 + (i % 5) as usize));
            Posting::new(Dewey::new(label).unwrap(), NodeTypeId(0))
        })
        .collect();
    let list = PostingList::from_sorted(postings);
    let bytes = list.encode_compressed();
    let parsed = CompressedList::parse(&bytes).unwrap();
    assert_eq!(parsed.blocks().len(), 1);

    let (block, n) = allocations(|| parsed.decode_block(0).unwrap());
    assert_eq!(block, list.as_slice());
    let count = block.len() as u64;
    assert!(
        n <= count + PER_BLOCK,
        "{n} allocations for {count} postings with long labels"
    );
}
