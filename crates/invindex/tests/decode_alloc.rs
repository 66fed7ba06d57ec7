//! Allocation budget of block decoding: a decoded posting allocates only
//! the label its `Dewey` keeps. Decoding rewrites one working buffer in
//! place from each posting's predecessor, so what a block costs beyond
//! its postings is a constant — its output vector, its first label and
//! the working buffer (which may grow a few times as labels deepen). Two
//! allocations per posting — a fresh component vector and then the copy
//! handed to `Dewey::new` — fail this gate.
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

/// Allocations a block may make beyond one per posting.
const PER_BLOCK: u64 = 4;

/// Ten blocks and a partial one: sibling runs, labels that deepen and
/// shallow again inside a block, and node types that change.
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
fn a_decoded_posting_allocates_only_its_label() {
    let list = list();
    let bytes = list.encode_compressed();
    let parsed = CompressedList::parse(&bytes).unwrap();
    assert!(parsed.blocks().len() > 10);

    for (i, meta) in parsed.blocks().iter().enumerate() {
        let (block, n) = allocations(|| parsed.decode_block(i).unwrap());
        assert_eq!(block.len(), meta.count);
        assert!(
            n <= meta.count as u64 + PER_BLOCK,
            "block {i}: {n} allocations for {} postings",
            meta.count
        );
    }

    // The whole list: its vector and run table on top of the blocks'.
    let (decoded, n) = allocations(|| parsed.decode_all().unwrap());
    assert_eq!(decoded, list);
    let blocks = list.len().div_ceil(BLOCK_POSTINGS) as u64;
    let budget = list.len() as u64 + (PER_BLOCK + 2) * blocks;
    assert!(
        n <= budget,
        "{n} allocations for {} postings in {blocks} blocks (budget {budget})",
        list.len()
    );
}
