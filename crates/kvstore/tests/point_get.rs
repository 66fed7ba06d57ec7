//! Allocation budget of a point lookup: `BTree::get` searches its pages in
//! place, so what it allocates is one buffer per page read and the value
//! it returns — never a copy of each key or value of the nodes it passes
//! through. The bound is checked on trees whose leaves hold a few
//! entries, a few hundred, and values in overflow chains, for hits and
//! misses, and for `contains`.
//!
//! The test owns this binary: the counting allocator is process-wide, so
//! it counts only the thread that asks for it, and the page-read counter
//! is process-global, so there is one test.

use std::path::Path;

use kvstore::{BTree, DiskKv, FaultVfs, FilePager, KvStore};
use xcheck::alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` costs on this thread: (allocations, pages read).
fn cost<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let reads = obs::global().counter("kvstore_pager_page_reads_total");
    let before = reads.get();
    let (out, allocated) = allocations(f);
    (out, allocated, reads.get() - before)
}

/// The tree file holding `entries`, open for reading.
fn tree(entries: &[(Vec<u8>, Vec<u8>)]) -> BTree {
    let vfs = FaultVfs::new().as_dyn();
    let path = Path::new("point_get.db");
    let mut kv = DiskKv::open_with_vfs(&vfs, path).unwrap();
    for (k, v) in entries {
        kv.put(k, v).unwrap();
    }
    kv.sync().unwrap();
    drop(kv);
    BTree::open(FilePager::open_read_only(&vfs, path).unwrap()).unwrap()
}

#[test]
fn a_get_allocates_one_buffer_per_page_read_and_its_value() {
    // (label, entries, value length): a few hundred entries a leaf, a
    // dozen, and values past the inline limit.
    let shapes: [(&str, u32, usize); 3] = [
        ("tiny values", 20_000, 1),
        ("inline values", 2_000, 300),
        ("overflow values", 40, 3 * 4096 + 5),
    ];
    for (shape, n, value_len) in shapes {
        let entries: Vec<_> = (0..n)
            .map(|i| {
                let key = format!("key/{i:08}").into_bytes();
                let value = vec![(i % 251) as u8; value_len];
                (key, value)
            })
            .collect();
        let t = tree(&entries);
        // Warm the one-time registrations (metric handles, the lock-rank
        // table) outside the counted calls.
        t.get(&entries[0].0).unwrap();
        t.contains(&entries[0].0).unwrap();

        for (k, v) in entries.iter().step_by((n / 37).max(1) as usize) {
            let (got, allocations, pages) = cost(|| t.get(k).unwrap());
            assert_eq!(got.as_ref(), Some(v), "{shape}");
            assert!(
                pages >= 2,
                "{shape}: a hit reads the root and one more page"
            );
            assert!(
                allocations <= pages + 1,
                "{shape}: {allocations} allocations for a hit reading {pages} pages"
            );

            let (found, allocations, pages) = cost(|| t.contains(k).unwrap());
            assert!(found, "{shape}");
            assert!(
                allocations <= pages,
                "{shape}: contains made {allocations} allocations over {pages} pages"
            );
        }

        let mut absent = entries[n as usize / 2].0.clone();
        absent.push(b'!');
        let (got, allocations, pages) = cost(|| t.get(&absent).unwrap());
        assert_eq!(got, None, "{shape}");
        assert!(
            allocations <= pages,
            "{shape}: a miss made {allocations} allocations over {pages} pages"
        );
    }
}
