//! Edge-case batteries for the tree-file store: boundary sizes around
//! the inline/overflow threshold, keys at the length limit,
//! delete-heavy churn, empty keys, and reopen of every state.

use kvstore::{DiskKv, FaultVfs, KvError, KvStore, Vfs, MAX_KEY_LEN, PAGE_SIZE};
use std::path::Path;
use std::sync::Arc;

const PATH: &str = "edge.db";

fn fresh() -> (Arc<dyn Vfs>, DiskKv) {
    let vfs = FaultVfs::new().as_dyn();
    let store = DiskKv::open_with_vfs(&vfs, Path::new(PATH)).unwrap();
    (vfs, store)
}

/// Syncs `store` and returns a fresh handle on the file it wrote, which
/// must read exactly what `store` reads.
fn synced_reopen(vfs: &Arc<dyn Vfs>, store: &mut DiskKv) -> DiskKv {
    store.sync().unwrap();
    let reopened = DiskKv::open_with_vfs(vfs, Path::new(PATH)).unwrap();
    assert_eq!(
        reopened.scan_range(b"", None).unwrap(),
        store.scan_range(b"", None).unwrap()
    );
    assert_eq!(reopened.len(), store.len());
    assert!(reopened.verify_pages().unwrap().is_clean());
    reopened
}

#[test]
fn values_around_the_inline_overflow_boundary() {
    let (vfs, mut t) = fresh();
    // MAX_INLINE_ENTRY is 1024 internally: sweep sizes around it
    let sizes = [
        0usize,
        1,
        900,
        1000,
        1017,
        1018,
        1019,
        1024,
        1025,
        2048,
        PAGE_SIZE,
        PAGE_SIZE + 1,
    ];
    for size in sizes {
        let key = format!("size-{size}");
        let value = vec![0xA5u8; size];
        t.put(key.as_bytes(), &value).unwrap();
        assert_eq!(
            t.get(key.as_bytes()).unwrap().unwrap(),
            value,
            "size {size}"
        );
    }
    let reopened = synced_reopen(&vfs, &mut t);
    for size in sizes {
        let got = reopened.get(format!("size-{size}").as_bytes()).unwrap();
        assert_eq!(got.unwrap(), vec![0xA5u8; size], "size {size} after reopen");
    }
    // overwrite across the boundary in both directions, each state
    // written to the file in turn
    for value in [vec![1u8; 10], vec![2u8; 5000], vec![3u8; 10]] {
        t.put(b"flip", &value).unwrap();
        assert_eq!(t.get(b"flip").unwrap().unwrap(), value);
        let reopened = synced_reopen(&vfs, &mut t);
        assert_eq!(reopened.get(b"flip").unwrap().unwrap(), value);
    }
}

#[test]
fn keys_at_max_key_len_fill_branch_levels() {
    let (vfs, mut t) = fresh();
    // Separators of MAX_KEY_LEN bytes: five to a branch page, so a few
    // hundred keys need more than one branch level.
    let key = |i: u32| {
        let mut k = format!("{i:06}").into_bytes();
        k.resize(MAX_KEY_LEN, b'k');
        k
    };
    for i in 0..300u32 {
        t.put(&key(i), &i.to_le_bytes()).unwrap();
    }
    assert!(matches!(
        t.put(&vec![b'k'; MAX_KEY_LEN + 1], b"v"),
        Err(KvError::KeyTooLarge(n)) if n == MAX_KEY_LEN + 1
    ));
    let reopened = synced_reopen(&vfs, &mut t);
    assert_eq!(reopened.len(), 300);
    for i in (0..300u32).step_by(7) {
        assert_eq!(reopened.get(&key(i)).unwrap().unwrap(), i.to_le_bytes());
    }
    assert_eq!(reopened.scan_prefix(b"0001").unwrap().len(), 100);
}

#[test]
fn empty_key_and_empty_value() {
    let (vfs, mut t) = fresh();
    t.put(b"", b"empty-key").unwrap();
    t.put(b"empty-value", b"").unwrap();
    assert_eq!(t.get(b"").unwrap().unwrap(), b"empty-key");
    assert_eq!(t.get(b"empty-value").unwrap().unwrap(), b"");
    let mut reopened = synced_reopen(&vfs, &mut t);
    assert_eq!(reopened.get(b"").unwrap().unwrap(), b"empty-key");
    assert_eq!(reopened.get(b"empty-value").unwrap().unwrap(), b"");
    assert!(reopened.delete(b"").unwrap());
    assert_eq!(reopened.get(b"").unwrap(), None);
    let reopened = synced_reopen(&vfs, &mut reopened);
    assert_eq!(reopened.get(b"").unwrap(), None);
    assert_eq!(reopened.len(), 1);
}

#[test]
fn churn_insert_delete_reinsert() {
    let (vfs, mut t) = fresh();
    let n = 2000u32;
    for i in 0..n {
        t.put(format!("k{i:06}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    let mut t = synced_reopen(&vfs, &mut t);
    // delete every other key
    for i in (0..n).step_by(2) {
        assert!(t.delete(format!("k{i:06}").as_bytes()).unwrap());
    }
    assert_eq!(t.len(), (n / 2) as u64);
    let mut t = synced_reopen(&vfs, &mut t);
    assert_eq!(t.len(), (n / 2) as u64);
    // reinsert deleted keys with new values
    for i in (0..n).step_by(2) {
        t.put(format!("k{i:06}").as_bytes(), &(i + 1).to_le_bytes())
            .unwrap();
    }
    assert_eq!(t.len(), n as u64);
    let t = synced_reopen(&vfs, &mut t);
    for i in 0..n {
        let expect = if i % 2 == 0 { i + 1 } else { i };
        assert_eq!(
            t.get(format!("k{i:06}").as_bytes()).unwrap().unwrap(),
            expect.to_le_bytes()
        );
    }
    // full scan still ordered and complete
    let all = t.scan_range(b"", None).unwrap();
    assert_eq!(all.len(), n as usize);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn long_shared_prefix_keys() {
    let (vfs, mut t) = fresh();
    let prefix = "x".repeat(500);
    for i in 0..200u32 {
        t.put(format!("{prefix}{i:04}").as_bytes(), b"v").unwrap();
    }
    let t = synced_reopen(&vfs, &mut t);
    assert_eq!(t.scan_prefix(prefix.as_bytes()).unwrap().len(), 200);
    // "…01xx" matches exactly 0100..=0199
    assert_eq!(
        t.scan_prefix(format!("{prefix}01").as_bytes())
            .unwrap()
            .len(),
        100
    );
}
