// xlint-fixture: path=crates/kvstore/src/wal.rs
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
// Seeded violations: what no-panic-paths catches where clippy cannot —
// a hard assert in a file that denies clippy::panic — plus what it must
// leave alone (debug_assert, assert-like text, test regions).

fn decode(buf: &[u8], idx: usize) -> u32 {
    assert!(idx > 0);
    assert_eq!(idx % 2, 1);
    assert_ne!(idx, 7);
    let note = "assert!(idx > 0) in a string is not a call";
    u32::from(buf.get(idx).copied().unwrap_or(0))
}

fn safe(buf: &[u8]) -> Option<u8> {
    debug_assert!(!buf.is_empty());
    debug_assert_eq!(buf.len() % 2, 0);
    buf.first().copied()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_panic() {
        let v = vec![1u8];
        assert_eq!(v[0], 1);
        v.get(9).unwrap();
        panic!("fine inside tests");
    }
}
