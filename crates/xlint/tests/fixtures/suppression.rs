// xlint-fixture: path=crates/kvstore/src/wal.rs
// Pragma behaviour: a justified pragma suppresses the next line, a bare
// pragma is itself a finding and suppresses nothing, an unknown rule
// name is a finding, and a pragma for the wrong rule leaves the real
// finding live.

fn suppressed(buf: &[u8], i: usize) -> u8 {
    // xlint::allow(no-panic-paths): index proven in bounds by the caller's length check
    buf[i]
}

fn bare_pragma(buf: &[u8], i: usize) -> u8 {
    // xlint::allow(no-panic-paths)
    buf[i]
}

fn unknown_rule(buf: &[u8], i: usize) -> u8 {
    // xlint::allow(no-such-rule): misspelled rule names must not silently suppress
    buf[i]
}

fn wrong_rule(buf: &[u8], i: usize) -> u8 {
    // xlint::allow(lock-order): suppressing an unrelated rule leaves the finding live
    buf[i]
}

fn same_line(buf: &[u8], i: usize) -> u8 {
    buf[i] // xlint::allow(no-panic-paths): bounds established by the binary-search above
}
