// xlint-fixture: path=crates/kvstore/src/wal.rs
#![cfg_attr(not(test), deny(clippy::panic))]
// Pragma behaviour: a justified pragma suppresses the next line, a bare
// pragma is itself a finding and suppresses nothing, an unknown rule
// name is a finding, and a pragma for the wrong rule leaves the real
// finding live. A rule that no longer exists is an unknown rule.

fn suppressed(fits: bool) {
    // xlint::allow(no-panic-paths): an overflowing node must abort the writer, not truncate on disk
    assert!(fits);
}

fn bare_pragma(fits: bool) {
    // xlint::allow(no-panic-paths)
    assert!(fits);
}

fn unknown_rule(fits: bool) {
    // xlint::allow(no-such-rule): misspelled rule names must not silently suppress
    assert!(fits);
}

fn wrong_rule(fits: bool) {
    // xlint::allow(lock-order): suppressing an unrelated rule leaves the finding live
    assert!(fits);
}

fn same_line(fits: bool) {
    assert!(fits); // xlint::allow(no-panic-paths): the caller sized the node first
}

fn deleted_rule(fits: bool) {
    // xlint::allow(durability-protocol): Vfs::replace syncs the directory itself
    assert!(fits);
}
