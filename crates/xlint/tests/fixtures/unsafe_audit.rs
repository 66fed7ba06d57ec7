// xlint-fixture: path=crates/xserve/src/signal.rs
// Clippy requires a `// SAFETY:` comment above every `unsafe` block but
// accepts an empty one; unsafe-audit flags the empty one, test code
// included.

fn stated_on_the_line() {
    // SAFETY: act outlives the syscall; layout matches the x86_64 kernel ABI
    unsafe { raw_syscall() }
}

fn stated_on_the_next_line() {
    // SAFETY:
    // argument registers hold valid pointers for the call
    unsafe { raw_syscall() }
}

fn empty_invariant() {
    // SAFETY:
    unsafe { raw_syscall() }
}

fn mentions_in_prose_only() {
    // this fn discusses SAFETY: comments in prose and a string
    let _doc = "// SAFETY:";
}

#[cfg(test)]
mod tests {
    fn t() {
        // SAFETY:
        unsafe { raw_syscall() }
    }
}
