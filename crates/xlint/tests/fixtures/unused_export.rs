// xlint-fixture: path=crates/demo/src/lib.rs
// An export stays only while production code names it. Own tests, the
// item's own body and impl blocks, `pub use` lines and other dead items
// do not count; an allowed oracle does, with everything it calls.

pub use self::cursor::BlockCursor;

pub struct ListCursor {
    pos: usize,
}

impl ListCursor {
    pub fn new() -> ListCursor {
        ListCursor { pos: 0 }
    }

    pub fn advance(&mut self) {
        self.pos += 1;
    }

    pub fn position(&self) -> usize {
        self.pos
    }
}

pub fn scan() -> usize {
    let mut c = ListCursor::new();
    c.advance();
    c.pos
}

fn main() {
    scan();
    threshold(LIMIT);
}

pub struct BlockCursor {
    block: usize,
}

impl BlockCursor {
    pub fn new() -> BlockCursor {
        BlockCursor { block: block_at_or_after() }
    }

    pub fn seek(&mut self) {
        self.block = block_at_or_after();
    }
}

pub(crate) fn block_at_or_after() -> usize {
    0
}

pub const LIMIT: usize = 64;
pub const UNUSED_LIMIT: usize = 128;

pub(crate) fn threshold(n: usize) -> usize {
    n
}

// xlint::allow(unused-export): brute-force oracle the property tests compare against
pub fn scan_brute_force() -> usize {
    oracle_step()
}

pub(crate) fn oracle_step() -> usize {
    0
}

// xlint::allow(unused-export)
pub fn bare_pragma_keeps_nothing() {}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn test_helpers_are_not_exports() {}

    #[test]
    fn tests_do_not_keep_an_export_alive() {
        let mut c = BlockCursor::new();
        c.seek();
        assert_eq!(ListCursor::new().position(), 0);
        assert_eq!(UNUSED_LIMIT, 128);
        bare_pragma_keeps_nothing();
    }
}
