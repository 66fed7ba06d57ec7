// xlint-fixture: path=crates/xserve/src/queue.rs
// Outside obs/src/sync.rs, production code in the locking crates may
// not name std's locks: neither checker can see them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

struct Slot {
    table: std::sync::RwLock<Vec<u8>>,
    depth: AtomicUsize,
    shared: Arc<u8>,
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
}
