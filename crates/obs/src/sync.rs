//! The workspace's one mutex and its one poison policy.
//!
//! [`Mutex`] is `std::sync::Mutex` with `lock()` returning the guard
//! directly: a lock poisoned by a panicking holder is recovered, not
//! propagated. That is sound for every lock declared in
//! `crates/xlint/lockorder.toml` because each critical section leaves
//! its data valid at every step (a cache shard, a memo table, an epoch
//! pointer swapped with a single store, a file handle), and it keeps one
//! crashed request from turning every later request into a panic.
//!
//! Code that needs the raw guard — `xserve::queue` parks on a `Condvar`
//! — stays on `std::sync::Mutex`.

use std::sync::MutexGuard;

#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Blocks until the lock is held. Never fails: see the module
    /// comment for why poison is recovered.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // xlint::allow(lock-order): the forwarding call of every named lock; the name and rank are annotated at each caller's site
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;
    use std::sync::Arc;

    #[test]
    fn a_lock_poisoned_by_a_panicking_holder_is_recovered() {
        let m = Arc::new(Mutex::new(1u32));
        let holder = Arc::clone(&m);
        let died = std::thread::spawn(move || {
            let mut g = holder.lock();
            *g = 2;
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(died.is_err());
        assert!(m.0.is_poisoned());
        assert_eq!(*m.lock(), 2);
        *m.lock() = 3;
        assert_eq!(*m.lock(), 3);
    }
}
