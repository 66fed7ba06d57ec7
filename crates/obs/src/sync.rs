//! The workspace's one mutex: the lock carries its rank, and there is
//! one poison policy.
//!
//! [`Mutex`] is `std::sync::Mutex` built with its [`LockClass`]. `lock()`
//! registers the rank with [`crate::lockrank`] before it blocks and
//! returns a guard owning both the data guard and the rank guard, so in
//! debug builds every acquisition is checked against the hierarchy with
//! nothing said at the call site (the `// xlint::lock(name)` annotation
//! there is for the static rule, which reads source, not types).
//!
//! A lock poisoned by a panicking holder is recovered, not propagated.
//! That is sound for every lock declared in
//! [`crate::lockrank::rank`] because each critical section leaves
//! its data valid at every step (an LRU, a memo table, a metric-name
//! map, an epoch pointer swapped with a single store, a file handle),
//! and it keeps one crashed request from turning every later request
//! into a panic.
//!
//! Code that needs the raw guard — `xserve::queue` parks on a `Condvar`
//! — stays on `std::sync::Mutex` and calls `lockrank::acquire` itself.

use crate::lockrank::{self, LockClass, RankGuard};
use std::ops::{Deref, DerefMut};

#[derive(Debug)]
pub struct Mutex<T> {
    class: LockClass,
    inner: std::sync::Mutex<T>,
}

/// The data guard and the rank it holds; the rank half is zero-sized in
/// release builds.
pub struct MutexGuard<'a, T> {
    data: std::sync::MutexGuard<'a, T>,
    _rank: RankGuard,
}

impl<T> Mutex<T> {
    pub const fn new(class: LockClass, value: T) -> Self {
        Mutex {
            class,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Blocks until the lock is held. Never fails (see the module
    /// comment for why poison is recovered); in debug builds panics if
    /// this thread already holds a lock whose rank is not below this one.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let _rank = lockrank::acquire(self.class);
        // xlint::allow(lock-order): the forwarding call of every named lock; the name is annotated at each caller's site
        let data = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard { data, _rank }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.data
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;
    use crate::lockrank::{self, rank};
    use std::sync::Arc;

    #[test]
    fn a_lock_poisoned_by_a_panicking_holder_is_recovered() {
        let m = Arc::new(Mutex::new(rank::CACHE_LRU, 1u32));
        let holder = Arc::clone(&m);
        let died = std::thread::spawn(move || {
            let mut g = holder.lock();
            *g = 2;
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(died.is_err());
        assert!(m.inner.is_poisoned());
        assert_eq!(*m.lock(), 2);
        *m.lock() = 3;
        assert_eq!(*m.lock(), 3);
    }

    #[test]
    fn the_guard_holds_its_rank_exactly_as_long_as_the_lock() {
        let outer = Mutex::new(rank::ENGINE_EPOCH, ());
        let inner = Mutex::new(rank::CACHE_LRU, ());
        let a = outer.lock();
        let b = inner.lock();
        if cfg!(debug_assertions) {
            assert_eq!(lockrank::held_ranks(), vec![11, 20]);
        }
        drop(b);
        drop(a);
        assert!(lockrank::held_ranks().is_empty());
    }

    /// No `acquire` at the site: the inversion is caught by `lock()`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-rank violation: acquiring `engine.epoch`")]
    fn inverted_nesting_of_two_mutexes_panics_in_debug() {
        let cache = Mutex::new(rank::CACHE_LRU, ());
        let epoch = Mutex::new(rank::ENGINE_EPOCH, ());
        let _cache = cache.lock();
        let _epoch = epoch.lock();
    }
}
