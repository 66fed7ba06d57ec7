//! The workspace's one synchronisation seam: a mutex that carries its
//! rank, a condition variable that waits on it, and one poison policy.
//!
//! [`Mutex`] is `std::sync::Mutex` built with its [`LockClass`]. `lock()`
//! registers the rank with [`crate::lockrank`] before it blocks and
//! returns a guard owning both the data guard and the rank guard, so in
//! debug builds every acquisition is checked against the hierarchy with
//! nothing said at the call site (the `// xlint::lock(name)` annotation
//! there is for the static rule, which reads source, not types).
//! [`Condvar::wait`] takes and returns that guard; the rank stays held
//! while the thread waits, as the lock is logically held by it.
//!
//! A lock poisoned by a panicking holder is recovered, not propagated.
//! That is sound for every lock declared in
//! [`crate::lockrank::rank`] because each critical section leaves
//! its data valid at every step (an LRU, a memo table, a metric-name
//! map, an epoch pointer swapped with a single store, a queue and its
//! closed flag, a file handle, a maintained index that a commit changes
//! only after its WAL append), and it keeps one crashed request from
//! turning every later request into a panic.
//!
//! Built with `RUSTFLAGS="--cfg xcheck"`, the two types sit on the
//! model checker's `XMutex` and `XCondvar` instead of `std`'s, so
//! `xcheck::explore` interleaves the real code that uses them
//! (DESIGN.md §6c). Every other build is plain `std`. No code outside
//! this file names `std::sync::{Mutex, RwLock, Condvar}` (xlint's
//! `lock-order` rule): a raw lock would be invisible to both checkers.

use crate::lockrank::{self, LockClass, RankGuard};
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

#[cfg(not(xcheck))]
use std::sync::{Condvar as RawCondvar, Mutex as RawMutex, MutexGuard as RawGuard};
#[cfg(xcheck)]
use xcheck::{XCondvar as RawCondvar, XGuard as RawGuard, XMutex as RawMutex};

#[derive(Debug)]
pub struct Mutex<T> {
    class: LockClass,
    inner: RawMutex<T>,
}

/// The data guard and the rank it holds; the rank half is zero-sized in
/// release builds.
pub struct MutexGuard<'a, T> {
    data: RawGuard<'a, T>,
    _rank: RankGuard,
}

impl<T> Mutex<T> {
    pub const fn new(class: LockClass, value: T) -> Self {
        Mutex {
            class,
            inner: RawMutex::new(value),
        }
    }

    /// Blocks until the lock is held. Never fails (see the module
    /// comment for why poison is recovered); in debug builds panics if
    /// this thread already holds a lock whose rank is not below this one.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let _rank = lockrank::acquire(self.class);
        // xlint::allow(lock-order): the forwarding call of every named lock; the name is annotated at each caller's site
        let data = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
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

/// A condition variable over a [`Mutex`]'s guard.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: RawCondvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: RawCondvar::new(),
        }
    }

    /// Releases the guard's lock until notified, then takes it again.
    /// Like `std`'s, the wait may wake spuriously: re-check the
    /// condition in a loop.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { data, _rank } = guard;
        let data = self
            .inner
            .wait(data)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard { data, _rank }
    }

    /// [`wait`](Self::wait) for at most `timeout`. It returns on a
    /// notify, a spurious wake-up or the timeout alike, so the caller
    /// re-checks both its condition and its clock. Under `cfg(xcheck)`
    /// the clock never fires: the model checker explores notifications.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        let MutexGuard { data, _rank } = guard;
        let (data, _) = self
            .inner
            .wait_timeout(data, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard { data, _rank }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::{Condvar, Mutex};
    use crate::lockrank::{self, rank};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

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

    #[test]
    fn wait_timeout_returns_at_its_timeout_or_on_a_notify() {
        let pair = Arc::new((Mutex::new(rank::CACHE_LRU, false), Condvar::new()));
        let (m, cv) = &*pair;
        let t0 = Instant::now();
        let g = cv.wait_timeout(m.lock(), Duration::from_millis(20));
        assert!(!*g && t0.elapsed() >= Duration::from_millis(20));
        drop(g);
        let notifier = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                *pair.0.lock() = true;
                pair.1.notify_one();
            })
        };
        let mut g = m.lock();
        while !*g {
            g = cv.wait_timeout(g, Duration::from_secs(60));
        }
        drop(g);
        notifier.join().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(60));
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
