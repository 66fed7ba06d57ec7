//! Instrumented synchronization shims, with `std`'s signatures.
//!
//! Under exploration (a checker context installed by [`crate::sched`]),
//! every lock acquisition is a scheduling yield point, and lock
//! contention and condition waits park the thread in the scheduler.
//! Outside exploration — in `setup()`, in invariants, or in any run
//! without a checker — they are ordinary `Mutex` and `Condvar`.
//! [`XMutex`] and [`XCondvar`] return `LockResult`s as `std` does, so
//! `obs::sync` can build on either type with the same code.
//!
//! A lock or condition variable is known to the scheduler by its
//! address: two live objects never share one, and the scheduler's
//! tables live for one schedule, in which the object does not move
//! while it is borrowed.

use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::sched::with_ctx;

/// A mutex whose acquisition is a scheduling point and whose contention
/// is visible to the deadlock detector.
#[derive(Debug)]
pub struct XMutex<T> {
    inner: Mutex<T>,
}

impl<T> XMutex<T> {
    pub const fn new(value: T) -> Self {
        XMutex {
            inner: Mutex::new(value),
        }
    }

    fn id(&self) -> usize {
        self as *const Self as usize
    }

    pub fn lock(&self) -> LockResult<XGuard<'_, T>> {
        let instrumented = with_ctx(|ctx| loop {
            ctx.yield_now();
            if ctx.try_acquire(self.id()) {
                break;
            }
            ctx.block_on(self.id());
        })
        .is_some();
        // Under exploration the scheduler has granted exclusive
        // ownership, so the std lock below is uncontended; threads are
        // unwound on abort only while parked in the scheduler, never
        // while holding it.
        let (guard, poisoned) = match self.inner.lock() {
            Ok(guard) => (guard, false),
            Err(e) => (e.into_inner(), true),
        };
        let guard = XGuard {
            mutex: self,
            instrumented,
            guard: Some(guard),
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

/// RAII guard for [`XMutex`]; releasing it wakes parked threads.
pub struct XGuard<'a, T> {
    mutex: &'a XMutex<T>,
    instrumented: bool,
    guard: Option<MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for XGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard taken")
    }
}

impl<T> std::ops::DerefMut for XGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard taken")
    }
}

impl<T> Drop for XGuard<'_, T> {
    fn drop(&mut self) {
        if self.guard.take().is_some() && self.instrumented {
            with_ctx(|ctx| ctx.release(self.mutex.id()));
        }
    }
}

/// A condition variable whose waiters park in the scheduler. A notify
/// is not a scheduling point (it runs under the lock the waiter needs);
/// `notify_one` wakes the lowest-numbered waiting thread, and waits
/// never wake spuriously.
#[derive(Debug, Default)]
pub struct XCondvar {
    inner: Condvar,
}

impl XCondvar {
    pub const fn new() -> Self {
        XCondvar {
            inner: Condvar::new(),
        }
    }

    fn id(&self) -> usize {
        self as *const Self as usize
    }

    /// Releases `guard`'s lock, waits for a notify, and takes the lock
    /// again.
    pub fn wait<'a, T>(&self, mut guard: XGuard<'a, T>) -> LockResult<XGuard<'a, T>> {
        if !guard.instrumented {
            let data = guard.guard.take().expect("guard taken");
            let (data, poisoned) = match self.inner.wait(data) {
                Ok(data) => (data, false),
                Err(e) => (e.into_inner(), true),
            };
            guard.guard = Some(data);
            return if poisoned {
                Err(PoisonError::new(guard))
            } else {
                Ok(guard)
            };
        }
        // Holding the token, nobody runs between the release and the
        // park, so the pair is atomic as the std wait's is.
        let mutex = guard.mutex;
        drop(guard);
        with_ctx(|ctx| ctx.block_on(self.id()));
        mutex.lock()
    }

    /// [`wait`](Self::wait) for at most `timeout`; the flag is `std`'s
    /// `timed_out()`. Under exploration the clock never fires: the wait
    /// ends only on a notify, so the checker explores notifications and
    /// a waiter left without one shows as a deadlock.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: XGuard<'a, T>,
        timeout: Duration,
    ) -> LockResult<(XGuard<'a, T>, bool)> {
        if guard.instrumented {
            return match self.wait(guard) {
                Ok(guard) => Ok((guard, false)),
                Err(e) => Err(PoisonError::new((e.into_inner(), false))),
            };
        }
        let data = guard.guard.take().expect("guard taken");
        let (data, timed_out, poisoned) = match self.inner.wait_timeout(data, timeout) {
            Ok((data, r)) => (data, r.timed_out(), false),
            Err(e) => {
                let (data, r) = e.into_inner();
                (data, r.timed_out(), true)
            }
        };
        guard.guard = Some(data);
        if poisoned {
            Err(PoisonError::new((guard, timed_out)))
        } else {
            Ok((guard, timed_out))
        }
    }

    pub fn notify_one(&self) {
        if with_ctx(|ctx| ctx.wake(self.id(), false)).is_none() {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if with_ctx(|ctx| ctx.wake(self.id(), true)).is_none() {
            self.inner.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shims_work_without_a_checker_context() {
        static M: XMutex<u64> = XMutex::new(7);
        {
            let mut g = M.lock().unwrap();
            *g += 1;
        }
        assert_eq!(*M.lock().unwrap(), 8);
    }

    #[test]
    fn condvar_wakes_a_waiter_without_a_checker_context() {
        let pair = Arc::new((XMutex::new(false), XCondvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (m, cv) = &*pair;
                let mut ready = m.lock().unwrap();
                while !*ready {
                    ready = cv.wait(ready).unwrap();
                }
            })
        };
        *pair.0.lock().unwrap() = true;
        pair.1.notify_all();
        waiter.join().unwrap();
    }

    #[test]
    fn wait_timeout_times_out_without_a_checker_context() {
        let (m, cv) = (XMutex::new(()), XCondvar::new());
        let (_g, timed_out) = cv
            .wait_timeout(m.lock().unwrap(), Duration::from_millis(5))
            .unwrap();
        assert!(timed_out);
    }

    struct Flag {
        set: XMutex<bool>,
        cv: XCondvar,
    }

    fn flag() -> Flag {
        Flag {
            set: XMutex::new(false),
            cv: XCondvar::new(),
        }
    }

    /// Waits with a zero timeout: outside a model this would spin.
    fn wait_for_flag(f: &Flag) {
        let mut set = f.set.lock().unwrap();
        while !*set {
            set = f.cv.wait_timeout(set, Duration::ZERO).unwrap().0;
        }
    }

    fn raise_flag(f: &Flag) {
        *f.set.lock().unwrap() = true;
        f.cv.notify_one();
    }

    #[test]
    fn in_a_model_the_clock_never_fires() {
        let alone = crate::explore(
            &crate::Config::default(),
            flag,
            &[wait_for_flag],
            |_| Ok(()),
        );
        let v = alone.violation.expect("nobody notifies the waiter");
        assert_eq!(v.kind, crate::Kind::Deadlock);

        let out = crate::explore(
            &crate::Config::default(),
            flag,
            &[wait_for_flag, raise_flag],
            |f| match *f.set.lock().unwrap() {
                true => Ok(()),
                false => Err("flag not raised".to_string()),
            },
        );
        assert!(out.passed(), "violation: {:?}", out.violation);
        assert!(out.schedules > 1);
    }
}
