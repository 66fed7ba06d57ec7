//! Admission control for `/query`: a counting semaphore with a bounded
//! waiting room.
//!
//! A [`Gate`] lets at most `slots` queries execute at once and at most
//! `waiters` more wait for a slot; [`Gate::enter`] refuses the rest at
//! once ([`Refused::Full`], a `503` upstream) and gives up on a waiter
//! whose timeout expires first ([`Refused::TimedOut`], a `504`). A
//! [`Permit`] is the slot: the connection thread that entered runs its
//! query while it holds one, and dropping it — on return or while a
//! panic unwinds — frees the slot and wakes one waiter. Nothing is
//! handed between threads, so there is nothing to close at drain: every
//! admitted query runs on a connection thread that drain waits for.
//!
//! Whichever thread finds a slot free takes it, a waiter or a newcomer,
//! so a free slot never sits idle while a query wants it. A woken
//! waiter that finds the slot taken again waits again; the holder wakes
//! one more on its way out.
//!
//! The lock and condition variable are `obs::sync`'s: the lock is
//! rank-checked (`serve.admission`), a lock poisoned by a panicking
//! holder is recovered (the state is two counters, valid after any
//! step), and under `cfg(xcheck)` the model checker explores this code
//! as it ships (DESIGN.md §6c, `tests/xcheck_admission.rs`). There the
//! clock never fires: a waiter leaves its wait only when notified.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::time::{Duration, Instant};

use obs::lockrank::rank;
use obs::sync::{Condvar, Mutex};

/// Why [`Gate::enter`] turned a query away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// Every slot busy and the waiting room full: shed the query.
    Full,
    /// The query waited its whole timeout without getting a slot.
    TimedOut,
}

struct State {
    running: usize,
    waiting: usize,
}

/// At most `slots` holders at once, at most `waiters` waiting for a slot.
pub struct Gate {
    state: Mutex<State>,
    freed: Condvar,
    slots: usize,
    waiters: usize,
}

/// One slot of a [`Gate`], given back when dropped.
pub struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    pub fn new(slots: usize, waiters: usize) -> Gate {
        Gate {
            state: Mutex::new(
                rank::SERVE_ADMISSION,
                State {
                    running: 0,
                    waiting: 0,
                },
            ),
            freed: Condvar::new(),
            slots,
            waiters,
        }
    }

    /// Takes a free slot, or waits up to `timeout` for one if the
    /// waiting room has space; refuses without blocking otherwise.
    pub fn enter(&self, timeout: Duration) -> Result<Permit<'_>, Refused> {
        let mut state = self.state.lock(); // xlint::lock(serve.admission)
        if state.running < self.slots {
            state.running += 1;
            return Ok(Permit { gate: self });
        }
        if state.waiting >= self.waiters {
            return Err(Refused::Full);
        }
        state.waiting += 1;
        let since = Instant::now();
        loop {
            // The slot before the clock: a waiter woken by a release
            // takes the slot even if its timeout ran out meanwhile.
            if state.running < self.slots {
                state.waiting -= 1;
                state.running += 1;
                return Ok(Permit { gate: self });
            }
            let left = timeout.saturating_sub(since.elapsed());
            if left.is_zero() {
                state.waiting -= 1;
                return Err(Refused::TimedOut);
            }
            state = self.freed.wait_timeout(state, left);
        }
    }

    /// Queries waiting for a slot now.
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting // xlint::lock(serve.admission)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock(); // xlint::lock(serve.admission)
        state.running -= 1;
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn slots_then_waiters_then_refusal() {
        let gate = Gate::new(2, 0);
        let a = gate.enter(LONG).unwrap();
        let _b = gate.enter(LONG).unwrap();
        // No waiting room: the third is shed at once, not after LONG.
        let t0 = Instant::now();
        assert_eq!(gate.enter(LONG).err(), Some(Refused::Full));
        assert!(t0.elapsed() < LONG / 10);
        drop(a);
        assert!(gate.enter(LONG).is_ok());
    }

    #[test]
    fn a_waiter_gets_the_slot_its_holder_frees() {
        let gate = Arc::new(Gate::new(1, 1));
        let held = gate.enter(LONG).unwrap();
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.enter(LONG).map(drop))
        };
        while gate.waiting() == 0 {
            thread::yield_now();
        }
        // The one place in the waiting room is taken.
        assert_eq!(gate.enter(LONG).err(), Some(Refused::Full));
        drop(held);
        assert_eq!(waiter.join().unwrap(), Ok(()));
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn a_waiter_gives_up_at_its_timeout() {
        let gate = Gate::new(1, 4);
        let _held = gate.enter(LONG).unwrap();
        let t0 = Instant::now();
        assert_eq!(
            gate.enter(Duration::from_millis(50)).err(),
            Some(Refused::TimedOut)
        );
        assert!(t0.elapsed() >= Duration::from_millis(50));
        assert_eq!(gate.waiting(), 0, "the timed-out waiter left the room");
    }

    #[test]
    fn a_panicking_holder_frees_its_slot() {
        let gate = Arc::new(Gate::new(1, 0));
        let died = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                let _permit = gate.enter(LONG).unwrap();
                panic!("query panics inside its slot");
            })
            .join()
        };
        assert!(died.is_err());
        assert!(gate.enter(LONG).is_ok());
    }

    #[test]
    fn never_more_holders_than_slots() {
        let gate = Arc::new(Gate::new(2, 64));
        let inside = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (gate, inside) = (Arc::clone(&gate), Arc::clone(&inside));
                thread::spawn(move || {
                    use std::sync::atomic::Ordering::SeqCst;
                    for _ in 0..200 {
                        let _permit = gate.enter(LONG).unwrap();
                        assert!(inside.fetch_add(1, SeqCst) < 2, "a third holder");
                        thread::yield_now();
                        inside.fetch_sub(1, SeqCst);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(gate.waiting(), 0);
    }
}
