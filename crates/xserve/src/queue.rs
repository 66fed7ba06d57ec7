//! The bounded request queue, with load-shedding semantics.
//!
//! [`BoundedQueue`] is a hand-rolled MPMC queue (`Mutex<VecDeque>` +
//! `Condvar` — the workspace owns its substrates) whose `try_push`
//! *never blocks and never grows past capacity*: admission control is a
//! property of the queue, not a convention of its callers. The server
//! runs exactly one, shared by every worker, so the queue is
//! work-conserving: a queued request is taken by whichever worker
//! frees up first and never waits behind a slow one while another
//! worker sleeps.
//!
//! **Poll, then park.** A popper that finds the queue empty polls the
//! depth mirror for `IDLE_POLL` (400 µs) before it parks on the
//! condvar, one popper at a time. A closed-loop client's next request arrives within
//! that window, so the worker that has just answered takes it without a
//! futex wake-up — on a shared two-vCPU host that wake-up is an
//! interrupt to a halted CPU, the least repeatable part of a
//! millisecond request; and a worker that does not sleep keeps its CPU
//! busy, so the scheduler stops spreading the connection's threads
//! over both (measured: 4.5 → 2.1 inter-processor interrupts per
//! request). The condvar protocol is untouched (`try_push`
//! signals exactly as before and a parked popper wakes exactly as
//! before), so polling changes who takes an item first, never whether
//! it is taken; an idle server polls once and then sleeps.
//!
//! Poisoning is deliberately ignored (`unwrap_or_else(into_inner)`): a
//! panicking worker must not wedge the accept path, and queue state —
//! lengths and a closed flag — is valid after any partial mutation.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use obs::lockrank::{self, rank};

/// Why a push was refused. The item is handed back so the caller can
/// answer the client (shedding must not drop the response channel).
#[derive(Debug)]
pub enum PushError<T> {
    /// Queue at capacity — shed the request (`503` upstream).
    Full(T),
    /// Queue closed by drain — no new work is admitted.
    Closed(T),
}

/// How long an idle popper polls before it parks: a few loopback round
/// trips, a fraction of one query.
const IDLE_POLL: Duration = Duration::from_micros(400);

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue. `pop` blocks until an item arrives or the
/// queue is closed *and* empty — so closing guarantees every admitted
/// item is still handed to a worker (the drain invariant).
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
    capacity: usize,
    /// Lock-free depth mirror for the `serve_queued_requests` gauge;
    /// maintained on every successful push/pop under the lock.
    depth: AtomicUsize,
    /// Set while one popper polls `depth`; the others park directly.
    polling: AtomicBool,
    /// Polling only pays where a pusher can run meanwhile.
    multiprocessor: bool,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
            polling: AtomicBool::new(false),
            multiprocessor: std::thread::available_parallelism().is_ok_and(|n| n.get() > 1),
        }
    }

    /// Current depth, approximately (relaxed read; exact under the lock).
    pub fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Non-blocking push; refuses rather than waits.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let _rank = lockrank::acquire(rank::SERVE_QUEUE);
        let mut state = self
            .state
            .lock() // xlint::lock(serve.queue)
            .unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        self.depth.store(state.items.len(), Ordering::Relaxed);
        self.cond.notify_one();
        Ok(())
    }

    /// Waits up to [`IDLE_POLL`] for the queue to become non-empty,
    /// without the lock; returns at once when another popper is already
    /// polling.
    fn poll_while_idle(&self) {
        if !self.multiprocessor || self.polling.swap(true, Ordering::Relaxed) {
            return;
        }
        let idle = Instant::now();
        while self.depth.load(Ordering::Relaxed) == 0 && idle.elapsed() < IDLE_POLL {
            std::hint::spin_loop();
        }
        self.polling.store(false, Ordering::Relaxed);
    }

    /// Blocking pop. Returns `None` only once the queue is closed and
    /// every admitted item has been popped.
    pub fn pop(&self) -> Option<T> {
        self.poll_while_idle();
        let _rank = lockrank::acquire(rank::SERVE_QUEUE);
        let mut state = self
            .state
            .lock() // xlint::lock(serve.queue)
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = state.items.pop_front() {
                self.depth.store(state.items.len(), Ordering::Relaxed);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .cond
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops admission and wakes every blocked popper. Items already
    /// queued remain poppable — close-then-drain, never close-and-drop.
    pub fn close(&self) {
        let _rank = lockrank::acquire(rank::SERVE_QUEUE);
        let mut state = self
            .state
            .lock() // xlint::lock(serve.queue)
            .unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn push_pop_roundtrip_in_order() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_refuses_and_returns_item() {
        let q = BoundedQueue::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        match q.try_push("c") {
            Err(PushError::Full(item)) => assert_eq!(item, "c"),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn closed_queue_drains_admitted_items_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(10).unwrap();
        q.try_push(20).unwrap();
        q.close();
        match q.try_push(30) {
            Err(PushError::Closed(item)) => assert_eq!(item, 30),
            other => panic!("expected Closed, got {other:?}"),
        }
        // Close-then-drain: both admitted items still come out…
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(20));
        // …and only then does pop report end-of-queue.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let popper = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    #[test]
    fn idle_poppers_stop_polling_and_park() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let poppers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            })
            .collect();
        // Well past IDLE_POLL: whoever polled has given up, nobody spins.
        thread::sleep(IDLE_POLL * 50);
        assert!(!q.polling.load(Ordering::Relaxed));
        // Parked poppers are woken by a push exactly as before…
        q.try_push(7).unwrap();
        thread::sleep(IDLE_POLL * 50);
        assert!(q.is_empty());
        assert!(!q.polling.load(Ordering::Relaxed));
        // …and by close.
        q.close();
        let mut got: Vec<_> = poppers.into_iter().map(|p| p.join().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, [None, None, Some(7)]);
    }

    #[test]
    fn a_push_inside_the_poll_window_is_taken() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        for i in 0..200 {
            let popper = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            };
            // No sleep: the push lands before, inside or after the poll.
            q.try_push(i).unwrap();
            assert_eq!(popper.join().unwrap(), Some(i));
        }
        assert!(!q.polling.load(Ordering::Relaxed));
    }

    #[test]
    fn mpmc_under_contention_loses_nothing() {
        let q = Arc::new(BoundedQueue::<usize>::new(1024));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..100 {
                        while q.try_push(p * 100 + i).is_err() {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<_>>());
    }
}
