#![cfg(xcheck)]
//! Model check of the request queue's drain guarantee, run on the code
//! that ships: `RUSTFLAGS="--cfg xcheck" cargo test -p xserve --test
//! xcheck_queue`.
//!
//! A producer pushes two jobs while a worker pops until `None` and the
//! drain closes the queue. However the three interleave, every job
//! `try_push` admitted is popped exactly once. The idle poll before a
//! pop is left uninstrumented: it spins on a plain atomic with the
//! scheduler's token held, sees nothing change and ends on its clock.

use std::sync::atomic::{AtomicUsize, Ordering};
use xserve::queue::BoundedQueue;

const JOBS: usize = 2;

struct State {
    queue: BoundedQueue<usize>,
    admitted: [AtomicUsize; JOBS],
    popped: [AtomicUsize; JOBS],
}

fn setup() -> State {
    State {
        queue: BoundedQueue::new(JOBS),
        admitted: Default::default(),
        popped: Default::default(),
    }
}

fn producer(s: &State) {
    for job in 0..JOBS {
        if s.queue.try_push(job).is_ok() {
            s.admitted[job].fetch_add(1, Ordering::SeqCst);
        }
    }
}

fn worker(s: &State) {
    while let Some(job) = s.queue.pop() {
        s.popped[job].fetch_add(1, Ordering::SeqCst);
    }
}

fn drain(s: &State) {
    s.queue.close();
}

#[test]
fn every_admitted_job_is_popped_exactly_once() {
    let explore = || {
        xcheck::explore(
            &xcheck::Config::default(),
            setup,
            &[producer, worker, drain],
            |s| {
                for job in 0..JOBS {
                    let admitted = s.admitted[job].load(Ordering::SeqCst);
                    let popped = s.popped[job].load(Ordering::SeqCst);
                    if admitted == 1 && popped == 0 {
                        return Err(format!("admitted job {job} was never popped"));
                    }
                    if popped != admitted {
                        return Err(format!(
                            "job {job} admitted {admitted}, popped {popped} times"
                        ));
                    }
                }
                Ok(())
            },
        )
    };
    let out = explore();
    assert!(out.passed(), "violation: {:?}", out.violation);
    assert!(
        out.schedules > 1,
        "the drain must branch: {}",
        out.schedules
    );
    assert_eq!(
        explore().schedules,
        out.schedules,
        "exploration is deterministic"
    );
}
