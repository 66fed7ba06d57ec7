#![cfg(xcheck)]
//! Model check of the admission gate, run on the code that ships:
//! `RUSTFLAGS="--cfg xcheck" cargo test -p xserve --test
//! xcheck_admission`.
//!
//! A slot holder and two entrants race for a gate with one slot and one
//! place in its waiting room. However the three interleave, never are
//! two inside at once, each is admitted or refused `Full` (in a model
//! the clock never fires, so nobody times out), and at most one is
//! refused: the waiting room is used. A waiter left parked while the
//! slot is free — a lost wake-up — has nobody to notify it, which the
//! checker reports as a deadlock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use xserve::admit::{Gate, Refused};

/// Far beyond any schedule; in a model only a notify ends a wait.
const TIMEOUT: Duration = Duration::from_secs(3600);

const THREADS: usize = 3;
const ADMITTED: usize = 1;
const FULL: usize = 2;
const TIMED_OUT: usize = 3;

struct State {
    gate: Gate,
    inside: AtomicUsize,
    most_inside: AtomicUsize,
    /// Per thread: 0 while it runs, then how `enter` answered it.
    outcome: [AtomicUsize; THREADS],
}

fn setup() -> State {
    State {
        gate: Gate::new(1, 1),
        inside: AtomicUsize::new(0),
        most_inside: AtomicUsize::new(0),
        outcome: Default::default(),
    }
}

/// Enters, then holds the slot across `work` yield points — each a read
/// of the waiter count under the gate's lock, as a `/metrics` scrape
/// would take it — and leaves.
fn query(s: &State, id: usize, work: usize) {
    let outcome = match s.gate.enter(TIMEOUT) {
        Ok(permit) => {
            let now = s.inside.fetch_add(1, Ordering::SeqCst) + 1;
            s.most_inside.fetch_max(now, Ordering::SeqCst);
            for _ in 0..work {
                s.gate.waiting();
            }
            s.inside.fetch_sub(1, Ordering::SeqCst);
            drop(permit);
            ADMITTED
        }
        Err(Refused::Full) => FULL,
        Err(Refused::TimedOut) => TIMED_OUT,
    };
    s.outcome[id].store(outcome, Ordering::SeqCst);
}

fn holder(s: &State) {
    query(s, 0, 2);
}

fn entrant_1(s: &State) {
    query(s, 1, 1);
}

fn entrant_2(s: &State) {
    query(s, 2, 1);
}

#[test]
fn one_slot_one_waiter_admits_or_sheds_and_loses_no_wakeup() {
    let explore = || {
        xcheck::explore(
            &xcheck::Config::default(),
            setup,
            &[holder, entrant_1, entrant_2],
            |s| {
                let most = s.most_inside.load(Ordering::SeqCst);
                if most > 1 {
                    return Err(format!("{most} queries inside a one-slot gate"));
                }
                let outcomes: Vec<usize> =
                    s.outcome.iter().map(|o| o.load(Ordering::SeqCst)).collect();
                if let Some(id) = outcomes.iter().position(|&o| o != ADMITTED && o != FULL) {
                    return Err(format!("thread {id} was neither admitted nor refused Full"));
                }
                let refused = outcomes.iter().filter(|&&o| o == FULL).count();
                if refused > 1 {
                    return Err(format!("{refused} refused with a place to wait"));
                }
                if s.gate.waiting() != 0 {
                    return Err("a waiter is still counted".to_string());
                }
                Ok(())
            },
        )
    };
    let out = explore();
    assert!(out.passed(), "violation: {:?}", out.violation);
    assert!(out.schedules > 1, "the gate must branch: {}", out.schedules);
    assert_eq!(
        explore().schedules,
        out.schedules,
        "exploration is deterministic"
    );
}
