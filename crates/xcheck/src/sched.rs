//! Cooperative token-passing scheduler with DFS schedule exploration.
//!
//! Model threads run on real OS threads, but exactly one is runnable at
//! a time: every shim operation ([`crate::shim`]) is a yield point that
//! hands the token back to the controller, which decides who runs next.
//! The controller records each step — the runnable set and its pick —
//! and after the schedule completes it backtracks depth-first to the
//! deepest step with an untried alternative, replaying the prefix and
//! diverging there — until the bounded space is exhausted or a
//! violation is found. A replay whose runnable set differs from the
//! recording is itself a violation ([`Kind::Nondeterministic`]): the
//! model depends on something the schedule does not fix, and the tree
//! the controller is walking is no longer the model's.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Exploration bounds. Both are safety nets: the real-code checks of
/// DESIGN.md §6c exhaust their interleaving spaces well inside the
/// defaults.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Maximum scheduling decisions in a single schedule before the run
    /// is reported as a step-bound violation (runaway-loop guard).
    pub max_steps: usize,
    /// Maximum schedules to explore before giving up unexhausted.
    pub max_schedules: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_steps: 2_000,
            max_schedules: 100_000,
        }
    }
}

/// What went wrong on the violating schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A model thread panicked (an in-thread assertion fired).
    Panic,
    /// Unfinished threads remained but none was runnable.
    Deadlock,
    /// The final-state invariant closure returned `Err`.
    Invariant,
    /// A single schedule exceeded `max_steps` decisions.
    StepBound,
    /// Replaying a recorded prefix found a different runnable set: the
    /// model's behaviour depends on state outside the schedule (a
    /// once-per-process registration, a clock).
    Nondeterministic,
}

/// A counterexample: the kind of failure, its message, and the exact
/// thread-id sequence that reproduces it.
#[derive(Clone, Debug)]
pub struct Violation {
    pub kind: Kind,
    pub detail: String,
    /// Thread id chosen at each scheduling step, in order.
    pub schedule: Vec<usize>,
}

/// Result of an exploration.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Number of complete schedules executed.
    pub schedules: usize,
    /// `true` iff the whole bounded space was explored with no violation.
    pub exhausted: bool,
    /// First violation found, with its reproducing schedule.
    pub violation: Option<Violation>,
}

impl Outcome {
    /// Convenience for asserting in tests.
    pub fn passed(&self) -> bool {
        self.exhausted && self.violation.is_none()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Parked on the lock or condition variable at this address.
    Blocked(usize),
    Finished,
}

struct Inner {
    /// Which thread currently holds the execution token.
    active: Option<usize>,
    status: Vec<Status>,
    lock_owner: HashMap<usize, usize>,
    abort: bool,
    panic_msg: Option<String>,
}

/// Shared between the controller and the model threads of one schedule.
pub(crate) struct Scheduler {
    inner: Mutex<Inner>,
    cv: Condvar,
}

/// Panic payload used to unwind model threads out of their wait loops
/// when the controller aborts a schedule; never reported as a violation.
struct Aborted;

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

#[derive(Clone)]
pub(crate) struct Ctx {
    sched: Arc<Scheduler>,
    id: usize,
}

/// Runs `f` with the calling thread's checker context, if installed.
/// Shims fall back to plain operations when this returns `None`-path.
pub(crate) fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> Option<R> {
    CTX.with(|c| c.borrow().as_ref().map(f))
}

impl Ctx {
    /// One scheduling point: release the token and wait to be rescheduled.
    pub(crate) fn yield_now(&self) {
        let mut g = self.sched.inner.lock().expect("scheduler state");
        debug_assert_eq!(g.active, Some(self.id), "yield without the token");
        g.active = None;
        self.sched.cv.notify_all();
        loop {
            if g.abort {
                drop(g);
                panic::panic_any(Aborted);
            }
            if g.active == Some(self.id) {
                return;
            }
            g = self.sched.cv.wait(g).expect("scheduler state");
        }
    }

    /// Attempts to take lock `id`; `false` if another thread owns it.
    pub(crate) fn try_acquire(&self, id: usize) -> bool {
        let mut g = self.sched.inner.lock().expect("scheduler state");
        if let std::collections::hash_map::Entry::Vacant(e) = g.lock_owner.entry(id) {
            e.insert(self.id);
            true
        } else {
            false
        }
    }

    /// Parks this thread until lock `id` is released or condition
    /// variable `id` notified, then returns with the token (a lock's
    /// caller retries acquisition).
    pub(crate) fn block_on(&self, id: usize) {
        let mut g = self.sched.inner.lock().expect("scheduler state");
        g.status[self.id] = Status::Blocked(id);
        g.active = None;
        self.sched.cv.notify_all();
        loop {
            if g.abort {
                drop(g);
                panic::panic_any(Aborted);
            }
            if g.active == Some(self.id) {
                return;
            }
            g = self.sched.cv.wait(g).expect("scheduler state");
        }
    }

    /// Releases lock `id` and makes every thread parked on it runnable.
    pub(crate) fn release(&self, id: usize) {
        self.sched
            .inner
            .lock()
            .expect("scheduler state")
            .lock_owner
            .remove(&id);
        self.wake(id, true);
    }

    /// Makes the lowest-numbered thread parked on `id` runnable, or
    /// every one if `all`.
    pub(crate) fn wake(&self, id: usize, all: bool) {
        let mut g = self.sched.inner.lock().expect("scheduler state");
        for s in g.status.iter_mut().filter(|s| **s == Status::Blocked(id)) {
            *s = Status::Runnable;
            if !all {
                break;
            }
        }
    }
}

impl Scheduler {
    fn new(n: usize) -> Self {
        Scheduler {
            inner: Mutex::new(Inner {
                active: None,
                status: vec![Status::Runnable; n],
                lock_owner: HashMap::new(),
                abort: false,
                panic_msg: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// First wait of a freshly spawned model thread.
    fn wait_for_token(&self, id: usize) {
        let mut g = self.inner.lock().expect("scheduler state");
        loop {
            if g.abort {
                drop(g);
                panic::panic_any(Aborted);
            }
            if g.active == Some(id) {
                return;
            }
            g = self.cv.wait(g).expect("scheduler state");
        }
    }

    fn thread_done(&self, id: usize, panicked: Option<String>) {
        let mut g = self.inner.lock().expect("scheduler state");
        g.status[id] = Status::Finished;
        // Release anything the thread still owned (a panicking thread
        // may die holding a lock; the schedule is aborted anyway, but
        // unblocking keeps the teardown prompt).
        let owned: Vec<usize> = g
            .lock_owner
            .iter()
            .filter(|&(_, o)| *o == id)
            .map(|(l, _)| *l)
            .collect();
        for l in owned {
            g.lock_owner.remove(&l);
            for s in g.status.iter_mut() {
                if *s == Status::Blocked(l) {
                    *s = Status::Runnable;
                }
            }
        }
        if let Some(msg) = panicked {
            if g.panic_msg.is_none() {
                g.panic_msg = Some(msg);
            }
        }
        if g.active == Some(id) {
            g.active = None;
        }
        self.cv.notify_all();
    }

    /// Controller side: hand the token to `id` and wait until it yields,
    /// blocks, or finishes.
    fn run_until_yield(&self, id: usize) {
        let mut g = self.inner.lock().expect("scheduler state");
        g.active = Some(id);
        self.cv.notify_all();
        while g.active.is_some() {
            g = self.cv.wait(g).expect("scheduler state");
        }
    }

    fn runnable(&self) -> Vec<usize> {
        let g = self.inner.lock().expect("scheduler state");
        g.status
            .iter()
            .enumerate()
            .filter(|&(_, s)| *s == Status::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    fn all_finished(&self) -> bool {
        let g = self.inner.lock().expect("scheduler state");
        g.status.iter().all(|s| *s == Status::Finished)
    }

    fn take_panic(&self) -> Option<String> {
        self.inner.lock().expect("scheduler state").panic_msg.take()
    }

    fn abort(&self) {
        let mut g = self.inner.lock().expect("scheduler state");
        g.abort = true;
        self.cv.notify_all();
    }
}

/// One recorded step: the runnable threads, in id order, and which of
/// them (by position) ran.
struct Choice {
    options: Vec<usize>,
    pick: usize,
}

/// Explores every interleaving of `threads` over fresh `setup()` state,
/// depth-first, up to the configured bounds. After each schedule in
/// which all threads finish cleanly, `invariant` judges the final state.
///
/// Thread bodies must reach their next shim operation in a bounded
/// number of plain instructions — interleaving only happens at shim
/// yield points, so a spin on raw shared state never sees another
/// thread move (one that ends on its own clock just ends). `setup`
/// must leave nothing that yields only on a process's first schedule,
/// such as a metric handle still to register: a replay that differs
/// from its recording is reported as [`Kind::Nondeterministic`].
pub fn explore<S: Sync>(
    cfg: &Config,
    setup: impl Fn() -> S,
    threads: &[fn(&S)],
    invariant: impl Fn(&S) -> Result<(), String>,
) -> Outcome {
    let mut script: Vec<Choice> = Vec::new();
    let mut schedules = 0usize;
    loop {
        schedules += 1;
        let (mut trace, violation) = run_one(cfg, &setup, threads, &invariant, &script);
        if let Some(v) = violation {
            return Outcome {
                schedules,
                exhausted: false,
                violation: Some(v),
            };
        }
        // Backtrack to the deepest step with an untried option.
        let divergence = trace.iter().rposition(|c| c.pick + 1 < c.options.len());
        match divergence {
            None => {
                return Outcome {
                    schedules,
                    exhausted: true,
                    violation: None,
                };
            }
            Some(i) => {
                trace.truncate(i + 1);
                trace[i].pick += 1;
                script = trace;
            }
        }
        if schedules >= cfg.max_schedules {
            return Outcome {
                schedules,
                exhausted: false,
                violation: None,
            };
        }
    }
}

fn run_one<S: Sync>(
    cfg: &Config,
    setup: &impl Fn() -> S,
    threads: &[fn(&S)],
    invariant: &impl Fn(&S) -> Result<(), String>,
    script: &[Choice],
) -> (Vec<Choice>, Option<Violation>) {
    let n = threads.len();
    let sched = Arc::new(Scheduler::new(n));
    let state = setup();
    let mut trace: Vec<Choice> = Vec::new();
    let mut schedule: Vec<usize> = Vec::new();
    let mut violation: Option<Violation> = None;

    std::thread::scope(|scope| {
        for (i, f) in threads.iter().enumerate() {
            let sched = Arc::clone(&sched);
            let state = &state;
            scope.spawn(move || {
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    CTX.with(|c| {
                        *c.borrow_mut() = Some(Ctx {
                            sched: Arc::clone(&sched),
                            id: i,
                        });
                    });
                    sched.wait_for_token(i);
                    f(state);
                }));
                CTX.with(|c| *c.borrow_mut() = None);
                let panicked = match result {
                    Ok(()) => None,
                    Err(payload) => {
                        if payload.is::<Aborted>() {
                            None
                        } else if let Some(s) = payload.downcast_ref::<&str>() {
                            Some((*s).to_string())
                        } else if let Some(s) = payload.downcast_ref::<String>() {
                            Some(s.clone())
                        } else {
                            Some("model thread panicked".to_string())
                        }
                    }
                };
                sched.thread_done(i, panicked);
            });
        }

        loop {
            // Empty once every thread has finished, so a replay that
            // ends early differs from its recording too.
            let runnable = sched.runnable();
            let step = schedule.len();
            let recorded = script.get(step);
            if let Some(recorded) = recorded.filter(|r| r.options != runnable) {
                violation = Some(Violation {
                    kind: Kind::Nondeterministic,
                    detail: format!(
                        "step {step}: replay found runnable threads {runnable:?}, \
                         the recorded schedule had {:?}",
                        recorded.options
                    ),
                    schedule: schedule.clone(),
                });
                break;
            }
            if sched.all_finished() {
                break;
            }
            if runnable.is_empty() {
                violation = Some(Violation {
                    kind: Kind::Deadlock,
                    detail: "no runnable thread but not all finished".into(),
                    schedule: schedule.clone(),
                });
                break;
            }
            let pick = recorded.map_or(0, |r| r.pick);
            let chosen = runnable[pick];
            trace.push(Choice {
                options: runnable,
                pick,
            });
            schedule.push(chosen);
            if schedule.len() > cfg.max_steps {
                violation = Some(Violation {
                    kind: Kind::StepBound,
                    detail: format!("schedule exceeded {} steps", cfg.max_steps),
                    schedule: schedule.clone(),
                });
                break;
            }
            sched.run_until_yield(chosen);
            if let Some(msg) = sched.take_panic() {
                violation = Some(Violation {
                    kind: Kind::Panic,
                    detail: msg,
                    schedule: schedule.clone(),
                });
                break;
            }
        }
        sched.abort();
        // Scope join: aborted threads unwind via the Aborted payload.
    });

    if violation.is_none() {
        if let Err(msg) = invariant(&state) {
            violation = Some(Violation {
                kind: Kind::Invariant,
                detail: msg,
                schedule: schedule.clone(),
            });
        }
    }
    (trace, violation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shim::XMutex;
    use std::sync::atomic::{AtomicBool, Ordering};

    struct Two {
        a: XMutex<u64>,
        b: XMutex<u64>,
    }

    fn ab(s: &Two) {
        let ga = s.a.lock().unwrap();
        let mut gb = s.b.lock().unwrap();
        *gb += *ga;
    }

    fn ba(s: &Two) {
        let gb = s.b.lock().unwrap();
        let mut ga = s.a.lock().unwrap();
        *ga += *gb;
    }

    fn two() -> Two {
        Two {
            a: XMutex::new(1),
            b: XMutex::new(1),
        }
    }

    #[test]
    fn finds_classic_lock_order_deadlock() {
        let out = explore(&Config::default(), two, &[ab, ba], |_| Ok(()));
        let v = out.violation.expect("AB/BA must deadlock somewhere");
        assert_eq!(v.kind, Kind::Deadlock);
        assert!(!v.schedule.is_empty());
    }

    #[test]
    fn consistent_order_is_exhaustively_clean() {
        let out = explore(&Config::default(), two, &[ab, ab], |s| {
            let b = *s.b.lock().unwrap();
            if b == 3 {
                Ok(())
            } else {
                Err(format!("b = {b}, want 3"))
            }
        });
        assert!(out.passed(), "violation: {:?}", out.violation);
        assert!(out.schedules > 1, "lock handoff must branch");
    }

    /// Takes an extra lock on the process's first schedule only, as a
    /// metric handle registering on first use would.
    fn extra_lock_on_first_run(s: &Two) {
        static FIRST: AtomicBool = AtomicBool::new(true);
        if FIRST.swap(false, Ordering::Relaxed) {
            drop(s.a.lock().unwrap());
        }
        *s.b.lock().unwrap() += 1;
    }

    fn add_to_b(s: &Two) {
        *s.b.lock().unwrap() += 1;
    }

    #[test]
    fn a_replay_that_diverges_from_its_recording_is_a_violation() {
        let out = explore(
            &Config::default(),
            two,
            &[extra_lock_on_first_run, add_to_b],
            |_| Ok(()),
        );
        let v = out.violation.expect("the lost lock must be noticed");
        assert_eq!(v.kind, Kind::Nondeterministic);
        assert!(v.detail.starts_with("step "), "{}", v.detail);
        assert!(!out.exhausted);
    }

    fn bump(c: &XMutex<u64>) {
        *c.lock().unwrap() += 1;
    }

    /// Reads under one hold of the lock and writes under another.
    fn racy_bump(c: &XMutex<u64>) {
        let v = *c.lock().unwrap();
        *c.lock().unwrap() = v + 1;
    }

    fn spin_to_hundred(c: &XMutex<u64>) {
        while *c.lock().unwrap() < 100 {
            bump(c);
        }
    }

    #[test]
    fn counter_increments_are_not_lost_under_one_hold() {
        let out = explore(
            &Config::default(),
            || XMutex::new(0),
            &[bump, bump, bump],
            |c| {
                let v = *c.lock().unwrap();
                if v == 3 {
                    Ok(())
                } else {
                    Err(format!("count = {v}, want 3"))
                }
            },
        );
        assert!(out.passed(), "violation: {:?}", out.violation);
        assert!(out.schedules > 1);
    }

    #[test]
    fn read_then_write_under_two_holds_loses_updates() {
        let out = explore(
            &Config::default(),
            || XMutex::new(0),
            &[racy_bump, racy_bump],
            |c| {
                let v = *c.lock().unwrap();
                if v == 2 {
                    Ok(())
                } else {
                    Err(format!("count = {v}, want 2"))
                }
            },
        );
        let v = out.violation.expect("read-modify-write race must be found");
        assert_eq!(v.kind, Kind::Invariant);
    }

    #[test]
    fn step_bound_trips_on_runaway_models() {
        let out = explore(
            &Config {
                max_steps: 8,
                max_schedules: 10,
            },
            || XMutex::new(0),
            &[spin_to_hundred],
            |_| Ok(()),
        );
        let v = out.violation.expect("step bound must fire");
        assert_eq!(v.kind, Kind::StepBound);
    }
}
