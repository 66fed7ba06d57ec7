//! xcheck — deterministic concurrency model checker (loom-lite).
//!
//! The runtime lock-rank checker (`obs::lockrank`) catches ordering
//! violations that happen to occur in a given run; xcheck *explores*
//! runs. Checked code executes on real OS threads, but a cooperative
//! token-passing scheduler ([`sched`]) admits exactly one runnable
//! thread at a time and treats every operation on the instrumented
//! shims ([`shim`]) as a yield point. The scheduler then backtracks
//! depth-first over its own decisions until the bounded interleaving
//! space is exhausted — so within the bounds, a clean result is a
//! proof, not a sample.
//!
//! The checks run on the code that ships. Built with
//! `RUSTFLAGS="--cfg xcheck"`, `obs::sync::{Mutex, Condvar}` — the
//! workspace's one synchronisation seam — are [`XMutex`] and
//! [`XCondvar`], and three `cfg(xcheck)` tests explore the real
//! `ListCache`, `xserve`'s admission `Gate` and live-engine swap; the
//! seeded bugs they must catch are patches over the real files, kept in
//! `crates/xcheck/seeded/` (DESIGN.md §6c, `scripts/suites.sh
//! analysis`). Without a checker context the shims are plain `std`
//! types. Exploration models sequential consistency: it finds
//! interleaving bugs, not weak-memory bugs.
//!
//! [`prop`] is the workspace's property-test runner. It lives here
//! because it is the same technique pointed at data instead of
//! schedules: record the choices a run makes, replay edited choice
//! streams, keep the smallest one that still fails.
//!
//! [`alloc`] is the counting allocator of the allocation-budget tests.

pub mod alloc;
pub mod prop;
pub mod sched;
pub mod shim;

pub use sched::{explore, Config, Kind, Outcome, Violation};
pub use shim::{XCondvar, XGuard, XMutex};
