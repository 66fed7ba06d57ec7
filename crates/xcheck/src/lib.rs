//! xcheck — deterministic concurrency model checker (loom-lite).
//!
//! The runtime lock-rank checker (`obs::lockrank`) catches ordering
//! violations that happen to occur in a given run; xcheck *explores*
//! runs. Model code executes on real OS threads, but a cooperative
//! token-passing scheduler ([`sched`]) admits exactly one runnable
//! thread at a time and treats every operation on the instrumented
//! shims ([`shim`]) as a yield point. The scheduler then backtracks
//! depth-first over its own decisions until the bounded interleaving
//! space is exhausted — so within the bounds, a clean result is a
//! proof, not a sample.
//!
//! The shims degrade to plain `Mutex`/SeqCst atomics when no checker
//! context is installed, so model code also runs (and is typecheckable)
//! under plain `cargo test`. Exploration models sequential consistency:
//! it finds interleaving bugs, not weak-memory bugs.
//!
//! [`models`] holds distilled copies of three real synchronization
//! patterns in this workspace, each with a seeded-bug variant the
//! checker must catch; DESIGN.md §6c maps each model to its production
//! counterpart.
//!
//! [`prop`] is the workspace's property-test runner. It lives here
//! because it is the same technique pointed at data instead of
//! schedules: record the choices a run makes, replay edited choice
//! streams, keep the smallest one that still fails.

pub mod models;
pub mod prop;
pub mod sched;
pub mod shim;

pub use sched::{explore, Config, Kind, Outcome, Violation};
pub use shim::{XAtomicBool, XAtomicU64, XGuard, XMutex};
