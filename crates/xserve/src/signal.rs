//! SIGTERM/SIGINT → drain flag, with no signal-handling crate.
//!
//! `std` links the C library on every unix target, so the handlers are
//! installed through its `signal(3)`, declared in the one `extern "C"`
//! block below. glibc's and musl's `signal` keep the handler installed
//! after delivery and set `SA_RESTART`, so the acceptor's syscalls
//! resume instead of failing with `EINTR`; the 1ms accept poll notices
//! the flag anyway. The handler body is a single atomic store — the only
//! thing that is async-signal-safe to do — and the serving binary polls
//! [`shutdown_requested`] from its main loop to begin the graceful
//! drain. Off unix, [`install_handlers`] is a no-op returning `false`,
//! and shutdown is driven by `POST /admin/drain` instead.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; never cleared.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Has SIGTERM/SIGINT been delivered since [`install_handlers`]?
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
pub use unix::{install_handlers, terminate};

#[cfg(unix)]
mod unix {
    use super::SHUTDOWN;
    use std::ffi::c_int;
    use std::sync::atomic::Ordering;

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    /// `SIG_ERR`: `signal`'s failure return, `(void (*)(int)) -1`.
    const SIG_ERR: usize = usize::MAX;

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
        fn kill(pid: c_int, sig: c_int) -> c_int;
    }

    /// Async-signal-safe: one atomic store, nothing else.
    extern "C" fn on_signal(_sig: c_int) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Installs SIGTERM and SIGINT handlers that set the shutdown flag.
    /// Returns `false` if `signal` failed — callers should fall back to
    /// `/admin/drain`.
    pub fn install_handlers() -> bool {
        let mut ok = true;
        for sig in [SIGINT, SIGTERM] {
            // SAFETY: `signal` takes a signal number and a handler of C
            // type `void (*)(int)`, which `on_signal` is; the handler
            // does nothing that is not async-signal-safe.
            ok &= unsafe { signal(sig, on_signal) } != SIG_ERR;
        }
        ok
    }

    /// Sends SIGTERM to process `pid`; `false` if it could not be sent.
    /// No `kill` binary needed.
    // xlint::allow(unused-export): the lifecycle tests deliver a real SIGTERM to a spawned server through it
    pub fn terminate(pid: u32) -> bool {
        let Ok(pid) = c_int::try_from(pid) else {
            return false;
        };
        // SAFETY: kill(2) takes two integers and reads no memory.
        unsafe { kill(pid, SIGTERM) == 0 }
    }
}

/// No C signals off unix: returns `false`, and shutdown is driven by
/// `/admin/drain`.
#[cfg(not(unix))]
pub fn install_handlers() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(unix)]
    fn handlers_install_and_survive_a_real_signal() {
        assert!(install_handlers());
        // Deliver a real SIGTERM to ourselves and confirm the handler
        // (not the default action, which would kill the process) runs
        // and sets the flag.
        assert!(terminate(std::process::id()));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while !shutdown_requested() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(shutdown_requested());
    }
}
