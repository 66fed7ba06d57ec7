//! SIGTERM/SIGINT → drain flag, with no signal-handling crate.
//!
//! The zero-dependency discipline extends to process signals: on
//! x86_64 Linux the handler is installed with a raw `rt_sigaction`
//! syscall (`core::arch::asm!`), using a tiny `global_asm!` trampoline
//! as the `SA_RESTORER` (the kernel requires one when libc's is not
//! supplied; it just issues `rt_sigreturn`). The handler body is a
//! single atomic store — the only thing that is async-signal-safe to
//! do — and the serving binary polls [`shutdown_requested`] from its
//! main loop to begin the graceful drain.
//!
//! `SA_RESTART` is set so the acceptor's syscalls resume instead of
//! failing with `EINTR`; the 1ms accept poll notices the flag anyway.
//! On other platforms [`install_handlers`] is a no-op returning
//! `false`, and shutdown is driven by `POST /admin/drain` instead.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; never cleared.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Has SIGTERM/SIGINT been delivered since [`install_handlers`]?
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: u64 = 2;
    const SIGTERM: u64 = 15;
    const SYS_RT_SIGACTION: u64 = 13;
    const SA_RESTORER: u64 = 0x0400_0000;
    const SA_RESTART: u64 = 0x1000_0000;
    /// The kernel's sigset_t is 64 bits on x86_64.
    const SIGSET_BYTES: u64 = 8;

    /// Matches the kernel's `struct sigaction` layout for x86_64 (NOT
    /// libc's — the kernel puts `sa_mask` last).
    #[repr(C)]
    struct KernelSigaction {
        handler: u64,
        flags: u64,
        restorer: u64,
        mask: u64,
    }

    /// Async-signal-safe: one relaxed-free atomic store, nothing else.
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    // SA_RESTORER target: the kernel returns here after the handler and
    // expects an immediate rt_sigreturn (syscall 15).
    std::arch::global_asm!(
        ".global xserve_sigreturn_trampoline",
        "xserve_sigreturn_trampoline:",
        "mov rax, 15",
        "syscall",
    );

    extern "C" {
        fn xserve_sigreturn_trampoline();
    }

    pub fn install() -> bool {
        let act = KernelSigaction {
            handler: on_signal as *const () as usize as u64,
            flags: SA_RESTORER | SA_RESTART,
            restorer: xserve_sigreturn_trampoline as *const () as usize as u64,
            mask: 0,
        };
        let mut ok = true;
        for sig in [SIGINT, SIGTERM] {
            let ret: i64;
            // SAFETY: `act` lives across the syscall; the layout above
            // is the x86_64 kernel ABI; rcx/r11 are clobbered by
            // `syscall` and declared so.
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") SYS_RT_SIGACTION as i64 => ret,
                    in("rdi") sig,
                    in("rsi") &act as *const KernelSigaction,
                    in("rdx") 0u64,
                    in("r10") SIGSET_BYTES,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            ok &= ret == 0;
        }
        ok
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    /// No raw-syscall path on this platform; drain via `/admin/drain`.
    pub fn install() -> bool {
        false
    }
}

/// Installs SIGTERM and SIGINT handlers that set the shutdown flag.
/// Returns `false` when unsupported on this platform (or if the
/// syscall failed) — callers should fall back to `/admin/drain`.
pub fn install_handlers() -> bool {
    imp::install()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn handlers_install_and_survive_a_real_signal() {
        assert!(install_handlers());
        // Deliver a real SIGTERM to ourselves through the raw kill
        // syscall and confirm the handler (not the default action,
        // which would kill the process) runs and sets the flag.
        let pid = std::process::id() as u64;
        let ret: i64;
        // SAFETY: kill(2) takes two integer arguments and reads no
        // memory; rcx/r11 are clobbered by `syscall` and declared so.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 62i64 => ret, // SYS_kill
                in("rdi") pid,
                in("rsi") 15u64, // SIGTERM
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        assert_eq!(ret, 0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while !shutdown_requested() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(shutdown_requested());
    }
}
