//! Runtime lock-rank checking, the dynamic half of the lock-order
//! discipline (the static half is xlint's `lock-order` rule, which reads
//! its hierarchy from the [`rank`] table below).
//!
//! Every named lock has one [`LockClass`] in the [`rank`] table, and a
//! [`crate::sync::Mutex`] is built with its class: `lock()` calls
//! [`acquire`] *before* blocking and its guard owns the [`RankGuard`],
//! so no site can forget or misname a rank: production code calls
//! [`acquire`] only through `sync`, which is every lock's one way in
//! (xlint's `lock-order` rule refuses a raw `std` lock elsewhere, and
//! a `Condvar` wait keeps the rank held). In debug builds a thread-local
//! stack of held ranks is
//! maintained and an out-of-order acquisition — taking a lock whose rank
//! is not strictly greater than every rank already held by this thread —
//! aborts the test with a `lock-rank violation` panic. The check catches
//! *potential* deadlocks on any single-threaded execution of the
//! nesting, which is what makes it cheap enough to leave on in every
//! debug test run.
//!
//! In release builds `RankGuard` is a zero-sized type, [`acquire`]
//! compiles to nothing, and no thread-local exists at all.

#[cfg(debug_assertions)]
use std::cell::RefCell;
use std::marker::PhantomData;

/// A named lock's place in the hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct LockClass {
    pub rank: u16,
    pub name: &'static str,
}

/// Declares [`rank`]'s classes, one `IDENT = rank, "name";` line each.
macro_rules! lock_classes {
    ($($ident:ident = $rank:literal, $name:literal;)*) => {
        $(pub const $ident: LockClass = LockClass { rank: $rank, name: $name };)*
    };
}

/// The workspace lock hierarchy, declared once. xlint reads the
/// `lock_classes!` block below as text — one `IDENT = rank, "name";`
/// line per class, names unique, ranks unique — for its static rule,
/// and reports a class no lock site annotates at the class's line.
pub mod rank {
    use super::LockClass;
    lock_classes! {
        OBS_TEST_SERIAL = 1, "obs.test_serial";
        COOCCUR_MEMO = 2, "cooccur.memo";
        SERVE_ADMISSION = 8, "serve.admission";
        MAINT_WRITER = 9, "maint.writer";
        ENGINE_EPOCH = 11, "engine.epoch";
        CACHE_LRU = 20, "cache.lru";
        VFS_FILE = 30, "vfs.file";
        VFS_STATE = 31, "vfs.state";
        OBS_REGISTRY = 50, "obs.registry";
    }
}

#[cfg(debug_assertions)]
thread_local! {
    static HELD: RefCell<Vec<(u16, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// Witness that a ranked lock is held by the current thread. `!Send` on
/// purpose: rank accounting is per-thread, so the guard must drop on
/// the thread that acquired it (same rule the real lock guards follow).
#[must_use = "the rank guard must live as long as the lock guard it shadows"]
pub struct RankGuard {
    #[cfg(debug_assertions)]
    rank: u16,
    _not_send: PhantomData<*const ()>,
}

/// Records that the current thread is about to acquire a lock of
/// `class`. Call immediately before the real acquisition; keep the
/// guard alive exactly as long as the lock guard.
///
/// # Panics
///
/// In debug builds, if the class's rank is not strictly greater than
/// every rank this thread already holds.
#[inline]
pub fn acquire(class: LockClass) -> RankGuard {
    #[cfg(debug_assertions)]
    HELD.with(|held| {
        let LockClass { rank, name } = class;
        let mut held = held.borrow_mut();
        if let Some(&(top_rank, top_name)) = held.last() {
            assert!(
                rank > top_rank,
                "lock-rank violation: acquiring `{name}` (rank {rank}) while holding \
                 `{top_name}` (rank {top_rank}); see obs::lockrank::rank"
            );
        }
        held.push((rank, name));
    });
    #[cfg(not(debug_assertions))]
    let _ = class;
    RankGuard {
        #[cfg(debug_assertions)]
        rank: class.rank,
        _not_send: PhantomData,
    }
}

impl Drop for RankGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards normally drop LIFO, but an explicit `drop(outer)`
            // may release out of order: remove the matching entry, not
            // blindly the top.
            if let Some(i) = held.iter().rposition(|&(r, _)| r == self.rank) {
                held.remove(i);
            }
        });
    }
}

/// The ranks currently held by this thread, innermost last. Debug-only
/// diagnostic; returns an empty vec in release builds.
// xlint::allow(unused-export): observer the lock-rank regression tests use to assert nothing leaks
pub fn held_ranks() -> Vec<u16> {
    #[cfg(debug_assertions)]
    {
        HELD.with(|held| held.borrow().iter().map(|&(r, _)| r).collect())
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(debug_assertions)]
    fn increasing_ranks_nest_cleanly() {
        let a = acquire(rank::MAINT_WRITER);
        let b = acquire(rank::ENGINE_EPOCH);
        let c = acquire(rank::CACHE_LRU);
        let d = acquire(rank::OBS_REGISTRY);
        assert_eq!(held_ranks(), vec![9, 11, 20, 50]);
        drop(d);
        drop(c);
        drop(b);
        drop(a);
        assert!(held_ranks().is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-rank violation")]
    fn inverted_acquisition_panics_in_debug() {
        let _cache = acquire(rank::CACHE_LRU);
        let _epoch = acquire(rank::ENGINE_EPOCH);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn out_of_order_release_is_tolerated() {
        let a = acquire(rank::ENGINE_EPOCH);
        let b = acquire(rank::CACHE_LRU);
        drop(a); // explicit early drop of the outer guard
        assert_eq!(held_ranks(), vec![20]);
        drop(b);
        // After the stack drains, low ranks are acquirable again.
        let c = acquire(rank::COOCCUR_MEMO);
        drop(c);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_guard_is_zero_sized_and_never_panics() {
        assert_eq!(std::mem::size_of::<RankGuard>(), 0);
        // Inverted order must be free and silent in release.
        let _cache = acquire(rank::CACHE_LRU);
        let _epoch = acquire(rank::ENGINE_EPOCH);
    }
}
