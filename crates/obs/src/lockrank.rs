//! Runtime lock-rank checking, the dynamic half of the lock-order
//! discipline (the static half is xlint's `lock-order` rule; the
//! declared hierarchy lives in `crates/xlint/lockorder.toml`).
//!
//! Each instrumented acquisition site calls [`acquire`] with its lock's
//! rank *before* blocking on the lock, and holds the returned
//! [`RankGuard`] for the lifetime of the real guard. In debug builds a
//! thread-local stack of held ranks is maintained and an out-of-order
//! acquisition — taking a lock whose rank is not strictly greater than
//! every rank already held by this thread — aborts the test with a
//! `lock-rank violation` panic. The check catches *potential* deadlocks
//! on any single-threaded execution of the nesting, which is what makes
//! it cheap enough to leave on in every debug test run.
//!
//! In release builds `RankGuard` is a zero-sized type, [`acquire`]
//! compiles to nothing, and no thread-local exists at all.

#[cfg(debug_assertions)]
use std::cell::RefCell;
use std::marker::PhantomData;

/// Ranks for the workspace lock hierarchy. Keep in sync with
/// `crates/xlint/lockorder.toml` (the `lockorder_matches` test below
/// pins the values).
pub mod rank {
    pub const COOCCUR_COUNTS: u16 = 2;
    pub const COOCCUR_ANCESTORS: u16 = 4;
    pub const SERVE_QUEUE: u16 = 8;
    pub const MAINT_WRITER: u16 = 9;
    pub const MAINT_EPOCH: u16 = 10;
    pub const ENGINE_EPOCH: u16 = 11;
    pub const CACHE_SHARD: u16 = 20;
    pub const OBS_REGISTRY_COUNTERS: u16 = 50;
    pub const OBS_REGISTRY_GAUGES: u16 = 51;
    pub const OBS_REGISTRY_HISTOGRAMS: u16 = 52;
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

/// Records that the current thread is about to acquire the lock named
/// `name` with rank `rank`. Call immediately before the real
/// acquisition; keep the guard alive exactly as long as the lock guard.
///
/// # Panics
///
/// In debug builds, if `rank` is not strictly greater than every rank
/// this thread already holds.
#[inline]
pub fn acquire(rank: u16, name: &'static str) -> RankGuard {
    #[cfg(debug_assertions)]
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(&(top_rank, top_name)) = held.last() {
            assert!(
                rank > top_rank,
                "lock-rank violation: acquiring `{name}` (rank {rank}) while holding \
                 `{top_name}` (rank {top_rank}); see crates/xlint/lockorder.toml"
            );
        }
        held.push((rank, name));
    });
    #[cfg(not(debug_assertions))]
    let _ = (rank, name);
    RankGuard {
        #[cfg(debug_assertions)]
        rank,
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
        let a = acquire(rank::MAINT_WRITER, "maint.writer");
        let b = acquire(rank::MAINT_EPOCH, "maint.epoch");
        let c = acquire(rank::CACHE_SHARD, "cache.shard");
        let d = acquire(rank::OBS_REGISTRY_COUNTERS, "obs.registry.counters");
        assert_eq!(held_ranks(), vec![9, 10, 20, 50]);
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
        let _shard = acquire(rank::CACHE_SHARD, "cache.shard");
        let _epoch = acquire(rank::MAINT_EPOCH, "maint.epoch");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn out_of_order_release_is_tolerated() {
        let a = acquire(rank::MAINT_EPOCH, "maint.epoch");
        let b = acquire(rank::CACHE_SHARD, "cache.shard");
        drop(a); // explicit early drop of the outer guard
        assert_eq!(held_ranks(), vec![20]);
        drop(b);
        // After the stack drains, low ranks are acquirable again.
        let c = acquire(rank::COOCCUR_COUNTS, "cooccur.counts");
        drop(c);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_guard_is_zero_sized_and_never_panics() {
        assert_eq!(std::mem::size_of::<RankGuard>(), 0);
        // Inverted order must be free and silent in release.
        let _shard = acquire(rank::CACHE_SHARD, "cache.shard");
        let _epoch = acquire(rank::MAINT_EPOCH, "maint.epoch");
    }

    #[test]
    fn lockorder_toml_matches_rank_constants() {
        // Compiled-in ranks must agree with the analyzer's declared
        // hierarchy. The TOML lives two crates over; parse it the same
        // trivial way xlint does.
        let toml = match std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../xlint/lockorder.toml"
        )) {
            Ok(t) => t,
            Err(_) => return, // packaged standalone; nothing to check against
        };
        for (name, rank) in [
            ("cooccur.counts", rank::COOCCUR_COUNTS),
            ("cooccur.ancestors", rank::COOCCUR_ANCESTORS),
            ("serve.queue", rank::SERVE_QUEUE),
            ("maint.writer", rank::MAINT_WRITER),
            ("maint.epoch", rank::MAINT_EPOCH),
            ("engine.epoch", rank::ENGINE_EPOCH),
            ("cache.shard", rank::CACHE_SHARD),
            ("obs.registry.counters", rank::OBS_REGISTRY_COUNTERS),
            ("obs.registry.gauges", rank::OBS_REGISTRY_GAUGES),
            ("obs.registry.histograms", rank::OBS_REGISTRY_HISTOGRAMS),
        ] {
            let needle = format!("\"{name}\" = {rank}");
            assert!(
                toml.contains(&needle),
                "lockorder.toml out of sync: expected `{needle}`"
            );
        }
    }
}
