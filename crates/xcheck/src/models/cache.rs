//! Generation-stamped cache insert vs invalidate (production:
//! `invindex::ListCache`).
//!
//! A cache fill computed under generation `g` may only be inserted if
//! the cache is still at generation `g` — the check happens under the
//! cache lock, so a concurrent invalidation (bump generation, then clear
//! the slot) can never leave a stale entry behind. The seeded bug drops
//! the generation-stamp check at insert: an entry computed before the
//! bump slips in after the clear and survives as a stale hit.

use crate::sched::{explore, Config, Outcome};
use crate::shim::{XAtomicU64, XMutex};

use super::Bug;

pub struct State {
    /// Current cache generation; bumped by the invalidator.
    generation: XAtomicU64,
    /// One cache slot: `(generation it was computed under, value)`.
    slot: XMutex<Option<(u64, u64)>>,
    bug: Bug,
}

fn inserter(s: &State) {
    // Compute a fill under the generation observed at start.
    let g = s.generation.load();
    let value = 7;
    let mut slot = s.slot.lock();
    match s.bug {
        Bug::None => {
            // Production shape: re-check the generation under the lock.
            if s.generation.load() == g {
                *slot = Some((g, value));
            }
        }
        Bug::Seeded => {
            // Seeded bug: no gen-stamp check — insert unconditionally.
            *slot = Some((g, value));
        }
    }
}

fn invalidator(s: &State) {
    // Production order: bump first so in-flight fills fail their
    // re-check, then clear whatever was already inserted.
    s.generation.fetch_add(1);
    let mut slot = s.slot.lock();
    *slot = None;
}

/// Explores insert-vs-invalidate; a violation is a stale entry — one
/// stamped with an older generation than current — surviving to the end.
pub fn check(bug: Bug) -> Outcome {
    explore(
        &Config::default(),
        move || State {
            generation: XAtomicU64::new(0),
            slot: XMutex::new(None),
            bug,
        },
        &[inserter, invalidator],
        |s| {
            let current = s.generation.load();
            match *s.slot.lock() {
                Some((g, _)) if g != current => Err(format!(
                    "stale cache entry: stamped gen {g}, current gen {current}"
                )),
                _ => Ok(()),
            }
        },
    )
}
