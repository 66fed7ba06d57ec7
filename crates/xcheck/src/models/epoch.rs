//! Epoch publish vs reader pin (production: `LiveEngine`'s engine
//! republish, the one epoch pointer).
//!
//! The updater builds a new engine over the store's new reader and only
//! then swaps the epoch pointer; a reader that pins the published epoch
//! must see a fully built snapshot. The model collapses "the snapshot" to one cell:
//! the writer fills `snapshot`, then publishes `epoch = 1`. The seeded
//! bug flips the publish order — epoch first, snapshot second — which is
//! exactly the handoff the production code orders the other way around.

use crate::sched::{explore, Config, Outcome};
use crate::shim::XAtomicU64;

use super::Bug;

pub struct State {
    /// Collapsed snapshot contents: 0 = unbuilt, SNAPSHOT_READY = built.
    snapshot: XAtomicU64,
    /// Published epoch: readers pin by loading it.
    epoch: XAtomicU64,
    bug: Bug,
}

const SNAPSHOT_READY: u64 = 42;

fn writer(s: &State) {
    match s.bug {
        Bug::None => {
            s.snapshot.store(SNAPSHOT_READY);
            s.epoch.store(1);
        }
        Bug::Seeded => {
            // Seeded bug: publish before the snapshot is built.
            s.epoch.store(1);
            s.snapshot.store(SNAPSHOT_READY);
        }
    }
}

fn reader(s: &State) {
    let pinned = s.epoch.load();
    let seen = s.snapshot.load();
    if pinned == 1 && seen != SNAPSHOT_READY {
        panic!("pinned epoch 1 but read an unbuilt snapshot ({seen})");
    }
}

/// Explores the handoff exhaustively; the violation (when seeded) is the
/// reader's panic above.
pub fn check(bug: Bug) -> Outcome {
    explore(
        &Config::default(),
        move || State {
            snapshot: XAtomicU64::new(0),
            epoch: XAtomicU64::new(0),
            bug,
        },
        &[writer, reader],
        |_| Ok(()),
    )
}
