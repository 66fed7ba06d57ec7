//! Live (updatable) engine: an [`XRefineEngine`] kept current over an
//! online-maintained store.
//!
//! [`LiveEngine`] pairs a [`MaintIndex`] — the WAL-backed updating store
//! — with a republished query engine, and owns the one epoch pointer
//! readers pin. Readers call [`LiveEngine::engine`] and get an `Arc` to
//! an engine pinned to one index generation; they are never blocked by a
//! committing writer. After each committed transaction the writer takes
//! the store's new reader ([`MaintIndex::snapshot`]), rebuilds the engine
//! façade over it (the vocabulary trigram index is the only derived
//! state) and swaps the shared pointer.
//!
//! Lock order: `MaintIndex` takes `maint.writer` (9) for a commit and
//! again, momentarily, for `snapshot`, and releases it before this
//! module touches `engine.epoch` (11), so the hierarchy stays strictly
//! increasing. The generation guard on the swap makes concurrent
//! `update` calls safe: a commit that loses the race to republish cannot
//! roll the engine back to an older snapshot.

use crate::engine::{EngineConfig, XRefineEngine};
use invindex::maint::{MaintIndex, MaintOp, MaintReport};
use kvstore::{Result, Vfs};
use obs::lockrank::rank;
use obs::sync::Mutex;
use std::path::Path;
use std::sync::Arc;

/// An updatable engine over a maintained store.
pub struct LiveEngine {
    maint: MaintIndex,
    config: EngineConfig,
    /// Generation-stamped published engine, held only for pointer reads
    /// and guarded swaps: the protected state is a complete, immutable
    /// snapshot pair at every step, which is what `obs::sync`'s
    /// recover-on-poison policy requires.
    engine: Mutex<(u64, Arc<XRefineEngine>)>,
}

impl LiveEngine {
    /// Opens (or recovers) the maintained store at `base` and builds the
    /// initial engine from its current snapshot.
    pub fn open(base: &Path, config: EngineConfig) -> Result<Self> {
        Self::from_maint(MaintIndex::open(base)?, config)
    }

    /// As [`LiveEngine::open`], on an explicit VFS (tests, fault
    /// injection).
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, base: &Path, config: EngineConfig) -> Result<Self> {
        Self::from_maint(MaintIndex::open_with_vfs(vfs, base)?, config)
    }

    fn from_maint(maint: MaintIndex, config: EngineConfig) -> Result<Self> {
        let snap = maint.snapshot();
        let gen = snap.generation();
        let engine = Arc::new(XRefineEngine::from_reader(snap, config.clone()));
        Ok(LiveEngine {
            maint,
            config,
            engine: Mutex::new(rank::ENGINE_EPOCH, (gen, engine)),
        })
    }

    /// The currently published engine. The returned `Arc` stays valid —
    /// and keeps answering from its pinned generation — across any
    /// number of subsequent commits.
    pub fn engine(&self) -> Arc<XRefineEngine> {
        Arc::clone(&self.engine.lock().1) // xlint::lock(engine.epoch)
    }

    /// Generation of the currently published engine.
    pub fn generation(&self) -> u64 {
        self.engine.lock().0 // xlint::lock(engine.epoch)
    }

    /// Commits a maintenance transaction and republishes the engine.
    pub fn update(&self, ops: &[MaintOp]) -> Result<MaintReport> {
        let report = self.maint.commit(ops)?;
        self.republish();
        Ok(report)
    }

    /// Folds the WAL overlay into the base store; republishes only if a
    /// compaction actually ran.
    pub fn compact(&self) -> Result<bool> {
        let ran = self.maint.compact()?;
        if ran {
            self.republish();
        }
        Ok(ran)
    }

    /// The underlying maintained index (sequence, records, metrics).
    pub fn maint(&self) -> &MaintIndex {
        &self.maint
    }

    /// Rebuilds the engine façade from the latest snapshot and swaps it
    /// in, unless a racing caller already published something newer.
    /// Runs after `maint.writer` is released: see the lock order.
    fn republish(&self) {
        let snap = self.maint.snapshot();
        let gen = snap.generation();
        let fresh = Arc::new(XRefineEngine::from_reader(snap, self.config.clone()));
        let mut slot = self.engine.lock(); // xlint::lock(engine.epoch)
        if gen > slot.0 {
            *slot = (gen, fresh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invindex::{build_streaming, persist};
    use kvstore::{DiskKv, FaultVfs, KvStore, VfsFile};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    const CORPUS: &str = "<bib>\
        <paper><title>xml keyword search</title></paper>\
        <paper><title>query refinement</title></paper>\
        </bib>";

    fn fresh() -> (Arc<dyn Vfs>, PathBuf) {
        let vfs = FaultVfs::new().as_dyn();
        let base = PathBuf::from("/live/store.db");
        let built = build_streaming(CORPUS, 1).unwrap();
        let mut disk = DiskKv::open_with_vfs(&vfs, &base.with_extension("db")).unwrap();
        persist::persist(&built, &mut disk).unwrap();
        disk.sync().unwrap();
        (vfs, base)
    }

    #[test]
    fn update_republishes_while_pinned_readers_keep_their_generation() {
        let (vfs, base) = fresh();
        let live = LiveEngine::open_with_vfs(vfs, &base, EngineConfig::default()).unwrap();
        let pinned = live.engine();
        let before = live.generation();

        let report = live
            .update(&[MaintOp::Add {
                fragment: "<paper><title>epoch handoff</title></paper>".into(),
            }])
            .unwrap();
        assert_eq!(report.added, 1);
        assert!(live.generation() > before, "engine generation must advance");

        // The pinned engine still answers from the pre-update corpus,
        // where "epoch" has no meaningful result…
        assert!(pinned.answer("epoch").unwrap().needs_refinement());
        // …while a fresh handle sees the new record directly.
        assert!(live.engine().answer("epoch").unwrap().original_ok);
    }

    /// Updaters and compactors racing on one engine: the published
    /// generation never goes backwards — not as an observer sees it, not
    /// behind an update that returned — and the engine left published is
    /// the newest generation and answers the final corpus.
    #[test]
    fn racing_updaters_leave_the_newest_generation_published() {
        const WORDS: [[&str; 5]; 4] = [
            ["amber", "basalt", "cobalt", "dolomite", "epidote"],
            ["feldspar", "garnet", "hematite", "ilmenite", "jasper"],
            ["kyanite", "lazurite", "malachite", "nephrite", "olivine"],
            ["pyrite", "quartz", "rutile", "sphalerite", "topaz"],
        ];
        let (vfs, base) = fresh();
        let live = LiveEngine::open_with_vfs(vfs, &base, EngineConfig::default()).unwrap();
        let barrier = Barrier::new(WORDS.len() + 1);
        std::thread::scope(|s| {
            let writers: Vec<_> = WORDS
                .iter()
                .map(|words| {
                    let (live, barrier) = (&live, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        for word in words {
                            let fragment = format!("<paper><title>{word}</title></paper>");
                            let report = live.update(&[MaintOp::Add { fragment }]).unwrap();
                            assert!(live.generation() >= report.generation, "rolled back");
                            live.compact().unwrap();
                        }
                    })
                })
                .collect();
            barrier.wait();
            let mut seen = live.generation();
            while !writers.iter().all(|w| w.is_finished()) {
                let now = live.generation();
                assert!(now >= seen, "published generation went {seen} -> {now}");
                seen = now;
            }
        });

        assert_eq!(live.generation(), live.maint().snapshot().generation());
        assert_eq!(
            live.maint().record_count(),
            2 + WORDS.len() * WORDS[0].len()
        );
        let engine = live.engine();
        let rebuilt = XRefineEngine::from_xml(&live.maint().full_xml(), EngineConfig::default())
            .expect("the final corpus parses");
        for word in WORDS
            .iter()
            .flatten()
            .chain(&["xml keyword", "query refinement"])
        {
            assert!(
                engine.answer(word).unwrap().original_ok,
                "{word} is not served"
            );
            assert_eq!(
                format!("{:?}", engine.answer_detailed(word)),
                format!("{:?}", rebuilt.answer_detailed(word)),
                "{word}"
            );
        }
    }

    #[test]
    fn compaction_republishes_without_changing_answers() {
        let (vfs, base) = fresh();
        let live = LiveEngine::open_with_vfs(vfs, &base, EngineConfig::default()).unwrap();
        live.update(&[MaintOp::Add {
            fragment: "<paper><title>compaction test</title></paper>".into(),
        }])
        .unwrap();
        assert!(live.maint().overlay_len() > 0);
        assert!(live.compact().unwrap());
        assert_eq!(live.maint().overlay_len(), 0);
        assert!(live.engine().answer("compaction").unwrap().original_ok);
        // A second compact with an empty overlay is a no-op.
        assert!(!live.compact().unwrap());
    }

    /// Parks the first armed `sync_data` on the `.wal` file: reports
    /// `parked`, then waits for `release`.
    struct WalSyncGate {
        armed: AtomicBool,
        parked: mpsc::SyncSender<()>,
        release: std::sync::Mutex<mpsc::Receiver<()>>,
    }

    struct GateVfs {
        inner: Arc<dyn Vfs>,
        gate: Arc<WalSyncGate>,
    }

    struct GatedWal {
        inner: Box<dyn VfsFile>,
        gate: Arc<WalSyncGate>,
    }

    impl Vfs for GateVfs {
        fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
            let inner = self.inner.open(path)?;
            if path.extension().is_some_and(|e| e == "wal") {
                let gate = Arc::clone(&self.gate);
                return Ok(Box::new(GatedWal { inner, gate }));
            }
            Ok(inner)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
        fn remove(&self, path: &Path) -> Result<()> {
            self.inner.remove(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn sync_parent_dir(&self, path: &Path) -> Result<()> {
            self.inner.sync_parent_dir(path)
        }
    }

    impl VfsFile for GatedWal {
        fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.inner.read_exact_at(offset, buf)
        }
        fn write_all_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.inner.write_all_at(offset, data)
        }
        fn set_len(&self, len: u64) -> Result<()> {
            self.inner.set_len(len)
        }
        fn len(&self) -> Result<u64> {
            self.inner.len()
        }
        fn sync_data(&self) -> Result<()> {
            if self.gate.armed.swap(false, Ordering::SeqCst) {
                self.gate.parked.send(()).expect("test is waiting");
                let release = self.gate.release.lock().expect("gate lock");
                release.recv().expect("test opens the gate");
            }
            self.inner.sync_data()
        }
    }

    /// Readers never wait for a commit in flight: with the writer parked
    /// in its WAL fsync — inside `commit`, holding `maint.writer` — a
    /// cold-cache query on another thread completes and answers from the
    /// pre-commit generation.
    #[test]
    fn readers_are_not_blocked_by_a_commit_in_flight() {
        let (inner, base) = fresh();
        let (parked_tx, parked_rx) = mpsc::sync_channel(1);
        let (release_tx, release_rx) = mpsc::sync_channel(1);
        let gate = Arc::new(WalSyncGate {
            armed: AtomicBool::new(false),
            parked: parked_tx,
            release: std::sync::Mutex::new(release_rx),
        });
        let vfs = Arc::new(GateVfs {
            inner,
            gate: Arc::clone(&gate),
        });
        let live = LiveEngine::open_with_vfs(vfs, &base, EngineConfig::default()).unwrap();

        std::thread::scope(|s| {
            gate.armed.store(true, Ordering::SeqCst);
            let writer = s.spawn(|| {
                live.update(&[MaintOp::Add {
                    fragment: "<paper><title>epoch handoff</title></paper>".into(),
                }])
            });
            parked_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the commit reaches its WAL fsync");

            let (done_tx, done_rx) = mpsc::channel();
            let live = &live;
            s.spawn(move || {
                let engine = live.engine();
                let hit = engine.answer("xml keyword").unwrap().original_ok;
                let miss = engine.answer("epoch").unwrap().needs_refinement();
                let _ = done_tx.send((live.generation(), hit, miss));
            });
            let answered = done_rx.recv_timeout(Duration::from_secs(10));
            // Open the gate before asserting, so a failure cannot leave
            // the scope waiting on a parked writer.
            release_tx.send(()).unwrap();
            let (gen, hit, miss) = answered.expect("a reader waited for the commit in flight");
            assert_eq!(gen, 0, "nothing is published before the WAL is durable");
            assert!(hit && miss, "the reader saw the pre-commit corpus");
            assert_eq!(writer.join().unwrap().unwrap().added, 1);
        });
        assert!(live.engine().answer("epoch").unwrap().original_ok);
    }
}
