//! Virtual filesystem layer under the pager and the WAL.
//!
//! Every byte the store persists flows through a [`Vfs`]: [`StdVfs`]
//! forwards to the real filesystem, while [`FaultVfs`] is a
//! deterministic in-memory filesystem that can fail the Nth mutating
//! operation, persist only a prefix of a write (short write), tear a
//! `sync` in half, fill the disk from the Nth operation on, or cut power
//! entirely — snapshotting the bytes that would survive on disk so
//! recovery can be exercised from *every* I/O boundary.
//!
//! ## Durability model of `FaultVfs`
//!
//! Each file keeps two images: `data` (what the running process
//! observes) and `durable` (what a power cut preserves), plus the list
//! of operations pending since the last `sync_data`. The namespace
//! (which paths exist, renames, removals) is likewise split into a live
//! view and a durable view; `sync_parent_dir` promotes namespace changes
//! for one directory, mirroring POSIX crash semantics where a created or
//! renamed file is only durable once its directory entry is flushed.
//!
//! A power cut replaces the live state with a survivor picked by
//! [`SurvivalMode`]:
//!
//! * [`SurvivalMode::LoseUnsynced`] — only explicitly synced bytes and
//!   directory entries survive (write-back cache lost).
//! * [`SurvivalMode::KeepUnsynced`] — everything, including the
//!   in-flight operation, made it to the platter just in time.
//! * [`SurvivalMode::TornTail`] — half of the pending operations
//!   survive, and a write at the tear point persists only half of its
//!   bytes: the classic torn page / torn log frame.

use crate::error::{KvError, Result};
use crate::fsutil;
use obs::lockrank::rank;
use obs::sync::Mutex;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A positioned-I/O file handle. All methods take `&self`; handles are
/// internally synchronized.
pub trait VfsFile: Send + Sync {
    /// Reads exactly `buf.len()` bytes at `offset`.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;
    /// Writes all of `data` at `offset`, extending the file if needed.
    fn write_all_at(&self, offset: u64, data: &[u8]) -> Result<()>;
    /// Truncates or zero-extends the file to `len` bytes.
    fn set_len(&self, len: u64) -> Result<()>;
    /// Current file length in bytes.
    fn len(&self) -> Result<u64>;
    /// True when the file is empty.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Flushes file contents to durable storage.
    fn sync_data(&self) -> Result<()>;
}

/// Filesystem operations the store needs beyond a single open file.
pub trait Vfs: Send + Sync {
    /// Opens `path` read-write, creating it empty if absent.
    fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>>;
    /// True when `path` currently exists.
    fn exists(&self, path: &Path) -> bool;
    /// Removes `path`; succeeds if it does not exist.
    fn remove(&self, path: &Path) -> Result<()>;
    /// Atomically renames `from` over `to`, then fsyncs their directory:
    /// the new name is durable once this returns. It is the only rename
    /// the trait offers, so a rename cannot be written without its sync.
    fn replace(&self, from: &Path, to: &Path) -> Result<()>;
    /// Fsyncs the directory containing `path`, making creations and
    /// removals under it durable.
    fn sync_parent_dir(&self, path: &Path) -> Result<()>;
}

/// The production [`Vfs`]: real files, real fsync.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

impl StdVfs {
    /// A shareable handle to the standard filesystem.
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }
}

struct StdFile {
    file: Mutex<std::fs::File>,
}

impl VfsFile for StdFile {
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut f = self.file.lock(); // xlint::lock(vfs.file)
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)?;
        Ok(())
    }

    fn write_all_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let mut f = self.file.lock(); // xlint::lock(vfs.file)
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(data)?;
        Ok(())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.file.lock().set_len(len)?; // xlint::lock(vfs.file)
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.file.lock().metadata()?.len()) // xlint::lock(vfs.file)
    }

    fn sync_data(&self) -> Result<()> {
        self.file.lock().sync_data()?; // xlint::lock(vfs.file)
        Ok(())
    }
}

impl Vfs for StdVfs {
    fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(StdFile {
            file: Mutex::new(rank::VFS_FILE, file),
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&self, path: &Path) -> Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn replace(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to)?;
        fsutil::sync_parent_dir(to)
    }

    fn sync_parent_dir(&self, path: &Path) -> Result<()> {
        fsutil::sync_parent_dir(path)
    }
}

/// What survives a simulated power cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurvivalMode {
    /// Only explicitly synced data and directory entries survive.
    LoseUnsynced,
    /// Every pending operation, including the in-flight one, survives.
    KeepUnsynced,
    /// Half of the pending operations survive; a write at the tear
    /// point keeps only half of its bytes (torn write).
    TornTail,
}

/// The failure injected at the chosen operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The operation fails with an I/O error; the filesystem stays up.
    Error,
    /// A write persists only half of its bytes, then fails.
    ShortWrite,
    /// A sync flushes only half of the pending operations, then fails.
    TornSync,
    /// The disk is full from this operation on, until
    /// [`FaultVfs::clear_fault`]: every write or `set_len` that would
    /// make a file longer fails with [`std::io::ErrorKind::StorageFull`]
    /// and changes nothing; everything else still works.
    NoSpace,
    /// Power is cut at this operation; every later operation fails
    /// until [`FaultVfs::power_cycle`].
    PowerCut(SurvivalMode),
}

#[derive(Debug, Clone)]
enum PendingOp {
    Write { offset: u64, data: Vec<u8> },
    SetLen(u64),
}

fn apply_op(buf: &mut Vec<u8>, op: &PendingOp) {
    match op {
        PendingOp::Write { offset, data } => {
            let offset = *offset as usize;
            let end = offset + data.len();
            if buf.len() < end {
                buf.resize(end, 0);
            }
            buf[offset..end].copy_from_slice(data);
        }
        PendingOp::SetLen(n) => buf.resize(*n as usize, 0),
    }
}

#[derive(Debug, Default)]
struct Node {
    data: Vec<u8>,
    durable: Vec<u8>,
    pending: Vec<PendingOp>,
}

impl Node {
    fn sync(&mut self) {
        self.durable = self.data.clone();
        self.pending.clear();
    }

    /// Applies a prefix of the pending operations to the durable image,
    /// tearing a write at the boundary, then makes that the live state.
    fn torn_apply(&mut self) {
        let keep_full = self.pending.len() / 2;
        for op in &self.pending[..keep_full] {
            apply_op(&mut self.durable, op);
        }
        if let Some(PendingOp::Write { offset, data }) = self.pending.get(keep_full) {
            let torn = PendingOp::Write {
                offset: *offset,
                data: data[..data.len() / 2].to_vec(),
            };
            apply_op(&mut self.durable, &torn);
        }
        self.data = self.durable.clone();
        self.pending.clear();
    }
}

#[derive(Debug, Default)]
struct FsInner {
    nodes: Vec<Node>,
    /// Volatile namespace: what the running process sees.
    live: HashMap<PathBuf, usize>,
    /// Durable namespace: what a power cut preserves.
    durable_ns: HashMap<PathBuf, usize>,
    /// Mutating operations performed so far.
    ops: u64,
    /// Fire `fault.1` when the op counter reaches `fault.0`.
    fault: Option<(u64, Fault)>,
    fired: bool,
    /// True between a power cut and `power_cycle`.
    dead: bool,
}

impl FsInner {
    /// Counts one mutating operation and reports the fault to inject,
    /// if this is the chosen operation. `grows` says whether the
    /// operation would make a file longer, the one kind a full disk
    /// refuses.
    fn begin_op(&mut self, grows: bool) -> Result<Option<Fault>> {
        if self.dead {
            return Err(power_off());
        }
        let hit = match self.fault {
            Some((at, Fault::NoSpace)) => (grows && self.ops >= at).then_some(Fault::NoSpace),
            Some((at, f)) if !self.fired && self.ops == at => Some(f),
            _ => None,
        };
        self.fired |= hit.is_some();
        self.ops += 1;
        Ok(hit)
    }

    /// Cuts power. `complete` applies the in-flight operation in full
    /// (used by `KeepUnsynced`); `tear` queues it as pending so
    /// `TornTail` can tear it.
    fn power_cut(
        &mut self,
        mode: SurvivalMode,
        complete: impl FnOnce(&mut FsInner),
        tear: impl FnOnce(&mut FsInner),
    ) {
        match mode {
            SurvivalMode::KeepUnsynced => {
                complete(self);
                for node in &mut self.nodes {
                    node.sync();
                }
                self.durable_ns = self.live.clone();
            }
            SurvivalMode::LoseUnsynced => {
                for node in &mut self.nodes {
                    node.data = node.durable.clone();
                    node.pending.clear();
                }
                self.live = self.durable_ns.clone();
            }
            SurvivalMode::TornTail => {
                tear(self);
                for node in &mut self.nodes {
                    node.torn_apply();
                }
                self.live = self.durable_ns.clone();
            }
        }
        self.dead = true;
    }
}

fn injected(what: &str) -> KvError {
    KvError::Io(std::io::Error::other(format!("injected fault: {what}")))
}

fn no_space() -> KvError {
    KvError::Io(std::io::Error::new(
        std::io::ErrorKind::StorageFull,
        "injected fault: no space left on device",
    ))
}

fn power_off() -> KvError {
    KvError::Io(std::io::Error::other(
        "simulated power failure: filesystem is down until power_cycle",
    ))
}

/// Deterministic in-memory filesystem with fault injection. Cloning
/// shares the filesystem.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    inner: Arc<Mutex<FsInner>>,
}

impl Default for FaultVfs {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultVfs {
    /// A fresh, empty, fault-free filesystem.
    pub fn new() -> Self {
        FaultVfs {
            inner: Arc::new(Mutex::new(rank::VFS_STATE, FsInner::default())),
        }
    }

    /// A shareable trait-object handle to this filesystem.
    pub fn as_dyn(&self) -> Arc<dyn Vfs> {
        Arc::new(self.clone())
    }

    /// Arms `fault` to fire on the `at`-th mutating operation
    /// (0-based, counted from filesystem creation).
    pub fn set_fault(&self, at: u64, fault: Fault) {
        let mut inner = self.inner.lock(); // xlint::lock(vfs.state)
        inner.fault = Some((at, fault));
        inner.fired = false;
    }

    /// Disarms any pending fault.
    pub fn clear_fault(&self) {
        self.inner.lock().fault = None; // xlint::lock(vfs.state)
    }

    /// Number of mutating operations performed so far.
    pub fn op_count(&self) -> u64 {
        self.inner.lock().ops // xlint::lock(vfs.state)
    }

    /// True if the armed fault has fired.
    pub fn fault_fired(&self) -> bool {
        self.inner.lock().fired // xlint::lock(vfs.state)
    }

    /// True between a power cut and [`Self::power_cycle`].
    pub fn is_dead(&self) -> bool {
        self.inner.lock().dead // xlint::lock(vfs.state)
    }

    /// Restores power after a [`Fault::PowerCut`]. The surviving state
    /// was already selected at cut time; old handles remain usable but
    /// refer to the post-cut images.
    pub fn power_cycle(&self) {
        self.inner.lock().dead = false; // xlint::lock(vfs.state)
    }

    /// Test hook: flips the byte at `offset` of `path` in place,
    /// bypassing fault accounting (simulates at-rest bit-rot).
    pub fn corrupt_byte(&self, path: &Path, offset: usize) -> Result<()> {
        let mut inner = self.inner.lock(); // xlint::lock(vfs.state)
        let node = *inner
            .live
            .get(path)
            .ok_or_else(|| KvError::corrupt(format!("corrupt_byte: no such file {path:?}")))?;
        let node = &mut inner.nodes[node];
        for image in [&mut node.data, &mut node.durable] {
            if let Some(b) = image.get_mut(offset) {
                *b ^= 0xFF;
            }
        }
        Ok(())
    }

    /// Test hook: a snapshot of the live bytes of `path`.
    pub fn read_file(&self, path: &Path) -> Option<Vec<u8>> {
        let inner = self.inner.lock(); // xlint::lock(vfs.state)
        inner.live.get(path).map(|&n| inner.nodes[n].data.clone())
    }

    /// The first half of [`Vfs::replace`]: moves `from`'s directory
    /// entry to `to` in the live namespace only.
    fn rename_entry(&self, from: &Path, to: &Path) -> Result<()> {
        let mut inner = self.inner.lock(); // xlint::lock(vfs.state)
        match inner.begin_op(false)? {
            None => {
                let node = inner.live.remove(from).ok_or_else(|| {
                    KvError::Io(std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        format!("rename: no such file {from:?}"),
                    ))
                })?;
                inner.live.insert(to.to_path_buf(), node);
                Ok(())
            }
            Some(Fault::PowerCut(mode)) => {
                let (from, to) = (from.to_path_buf(), to.to_path_buf());
                inner.power_cut(
                    mode,
                    |fs| {
                        if let Some(node) = fs.live.remove(&from) {
                            fs.live.insert(to, node);
                        }
                    },
                    |_| {},
                );
                Err(power_off())
            }
            Some(_) => Err(injected("rename failed")),
        }
    }
}

struct FaultFile {
    inner: Arc<Mutex<FsInner>>,
    node: usize,
}

impl VfsFile for FaultFile {
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let inner = self.inner.lock(); // xlint::lock(vfs.state)
        if inner.dead {
            return Err(power_off());
        }
        let data = &inner.nodes[self.node].data;
        let offset = offset as usize;
        let end = offset.checked_add(buf.len()).filter(|&e| e <= data.len());
        match end {
            Some(end) => {
                buf.copy_from_slice(&data[offset..end]);
                Ok(())
            }
            None => Err(KvError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "read of {} bytes at {offset} past end of {}-byte file",
                    buf.len(),
                    data.len()
                ),
            ))),
        }
    }

    fn write_all_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock(); // xlint::lock(vfs.state)
        let op = PendingOp::Write {
            offset,
            data: data.to_vec(),
        };
        let grows = offset + data.len() as u64 > inner.nodes[self.node].data.len() as u64;
        match inner.begin_op(grows)? {
            None => {
                let node = &mut inner.nodes[self.node];
                apply_op(&mut node.data, &op);
                node.pending.push(op);
                Ok(())
            }
            Some(Fault::ShortWrite) => {
                let short = PendingOp::Write {
                    offset,
                    data: data[..data.len() / 2].to_vec(),
                };
                let node = &mut inner.nodes[self.node];
                apply_op(&mut node.data, &short);
                node.pending.push(short);
                Err(injected("short write"))
            }
            Some(Fault::PowerCut(mode)) => {
                let node = self.node;
                inner.power_cut(
                    mode,
                    |fs| {
                        let n = &mut fs.nodes[node];
                        apply_op(&mut n.data, &op);
                        n.pending.push(op.clone());
                    },
                    |fs| fs.nodes[node].pending.push(op.clone()),
                );
                Err(power_off())
            }
            Some(Fault::NoSpace) => Err(no_space()),
            Some(Fault::Error) | Some(Fault::TornSync) => Err(injected("write failed")),
        }
    }

    fn set_len(&self, len: u64) -> Result<()> {
        let mut inner = self.inner.lock(); // xlint::lock(vfs.state)
        let op = PendingOp::SetLen(len);
        let grows = len > inner.nodes[self.node].data.len() as u64;
        match inner.begin_op(grows)? {
            None => {
                let node = &mut inner.nodes[self.node];
                apply_op(&mut node.data, &op);
                node.pending.push(op);
                Ok(())
            }
            Some(Fault::PowerCut(mode)) => {
                let node = self.node;
                inner.power_cut(
                    mode,
                    |fs| {
                        let n = &mut fs.nodes[node];
                        apply_op(&mut n.data, &op);
                        n.pending.push(op.clone());
                    },
                    |fs| fs.nodes[node].pending.push(op.clone()),
                );
                Err(power_off())
            }
            Some(Fault::NoSpace) => Err(no_space()),
            Some(_) => Err(injected("set_len failed")),
        }
    }

    fn len(&self) -> Result<u64> {
        let inner = self.inner.lock(); // xlint::lock(vfs.state)
        if inner.dead {
            return Err(power_off());
        }
        Ok(inner.nodes[self.node].data.len() as u64)
    }

    fn sync_data(&self) -> Result<()> {
        let mut inner = self.inner.lock(); // xlint::lock(vfs.state)
        match inner.begin_op(false)? {
            None => {
                inner.nodes[self.node].sync();
                Ok(())
            }
            Some(Fault::TornSync) => {
                let node = &mut inner.nodes[self.node];
                let keep = node.pending.len() / 2;
                let rest = node.pending.split_off(keep);
                let flushed = std::mem::replace(&mut node.pending, rest);
                for op in &flushed {
                    apply_op(&mut node.durable, op);
                }
                Err(injected("torn sync"))
            }
            Some(Fault::PowerCut(mode)) => {
                let node = self.node;
                inner.power_cut(mode, |fs| fs.nodes[node].sync(), |_| {});
                Err(power_off())
            }
            Some(_) => Err(injected("sync failed")),
        }
    }
}

fn parent_of(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

impl Vfs for FaultVfs {
    fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let mut inner = self.inner.lock(); // xlint::lock(vfs.state)
        if let Some(&node) = inner.live.get(path) {
            if inner.dead {
                return Err(power_off());
            }
            return Ok(Box::new(FaultFile {
                inner: self.inner.clone(),
                node,
            }));
        }
        // Creation mutates the (volatile) namespace.
        match inner.begin_op(false)? {
            None => {
                let node = inner.nodes.len();
                inner.nodes.push(Node::default());
                inner.live.insert(path.to_path_buf(), node);
                Ok(Box::new(FaultFile {
                    inner: self.inner.clone(),
                    node,
                }))
            }
            Some(Fault::PowerCut(mode)) => {
                let path = path.to_path_buf();
                inner.power_cut(
                    mode,
                    |fs| {
                        let node = fs.nodes.len();
                        fs.nodes.push(Node::default());
                        fs.live.insert(path, node);
                    },
                    |_| {},
                );
                Err(power_off())
            }
            Some(_) => Err(injected("create failed")),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.lock().live.contains_key(path) // xlint::lock(vfs.state)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let mut inner = self.inner.lock(); // xlint::lock(vfs.state)
        match inner.begin_op(false)? {
            None => {
                inner.live.remove(path);
                Ok(())
            }
            Some(Fault::PowerCut(mode)) => {
                let path = path.to_path_buf();
                inner.power_cut(
                    mode,
                    |fs| {
                        fs.live.remove(&path);
                    },
                    |_| {},
                );
                Err(power_off())
            }
            Some(_) => Err(injected("remove failed")),
        }
    }

    /// Two injected operations, the rename and then the directory sync,
    /// so a power cut can land between them.
    fn replace(&self, from: &Path, to: &Path) -> Result<()> {
        self.rename_entry(from, to)?;
        self.sync_parent_dir(to)
    }

    fn sync_parent_dir(&self, path: &Path) -> Result<()> {
        let mut inner = self.inner.lock(); // xlint::lock(vfs.state)
        let dir = parent_of(path);
        let promote = move |fs: &mut FsInner| {
            fs.durable_ns.retain(|p, _| parent_of(p) != dir);
            let adds: Vec<(PathBuf, usize)> = fs
                .live
                .iter()
                .filter(|(p, _)| parent_of(p) == dir)
                .map(|(p, &n)| (p.clone(), n))
                .collect();
            fs.durable_ns.extend(adds);
        };
        match inner.begin_op(false)? {
            None => {
                promote(&mut inner);
                Ok(())
            }
            Some(Fault::PowerCut(mode)) => {
                inner.power_cut(mode, promote, |_| {});
                Err(power_off())
            }
            Some(_) => Err(injected("directory sync failed")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn write_read_roundtrip() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        f.write_all_at(0, b"hello").unwrap();
        f.write_all_at(5, b" world").unwrap();
        let mut buf = [0u8; 11];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
        assert_eq!(f.len().unwrap(), 11);
    }

    #[test]
    fn read_past_eof_is_an_error() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        f.write_all_at(0, b"abc").unwrap();
        let mut buf = [0u8; 4];
        assert!(f.read_exact_at(0, &mut buf).is_err());
    }

    #[test]
    fn nth_op_fails_and_filesystem_stays_up() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap(); // op 0: create
        vfs.set_fault(2, Fault::Error);
        f.write_all_at(0, b"one").unwrap(); // op 1
        assert!(f.write_all_at(3, b"two").is_err()); // op 2: injected
        f.write_all_at(3, b"two").unwrap(); // op 3: fault is one-shot
        assert_eq!(vfs.read_file(&p("a")).unwrap(), b"onetwo");
    }

    #[test]
    fn a_full_disk_refuses_only_growth_until_cleared() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        f.write_all_at(0, b"abcdef").unwrap();
        vfs.set_fault(vfs.op_count() + 1, Fault::NoSpace);
        f.write_all_at(6, b"g").unwrap(); // before the chosen op
        assert!(!vfs.fault_fired());
        for _ in 0..2 {
            let err = f.write_all_at(5, b"xyz").unwrap_err();
            assert!(matches!(err, KvError::Io(e) if e.kind() == std::io::ErrorKind::StorageFull));
            assert!(f.set_len(8).is_err());
        }
        assert!(vfs.fault_fired());
        // Overwrites, shrinks, syncs and the namespace still work.
        f.write_all_at(0, b"AB").unwrap();
        f.set_len(4).unwrap();
        f.sync_data().unwrap();
        vfs.sync_parent_dir(&p("a")).unwrap();
        assert_eq!(vfs.read_file(&p("a")).unwrap(), b"ABcd");
        vfs.clear_fault();
        f.write_all_at(4, b"ef").unwrap();
        assert_eq!(vfs.read_file(&p("a")).unwrap(), b"ABcdef");
    }

    #[test]
    fn short_write_persists_half_the_bytes() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        vfs.set_fault(1, Fault::ShortWrite);
        assert!(f.write_all_at(0, b"abcdefgh").is_err());
        assert_eq!(vfs.read_file(&p("a")).unwrap(), b"abcd");
    }

    #[test]
    fn power_cut_losing_unsynced_reverts_to_last_sync() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        f.write_all_at(0, b"durable").unwrap();
        f.sync_data().unwrap();
        vfs.sync_parent_dir(&p("a")).unwrap();
        f.write_all_at(0, b"VOLATIL").unwrap();
        vfs.set_fault(vfs.op_count(), Fault::PowerCut(SurvivalMode::LoseUnsynced));
        assert!(f.write_all_at(7, b"x").is_err());
        assert!(f.len().is_err(), "filesystem is down until power_cycle");
        vfs.power_cycle();
        assert_eq!(vfs.read_file(&p("a")).unwrap(), b"durable");
    }

    #[test]
    fn power_cut_keeping_unsynced_retains_the_in_flight_write() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        vfs.sync_parent_dir(&p("a")).unwrap();
        f.write_all_at(0, b"abc").unwrap();
        vfs.set_fault(vfs.op_count(), Fault::PowerCut(SurvivalMode::KeepUnsynced));
        assert!(f.write_all_at(3, b"def").is_err());
        vfs.power_cycle();
        assert_eq!(vfs.read_file(&p("a")).unwrap(), b"abcdef");
    }

    #[test]
    fn power_cut_torn_tail_tears_the_boundary_write() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        vfs.sync_parent_dir(&p("a")).unwrap();
        f.write_all_at(0, b"base").unwrap();
        f.sync_data().unwrap();
        // One pending write, then the cut arrives on a second write:
        // pending = [w1, w2(in flight)] -> w1 survives whole, w2 torn.
        f.write_all_at(4, b"1111").unwrap();
        vfs.set_fault(vfs.op_count(), Fault::PowerCut(SurvivalMode::TornTail));
        assert!(f.write_all_at(8, b"2222").is_err());
        vfs.power_cycle();
        assert_eq!(vfs.read_file(&p("a")).unwrap(), b"base111122");
    }

    #[test]
    fn unsynced_directory_entry_loses_the_file_on_power_cut() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("wal")).unwrap();
        f.write_all_at(0, b"records").unwrap();
        f.sync_data().unwrap(); // file bytes durable, dir entry not
        vfs.set_fault(vfs.op_count(), Fault::PowerCut(SurvivalMode::LoseUnsynced));
        assert!(vfs.remove(&p("other")).is_err()); // any op triggers the cut
        vfs.power_cycle();
        assert!(!vfs.exists(&p("wal")), "creation was never made durable");
    }

    #[test]
    fn replace_is_durable_when_it_returns() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("db.new")).unwrap();
        f.write_all_at(0, b"new tree").unwrap();
        f.sync_data().unwrap();
        vfs.replace(&p("db.new"), &p("db")).unwrap();
        vfs.set_fault(vfs.op_count(), Fault::PowerCut(SurvivalMode::LoseUnsynced));
        let g = vfs.open(&p("db")).unwrap();
        assert!(g.set_len(0).is_err());
        vfs.power_cycle();
        assert!(vfs.exists(&p("db")));
        assert!(!vfs.exists(&p("db.new")));
        assert_eq!(vfs.read_file(&p("db")).unwrap(), b"new tree");
    }

    /// A durable `db`, and a `db.new` whose bytes are synced but whose
    /// directory entry is not, replaced over `db` with power cut under
    /// `mode` between the rename and the directory sync.
    fn replace_cut_between_halves(mode: SurvivalMode) -> FaultVfs {
        let vfs = FaultVfs::new();
        let old = vfs.open(&p("db")).unwrap();
        old.write_all_at(0, b"old tree").unwrap();
        old.sync_data().unwrap();
        vfs.sync_parent_dir(&p("db")).unwrap();
        let new = vfs.open(&p("db.new")).unwrap();
        new.write_all_at(0, b"new tree").unwrap();
        new.sync_data().unwrap();
        // Op `op_count()` is the rename; the one after it the sync.
        vfs.set_fault(vfs.op_count() + 1, Fault::PowerCut(mode));
        assert!(vfs.replace(&p("db.new"), &p("db")).is_err());
        assert!(vfs.fault_fired());
        vfs.power_cycle();
        vfs
    }

    #[test]
    fn a_cut_between_rename_and_dir_sync_loses_only_unsynced_state() {
        // The rename never reached the directory: `db` is the old file,
        // and the new one's unsynced entry is gone with it.
        let vfs = replace_cut_between_halves(SurvivalMode::LoseUnsynced);
        assert_eq!(vfs.read_file(&p("db")).unwrap(), b"old tree");
        assert!(!vfs.exists(&p("db.new")));

        // Everything in flight made it: the rename survives.
        let vfs = replace_cut_between_halves(SurvivalMode::KeepUnsynced);
        assert_eq!(vfs.read_file(&p("db")).unwrap(), b"new tree");
        assert!(!vfs.exists(&p("db.new")));
    }

    #[test]
    fn torn_sync_flushes_half_the_pending_ops() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        vfs.sync_parent_dir(&p("a")).unwrap();
        f.write_all_at(0, b"11").unwrap();
        f.write_all_at(2, b"22").unwrap();
        f.write_all_at(4, b"33").unwrap();
        f.write_all_at(6, b"44").unwrap();
        vfs.set_fault(vfs.op_count(), Fault::TornSync);
        assert!(f.sync_data().is_err());
        // First two writes are durable; the rest are still pending, so a
        // LoseUnsynced cut drops exactly them.
        vfs.set_fault(vfs.op_count(), Fault::PowerCut(SurvivalMode::LoseUnsynced));
        assert!(f.write_all_at(8, b"x").is_err());
        vfs.power_cycle();
        assert_eq!(vfs.read_file(&p("a")).unwrap(), b"1122");
    }
}
