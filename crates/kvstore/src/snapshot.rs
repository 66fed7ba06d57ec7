//! `Snapshot`: the one immutable merged view of a store.
//!
//! A store's readable state is a *base* (the last B+-tree file written,
//! or any other [`KvStore`]) plus an *overlay* of mutations the base
//! does not hold yet (`Some(v)` = put, `None` = delete). This module is
//! the only place the two are laid over each other: point reads, scans,
//! the live-entry count and the stream a sync feeds the tree builder
//! (`merge`) all go through the functions below, whether the caller is
//! a pinned reader, a [`DiskKv`](crate::store::DiskKv) between syncs,
//! the writer's own [`DurableKv`](crate::durable::DurableKv) — whose
//! only read surface is a snapshot — or a read-only open.
//!
//! A `Snapshot` never changes after it is made. Both halves sit behind
//! `Arc`s, so cloning one is two reference-count bumps; the writer
//! copies its overlay on the first write after handing a snapshot out
//! and swaps in a new base handle when it writes a new tree file, and
//! neither is visible to snapshots taken earlier. The mutating half of
//! [`KvStore`] is refused.
//!
//! [`Snapshot::open`] is the one read-only open: base tree plus the
//! committed transaction groups of the WAL beside it, replayed through
//! [`wal::read_log`] — the frame scan without the tail truncation. It
//! creates, removes and truncates nothing; a half-written checkpoint or
//! a torn log tail left by a crash stays exactly as found, for the next
//! *writer* open to repair.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::btree::BTree;
use crate::durable::BatchOp;
use crate::error::{KvError, Result};
use crate::pager::FilePager;
use crate::store::KvStore;
use crate::vfs::Vfs;
use crate::wal::{self, Txn};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;

/// Committed mutations not yet folded into the base: `Some(v)` = put,
/// `None` = delete.
pub(crate) type Overlay = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

/// An immutable view of `overlay` laid over `base`.
#[derive(Clone)]
pub struct Snapshot {
    pub(crate) base: Arc<dyn KvStore>,
    pub(crate) overlay: Arc<Overlay>,
    pub(crate) len: u64,
}

impl Snapshot {
    /// A view of `base` alone — a store nothing writes to any more.
    pub fn new(base: Arc<dyn KvStore>) -> Self {
        let len = base.len();
        Snapshot {
            base,
            overlay: Arc::new(Overlay::new()),
            len,
        }
    }

    /// A view of `overlay` over `base`, counting the live entries of
    /// the merge: the base's, moved by [`live_delta`] once per overlay
    /// key.
    pub(crate) fn over(base: Arc<dyn KvStore>, overlay: Overlay) -> Result<Self> {
        let mut len = base.len();
        for (key, value) in &overlay {
            len = len.saturating_add_signed(live_delta(base.contains(key)?, value.is_some()));
        }
        Ok(Snapshot {
            base,
            overlay: Arc::new(overlay),
            len,
        })
    }

    /// Opens the store whose base file is `path` — with the committed
    /// transactions of `path.with_extension("wal")`, if there is one,
    /// laid over it — without writing: an absent base file is a
    /// `NotFound` error naming it, and crash leftovers are left alone.
    pub fn open(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        let base = Arc::new(BTree::open(FilePager::open_read_only(vfs, path)?)?);
        let (txns, _torn) = wal::read_log(vfs, &path.with_extension("wal"))?;
        Self::over(base, fold(txns).0)
    }

    /// Number of overlay entries (puts and deletes) over the base.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// Lays one mutation over the view: `Some(v)` puts, `None` deletes,
    /// and `existed` says whether the key was live before. The overlay is
    /// copied first if a snapshot taken earlier still shares it.
    pub(crate) fn lay(&mut self, key: &[u8], value: Option<&[u8]>, existed: bool) {
        Arc::make_mut(&mut self.overlay).insert(key.to_vec(), value.map(<[u8]>::to_vec));
        self.len = self
            .len
            .saturating_add_signed(live_delta(existed, value.is_some()));
    }
}

/// How one overlay entry moves the live-entry count: a put over a
/// missing key adds one, a delete over a present key removes one.
pub(crate) fn live_delta(existed: bool, put: bool) -> i64 {
    i64::from(put) - i64::from(existed)
}

/// Folds replayed transaction groups into the overlay they describe
/// and the sequence number of the last one. Groups arrive whole or not
/// at all (`wal::scan` rolls back an unterminated tail group and reports
/// a dangling mid-log one as corruption), so their ops fold directly.
pub(crate) fn fold(txns: Vec<Txn>) -> (Overlay, u64) {
    let mut overlay = Overlay::new();
    let mut seq = 0u64;
    for txn in txns {
        seq = seq.max(txn.seq);
        for op in txn.ops {
            match op {
                BatchOp::Put(key, value) => overlay.insert(key, Some(value)),
                BatchOp::Delete(key) => overlay.insert(key, None),
            };
        }
    }
    (overlay, seq)
}

/// Lays key-ordered overlay entries over key-ordered base entries: an
/// overlay entry shadows the base entry of the same key, and a delete
/// drops it. It streams — one entry of each side is held at a time — so
/// a sync can feed a whole store through it into the tree builder; a
/// base error is passed on where it occurs.
pub(crate) fn merge<'a>(
    base: impl Iterator<Item = Result<(Vec<u8>, Vec<u8>)>>,
    overlay: impl Iterator<Item = (&'a Vec<u8>, &'a Option<Vec<u8>>)>,
) -> impl Iterator<Item = Result<(Vec<u8>, Vec<u8>)>> {
    let mut base = base.peekable();
    let mut overlay = overlay.peekable();
    std::iter::from_fn(move || loop {
        let overlay_first = match (base.peek(), overlay.peek()) {
            (_, None) | (Some(Err(_)), _) => false,
            (None, Some(_)) => true,
            (Some(Ok((base_key, _))), Some((ov_key, _))) => *ov_key <= base_key,
        };
        if !overlay_first {
            return base.next();
        }
        let (key, value) = overlay.next()?;
        if matches!(base.peek(), Some(Ok((base_key, _))) if base_key == key) {
            base.next();
        }
        if let Some(value) = value {
            return Some(Ok((key.clone(), value.clone())));
        }
    })
}

/// The refusal a read-only view gives the mutating half of [`KvStore`].
pub(crate) fn read_only(op: &str) -> KvError {
    KvError::corrupt(format!(
        "{op} on a read-only view: mutate through the store's writer"
    ))
}

impl KvStore for Snapshot {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.overlay.get(key) {
            Some(v) => Ok(v.clone()),
            None => self.base.get(key),
        }
    }

    fn put(&mut self, _key: &[u8], _value: &[u8]) -> Result<()> {
        Err(read_only("put"))
    }

    fn delete(&mut self, _key: &[u8]) -> Result<bool> {
        Err(read_only("delete"))
    }

    fn contains(&self, key: &[u8]) -> Result<bool> {
        match self.overlay.get(key) {
            Some(v) => Ok(v.is_some()),
            None => self.base.contains(key),
        }
    }

    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let upper = match end {
            Some(e) if e <= start => return Ok(Vec::new()),
            Some(e) => Bound::Excluded(e),
            None => Bound::Unbounded,
        };
        merge(
            self.base.scan_range(start, end)?.into_iter().map(Ok),
            self.overlay
                .range::<[u8], _>((Bound::Included(start), upper)),
        )
        .collect()
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        merge(
            self.base.scan_prefix(prefix)?.into_iter().map(Ok),
            self.overlay
                .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
                .take_while(|(k, _)| k.starts_with(prefix)),
        )
        .collect()
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn sync(&mut self) -> Result<()> {
        Err(read_only("sync"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemKv;

    fn view(base: &[(&str, &str)], overlay: &[(&str, Option<&str>)]) -> Snapshot {
        let mut kv = MemKv::new();
        for (k, v) in base {
            kv.put(k.as_bytes(), v.as_bytes()).unwrap();
        }
        let overlay = overlay
            .iter()
            .map(|(k, v)| (k.as_bytes().to_vec(), v.map(|v| v.as_bytes().to_vec())))
            .collect();
        Snapshot::over(Arc::new(kv), overlay).unwrap()
    }

    fn keys(entries: Vec<(Vec<u8>, Vec<u8>)>) -> String {
        let keys: Vec<_> = entries
            .iter()
            .map(|(k, v)| {
                format!(
                    "{}={}",
                    String::from_utf8_lossy(k),
                    String::from_utf8_lossy(v)
                )
            })
            .collect();
        keys.join(" ")
    }

    #[test]
    fn overlay_shadows_inserts_and_deletes_in_every_read() {
        let s = view(
            &[("b", "1"), ("d", "1"), ("f", "1")],
            &[
                ("a", Some("2")),
                ("b", Some("2")),
                ("c", None),
                ("d", None),
                ("g", Some("2")),
            ],
        );
        assert_eq!(keys(s.scan_range(b"", None).unwrap()), "a=2 b=2 f=1 g=2");
        assert_eq!(keys(s.scan_range(b"b", Some(b"g")).unwrap()), "b=2 f=1");
        assert_eq!(keys(s.scan_range(b"g", Some(b"b")).unwrap()), "");
        assert_eq!(keys(s.scan_prefix(b"g").unwrap()), "g=2");
        assert_eq!(keys(s.scan_prefix(b"d").unwrap()), "");
        assert_eq!(s.len(), 4);
        assert_eq!(s.overlay_len(), 5);
        assert_eq!(s.get(b"b").unwrap().unwrap(), b"2");
        assert_eq!(s.get(b"f").unwrap().unwrap(), b"1");
        assert_eq!(s.get(b"d").unwrap(), None);
        assert!(s.contains(b"a").unwrap() && !s.contains(b"c").unwrap());
    }

    #[test]
    fn the_mutating_half_is_refused() {
        let mut s = view(&[("a", "1")], &[]);
        assert!(s.put(b"k", b"v").is_err());
        assert!(s.delete(b"a").is_err());
        assert!(s.sync().is_err());
        assert_eq!(s.get(b"a").unwrap().unwrap(), b"1");
    }
}
