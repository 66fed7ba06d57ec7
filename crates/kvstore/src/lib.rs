//! `kvstore` — a page-based persistent B+-tree key-value store.
//!
//! The paper stores all of its indices (keyword inverted lists, frequency
//! table, co-occurrence table) in Berkeley DB (§VII). This crate is the
//! workspace's from-scratch substitute: ordered keyed storage with
//! `O(log n)` lookups, prefix/range scans and values of arbitrary size.
//!
//! * [`vfs`]: the virtual filesystem every file touch goes through —
//!   [`StdVfs`] in production, [`FaultVfs`] under fault injection.
//! * [`pager`]: the fixed-size pages of one file, with per-page CRC32
//!   trailers.
//! * [`btree`]: the B+-tree — written once by one bottom-up builder,
//!   then only read.
//! * [`store`]: the [`KvStore`] trait plus [`MemKv`] (BTreeMap model)
//!   and [`DiskKv`], one tree file with the mutations since its last
//!   sync laid over it; a sync writes the merged entries into a new
//!   file and renames it into place.
//! * [`wal`] + [`durable`]: the write-ahead log and [`DurableKv`], the
//!   crash-safe store built from a checkpointed tree and the log.
//! * [`snapshot`]: [`Snapshot`], the one immutable overlay-over-base
//!   view every reader — `DiskKv` and `DurableKv` themselves included —
//!   reads through, and the one read-only open.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod btree;
pub mod codec;
pub mod durable;
pub mod error;
mod fsutil;
pub mod pager;
pub mod snapshot;
pub mod store;
pub mod vfs;
pub mod wal;

pub use btree::{BTree, MAX_KEY_LEN};
pub use durable::{BatchOp, DurableKv};
pub use error::{KvError, Result};
pub use pager::{
    FilePager, PageId, PageVerifyReport, PAGE_SIZE, PAGE_TRAILER_MAGIC, PHYS_PAGE_SIZE,
};
pub use snapshot::Snapshot;
pub use store::{DiskKv, KvStore, MemKv};
pub use vfs::{Fault, FaultVfs, StdVfs, SurvivalMode, Vfs, VfsFile};
pub use wal::{crc32, Wal, WalRecord};
