//! Write-ahead log with CRC-checked records and torn-tail recovery.
//!
//! The index build of §VII runs against a durable store (Berkeley DB in
//! the paper). Our B+-tree alone is not crash-safe — a torn page write
//! could lose committed data — so [`crate::durable::DurableKv`] layers
//! this WAL in front of it: every mutation is appended (length-prefixed,
//! CRC32-guarded) and fsynced before being applied; on open the log is
//! replayed and any torn tail is truncated away. Replay is two halves:
//! `scan`, the one frame parser (records + intact-prefix length, no
//! side effect), and the truncation, which only the writer's
//! [`Wal::replay`] performs — a read-only open ([`read_log`], behind
//! [`crate::snapshot::Snapshot::open`]) sees the same committed prefix
//! and leaves the file as found.
//!
//! A *torn tail* is strictly the final, incompletely written record: a
//! crash can only tear the bytes that were in flight. A damaged record
//! with intact records *after* it cannot be a crash artifact — it means
//! committed data was corrupted in place — so replay reports it as
//! [`KvError::Corrupt`] instead of silently dropping the committed
//! records behind it.
//!
//! Record wire format (little-endian):
//!
//! ```text
//! [len: u32][crc32: u32][kind: u8][payload: len-5 bytes]
//! kind 1 = Put       payload = [klen: u32][key][value]
//! kind 2 = Delete    payload = [klen: u32][key]
//! kind 4 = TxnBegin  payload = [seq: u64]
//! kind 5 = TxnCommit payload = [seq: u64]
//! ```
//!
//! Kind 3 is retired: a checkpoint resets the log instead of marking
//! it, so a checksum-valid kind-3 frame is corruption like any other
//! undecodable body.
//!
//! Records between a `TxnBegin` and its matching `TxnCommit` form one
//! atomic transaction: [`Wal::append_txn`] writes the whole group with a
//! single positional write and a single fsync, so a crash either keeps
//! the entire group or tears it. Replay drops an unterminated group at
//! the tail (it was never acknowledged) and truncates the file back to
//! the group's `TxnBegin`; an unterminated group *followed by* intact
//! records cannot be a crash artifact and is reported as corruption.

use crate::codec;
use crate::error::{KvError, Result};
use crate::vfs::{StdVfs, Vfs, VfsFile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    Put {
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Delete {
        key: Vec<u8>,
    },
    /// Opens an atomic group; `seq` must match the closing
    /// [`WalRecord::TxnCommit`].
    TxnBegin {
        seq: u64,
    },
    /// Closes the atomic group opened by the [`WalRecord::TxnBegin`]
    /// with the same `seq`.
    TxnCommit {
        seq: u64,
    },
}

/// CRC-32 (IEEE 802.3, reflected) — implemented locally; the workspace
/// keeps its dependency list minimal (DESIGN.md §5). Every page read is
/// checksummed whole (4 088 bytes) and so is every list frame, which
/// makes this the largest per-byte cost of a list-cache miss, so it runs
/// slice-by-16: sixteen input bytes per step, each looked up in its own
/// table and the sixteen remainders XORed together, with a byte-at-a-time
/// tail.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let (blocks, tail) = data.as_chunks::<16>();
    for block in blocks {
        // The running remainder folds into the block's first four bytes;
        // byte `j` of the result is then worth table `15 - j`.
        let mut bytes = *block;
        for (b, h) in bytes.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= h;
        }
        crc = bytes
            .into_iter()
            .zip((0..16).rev())
            .fold(0, |acc, (b, table)| acc ^ crc_lookup(table, b));
    }
    for &b in tail {
        crc = (crc >> 8) ^ crc_lookup(0, crc as u8 ^ b);
    }
    !crc
}

/// Entry `byte` of slice-by-16 table `table` (`< 16`).
#[inline(always)]
fn crc_lookup(table: usize, byte: u8) -> u32 {
    // xlint::allow(no-panic-paths): every caller passes a table below 16, and a u8 index is below the 256 entries
    CRC_TABLES[table][usize::from(byte)]
}

/// Slice-by-16 tables for the reflected 0xEDB88320 polynomial: entry `i`
/// of table `k` is the remainder of byte `i` followed by `k` zero bytes,
/// so table 0 is the classic per-byte table.
const CRC_TABLES: [[u32; 256]; 16] = {
    const POLY: u32 = 0xEDB8_8320;
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut t = 0usize;
        while t < 16 {
            // Eight bit steps: one more (zero) byte through the register.
            let mut k = 0;
            while k < 8 {
                c = (c >> 1) ^ (POLY & (c & 1).wrapping_neg());
                k += 1;
            }
            // xlint::allow(no-panic-paths): const-evaluated initializer; t < 16 and i < 256 are the loop bounds
            tables[t][i] = c;
            t += 1;
        }
        i += 1;
    }
    tables
};

/// An append-only write-ahead log over one file.
pub struct Wal {
    path: PathBuf,
    file: Box<dyn VfsFile>,
    /// Byte offset where the next frame is appended. Maintained
    /// explicitly because the [`VfsFile`] interface is positional.
    tail: u64,
    /// When set, [`Self::reset_with_vfs`] refuses to run unless
    /// [`Self::note_base_durable`] was called since the last reset —
    /// the durability-ordering audit for checkpointing stores.
    audit_reset: bool,
    /// Set by the owner once the checkpointed base state is durable;
    /// consumed (cleared) by the next reset.
    base_durable_noted: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` on the real
    /// filesystem.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with_vfs(&StdVfs::arc(), path)
    }

    /// Opens (creating if absent) the log at `path` through `vfs`. When
    /// the file is freshly created, the parent directory is fsynced as
    /// well — without that, a crash right after creation can lose the
    /// file (and with it every record subsequently acknowledged) even
    /// though each append fsyncs the file itself.
    pub fn open_with_vfs(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        let existed = vfs.exists(path);
        let file = vfs.open(path)?;
        if !existed {
            file.sync_data()?;
            vfs.sync_parent_dir(path)?;
        }
        let tail = file.len()?;
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            tail,
            audit_reset: false,
            base_durable_noted: false,
        })
    }

    /// Arms the durability-ordering audit: every subsequent
    /// [`Self::reset_with_vfs`] fails unless [`Self::note_base_durable`]
    /// was called first. Owners that truncate the log only after
    /// checkpointing (i.e. `DurableKv`) arm this at open so an ordering
    /// regression — truncating the log while recovery still depends on
    /// it — surfaces as a hard error instead of silent data loss.
    pub fn require_reset_audit(&mut self) {
        self.audit_reset = true;
    }

    /// Records that the checkpointed base state the log protects has
    /// been made durable (fsynced and, where relevant, its rename
    /// fsynced too), so the log may now be truncated.
    pub fn note_base_durable(&mut self) {
        self.base_durable_noted = true;
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a record and flushes it to stable storage.
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        let body = encode_body(record);
        let mut frame = Vec::with_capacity(body.len() + 8);
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        if let Err(e) = self.file.write_all_at(self.tail, &frame) {
            // Best-effort rollback of a short write so the tail stays
            // parseable; the frame was never acknowledged.
            let _ = self.file.set_len(self.tail);
            return Err(e);
        }
        self.file.sync_data()?;
        obs::counter!("kvstore_wal_appends_total").inc();
        obs::counter!("kvstore_wal_appended_bytes_total").add(frame.len() as u64);
        obs::counter!("kvstore_wal_syncs_total").inc();
        obs::trace::count("wal.syncs", 1);
        self.tail += frame.len() as u64;
        Ok(())
    }

    /// Appends `ops` as one atomic group — `TxnBegin(seq)`, the ops,
    /// `TxnCommit(seq)` — with a single positional write and a single
    /// fsync. A crash mid-write leaves at worst an unterminated group,
    /// which replay rolls back wholesale; there is no interleaving in
    /// which a proper subset of `ops` survives.
    pub fn append_txn(&mut self, seq: u64, ops: &[WalRecord]) -> Result<()> {
        let mut frames = Vec::new();
        let push = |record: &WalRecord, frames: &mut Vec<u8>| {
            let body = encode_body(record);
            frames.extend_from_slice(&(body.len() as u32).to_le_bytes());
            frames.extend_from_slice(&crc32(&body).to_le_bytes());
            frames.extend_from_slice(&body);
        };
        push(&WalRecord::TxnBegin { seq }, &mut frames);
        for op in ops {
            debug_assert!(
                matches!(op, WalRecord::Put { .. } | WalRecord::Delete { .. }),
                "only Put/Delete may appear inside a transaction"
            );
            push(op, &mut frames);
        }
        push(&WalRecord::TxnCommit { seq }, &mut frames);
        if let Err(e) = self.file.write_all_at(self.tail, &frames) {
            // Best-effort rollback of a short write; the group was never
            // acknowledged (and even unrolled, replay drops it).
            let _ = self.file.set_len(self.tail);
            return Err(e);
        }
        self.file.sync_data()?;
        obs::counter!("kvstore_wal_appends_total").add(ops.len() as u64 + 2);
        obs::counter!("kvstore_wal_appended_bytes_total").add(frames.len() as u64);
        obs::counter!("kvstore_wal_syncs_total").inc();
        obs::counter!("kvstore_wal_txns_total").inc();
        obs::trace::count("wal.syncs", 1);
        self.tail += frames.len() as u64;
        Ok(())
    }

    /// Reads every intact record from the start of the log (see
    /// `scan`) and truncates a torn tail away so appends resume at
    /// the intact prefix. The truncation is the writer's half of
    /// recovery; a read-only open runs `scan` alone.
    pub fn replay(&mut self) -> Result<Vec<WalRecord>> {
        let buf = read_all(self.file.as_ref())?;
        let (records, intact) = scan(&buf)?;
        if intact < buf.len() {
            self.file.set_len(intact as u64)?;
        }
        self.tail = intact as u64;
        Ok(records)
    }

    /// Truncates the log to empty (after the state has been checkpointed
    /// elsewhere). Both the file and its directory are fsynced so the
    /// truncation — the moment recovery stops depending on the log — is
    /// itself durable.
    pub fn reset(&mut self) -> Result<()> {
        self.reset_with_vfs(&StdVfs::arc())
    }

    /// [`Self::reset`] through an explicit `vfs` (must be the one the
    /// log was opened with).
    pub fn reset_with_vfs(&mut self, vfs: &Arc<dyn Vfs>) -> Result<()> {
        if self.audit_reset && !self.base_durable_noted {
            return Err(KvError::corrupt(
                "WAL reset ordered before the checkpointed base was durable: truncating \
                 here could drop committed records"
                    .to_string(),
            ));
        }
        self.base_durable_noted = false;
        self.file.set_len(0)?;
        // Track the truncation immediately: if one of the syncs below
        // fails, the file *is* empty and a stale tail would make the next
        // append leave a zero gap that replays as corruption.
        self.tail = 0;
        self.file.sync_data()?;
        vfs.sync_parent_dir(&self.path)?;
        Ok(())
    }

    /// Current log size in bytes.
    pub fn len(&mut self) -> Result<u64> {
        self.file.len()
    }

    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// A read-only look at the log at `path`: its intact records and how
/// many trailing bytes are torn. An absent log is an empty one; nothing
/// is created or truncated.
pub fn read_log(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<(Vec<WalRecord>, u64)> {
    if !vfs.exists(path) {
        return Ok((Vec::new(), 0));
    }
    let buf = read_all(vfs.open(path)?.as_ref())?;
    let (records, intact) = scan(&buf)?;
    Ok((records, (buf.len() - intact) as u64))
}

fn read_all(file: &dyn VfsFile) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; file.len()? as usize];
    file.read_exact_at(0, &mut buf)?;
    Ok(buf)
}

/// The one frame parser: every intact record of a log image plus the
/// byte length of its intact prefix. Mutates nothing. A torn or corrupt
/// *tail* ends the scan silently (those records were never acknowledged
/// as committed) and an unterminated transaction group at the tail is
/// rolled back whole; a damaged record *followed by* an intact one is
/// mid-log corruption of committed data and is reported as
/// [`KvError::Corrupt`].
fn scan(buf: &[u8]) -> Result<(Vec<WalRecord>, usize)> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    // Open transaction: (index into `records` of its TxnBegin, byte
    // offset of that frame, its seq).
    let mut txn: Option<(usize, usize, u64)> = None;
    while pos < buf.len() {
        if pos + 8 > buf.len() {
            ensure_tail_only(buf, pos)?;
            break; // torn length header
        }
        let len = codec::u32_at(buf, pos, "WAL frame length")? as usize;
        let crc = codec::u32_at(buf, pos + 4, "WAL frame checksum")?;
        if pos + 8 + len > buf.len() {
            ensure_tail_only(buf, pos)?;
            break; // torn body
        }
        let body = codec::slice_at(buf, pos + 8, len, "WAL frame body")?;
        if crc32(body) != crc {
            ensure_tail_only(buf, pos)?;
            break; // torn final record
        }
        match decode_body(body) {
            Some(r) => {
                match &r {
                    WalRecord::TxnBegin { seq } => {
                        if txn.is_some() {
                            return Err(KvError::corrupt(format!(
                                "WAL transaction at byte {pos} begins inside an \
                                 unterminated transaction"
                            )));
                        }
                        txn = Some((records.len(), pos, *seq));
                    }
                    WalRecord::TxnCommit { seq } => match txn.take() {
                        Some((_, _, begin_seq)) if begin_seq == *seq => {}
                        Some((_, at, begin_seq)) => {
                            return Err(KvError::corrupt(format!(
                                "WAL commit at byte {pos} (seq {seq}) does not match \
                                 the open transaction at byte {at} (seq {begin_seq})"
                            )));
                        }
                        None => {
                            return Err(KvError::corrupt(format!(
                                "WAL commit at byte {pos} has no matching begin"
                            )));
                        }
                    },
                    _ => {}
                }
                records.push(r);
            }
            None => {
                // A fully written, CRC-valid frame that does not
                // decode was never a torn write.
                return Err(KvError::corrupt(format!(
                    "WAL record at byte {pos} has a valid checksum but undecodable body"
                )));
            }
        }
        pos += 8 + len;
    }
    // An unterminated transaction at the tail was torn mid-group
    // (the group is written with one write + one fsync, so nothing
    // in it was ever acknowledged): roll the whole group back.
    if let Some((idx, at, _)) = txn {
        records.truncate(idx);
        pos = at;
    }
    Ok((records, pos))
}

/// Reports mid-log corruption: the frame at `bad_at` is damaged, so no
/// *committed* (intact, decodable) record may follow it. A torn tail —
/// the only damage a crash can cause — is always last.
fn ensure_tail_only(buf: &[u8], bad_at: usize) -> Result<()> {
    // The damaged frame's length field is untrusted, so scan every byte
    // offset behind it. An 8-zero-byte run decodes as an "intact" empty
    // frame, hence the decode check: only a frame that parses into a
    // record is evidence of committed data.
    for p in bad_at + 1..buf.len() {
        if frame_is_intact(buf, p) && decode_at(buf, p).is_some() {
            return Err(KvError::corrupt(format!(
                "WAL record at byte {bad_at} is damaged but an intact record follows at \
                 byte {p}: mid-log corruption, not a torn tail"
            )));
        }
    }
    Ok(())
}

fn encode_body(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match record {
        WalRecord::Put { key, value } => {
            out.push(1);
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(value);
        }
        WalRecord::Delete { key } => {
            out.push(2);
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key);
        }
        WalRecord::TxnBegin { seq } => {
            out.push(4);
            out.extend_from_slice(&seq.to_le_bytes());
        }
        WalRecord::TxnCommit { seq } => {
            out.push(5);
            out.extend_from_slice(&seq.to_le_bytes());
        }
    }
    out
}

fn decode_body(body: &[u8]) -> Option<WalRecord> {
    match body.first()? {
        1 => {
            let klen = u32::from_le_bytes(body.get(1..5)?.try_into().ok()?) as usize;
            let key = body.get(5..5 + klen)?.to_vec();
            let value = body.get(5 + klen..)?.to_vec();
            Some(WalRecord::Put { key, value })
        }
        2 => {
            let klen = u32::from_le_bytes(body.get(1..5)?.try_into().ok()?) as usize;
            if body.len() != 5 + klen {
                return None;
            }
            let key = body.get(5..5 + klen)?.to_vec();
            Some(WalRecord::Delete { key })
        }
        4 => {
            let seq = u64::from_le_bytes(body.get(1..9)?.try_into().ok()?);
            (body.len() == 9).then_some(WalRecord::TxnBegin { seq })
        }
        5 => {
            let seq = u64::from_le_bytes(body.get(1..9)?.try_into().ok()?);
            (body.len() == 9).then_some(WalRecord::TxnCommit { seq })
        }
        _ => None,
    }
}

/// Decodes the record of the frame at `buf[pos..]`, if it is intact.
fn decode_at(buf: &[u8], pos: usize) -> Option<WalRecord> {
    let len = codec::u32_at(buf, pos, "frame length").ok()? as usize;
    let body = buf.get(pos + 8..pos + 8 + len)?;
    decode_body(body)
}

/// Validates a record frame at `buf[pos..]`.
fn frame_is_intact(buf: &[u8], pos: usize) -> bool {
    let Ok(len) = codec::u32_at(buf, pos, "frame length") else {
        return false;
    };
    let Ok(crc) = codec::u32_at(buf, pos + 4, "frame checksum") else {
        return false;
    };
    let len = len as usize;
    match pos
        .checked_add(8 + len)
        .and_then(|end| buf.get(pos + 8..end))
    {
        Some(body) => crc32(body) == crc,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kvwal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = tmp("roundtrip.wal");
        let records = vec![
            WalRecord::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            },
            WalRecord::Delete { key: b"a".to_vec() },
            WalRecord::Put {
                key: b"b".to_vec(),
                value: vec![0xFF; 1000],
            },
        ];
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.replay().unwrap(), records);
        // replay is idempotent
        assert_eq!(wal.replay().unwrap(), records);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Put {
                key: b"k1".to_vec(),
                value: b"v1".to_vec(),
            })
            .unwrap();
            wal.append(&WalRecord::Put {
                key: b"k2".to_vec(),
                value: b"v2".to_vec(),
            })
            .unwrap();
        }
        // simulate a crash mid-write: chop bytes off the tail
        let full = std::fs::read(&path).unwrap();
        for cut in 1..full.len() {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let mut wal = Wal::open(&path).unwrap();
            let records = wal.replay().unwrap();
            assert!(records.len() <= 2);
            // the intact prefix is always a prefix of the full history
            for (i, r) in records.iter().enumerate() {
                let expected_key = if i == 0 { b"k1" } else { b"k2" };
                match r {
                    WalRecord::Put { key, .. } => assert_eq!(key, expected_key),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn mid_log_bit_flip_is_corruption_not_a_torn_tail() {
        // A damaged record with intact records after it means committed
        // data was corrupted in place; silently truncating there would
        // drop the committed suffix. Regression for the old behavior of
        // `replay`, which treated any bad frame as a torn tail.
        let path = tmp("midlog.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            for i in 0..5u8 {
                wal.append(&WalRecord::Put {
                    key: vec![i],
                    value: vec![i; 16],
                })
                .unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        let frame = full.len() / 5;
        // Flip a byte inside the third record's body.
        let mut bytes = full.clone();
        bytes[2 * frame + 10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        match wal.replay() {
            Err(KvError::Corrupt { context, .. }) => {
                assert!(context.contains("mid-log"), "context: {context}");
            }
            other => panic!("expected mid-log corruption, got {other:?}"),
        }

        // Flip a byte in every *other* position of the log and check the
        // verdict is always corruption (records follow) except within
        // the final frame, where truncation to the intact prefix is the
        // correct recovery.
        let last_frame_start = 4 * frame;
        for flip in 0..full.len() {
            let mut bytes = full.clone();
            bytes[flip] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            let mut wal = Wal::open(&path).unwrap();
            match wal.replay() {
                Ok(records) => {
                    assert!(
                        flip >= last_frame_start,
                        "flip at {flip} silently truncated committed records"
                    );
                    assert_eq!(records.len(), 4);
                }
                Err(KvError::Corrupt { .. }) => {
                    assert!(
                        flip < last_frame_start,
                        "flip at {flip} inside the tail frame"
                    );
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn corrupt_final_record_is_truncated_as_torn_tail() {
        let path = tmp("tailflip.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            for i in 0..3u8 {
                wal.append(&WalRecord::Put {
                    key: vec![i],
                    value: vec![i; 16],
                })
                .unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let frame = bytes.len() / 3;
        let n = bytes.len();
        bytes[2 * frame + frame / 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 2);
        // The damaged tail was truncated away.
        assert!(wal.len().unwrap() < n as u64);
    }

    #[test]
    fn reset_empties_the_log() {
        let path = tmp("reset.wal");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Delete { key: b"k".to_vec() })
            .unwrap();
        assert!(!wal.is_empty().unwrap());
        wal.reset().unwrap();
        assert!(wal.is_empty().unwrap());
        assert!(wal.replay().unwrap().is_empty());
    }

    #[test]
    fn fresh_create_then_torn_tail_then_recreate_reopens_cleanly() {
        // Exercises the creation/truncation durability path end to end:
        // every transition a crash could interrupt (fresh create, torn
        // append, checkpoint reset, re-create) must leave a log the next
        // open can replay.
        let path = tmp("fresh_create.wal");

        // 1. Fresh create (directory fsync path), no records yet.
        {
            let mut wal = Wal::open(&path).unwrap();
            assert!(wal.replay().unwrap().is_empty());
        }
        assert!(path.exists(), "create must leave a durable file");

        // 2. Append, then tear the tail mid-record.
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Put {
                key: b"survives".to_vec(),
                value: b"1".to_vec(),
            })
            .unwrap();
            wal.append(&WalRecord::Put {
                key: b"torn".to_vec(),
                value: vec![0xAB; 64],
            })
            .unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        {
            let mut wal = Wal::open(&path).unwrap();
            let records = wal.replay().unwrap();
            assert_eq!(records.len(), 1);
            assert!(matches!(&records[0], WalRecord::Put { key, .. } if key == b"survives"));
            // 3. Checkpoint-style reset (truncation durability path).
            wal.reset().unwrap();
        }

        // 4. Delete and re-create at the same path (the checkpoint-rename
        //    shape): the fresh log must open and serve appends again.
        std::fs::remove_file(&path).unwrap();
        {
            let mut wal = Wal::open(&path).unwrap();
            assert!(wal.replay().unwrap().is_empty());
            wal.append(&WalRecord::Delete { key: b"k".to_vec() })
                .unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(
            wal.replay().unwrap(),
            vec![WalRecord::Delete { key: b"k".to_vec() }]
        );
    }

    #[test]
    fn txn_roundtrip_and_tail_rollback() {
        let path = tmp("txn.wal");
        let ops = vec![
            WalRecord::Put {
                key: b"x".to_vec(),
                value: b"1".to_vec(),
            },
            WalRecord::Delete { key: b"y".to_vec() },
        ];
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Put {
                key: b"pre".to_vec(),
                value: b"0".to_vec(),
            })
            .unwrap();
            wal.append_txn(7, &ops).unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            let records = wal.replay().unwrap();
            assert_eq!(records.len(), 5); // pre + begin + 2 ops + commit
            assert_eq!(records[1], WalRecord::TxnBegin { seq: 7 });
            assert_eq!(records[4], WalRecord::TxnCommit { seq: 7 });
        }
        // Tear the commit off: the whole group must roll back, and the
        // file must truncate to before the TxnBegin so later appends do
        // not strand a dangling group mid-log.
        let full = std::fs::read(&path).unwrap();
        for cut in 1..40 {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let mut wal = Wal::open(&path).unwrap();
            let records = wal.replay().unwrap();
            if records.len() > 1 {
                // the cut spared the commit frame: all-or-nothing
                assert_eq!(records.len(), 5);
            } else {
                assert_eq!(records.len(), 1);
                // appending after the rollback keeps the log clean
                wal.append_txn(8, &ops).unwrap();
                drop(wal);
                let mut wal = Wal::open(&path).unwrap();
                let records = wal.replay().unwrap();
                assert_eq!(records.len(), 5);
                assert_eq!(records[1], WalRecord::TxnBegin { seq: 8 });
            }
        }
    }

    #[test]
    fn dangling_txn_mid_log_is_corruption() {
        let path = tmp("txn_midlog.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            // Forge an unterminated group followed by an intact record
            // (a writer never produces this; only in-place damage can).
            wal.append(&WalRecord::TxnBegin { seq: 1 }).unwrap();
            wal.append(&WalRecord::Put {
                key: b"in".to_vec(),
                value: b"txn".to_vec(),
            })
            .unwrap();
            wal.append(&WalRecord::TxnBegin { seq: 2 }).unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        match wal.replay() {
            Err(KvError::Corrupt { context, .. }) => {
                assert!(context.contains("unterminated"), "context: {context}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn commit_without_begin_is_corruption() {
        let path = tmp("txn_orphan_commit.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::TxnCommit { seq: 3 }).unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        assert!(matches!(wal.replay(), Err(KvError::Corrupt { .. })));
    }

    #[test]
    fn undecodable_bodies_are_corruption_including_the_retired_checkpoint_kind() {
        // Kind 3 once meant "checkpoint"; nothing writes it any more, so
        // a checksum-valid kind-3 frame is as undecodable as a kind-9
        // one — and, being intact, never a torn tail.
        for body in [vec![3u8], vec![9u8], vec![4u8, 1, 2]] {
            let path = tmp("undecodable.wal");
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crc32(&body).to_le_bytes());
            frame.extend_from_slice(&body);
            std::fs::write(&path, &frame).unwrap();
            let mut wal = Wal::open(&path).unwrap();
            match wal.replay() {
                Err(KvError::Corrupt { context, .. }) => assert!(
                    context.contains("valid checksum but undecodable body"),
                    "kind {}: {context}",
                    body[0]
                ),
                other => panic!("kind {}: expected corruption, got {other:?}", body[0]),
            }
            let vfs = StdVfs::arc();
            assert!(read_log(&vfs, &path).is_err(), "kind {}", body[0]);
        }
    }

    #[test]
    fn reset_audit_orders_base_sync_before_truncate() {
        let path = tmp("audit.wal");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Delete { key: b"k".to_vec() })
            .unwrap();
        wal.require_reset_audit();
        // Truncating before the base is durable must fail loudly…
        assert!(matches!(wal.reset(), Err(KvError::Corrupt { .. })));
        assert!(!wal.is_empty().unwrap(), "audit failure must not truncate");
        // …and succeed once the durability note is recorded.
        wal.note_base_durable();
        wal.reset().unwrap();
        assert!(wal.is_empty().unwrap());
        // The note is consumed: the next reset needs a fresh note.
        wal.append(&WalRecord::Delete { key: b"k".to_vec() })
            .unwrap();
        assert!(matches!(wal.reset(), Err(KvError::Corrupt { .. })));
    }

    #[test]
    fn appending_after_torn_replay_continues_cleanly() {
        let path = tmp("continue.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            })
            .unwrap();
        }
        // torn garbage at the end
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[1, 2, 3]).unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.replay().unwrap().len(), 1);
        wal.append(&WalRecord::Put {
            key: b"b".to_vec(),
            value: b"2".to_vec(),
        })
        .unwrap();
        drop(wal);
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.replay().unwrap().len(), 2);
    }
}
