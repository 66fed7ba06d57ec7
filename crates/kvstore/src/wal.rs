//! Write-ahead log of atomic transaction groups, with CRC-checked
//! frames and torn-tail recovery.
//!
//! The index build of §VII runs against a durable store (Berkeley DB in
//! the paper, whose writers commit transactions). Our B+-tree file is
//! only ever rewritten whole, at a checkpoint, so
//! [`crate::durable::DurableKv`] lays this log in front of it. The log
//! holds transaction groups and nothing else: `Wal::append_txn` writes
//! `TxnBegin(seq)`, one frame per [`BatchOp`] and `TxnCommit(seq)` with
//! a single positional write and a single fsync, so a crash keeps the
//! whole group or tears it — no interleaving leaves a proper subset of
//! its ops behind.
//!
//! Replay is two halves: `scan`, the one frame parser (committed groups
//! and the intact prefix's length, no side effect), and the truncation,
//! which only the writer's `Wal::replay` performs — a read-only open
//! ([`read_log`], behind [`crate::snapshot::Snapshot::open`]) sees the
//! same committed groups and leaves the file as found.
//!
//! A *torn tail* is strictly the final, incompletely written bytes: a
//! crash can only tear what was in flight. Replay drops an unterminated
//! group at the tail (it was never acknowledged) and truncates the file
//! back to its `TxnBegin`. Damage with an intact frame *after* it cannot
//! be a crash artifact — committed data was corrupted in place — so
//! replay reports it as [`KvError::Corrupt`] instead of silently
//! dropping the committed groups behind it. So is every fully written,
//! checksum-valid frame that cannot stand where it stands: an unknown
//! kind, a group opened inside another, a commit without its begin, and
//! a Put or Delete outside a group.
//!
//! Frame wire format (little-endian):
//!
//! ```text
//! [len: u32][crc32(body): u32][body: len bytes]
//! body = [kind: u8][payload]
//! kind 1 = Put       payload = [klen: u32][key][value]
//! kind 2 = Delete    payload = [klen: u32][key]
//! kind 4 = TxnBegin  payload = [seq: u64]
//! kind 5 = TxnCommit payload = [seq: u64]
//! ```
//!
//! Kind 3 is retired: a checkpoint resets the log instead of marking
//! it, so a kind-3 frame is undecodable like any unknown kind.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use crate::codec;
use crate::durable::BatchOp;
use crate::error::{KvError, Result};
use crate::vfs::{Vfs, VfsFile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const PUT: u8 = 1;
const DELETE: u8 = 2;
const TXN_BEGIN: u8 = 4;
const TXN_COMMIT: u8 = 5;

/// One committed transaction group, as replay reads it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Txn {
    pub seq: u64,
    pub ops: Vec<BatchOp>,
}

/// One decoded frame.
enum WalRecord {
    Op(BatchOp),
    TxnBegin(u64),
    TxnCommit(u64),
}

/// CRC-32 (IEEE 802.3, reflected) — implemented locally; the workspace
/// keeps its dependency list minimal (DESIGN.md §5). Every page read is
/// checksummed whole (4 088 bytes) and so is every list frame, which
/// makes this the largest per-byte cost of a list-cache miss. See
/// `crc32_update` for the two kernels it runs on.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// Inputs shorter than this run on the tables: the carry-less fold
/// starts from four 16-byte lanes.
const CLMUL_MIN_LEN: usize = 64;

/// Runs the CRC register `crc` over `data`: `crc32` of a concatenation
/// is the complement of this folded over its parts.
///
/// On `x86_64` with PCLMULQDQ and SSE4.1 (detected at run time), an input
/// of at least [`CLMUL_MIN_LEN`] bytes is folded by carry-less multiply
/// (`crc32_clmul`, ≈ 16 GB/s on the 2 vCPU guest). Shorter inputs and
/// other targets run slice-by-16 (`crc32_table`, ≈ 1.7 GB/s). Both
/// compute the same polynomial, so every stored checksum is the same
/// whichever ran.
fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN_LEN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `crc32_clmul` is compiled for PCLMULQDQ and SSE4.1, and
        // both were detected on this CPU just above.
        return unsafe { crc32_clmul(crc, data) };
    }
    crc32_table(crc, data)
}

/// The CRC register run over `data` slice-by-16: sixteen input bytes per
/// step, each looked up in its own table and the sixteen remainders
/// XORed together, with a byte-at-a-time tail.
fn crc32_table(mut crc: u32, data: &[u8]) -> u32 {
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
    crc
}

/// Entry `byte` of slice-by-16 table `table` (`< 16`).
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "every caller passes a table below 16, and a u8 index is below the 256 entries"
)]
fn crc_lookup(table: usize, byte: u8) -> u32 {
    CRC_TABLES[table][usize::from(byte)]
}

/// Slice-by-16 tables for the reflected 0xEDB88320 polynomial: entry `i`
/// of table `k` is the remainder of byte `i` followed by `k` zero bytes,
/// so table 0 is the classic per-byte table.
#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated initializer; t < 16 and i < 256 are the loop bounds"
)]
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
            tables[t][i] = c;
            t += 1;
        }
        i += 1;
    }
    tables
};

/// The CRC register run over `data` by carry-less multiplication: Intel's
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
/// (Gopal et al., 2009) for the reflected polynomial 0xEDB88320, with the
/// constants Linux's `crc32-pclmul` uses. Four 128-bit lanes fold 64
/// bytes a step, then fold into one lane, which folds what is left 16
/// bytes at a time; the 128-bit remainder is cut to 64 bits and a
/// Barrett reduction takes it to the 32-bit register. The last 0–15
/// bytes go through `crc32_table`.
///
/// # Safety
///
/// Calling it needs `unsafe` because of `#[target_feature]`: the caller
/// must have seen `is_x86_feature_detected!` report both PCLMULQDQ and
/// SSE4.1 on the running CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_clmul(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // x^(4·128+32) and x^(4·128-32) mod P, then x^(128+32) and
    // x^(128-32), then x^64 mod P — each reflected and shifted by one —
    // then P itself and Barrett's μ = floor(x^64 / P), both 33 bits.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Sixteen input bytes as one lane, first byte lowest.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(chunk: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*chunk);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Folds lane `a` forward over 128 bits (`k` holds the distance's two
    /// constants) onto the next lane `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    let (lanes, tail) = data.as_chunks::<16>();
    let (groups, singles) = lanes.as_chunks::<4>();
    let Some(([first, second, third, fourth], groups)) = groups.split_first() else {
        return crc32_table(crc, data);
    };

    // The register is XORed into the input's first four bytes.
    let mut x3 = _mm_xor_si128(load(first), _mm_cvtsi32_si128(crc as i32));
    let mut x2 = load(second);
    let mut x1 = load(third);
    let mut x0 = load(fourth);

    let k1k2 = _mm_set_epi64x(K2, K1);
    for [a, b, c, d] in groups {
        x3 = fold(x3, load(a), k1k2);
        x2 = fold(x2, load(b), k1k2);
        x1 = fold(x1, load(c), k1k2);
        x0 = fold(x0, load(d), k1k2);
    }

    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold(fold(fold(x3, x2, k3k4), x1, k3k4), x0, k3k4);
    for lane in singles {
        x = fold(x, load(lane), k3k4);
    }

    // 128 bits to 64: the low half, times x^(128-32) mod P, onto the high
    // half; then the low 32 bits, times x^64 mod P, onto the rest.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(x, k3k4),
        _mm_srli_si128::<8>(x),
    );
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );

    // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
    // register is the upper half of R ^ T2 (bit-reflected).
    let pu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    let register = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;

    crc32_table(register, tail)
}

/// The append-only log over one file. [`crate::durable::DurableKv`] is
/// its only owner.
pub(crate) struct Wal {
    path: PathBuf,
    file: Box<dyn VfsFile>,
    /// Byte offset where the next group is appended. Maintained
    /// explicitly because the [`VfsFile`] interface is positional.
    tail: u64,
    /// Set when a write or fsync failed: bytes past `tail` may hold
    /// intact frames of a group that was never acknowledged, and a
    /// shorter group written over them would leave those frames behind
    /// it, where replay reports mid-log corruption. The next append
    /// truncates to `tail` before it writes.
    needs_trim: bool,
    /// Set by [`Self::note_base_durable`] once the checkpointed base
    /// state is durable, and consumed by the next
    /// [`Self::reset_with_vfs`], which refuses to run without it: an
    /// ordering regression — truncating the log while recovery still
    /// depends on it — fails hard instead of losing data silently.
    base_durable_noted: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` through `vfs`. When
    /// the file is freshly created, the parent directory is fsynced as
    /// well — without that, a crash right after creation can lose the
    /// file (and with it every group subsequently acknowledged) even
    /// though each append fsyncs the file itself.
    pub(crate) fn open_with_vfs(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
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
            needs_trim: false,
            base_durable_noted: false,
        })
    }

    /// Records that the checkpointed base state the log protects has
    /// been made durable (fsynced, and its rename fsynced too), so the
    /// log may now be truncated.
    pub(crate) fn note_base_durable(&mut self) {
        self.base_durable_noted = true;
    }

    /// Appends `ops` as one atomic group — `TxnBegin(seq)`, the ops,
    /// `TxnCommit(seq)` — with a single positional write and a single
    /// fsync. A crash mid-write leaves at worst an unterminated group,
    /// which replay rolls back whole.
    pub(crate) fn append_txn(&mut self, seq: u64, ops: &[BatchOp]) -> Result<()> {
        let seq = seq.to_le_bytes();
        let mut frames = Vec::new();
        push_frame(&mut frames, TXN_BEGIN, &[&seq]);
        for op in ops {
            let (key, value) = op.entry();
            let klen = (key.len() as u32).to_le_bytes();
            match value {
                Some(value) => push_frame(&mut frames, PUT, &[&klen, key, value]),
                None => push_frame(&mut frames, DELETE, &[&klen, key]),
            }
        }
        push_frame(&mut frames, TXN_COMMIT, &[&seq]);
        self.write_synced(&frames)?;
        obs::counter!("kvstore_wal_appends_total").add(ops.len() as u64 + 2);
        obs::counter!("kvstore_wal_appended_bytes_total").add(frames.len() as u64);
        obs::counter!("kvstore_wal_syncs_total").inc();
        obs::trace::count("wal.syncs", 1);
        self.tail += frames.len() as u64;
        Ok(())
    }

    /// Writes `frames` at the tail and fsyncs them, first truncating
    /// away whatever a failed write or fsync left past the tail. A
    /// failure leaves the tail where it was and arms that truncation.
    fn write_synced(&mut self, frames: &[u8]) -> Result<()> {
        if self.needs_trim {
            self.file.set_len(self.tail)?;
            self.needs_trim = false;
        }
        let written = self.file.write_all_at(self.tail, frames);
        if let Err(e) = written.and_then(|()| self.file.sync_data()) {
            self.needs_trim = true;
            return Err(e);
        }
        Ok(())
    }

    /// Reads every committed group from the start of the log (see
    /// `scan`) and truncates a torn tail away so appends resume at the
    /// intact prefix. The truncation is the writer's half of recovery;
    /// a read-only open runs `scan` alone.
    pub(crate) fn replay(&mut self) -> Result<Vec<Txn>> {
        let buf = read_all(self.file.as_ref())?;
        let (txns, intact) = scan(&buf)?;
        if intact < buf.len() {
            self.file.set_len(intact as u64)?;
        }
        self.tail = intact as u64;
        Ok(txns)
    }

    /// Truncates the log to empty once [`Self::note_base_durable`] has
    /// recorded that the state is checkpointed elsewhere. Both the file
    /// and its directory are fsynced so the truncation — the moment
    /// recovery stops depending on the log — is itself durable. `vfs`
    /// must be the one the log was opened with.
    pub(crate) fn reset_with_vfs(&mut self, vfs: &Arc<dyn Vfs>) -> Result<()> {
        if !self.base_durable_noted {
            return Err(KvError::corrupt(
                "WAL reset ordered before the checkpointed base was durable: truncating \
                 here could drop committed records",
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

    pub(crate) fn is_empty(&self) -> Result<bool> {
        Ok(self.file.len()? == 0)
    }
}

/// Appends one frame to `frames`: the body is `kind` followed by
/// `parts`, which are copied once, straight into place.
fn push_frame(frames: &mut Vec<u8>, kind: u8, parts: &[&[u8]]) {
    let len = parts.iter().fold(1, |n, part| n + part.len());
    let crc = !parts
        .iter()
        .fold(crc32_update(0xFFFF_FFFF, &[kind]), |crc, part| {
            crc32_update(crc, part)
        });
    frames.extend_from_slice(&(len as u32).to_le_bytes());
    frames.extend_from_slice(&crc.to_le_bytes());
    frames.push(kind);
    for part in parts {
        frames.extend_from_slice(part);
    }
}

/// A read-only look at the log at `path`: its committed groups and how
/// many trailing bytes are torn. An absent log is an empty one; nothing
/// is created or truncated.
pub fn read_log(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<(Vec<Txn>, u64)> {
    if !vfs.exists(path) {
        return Ok((Vec::new(), 0));
    }
    let buf = read_all(vfs.open(path)?.as_ref())?;
    let (txns, intact) = scan(&buf)?;
    Ok((txns, (buf.len() - intact) as u64))
}

fn read_all(file: &dyn VfsFile) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; file.len()? as usize];
    file.read_exact_at(0, &mut buf)?;
    Ok(buf)
}

/// The one frame parser: every committed group of a log image plus the
/// byte length of its intact prefix. Mutates nothing. A torn or corrupt
/// *tail* ends the scan silently (none of it was ever acknowledged as
/// committed) and an unterminated group at the tail is rolled back
/// whole; a damaged frame *followed by* an intact one is mid-log
/// corruption of committed data and is reported as [`KvError::Corrupt`],
/// as is an intact frame that cannot stand where it stands.
fn scan(buf: &[u8]) -> Result<(Vec<Txn>, usize)> {
    let mut txns = Vec::new();
    let mut pos = 0usize;
    // The open group: the byte offset of its TxnBegin, and the group.
    let mut open: Option<(usize, Txn)> = None;
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
            break; // torn final frame
        }
        // A fully written, CRC-valid frame that does not decode was
        // never a torn write.
        let record = decode_body(body).ok_or_else(|| {
            KvError::corrupt(format!(
                "WAL record at byte {pos} has a valid checksum but undecodable body"
            ))
        })?;
        match record {
            WalRecord::TxnBegin(seq) => {
                if open.is_some() {
                    return Err(KvError::corrupt(format!(
                        "WAL transaction at byte {pos} begins inside an unterminated transaction"
                    )));
                }
                open = Some((
                    pos,
                    Txn {
                        seq,
                        ops: Vec::new(),
                    },
                ));
            }
            WalRecord::Op(op) => match &mut open {
                Some((_, txn)) => txn.ops.push(op),
                None => {
                    return Err(KvError::corrupt(format!(
                        "WAL record at byte {pos} is a put or delete outside a transaction"
                    )));
                }
            },
            WalRecord::TxnCommit(seq) => match open.take() {
                Some((_, txn)) if txn.seq == seq => txns.push(txn),
                Some((at, txn)) => {
                    return Err(KvError::corrupt(format!(
                        "WAL commit at byte {pos} (seq {seq}) does not match the open \
                         transaction at byte {at} (seq {})",
                        txn.seq
                    )));
                }
                None => {
                    return Err(KvError::corrupt(format!(
                        "WAL commit at byte {pos} has no matching begin"
                    )));
                }
            },
        }
        pos += 8 + len;
    }
    // An unterminated group at the tail was torn mid-write (a group is
    // one write and one fsync, so nothing in it was ever acknowledged):
    // roll the whole group back.
    Ok((txns, open.map_or(pos, |(at, _)| at)))
}

/// Reports mid-log corruption: the frame at `bad_at` is damaged, so no
/// *committed* (intact, decodable) frame may follow it. A torn tail —
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

fn decode_body(body: &[u8]) -> Option<WalRecord> {
    match *body.first()? {
        PUT => {
            let klen = u32::from_le_bytes(body.get(1..5)?.try_into().ok()?) as usize;
            let key = body.get(5..5 + klen)?.to_vec();
            let value = body.get(5 + klen..)?.to_vec();
            Some(WalRecord::Op(BatchOp::Put(key, value)))
        }
        DELETE => {
            let klen = u32::from_le_bytes(body.get(1..5)?.try_into().ok()?) as usize;
            if body.len() != 5 + klen {
                return None;
            }
            let key = body.get(5..5 + klen)?.to_vec();
            Some(WalRecord::Op(BatchOp::Delete(key)))
        }
        TXN_BEGIN => {
            let seq = u64::from_le_bytes(body.get(1..9)?.try_into().ok()?);
            (body.len() == 9).then_some(WalRecord::TxnBegin(seq))
        }
        TXN_COMMIT => {
            let seq = u64::from_le_bytes(body.get(1..9)?.try_into().ok()?);
            (body.len() == 9).then_some(WalRecord::TxnCommit(seq))
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
    use crate::snapshot::fold;
    use crate::vfs::{Fault, FaultVfs, SurvivalMode};

    const LOG: &str = "store.wal";

    fn fs() -> (FaultVfs, Arc<dyn Vfs>) {
        let vfs = FaultVfs::new();
        let dyn_vfs = vfs.as_dyn();
        (vfs, dyn_vfs)
    }

    fn open(vfs: &Arc<dyn Vfs>) -> Wal {
        Wal::open_with_vfs(vfs, Path::new(LOG)).unwrap()
    }

    fn bytes(vfs: &FaultVfs) -> Vec<u8> {
        vfs.read_file(Path::new(LOG)).unwrap()
    }

    /// Replaces the log's bytes with `image`.
    fn write_image(vfs: &Arc<dyn Vfs>, image: &[u8]) {
        let file = vfs.open(Path::new(LOG)).unwrap();
        file.set_len(0).unwrap();
        file.write_all_at(0, image).unwrap();
    }

    fn put(key: &[u8], value: &[u8]) -> BatchOp {
        BatchOp::Put(key.to_vec(), value.to_vec())
    }

    fn txn(seq: u64, ops: Vec<BatchOp>) -> Txn {
        Txn { seq, ops }
    }

    /// One frame built by hand, independently of `push_frame`.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    fn seq_frame(kind: u8, seq: u64) -> Vec<u8> {
        frame(&[&[kind][..], &seq.to_le_bytes()].concat())
    }

    fn op_frame(kind: u8, key: &[u8], value: &[u8]) -> Vec<u8> {
        frame(&[&[kind][..], &(key.len() as u32).to_le_bytes(), key, value].concat())
    }

    fn replay_image(image: &[u8]) -> Result<Vec<Txn>> {
        let (_, vfs) = fs();
        write_image(&vfs, image);
        let replayed = open(&vfs).replay();
        let read = read_log(&vfs, Path::new(LOG)).map(|(txns, _)| txns);
        assert_eq!(
            replayed.as_ref().map_err(|e| e.to_string()),
            read.as_ref().map_err(|e| e.to_string()),
            "the writer's replay and the read-only scan disagree"
        );
        replayed
    }

    fn expect_corrupt(image: &[u8], what: &str) {
        match replay_image(image) {
            Err(KvError::Corrupt { context, .. }) => {
                assert!(context.contains(what), "context: {context}")
            }
            other => panic!("expected corruption ({what}), got {other:?}"),
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
        // The register folds over parts: any split gives the whole's CRC.
        let data: Vec<u8> = (0..100u8).collect();
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(!crc32_update(crc32_update(0xFFFF_FFFF, a), b), crc32(&data));
        }
    }

    /// Deterministic, unstructured bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// The dispatching register fold against slice-by-16, called
    /// directly so the table path stays covered on a CPU whose inputs of
    /// 64 bytes and more go to the carry-less fold: every length to 4 200
    /// bytes — the 64-byte threshold, every fold-tail length, the
    /// 4 088-byte page payload — at all 16 start offsets, and from a
    /// register that is not the initial one. Debug builds stride the
    /// lengths past 200 bytes; `suites.sh torture` runs it in release.
    #[test]
    fn crc32_update_matches_the_tables_at_every_length_and_offset() {
        let stride = if cfg!(debug_assertions) { 29 } else { 1 };
        let data = noise(4_200 + 16);
        for offset in 0..16 {
            for len in (0..=4_200).filter(|len| len < &200 || len % stride == 0) {
                let bytes = &data[offset..offset + len];
                for register in [0xFFFF_FFFF, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(register, bytes),
                        crc32_table(register, bytes),
                        "length {len} at offset {offset} from {register:#x}"
                    );
                }
            }
        }
    }

    /// The register chained over parts, as `push_frame` runs it (a kind
    /// byte, then each part), with parts that straddle the 64-byte
    /// dispatch threshold: the dispatching chain equals the table chain.
    #[test]
    fn crc32_chained_over_parts_matches_the_tables() {
        let data = noise(300);
        let cuts = [0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 200];
        for &a in &cuts {
            for &b in &cuts {
                let (head, rest) = data.split_at(a);
                let (mid, tail) = rest.split_at(b.min(rest.len()));
                let parts = [&[4u8][..], head, mid, tail];
                let chain =
                    |step: fn(u32, &[u8]) -> u32| parts.iter().fold(0xFFFF_FFFF, |c, p| step(c, p));
                assert_eq!(
                    chain(crc32_update),
                    chain(crc32_table),
                    "parts of {a} and {b} bytes"
                );
                assert_eq!(!chain(crc32_update), crc32(&parts.concat()));
            }
        }
    }

    /// The bytes the writer appends for two groups, built frame by frame
    /// in the layout every log since transaction groups has used:
    /// `TxnBegin` (4), Put (1) / Delete (2), `TxnCommit` (5).
    #[test]
    fn the_log_format_is_pinned_frame_by_frame() {
        let big = [0xFF; 300];
        let image = [
            seq_frame(4, 1),
            op_frame(1, b"a", b"1"),
            op_frame(2, b"b", b""),
            op_frame(1, b"c", &big),
            seq_frame(5, 1),
            seq_frame(4, 2),
            op_frame(2, b"a", b""),
            seq_frame(5, 2),
        ]
        .concat();
        assert_eq!(image[..9], [9, 0, 0, 0, 0x3C, 0x45, 0x4F, 0x77, 4]);

        let groups = vec![
            txn(
                1,
                vec![
                    put(b"a", b"1"),
                    BatchOp::Delete(b"b".to_vec()),
                    put(b"c", &big),
                ],
            ),
            txn(2, vec![BatchOp::Delete(b"a".to_vec())]),
        ];
        let (vfs, dyn_vfs) = fs();
        let mut wal = open(&dyn_vfs);
        for group in &groups {
            wal.append_txn(group.seq, &group.ops).unwrap();
        }
        assert_eq!(bytes(&vfs), image, "the writer's bytes moved");

        let replayed = replay_image(&image).unwrap();
        assert_eq!(replayed, groups);
        let (overlay, seq) = fold(replayed);
        assert_eq!(seq, 2);
        let want = [
            (b"a".to_vec(), None),
            (b"b".to_vec(), None),
            (b"c".to_vec(), Some(big.to_vec())),
        ];
        assert_eq!(overlay, want.into_iter().collect());
    }

    #[test]
    fn a_put_or_delete_outside_a_group_is_corruption() {
        let group = [seq_frame(4, 1), op_frame(1, b"k", b"v"), seq_frame(5, 1)].concat();
        for bare in [op_frame(1, b"k", b"v"), op_frame(2, b"k", b"")] {
            let outside = "put or delete outside a transaction";
            expect_corrupt(&bare, outside);
            expect_corrupt(&[group.as_slice(), &bare].concat(), outside);
            expect_corrupt(&[bare.as_slice(), &group].concat(), outside);
        }
    }

    #[test]
    fn groups_round_trip_and_replay_is_idempotent() {
        let groups = vec![
            txn(1, vec![put(b"a", b"1"), BatchOp::Delete(b"a".to_vec())]),
            txn(2, vec![put(b"b", &[0xFF; 1000])]),
        ];
        let (_, vfs) = fs();
        {
            let mut wal = open(&vfs);
            assert!(wal.replay().unwrap().is_empty());
            for group in &groups {
                wal.append_txn(group.seq, &group.ops).unwrap();
            }
        }
        let mut wal = open(&vfs);
        assert_eq!(wal.replay().unwrap(), groups);
        assert_eq!(wal.replay().unwrap(), groups);
    }

    #[test]
    fn a_torn_tail_rolls_back_to_the_last_whole_group_and_appends_resume_there() {
        let first = txn(1, vec![put(b"x", b"1"), BatchOp::Delete(b"y".to_vec())]);
        let second = txn(2, vec![put(b"z", &[0xAB; 64]), put(b"w", b"2")]);
        let (vfs, dyn_vfs) = fs();
        let mut wal = open(&dyn_vfs);
        wal.append_txn(first.seq, &first.ops).unwrap();
        let first_len = bytes(&vfs).len();
        wal.append_txn(second.seq, &second.ops).unwrap();
        drop(wal);
        let full = bytes(&vfs);
        for cut in 1..full.len() {
            write_image(&dyn_vfs, &full[..cut]);
            let mut wal = open(&dyn_vfs);
            let replayed = wal.replay().unwrap();
            let kept = if cut < first_len { 0 } else { 1 };
            assert_eq!(replayed, [first.clone()][..kept], "cut at {cut}");
            let intact = if kept == 0 { 0 } else { first_len };
            assert_eq!(bytes(&vfs).len(), intact, "cut at {cut}: torn bytes left");
            // The next group lands on the intact prefix.
            wal.append_txn(9, &second.ops).unwrap();
            let mut want = replayed;
            want.push(txn(9, second.ops.clone()));
            assert_eq!(open(&dyn_vfs).replay().unwrap(), want, "cut at {cut}");
        }
    }

    #[test]
    fn mid_log_bit_flip_is_corruption_not_a_torn_tail() {
        // Damage with intact frames after it means committed data was
        // corrupted in place; truncating there would drop the committed
        // groups behind it. Only the final frame — the last group's
        // commit — can be a torn tail, and tearing it rolls that whole
        // group back.
        let (vfs, dyn_vfs) = fs();
        {
            let mut wal = open(&dyn_vfs);
            for i in 0..5u8 {
                wal.append_txn(u64::from(i) + 1, &[put(&[i], &[i; 16])])
                    .unwrap();
            }
        }
        let full = bytes(&vfs);
        let last_frame_start = full.len() - 17;
        for flip in 0..full.len() {
            let mut image = full.clone();
            image[flip] ^= 0xFF;
            match replay_image(&image) {
                Ok(groups) => {
                    assert!(
                        flip >= last_frame_start,
                        "flip at {flip} silently truncated committed groups"
                    );
                    assert_eq!(groups.len(), 4);
                }
                Err(KvError::Corrupt { .. }) => assert!(
                    flip < last_frame_start,
                    "flip at {flip} inside the tail frame"
                ),
                Err(other) => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn reset_needs_the_base_durable_note_and_empties_the_log() {
        let (_, vfs) = fs();
        let mut wal = open(&vfs);
        wal.append_txn(1, &[put(b"k", b"v")]).unwrap();
        // Truncating before the base is durable fails loudly…
        assert!(matches!(
            wal.reset_with_vfs(&vfs),
            Err(KvError::Corrupt { .. })
        ));
        assert!(!wal.is_empty().unwrap(), "a refused reset truncated");
        // …and succeeds once the durability note is recorded.
        wal.note_base_durable();
        wal.reset_with_vfs(&vfs).unwrap();
        assert!(wal.is_empty().unwrap());
        assert!(wal.replay().unwrap().is_empty());
        // The note is consumed: the next reset needs a fresh one.
        wal.append_txn(1, &[put(b"k", b"v")]).unwrap();
        assert!(wal.reset_with_vfs(&vfs).is_err());
    }

    #[test]
    fn a_created_log_survives_a_power_cut() {
        let (vfs, dyn_vfs) = fs();
        open(&dyn_vfs);
        vfs.set_fault(vfs.op_count(), Fault::PowerCut(SurvivalMode::LoseUnsynced));
        assert!(dyn_vfs.remove(Path::new("other")).is_err());
        vfs.power_cycle();
        assert!(dyn_vfs.exists(Path::new(LOG)), "creation was not durable");
    }

    #[test]
    fn misplaced_group_bounds_are_corruption() {
        let op = op_frame(1, b"in", b"txn");
        expect_corrupt(
            &[seq_frame(4, 1), op.clone(), seq_frame(4, 2)].concat(),
            "begins inside an unterminated transaction",
        );
        expect_corrupt(&seq_frame(5, 3), "has no matching begin");
        expect_corrupt(
            &[seq_frame(4, 1), op, seq_frame(5, 2)].concat(),
            "does not match the open transaction",
        );
    }

    #[test]
    fn undecodable_bodies_are_corruption_including_the_retired_checkpoint_kind() {
        // Kind 3 once meant "checkpoint"; nothing writes it any more, so
        // a checksum-valid kind-3 frame is as undecodable as a kind-9
        // one — and, being intact, never a torn tail.
        for body in [vec![3u8], vec![9u8], vec![4u8, 1, 2]] {
            expect_corrupt(&frame(&body), "valid checksum but undecodable body");
        }
    }
}
