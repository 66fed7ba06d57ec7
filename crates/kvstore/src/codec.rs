//! Checked little-endian decoding helpers.
//!
//! Shared by the WAL frame parser, the pager's page-trailer checksum
//! verification and the B+-tree node readers, so out-of-bounds slices
//! surface as [`KvError::Corrupt`] instead of panicking on
//! `try_into().unwrap()`.

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

use crate::error::{KvError, Result};

fn array_at<const N: usize>(buf: &[u8], pos: usize, what: &str) -> Result<[u8; N]> {
    buf.get(pos..)
        .and_then(<[u8]>::first_chunk)
        .copied()
        .ok_or_else(|| truncated(buf, pos, N, what))
}

/// Reads a little-endian `u16` at `pos`, or reports `what` as truncated.
pub fn u16_at(buf: &[u8], pos: usize, what: &str) -> Result<u16> {
    array_at(buf, pos, what).map(u16::from_le_bytes)
}

/// Reads a little-endian `u32` at `pos`, or reports `what` as truncated.
pub fn u32_at(buf: &[u8], pos: usize, what: &str) -> Result<u32> {
    array_at(buf, pos, what).map(u32::from_le_bytes)
}

/// Reads a little-endian `u64` at `pos`, or reports `what` as truncated.
pub fn u64_at(buf: &[u8], pos: usize, what: &str) -> Result<u64> {
    array_at(buf, pos, what).map(u64::from_le_bytes)
}

/// Borrows the `len`-byte slice at `pos`, or reports `what` as
/// truncated. The checked form of `&buf[pos..pos + len]` for
/// disk-derived lengths.
pub fn slice_at<'a>(buf: &'a [u8], pos: usize, len: usize, what: &str) -> Result<&'a [u8]> {
    pos.checked_add(len)
        .and_then(|end| buf.get(pos..end))
        .ok_or_else(|| truncated(buf, pos, len, what))
}

fn truncated(buf: &[u8], pos: usize, need: usize, what: &str) -> KvError {
    KvError::corrupt(format!(
        "{what}: need {need} bytes at offset {pos} but buffer holds {}",
        buf.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_bounds_reads_decode_little_endian() {
        let buf = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09];
        assert_eq!(u16_at(&buf, 0, "x").unwrap(), 0x0201);
        assert_eq!(u32_at(&buf, 1, "x").unwrap(), 0x0504_0302);
        assert_eq!(u64_at(&buf, 1, "x").unwrap(), 0x0908_0706_0504_0302);
    }

    #[test]
    fn out_of_bounds_reads_are_corrupt_not_panics() {
        let buf = [0u8; 3];
        assert!(u32_at(&buf, 0, "frame length").unwrap_err().is_corrupt());
        assert!(u16_at(&buf, 2, "key length").unwrap_err().is_corrupt());
        assert!(u64_at(&buf, usize::MAX - 4, "root")
            .unwrap_err()
            .is_corrupt());
    }
}
