//! Error type for the key-value store.

use std::fmt;
use std::io;

/// Errors surfaced by the store.
#[derive(Debug)]
pub enum KvError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// On-disk state failed validation (bad magic, bad page type, torn
    /// entry, checksum mismatch, dangling page reference).
    ///
    /// `page` carries the physical page number when the damage is
    /// attributable to one page (checksum/trailer failures); `None` for
    /// structural damage spanning pages or for non-paged files (WAL,
    /// value encodings).
    Corrupt {
        /// Physical page the damage was detected on, if known.
        page: Option<u64>,
        /// What failed validation and where.
        context: String,
    },
    /// Key exceeds [`crate::btree::MAX_KEY_LEN`].
    KeyTooLarge(usize),
    /// Value exceeds the maximum representable length.
    ValueTooLarge(usize),
    /// The caller's input was refused before anything was written (a
    /// maintenance fragment that does not scan, a slot out of range):
    /// the store is as it was.
    Refused(String),
}

impl KvError {
    /// Corruption not attributable to a single page.
    pub fn corrupt(context: impl Into<String>) -> Self {
        KvError::Corrupt {
            page: None,
            context: context.into(),
        }
    }

    /// Corruption detected on a specific physical page.
    pub fn corrupt_page(page: u64, context: impl Into<String>) -> Self {
        KvError::Corrupt {
            page: Some(page),
            context: context.into(),
        }
    }

    /// True for any corruption report, regardless of page attribution.
    pub fn is_corrupt(&self) -> bool {
        matches!(self, KvError::Corrupt { .. })
    }
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Io(e) => write!(f, "I/O error: {e}"),
            KvError::Corrupt {
                page: Some(p),
                context,
            } => {
                write!(f, "corrupt store (page {p}): {context}")
            }
            KvError::Corrupt {
                page: None,
                context,
            } => write!(f, "corrupt store: {context}"),
            KvError::KeyTooLarge(n) => write!(f, "key of {n} bytes exceeds maximum"),
            KvError::ValueTooLarge(n) => write!(f, "value of {n} bytes exceeds maximum"),
            KvError::Refused(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for KvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for KvError {
    fn from(e: io::Error) -> Self {
        KvError::Io(e)
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, KvError>;
