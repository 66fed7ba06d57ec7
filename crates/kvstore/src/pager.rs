//! Page storage: the fixed-size, checksummed pages of one tree file,
//! addressed by [`PageId`].
//!
//! A tree file is written once, front to back, by the B+-tree builder
//! (`btree::build`) through `FilePager::write`, and only read after
//! that: there is no page cache, no free list and no in-place update —
//! a store changes by writing a whole new file and renaming it over the
//! old one (see `store::DiskKv::sync`).
//!
//! ## On-disk page format
//!
//! Each page occupies [`PHYS_PAGE_SIZE`] (4096) bytes on disk: a
//! [`PAGE_SIZE`] (4088) byte payload followed by an 8-byte trailer
//! `[crc32(payload):u32][`[`PAGE_TRAILER_MAGIC`]`:u32]` (little-endian).
//! Torn pages and bit-rot therefore surface as
//! [`KvError::Corrupt`]` { page, .. }` on read instead of being parsed as
//! garbage. Pages that are entirely zero are valid blanks: a header page
//! that was never written is how a store created but never synced reads.
//! A file whose header page lacks the trailer (the unchecksummed layout
//! of early builds) is rejected at open as [`KvError::Corrupt`]` { page:
//! 0, .. }`.

use crate::codec;
use crate::error::{KvError, Result};
use crate::vfs::{Vfs, VfsFile};
use crate::wal::crc32;
use std::path::Path;
use std::sync::Arc;

/// Usable payload bytes per page.
pub const PAGE_SIZE: usize = 4088;
/// Bytes a page occupies on disk: payload plus checksum trailer.
pub const PHYS_PAGE_SIZE: usize = 4096;
/// Marker closing every checksummed page: "XRP2".
pub const PAGE_TRAILER_MAGIC: u32 = 0x5852_5032;

/// Identifier of a page within a store. Page 0 is the store header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel meaning "no page" (page 0 is the header, never a tree page).
    pub const NULL: PageId = PageId(0);

    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// Checksum verification summary produced by [`FilePager::verify_pages`].
#[derive(Debug, Clone)]
pub struct PageVerifyReport {
    /// Total pages in the file.
    pub total_pages: u64,
    /// Blank (all-zero, never written) pages.
    pub blank_pages: u64,
    /// Pages whose trailer magic and CRC both verified.
    pub valid_pages: u64,
    /// Pages that failed verification, with the reason.
    pub bad_pages: Vec<(u64, String)>,
}

impl PageVerifyReport {
    /// True when every page verified.
    pub fn is_clean(&self) -> bool {
        self.bad_pages.is_empty()
    }
}

/// The pages of one tree file.
pub struct FilePager {
    file: Box<dyn VfsFile>,
    page_count: u64,
}

/// Splits a physical page into payload or reports why it is damaged.
/// All-zero pages are valid blanks (`Ok(None)`).
fn verify_phys_page(phys: &[u8], id: u64) -> Result<Option<&[u8]>> {
    debug_assert_eq!(phys.len(), PHYS_PAGE_SIZE);
    if phys.iter().all(|&b| b == 0) {
        return Ok(None);
    }
    let payload = &phys[..PAGE_SIZE];
    let stored_crc = codec::u32_at(phys, PAGE_SIZE, "page trailer crc")?;
    let magic = codec::u32_at(phys, PAGE_SIZE + 4, "page trailer magic")?;
    if magic != PAGE_TRAILER_MAGIC {
        return Err(KvError::corrupt_page(
            id,
            format!("bad page trailer magic {magic:#010x} (torn or rotten page)"),
        ));
    }
    if crc32(payload) != stored_crc {
        return Err(KvError::corrupt_page(
            id,
            "page checksum mismatch (torn or rotten page)",
        ));
    }
    Ok(Some(payload))
}

impl FilePager {
    /// Opens (creating if absent) the tree file at `path` through `vfs`
    /// for a writer: a new file is an empty store, and nothing is
    /// written to it here.
    pub fn open_with_vfs(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        let existed = vfs.exists(path);
        let file = vfs.open(path)?;
        if !existed {
            // Make the file's directory entry durable (see `vfs`).
            vfs.sync_parent_dir(path)?;
        }
        if (1..PHYS_PAGE_SIZE as u64).contains(&file.len()?) {
            // A crash can tear the header write of a store that never
            // held data; restart it from scratch.
            file.set_len(0)?;
        }
        Self::over(file)
    }

    /// Opens the existing file at `path` for reading only: an absent
    /// file is a `NotFound` error naming it, and nothing is created,
    /// truncated or written on the way in.
    pub fn open_read_only(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        if !vfs.exists(path) {
            return Err(KvError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no such store file: {}", path.display()),
            )));
        }
        Self::over(vfs.open(path)?)
    }

    /// A pager over a fresh, empty file at `path` (whatever was there
    /// is removed first), for the tree builder to write. Its directory
    /// entry becomes durable with the rename that publishes it.
    pub(crate) fn create(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        vfs.remove(path)?;
        Self::over(vfs.open(path)?)
    }

    /// A pager over an open `file`, header verified.
    fn over(file: Box<dyn VfsFile>) -> Result<Self> {
        let len = file.len()?;
        if !len.is_multiple_of(PHYS_PAGE_SIZE as u64) {
            return Err(KvError::corrupt(format!(
                "file length {len} is not a multiple of the physical page size"
            )));
        }
        let page_count = len / PHYS_PAGE_SIZE as u64;
        if page_count > 0 {
            // Fail fast on a rotten or trailer-less header rather than
            // at first read.
            let mut page0 = vec![0u8; PHYS_PAGE_SIZE];
            file.read_exact_at(0, &mut page0)?;
            verify_phys_page(&page0, 0)?;
        }
        Ok(FilePager { file, page_count })
    }

    /// Number of pages in the file.
    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// Reads and checksum-verifies one page's payload: the buffer the
    /// page was read into, cut to the payload (a blank page's is zeros).
    pub fn read(&self, id: PageId) -> Result<Vec<u8>> {
        obs::counter!("kvstore_pager_page_reads_total").inc();
        obs::trace::count("pages.read", 1);
        if id.0 >= self.page_count {
            return Err(KvError::corrupt_page(id.0, "read of unallocated page"));
        }
        let mut phys = vec![0u8; PHYS_PAGE_SIZE];
        self.file
            .read_exact_at(id.0 * PHYS_PAGE_SIZE as u64, &mut phys)?;
        if let Err(e) = verify_phys_page(&phys, id.0) {
            obs::counter!("kvstore_pager_corrupt_pages_total").inc();
            return Err(e);
        }
        phys.truncate(PAGE_SIZE);
        Ok(phys)
    }

    /// Writes page `id` once: `payload` (at most [`PAGE_SIZE`] bytes —
    /// the builder checks — zero-padded) and its checksum trailer.
    pub(crate) fn write(&mut self, id: PageId, payload: &[u8]) -> Result<()> {
        debug_assert!(
            payload.len() <= PAGE_SIZE,
            "page payload overflows the page"
        );
        let mut phys = Vec::with_capacity(PHYS_PAGE_SIZE);
        phys.extend_from_slice(payload);
        phys.resize(PAGE_SIZE, 0);
        let crc = crc32(&phys);
        phys.extend_from_slice(&crc.to_le_bytes());
        phys.extend_from_slice(&PAGE_TRAILER_MAGIC.to_le_bytes());
        self.file
            .write_all_at(id.0 * PHYS_PAGE_SIZE as u64, &phys)?;
        obs::counter!("kvstore_pager_page_writes_total").inc();
        self.page_count = self.page_count.max(id.0 + 1);
        Ok(())
    }

    /// Makes every page written so far durable.
    pub(crate) fn sync(&self) -> Result<()> {
        obs::counter!("kvstore_pager_syncs_total").inc();
        obs::trace::count("pager.syncs", 1);
        self.file.sync_data()
    }

    /// Verifies the trailer checksum of every page in the file.
    pub fn verify_pages(&self) -> Result<PageVerifyReport> {
        let total = self.file.len()? / PHYS_PAGE_SIZE as u64;
        let mut report = PageVerifyReport {
            total_pages: total,
            blank_pages: 0,
            valid_pages: 0,
            bad_pages: Vec::new(),
        };
        let mut phys = vec![0u8; PHYS_PAGE_SIZE];
        for id in 0..total {
            self.file
                .read_exact_at(id * PHYS_PAGE_SIZE as u64, &mut phys)?;
            match verify_phys_page(&phys, id) {
                Ok(None) => report.blank_pages += 1,
                Ok(Some(_)) => report.valid_pages += 1,
                Err(e) => report.bad_pages.push((id, e.to_string())),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultVfs;

    #[test]
    fn written_pages_read_back_and_survive_reopen() {
        let vfs = FaultVfs::new().as_dyn();
        let path = Path::new("pages.db");
        let mut pager = FilePager::create(&vfs, path).unwrap();
        assert_eq!(pager.page_count(), 0);
        let mut full = vec![0u8; PAGE_SIZE];
        full[0] = 0xAA;
        full[PAGE_SIZE - 1] = 0x55;
        pager.write(PageId(1), &full).unwrap();
        pager.write(PageId(0), b"short payload").unwrap();
        pager.sync().unwrap();
        assert_eq!(pager.page_count(), 2);
        assert_eq!(pager.read(PageId(1)).unwrap(), full);
        assert!(pager.read(PageId(2)).is_err(), "past the end");

        let reopened = FilePager::open_read_only(&vfs, path).unwrap();
        assert_eq!(reopened.page_count(), 2);
        assert_eq!(&reopened.read(PageId(0)).unwrap()[..13], b"short payload");
        assert_eq!(reopened.read(PageId(1)).unwrap(), full);
        assert!(reopened.verify_pages().unwrap().is_clean());
    }

    #[test]
    fn writer_open_creates_an_empty_file_and_read_only_open_creates_nothing() {
        let vfs = FaultVfs::new();
        let dyn_vfs = vfs.as_dyn();
        let path = Path::new("fresh.db");
        assert!(FilePager::open_read_only(&dyn_vfs, path).is_err());
        assert!(!dyn_vfs.exists(path));
        let p = FilePager::open_with_vfs(&dyn_vfs, path).unwrap();
        assert_eq!((p.page_count(), vfs.read_file(path).unwrap().len()), (0, 0));
    }

    #[test]
    fn file_pager_rejects_torn_files() {
        let vfs = FaultVfs::new();
        let dyn_vfs = vfs.as_dyn();
        let path = Path::new("torn.db");
        dyn_vfs
            .open(path)
            .unwrap()
            .write_all_at(0, &vec![0u8; PHYS_PAGE_SIZE + 17])
            .unwrap();
        assert!(matches!(
            FilePager::open_with_vfs(&dyn_vfs, path),
            Err(KvError::Corrupt { .. })
        ));
    }

    #[test]
    fn file_pager_recovers_a_torn_header_only_file() {
        // A crash during the very first header write can leave a short
        // file; that store never held data, so it restarts cleanly.
        let vfs = FaultVfs::new();
        let dyn_vfs = vfs.as_dyn();
        let path = Path::new("torn_header.db");
        dyn_vfs
            .open(path)
            .unwrap()
            .write_all_at(0, &[0u8; 1234])
            .unwrap();
        let p = FilePager::open_with_vfs(&dyn_vfs, path).unwrap();
        assert_eq!(p.page_count(), 0);
        assert_eq!(vfs.read_file(path).unwrap().len(), 0);
    }

    /// A one-page file written by [`FilePager::write`], then damaged by
    /// `damage`; returns what reading page 1 and `verify_pages` report.
    fn damaged(damage: impl Fn(&FaultVfs, &Path)) -> (Result<Vec<u8>>, PageVerifyReport) {
        let vfs = FaultVfs::new();
        let dyn_vfs = vfs.as_dyn();
        let path = Path::new("damaged.db");
        let mut pager = FilePager::create(&dyn_vfs, path).unwrap();
        pager.write(PageId(0), b"header").unwrap();
        pager.write(PageId(1), &[0xABu8; PAGE_SIZE]).unwrap();
        damage(&vfs, path);
        let p = FilePager::open_read_only(&dyn_vfs, path).unwrap();
        (p.read(PageId(1)), p.verify_pages().unwrap())
    }

    #[test]
    fn flipped_byte_in_page_payload_reads_as_corrupt() {
        let (read, report) = damaged(|vfs, path| {
            vfs.corrupt_byte(path, PHYS_PAGE_SIZE + 100).unwrap();
        });
        match read {
            Err(KvError::Corrupt { page, .. }) => assert_eq!(page, Some(1)),
            other => panic!("expected checksum failure, got {other:?}"),
        }
        assert_eq!(report.bad_pages.len(), 1);
        assert_eq!(report.bad_pages[0].0, 1);
    }

    #[test]
    fn torn_page_write_reads_as_corrupt_with_page_number() {
        // Tear a page in half the way a power cut mid-write would:
        // first half new bytes, second half stale (zeros).
        let (read, _) = damaged(|vfs, path| {
            let file = vfs.as_dyn().open(path).unwrap();
            file.write_all_at(
                (PHYS_PAGE_SIZE + PHYS_PAGE_SIZE / 2) as u64,
                &[0u8; PHYS_PAGE_SIZE / 2],
            )
            .unwrap();
        });
        match read {
            Err(KvError::Corrupt { page, context }) => {
                assert_eq!(page, Some(1));
                assert!(context.contains("torn"), "context: {context}");
            }
            other => panic!("expected torn-page corruption, got {other:?}"),
        }
    }

    #[test]
    fn legacy_v1_files_are_rejected_at_open() {
        // Handcraft a minimal legacy (version-1) store: raw 4096-byte
        // pages, no trailers. Page 0 is the tree header, page 1 a leaf
        // holding one entry.
        let mut header = vec![0u8; PHYS_PAGE_SIZE];
        header[0..4].copy_from_slice(&0x5852_4B56u32.to_le_bytes()); // XRKV
        header[4..6].copy_from_slice(&1u16.to_le_bytes()); // tree version
        header[6..14].copy_from_slice(&1u64.to_le_bytes()); // root = page 1
        header[14..22].copy_from_slice(&1u64.to_le_bytes()); // count = 1
        let mut leaf = vec![0u8; PHYS_PAGE_SIZE];
        leaf[0] = 2; // TYPE_LEAF
        leaf[1..3].copy_from_slice(&1u16.to_le_bytes()); // one entry
        leaf[3..11].copy_from_slice(&0u64.to_le_bytes()); // no next leaf
        leaf[11..13].copy_from_slice(&1u16.to_le_bytes()); // klen
        leaf[13..17].copy_from_slice(&1u32.to_le_bytes()); // inline, 1 byte
        leaf[17] = b'k';
        leaf[18] = b'v';
        let mut bytes = header;
        bytes.extend_from_slice(&leaf);
        let vfs = FaultVfs::new().as_dyn();
        let path = Path::new("legacy_v1.db");
        vfs.open(path).unwrap().write_all_at(0, &bytes).unwrap();

        match FilePager::open_read_only(&vfs, path) {
            Err(KvError::Corrupt { page, context }) => {
                assert_eq!(page, Some(0));
                assert!(context.contains("trailer"), "context: {context}");
            }
            Err(other) => panic!("expected Corrupt {{ page: 0 }}, got {other:?}"),
            Ok(_) => panic!("a trailer-less store opened"),
        }
    }
}
