//! Page storage: fixed-size pages addressed by [`PageId`], backed either by
//! memory or by a file with a write-back cache.
//!
//! The B+-tree above never touches files directly; it allocates, reads and
//! writes whole pages through the [`Pager`] trait, which keeps the tree
//! logic testable against the in-memory pager and makes the disk format a
//! detail of [`FilePager`].
//!
//! ## On-disk page format
//!
//! Each page occupies [`PHYS_PAGE_SIZE`] (4096) bytes on disk: a
//! [`PAGE_SIZE`] (4088) byte payload followed by an 8-byte trailer
//! `[crc32(payload):u32][`[`PAGE_TRAILER_MAGIC`]`:u32]` (little-endian).
//! Torn pages and bit-rot therefore surface as
//! [`KvError::Corrupt`]` { page, .. }` on read instead of being parsed as
//! garbage. Pages that are entirely zero are valid: they are the state of
//! allocated-but-never-flushed pages after the file is grown with
//! `set_len`. A file whose header page lacks the trailer (the
//! unchecksummed layout of early builds) is rejected at open as
//! [`KvError::Corrupt`]` { page: 0, .. }`.

use crate::codec;
use crate::error::{KvError, Result};
use crate::vfs::{StdVfs, Vfs, VfsFile};
use crate::wal::crc32;
use std::collections::HashMap;
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

/// A page-granular storage backend.
///
/// Like [`crate::KvStore`], pagers are `Send + Sync`: `read` takes
/// `&self` so concurrent readers can share a pager without an exclusive
/// lock (writes still require `&mut self`).
pub trait Pager: Send + Sync {
    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&mut self) -> Result<PageId>;
    /// Reads a full page. `id` must have been allocated.
    fn read(&self, id: PageId) -> Result<Vec<u8>>;
    /// Overwrites a full page. `data.len()` must equal [`PAGE_SIZE`].
    fn write(&mut self, id: PageId, data: &[u8]) -> Result<()>;
    /// Returns a previously allocated page to the free pool.
    fn free(&mut self, id: PageId) -> Result<()>;
    /// Number of pages ever allocated (including freed ones and the header).
    fn page_count(&self) -> u64;
    /// Flushes buffered writes to durable storage.
    fn sync(&mut self) -> Result<()>;
}

/// Purely in-memory pager. The default for tests and for index builds that
/// never need persistence.
#[derive(Debug, Default)]
pub struct MemPager {
    pages: Vec<Vec<u8>>,
    free: Vec<PageId>,
}

impl MemPager {
    pub fn new() -> Self {
        // Reserve page 0 as the header so ids match the file layout.
        MemPager {
            pages: vec![vec![0; PAGE_SIZE]],
            free: Vec::new(),
        }
    }
}

impl Pager for MemPager {
    fn allocate(&mut self) -> Result<PageId> {
        if let Some(id) = self.free.pop() {
            match self.pages.get_mut(id.0 as usize) {
                Some(page) => page.fill(0),
                None => {
                    return Err(KvError::corrupt_page(
                        id.0,
                        "free list references a page the pager never allocated",
                    ))
                }
            }
            return Ok(id);
        }
        let id = PageId(self.pages.len() as u64);
        self.pages.push(vec![0; PAGE_SIZE]);
        Ok(id)
    }

    fn read(&self, id: PageId) -> Result<Vec<u8>> {
        obs::counter!("kvstore_pager_page_reads_total").inc();
        obs::trace::count("pages.read", 1);
        self.pages
            .get(id.0 as usize)
            .cloned()
            .ok_or_else(|| KvError::corrupt_page(id.0, "read of unallocated page"))
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        obs::counter!("kvstore_pager_page_writes_total").inc();
        let page = self
            .pages
            .get_mut(id.0 as usize)
            .ok_or_else(|| KvError::corrupt_page(id.0, "write of unallocated page"))?;
        page.copy_from_slice(data);
        Ok(())
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        if id.is_null() || id.0 as usize >= self.pages.len() {
            return Err(KvError::corrupt_page(id.0, "free of invalid page"));
        }
        self.free.push(id);
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Checksum verification summary produced by [`FilePager::verify_pages`].
#[derive(Debug, Clone)]
pub struct PageVerifyReport {
    /// Total pages in the file.
    pub total_pages: u64,
    /// All-zero pages (allocated but never flushed, or freed).
    pub zero_pages: u64,
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

/// File-backed pager with a simple write-back page cache.
///
/// The cache holds every dirty page plus up to `cache_limit` clean pages;
/// eviction is not LRU-precise (it drops an arbitrary clean page), which is
/// adequate for the workload's sequential build + random probe pattern.
pub struct FilePager {
    file: Box<dyn VfsFile>,
    cache: HashMap<PageId, CachedPage>,
    cache_limit: usize,
    page_count: u64,
    free: Vec<PageId>,
}

struct CachedPage {
    data: Vec<u8>,
    dirty: bool,
}

/// Splits a physical page into payload or reports why it is damaged.
/// All-zero pages are valid empties (`Ok(None)`).
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
    /// Opens (creating if absent) a pager over `path` on the real
    /// filesystem.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with_vfs(&StdVfs::arc(), path)
    }

    /// Opens (creating if absent) a pager over `path` through `vfs`.
    pub fn open_with_vfs(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        let existed = vfs.exists(path);
        let file = vfs.open(path)?;
        if !existed {
            // Make the file's directory entry durable (see `vfs`).
            vfs.sync_parent_dir(path)?;
        }
        let mut len = file.len()?;
        if (1..PHYS_PAGE_SIZE as u64).contains(&len) {
            // A crash can tear the initial header write of a store
            // that never held data; restart it from scratch.
            file.set_len(0)?;
            len = 0;
        }
        let pager = Self::over(file, len)?;
        if len == 0 {
            // Write the header page eagerly so page 0 always exists.
            pager.write_through(PageId(0), &[0u8; PAGE_SIZE])?;
        }
        Ok(pager)
    }

    /// Opens the existing file at `path` for reading only: an absent
    /// file is a `NotFound` error naming it, and nothing is created,
    /// truncated or written on the way in (the pager's own write
    /// methods still work — a read-only caller just never calls them).
    pub fn open_read_only(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Self> {
        if !vfs.exists(path) {
            return Err(KvError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no such store file: {}", path.display()),
            )));
        }
        let file = vfs.open(path)?;
        let len = file.len()?;
        Self::over(file, len)
    }

    /// A pager over an open `file` of `len` bytes, header verified.
    fn over(file: Box<dyn VfsFile>, len: u64) -> Result<Self> {
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
        Ok(FilePager {
            file,
            cache: HashMap::new(),
            cache_limit: 4096,
            page_count: page_count.max(1),
            free: Vec::new(),
        })
    }

    /// Verifies the trailer checksum of every page in the file,
    /// bypassing the cache.
    pub fn verify_pages(&self) -> Result<PageVerifyReport> {
        let total = self.file.len()? / PHYS_PAGE_SIZE as u64;
        let mut report = PageVerifyReport {
            total_pages: total,
            zero_pages: 0,
            valid_pages: 0,
            bad_pages: Vec::new(),
        };
        let mut phys = vec![0u8; PHYS_PAGE_SIZE];
        for id in 0..total {
            self.file
                .read_exact_at(id * PHYS_PAGE_SIZE as u64, &mut phys)?;
            match verify_phys_page(&phys, id) {
                Ok(None) => report.zero_pages += 1,
                Ok(Some(_)) => report.valid_pages += 1,
                Err(e) => report.bad_pages.push((id, e.to_string())),
            }
        }
        Ok(report)
    }

    fn evict_if_needed(&mut self) -> Result<()> {
        if self.cache.len() <= self.cache_limit {
            return Ok(());
        }
        // Flush one dirty page if everything is dirty; otherwise drop a
        // clean one.
        let clean = self.cache.iter().find(|(_, p)| !p.dirty).map(|(&id, _)| id);
        match clean {
            Some(id) => {
                self.cache.remove(&id);
            }
            None => {
                if let Some(&id) = self.cache.keys().next() {
                    if let Some(page) = self.cache.remove(&id) {
                        self.write_through(id, &page.data)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Writes one page to the file with its checksum trailer.
    fn write_through(&self, id: PageId, data: &[u8]) -> Result<()> {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        let mut phys = vec![0u8; PHYS_PAGE_SIZE];
        phys[..PAGE_SIZE].copy_from_slice(data);
        phys[PAGE_SIZE..PAGE_SIZE + 4].copy_from_slice(&crc32(data).to_le_bytes());
        phys[PAGE_SIZE + 4..].copy_from_slice(&PAGE_TRAILER_MAGIC.to_le_bytes());
        self.file.write_all_at(id.0 * PHYS_PAGE_SIZE as u64, &phys)
    }
}

impl Pager for FilePager {
    fn allocate(&mut self) -> Result<PageId> {
        if let Some(id) = self.free.pop() {
            self.cache.insert(
                id,
                CachedPage {
                    data: vec![0; PAGE_SIZE],
                    dirty: true,
                },
            );
            return Ok(id);
        }
        let id = PageId(self.page_count);
        self.page_count += 1;
        self.evict_if_needed()?;
        self.cache.insert(
            id,
            CachedPage {
                data: vec![0; PAGE_SIZE],
                dirty: true,
            },
        );
        Ok(id)
    }

    fn read(&self, id: PageId) -> Result<Vec<u8>> {
        obs::counter!("kvstore_pager_page_reads_total").inc();
        obs::trace::count("pages.read", 1);
        if id.0 >= self.page_count {
            return Err(KvError::corrupt_page(id.0, "read of unallocated page"));
        }
        if let Some(p) = self.cache.get(&id) {
            return Ok(p.data.clone());
        }
        obs::counter!("kvstore_pager_disk_page_reads_total").inc();
        let file_pages = self.file.len()? / PHYS_PAGE_SIZE as u64;
        if id.0 >= file_pages {
            // Allocated but never flushed nor written: logically zeroed.
            return Ok(vec![0; PAGE_SIZE]);
        }
        let mut phys = vec![0u8; PHYS_PAGE_SIZE];
        self.file
            .read_exact_at(id.0 * PHYS_PAGE_SIZE as u64, &mut phys)?;
        let verified = verify_phys_page(&phys, id.0);
        if verified.is_err() {
            obs::counter!("kvstore_pager_corrupt_pages_total").inc();
        }
        match verified? {
            Some(payload) => Ok(payload.to_vec()),
            None => Ok(vec![0; PAGE_SIZE]),
        }
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        if id.0 >= self.page_count {
            return Err(KvError::corrupt_page(id.0, "write of unallocated page"));
        }
        obs::counter!("kvstore_pager_page_writes_total").inc();
        match self.cache.get_mut(&id) {
            Some(p) => {
                p.data.copy_from_slice(data);
                p.dirty = true;
            }
            None => {
                self.evict_if_needed()?;
                self.cache.insert(
                    id,
                    CachedPage {
                        data: data.to_vec(),
                        dirty: true,
                    },
                );
            }
        }
        Ok(())
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        if id.is_null() || id.0 >= self.page_count {
            return Err(KvError::corrupt_page(id.0, "free of invalid page"));
        }
        self.cache.remove(&id);
        self.free.push(id);
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.page_count
    }

    fn sync(&mut self) -> Result<()> {
        obs::counter!("kvstore_pager_syncs_total").inc();
        obs::trace::count("pager.syncs", 1);
        // Grow the file to cover all allocated pages, then flush dirty pages.
        let want = self.page_count * PHYS_PAGE_SIZE as u64;
        if self.file.len()? < want {
            self.file.set_len(want)?;
        }
        for (&id, page) in self.cache.iter_mut() {
            if page.dirty {
                page.dirty = false;
            } else {
                continue;
            }
            let mut phys = vec![0u8; PHYS_PAGE_SIZE];
            phys[..PAGE_SIZE].copy_from_slice(&page.data);
            phys[PAGE_SIZE..PAGE_SIZE + 4].copy_from_slice(&crc32(&page.data).to_le_bytes());
            phys[PAGE_SIZE + 4..].copy_from_slice(&PAGE_TRAILER_MAGIC.to_le_bytes());
            self.file
                .write_all_at(id.0 * PHYS_PAGE_SIZE as u64, &phys)?;
        }
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(pager: &mut dyn Pager) {
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        assert_ne!(a, b);
        assert!(!a.is_null());

        let mut pa = vec![0u8; PAGE_SIZE];
        pa[0] = 0xAA;
        pa[PAGE_SIZE - 1] = 0x55;
        pager.write(a, &pa).unwrap();
        assert_eq!(pager.read(a).unwrap(), pa);
        assert_eq!(pager.read(b).unwrap(), vec![0u8; PAGE_SIZE]);

        pager.free(b).unwrap();
        let c = pager.allocate().unwrap();
        // freed page is recycled and zeroed (mem) or fresh (file)
        assert_eq!(pager.read(c).unwrap(), vec![0u8; PAGE_SIZE]);
        pager.sync().unwrap();
        assert_eq!(pager.read(a).unwrap(), pa);
    }

    #[test]
    fn mem_pager_basics() {
        let mut p = MemPager::new();
        exercise(&mut p);
        assert!(p.read(PageId(999)).is_err());
        assert!(p.free(PageId::NULL).is_err());
    }

    #[test]
    fn file_pager_basics_and_reopen() {
        let dir = std::env::temp_dir().join(format!("kvstore_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pager_basics.db");
        let _ = std::fs::remove_file(&path);

        let a;
        let mut pa = vec![0u8; PAGE_SIZE];
        {
            let mut p = FilePager::open(&path).unwrap();
            exercise(&mut p);
            a = p.allocate().unwrap();
            pa[7] = 42;
            p.write(a, &pa).unwrap();
            p.sync().unwrap();
        }
        // Reopen and verify durability.
        let p = FilePager::open(&path).unwrap();
        assert_eq!(p.read(a).unwrap(), pa);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_pager_rejects_torn_files() {
        let dir = std::env::temp_dir().join(format!("kvstore_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.db");
        std::fs::write(&path, vec![0u8; PHYS_PAGE_SIZE + 17]).unwrap();
        assert!(matches!(
            FilePager::open(&path),
            Err(KvError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_pager_recovers_a_torn_header_only_file() {
        // A crash during the very first header write can leave a short
        // file; that store never held data, so it restarts cleanly.
        let dir = std::env::temp_dir().join(format!("kvstore_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn_header.db");
        std::fs::write(&path, vec![0u8; 1234]).unwrap();
        let p = FilePager::open(&path).unwrap();
        assert_eq!(p.page_count(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_pager_cache_eviction_preserves_data() {
        let dir = std::env::temp_dir().join(format!("kvstore_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("evict.db");
        let _ = std::fs::remove_file(&path);
        let mut p = FilePager::open(&path).unwrap();
        p.cache_limit = 4; // force eviction
        let mut ids = Vec::new();
        for i in 0..32u8 {
            let id = p.allocate().unwrap();
            let mut page = vec![0u8; PAGE_SIZE];
            page[0] = i;
            p.write(id, &page).unwrap();
            ids.push(id);
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(p.read(*id).unwrap()[0], i as u8);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_byte_in_page_payload_reads_as_corrupt() {
        let dir = std::env::temp_dir().join(format!("kvstore_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bitrot.db");
        let _ = std::fs::remove_file(&path);
        let id;
        {
            let mut p = FilePager::open(&path).unwrap();
            id = p.allocate().unwrap();
            let mut page = vec![0u8; PAGE_SIZE];
            page[100] = 7;
            p.write(id, &page).unwrap();
            p.sync().unwrap();
        }
        // Rot one payload byte on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[id.0 as usize * PHYS_PAGE_SIZE + 100] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let p = FilePager::open(&path).unwrap();
        match p.read(id) {
            Err(KvError::Corrupt { page, .. }) => assert_eq!(page, Some(id.0)),
            other => panic!("expected checksum failure, got {other:?}"),
        }
        let report = p.verify_pages().unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.bad_pages.len(), 1);
        assert_eq!(report.bad_pages[0].0, id.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_page_write_reads_as_corrupt_with_page_number() {
        // Tear a flushed page in half the way a power cut mid-write
        // would: first half new bytes, second half stale (zeros).
        let dir = std::env::temp_dir().join(format!("kvstore_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tornpage.db");
        let _ = std::fs::remove_file(&path);
        let id;
        {
            let mut p = FilePager::open(&path).unwrap();
            id = p.allocate().unwrap();
            let page = vec![0xABu8; PAGE_SIZE];
            p.write(id, &page).unwrap();
            p.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let start = id.0 as usize * PHYS_PAGE_SIZE;
        for b in &mut bytes[start + PHYS_PAGE_SIZE / 2..start + PHYS_PAGE_SIZE] {
            *b = 0;
        }
        std::fs::write(&path, &bytes).unwrap();

        let p = FilePager::open(&path).unwrap();
        match p.read(id) {
            Err(KvError::Corrupt { page, context }) => {
                assert_eq!(page, Some(id.0));
                assert!(context.contains("torn"), "context: {context}");
            }
            other => panic!("expected torn-page corruption, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_v1_files_are_rejected_at_open() {
        // Handcraft a minimal legacy (version-1) store: raw 4096-byte
        // pages, no trailers. Page 0 is the tree header, page 1 a leaf
        // holding one entry.
        let dir = std::env::temp_dir().join(format!("kvstore_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy_v1.db");
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
        std::fs::write(&path, &bytes).unwrap();

        match FilePager::open(&path) {
            Err(KvError::Corrupt { page, context }) => {
                assert_eq!(page, Some(0));
                assert!(context.contains("trailer"), "context: {context}");
            }
            Err(other) => panic!("expected Corrupt {{ page: 0 }}, got {other:?}"),
            Ok(_) => panic!("a trailer-less store opened"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
