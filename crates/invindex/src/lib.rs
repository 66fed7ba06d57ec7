//! `invindex` — keyword inverted lists and document statistics (§VII).
//!
//! * [`postings`]: document-ordered posting lists, serialized blocked
//!   and front-coded behind a per-block skip table ([`CompressedList`]);
//! * [`reader`]: the [`IndexReader`] trait and [`ListHandle`] — the
//!   read path every query layer consumes;
//! * [`index`]: the one-pass DOM index builder; the [`InMemoryIndex`]
//!   it (and [`stream`]) returns is the build product and the
//!   differential oracle, never queried directly;
//! * [`kvindex`]: [`KvBackedIndex`], the one reader every engine
//!   answers through — lists materialized lazily from the store format
//!   in a [`kvstore::KvStore`], persisted or encoded in memory from a
//!   fresh build, through an LRU byte-budget cache ([`cache`]);
//! * [`stats`]: the frequency tables (`N_T`, `G_T`, `tf(k,T)`, `f^T_k`);
//! * [`cooccur`]: memoized co-occurrence frequencies `f^T_{ki,kj}`;
//! * [`cursor`]: [`ListCursor`], the one cursor over a list, counting
//!   its advances (used to *prove* the one-scan property of the
//!   refinement algorithms in tests);
//! * [`stream`]: the streaming builder — zero-copy span scan, parallel
//!   chunked tokenization, deterministic merge (byte-identical stores
//!   with the DOM oracle [`Index::build`]);
//! * [`fxhash`]: the one fast non-keyed hasher, for private maps here
//!   and in the refinement DP's memo;
//! * [`persist`]: the store format — writing a whole index into any
//!   [`kvstore::KvStore`], and the decoders [`kvindex`] and scrub share;
//! * [`maint`]: online maintenance — WAL-backed document insert/delete
//!   with snapshot reader handoff ([`MaintIndex`]).

pub mod cache;
pub mod cooccur;
pub mod cursor;
mod dfpass;
pub mod fxhash;
pub mod index;
pub mod kvindex;
pub mod maint;
pub mod persist;
pub mod postings;
pub mod reader;
pub mod stats;
pub mod stream;

pub use cache::{CacheStats, ListCache};
pub use cursor::{ListCursor, ScanStats, HEAD_AT_END, HEAD_AT_ROOT};
pub use index::{InMemoryIndex, Index};
pub use kvindex::KvBackedIndex;
pub use maint::{MaintIndex, MaintOp, MaintReport};
pub use persist::{verify_store, IntegrityReport, SectionReport};
pub use postings::{BlockMeta, CompressedList, Posting, PostingList, BLOCK_POSTINGS};
pub use reader::{gallop, IndexReader, ListHandle, PartitionRuns};
pub use stats::{KeywordId, KeywordTable, TypeStats};
pub use stream::build_streaming;
