//! `TimedKv`: a `KvStore` that times and counts every call into the
//! store it wraps, so the layers above can be charged their self time
//! without touching them. Reads become `kvstore.get` spans on a tracing
//! thread; totals are kept in shared counters either way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use kvstore::{KvStore, Result};

use crate::spans;

/// Totals over every call since creation. `Relaxed`: each is a
/// statistic that publishes no other data.
#[derive(Debug, Default)]
pub struct KvTotals {
    pub reads: AtomicU64,
    /// Σ value bytes handed back by reads.
    pub read_value_bytes: AtomicU64,
    pub put_nanos: AtomicU64,
    /// Σ key + value bytes handed to `put`.
    pub put_bytes: AtomicU64,
    pub sync_nanos: AtomicU64,
}

pub struct TimedKv<S> {
    inner: S,
    totals: Arc<KvTotals>,
}

impl<S: KvStore> TimedKv<S> {
    pub fn new(inner: S) -> (TimedKv<S>, Arc<KvTotals>) {
        let totals = Arc::new(KvTotals::default());
        (
            TimedKv {
                inner,
                totals: Arc::clone(&totals),
            },
            totals,
        )
    }

    pub fn into_inner(self) -> S {
        self.inner
    }

    fn read<T>(
        &self,
        call: impl FnOnce(&S) -> Result<T>,
        bytes: impl FnOnce(&T) -> usize,
    ) -> Result<T> {
        let out = spans::span("kvstore.get", || call(&self.inner));
        self.totals.reads.fetch_add(1, Ordering::Relaxed);
        if let Ok(value) = &out {
            self.totals
                .read_value_bytes
                .fetch_add(bytes(value) as u64, Ordering::Relaxed);
        }
        out
    }
}

fn entries_bytes(entries: &[(Vec<u8>, Vec<u8>)]) -> usize {
    entries.iter().map(|(_, v)| v.len()).sum()
}

impl<S: KvStore> KvStore for TimedKv<S> {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.read(|s| s.get(key), |v| v.as_ref().map_or(0, Vec::len))
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let started = Instant::now();
        let out = self.inner.put(key, value);
        self.totals
            .put_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.totals
            .put_bytes
            .fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);
        out
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        self.inner.delete(key)
    }

    fn contains(&self, key: &[u8]) -> Result<bool> {
        self.read(|s| s.contains(key), |_| 0)
    }

    fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.read(|s| s.scan_range(start, end), |e| entries_bytes(e))
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.read(|s| s.scan_prefix(prefix), |e| entries_bytes(e))
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&mut self) -> Result<()> {
        let started = Instant::now();
        let out = self.inner.sync();
        self.totals
            .sync_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::MemKv;

    #[test]
    fn returns_exactly_what_the_inner_store_returns() {
        let mut plain = MemKv::new();
        let (mut timed, totals) = TimedKv::new(MemKv::new());
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0u32..200)
            .map(|i| {
                (
                    format!("k/{:04}", i * 7 % 200).into_bytes(),
                    vec![i as u8; (i % 13) as usize],
                )
            })
            .collect();
        for (k, v) in &entries {
            plain.put(k, v).unwrap();
            timed.put(k, v).unwrap();
        }
        assert!(plain.delete(b"k/0007").unwrap() && timed.delete(b"k/0007").unwrap());
        assert_eq!(plain.len(), timed.len());
        for key in [&b"k/0000"[..], b"k/0007", b"k/0199", b"missing"] {
            assert_eq!(plain.get(key).unwrap(), timed.get(key).unwrap());
            assert_eq!(plain.contains(key).unwrap(), timed.contains(key).unwrap());
        }
        assert_eq!(
            plain.scan_prefix(b"k/01").unwrap(),
            timed.scan_prefix(b"k/01").unwrap()
        );
        assert_eq!(
            plain.scan_range(b"k/0050", Some(b"k/0060")).unwrap(),
            timed.scan_range(b"k/0050", Some(b"k/0060")).unwrap()
        );
        assert_eq!(
            plain.scan_range(b"", None).unwrap(),
            timed.scan_range(b"", None).unwrap()
        );
        timed.sync().unwrap();

        let put_bytes: usize = entries.iter().map(|(k, v)| k.len() + v.len()).sum();
        assert_eq!(totals.put_bytes.load(Ordering::Relaxed), put_bytes as u64);
        assert_eq!(totals.reads.load(Ordering::Relaxed), 4 * 2 + 3);
    }
}
