//! Lock-cheap metrics: atomic counters, gauges, and log₂-bucketed histograms
//! behind a process-global registry.
//!
//! The registry mutex is taken only on handle registration and on snapshot;
//! call sites cache their `Arc` handle in a `OnceLock` (see the `counter!`,
//! `gauge!` and `histogram!` macros in the crate root) so the steady-state
//! cost of an increment is a single relaxed atomic RMW plus one predictable
//! branch on the global kill switch.

use crate::lockrank::rank;
use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-global kill switch. Metrics default to enabled; benches flip this
/// off to measure instrumentation overhead (see `bench/src/bin/bench_obs.rs`).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable all metric recording process-wide. Handles stay valid;
/// increments and observations become no-ops while disabled.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether metric recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (e.g. resident cache bytes).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn sub(&self, delta: i64) {
        self.add(-delta);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for the value 0, then one per power of
/// two up to `u64::MAX`.
pub const BUCKET_COUNT: usize = 65;

/// Bucket index for a value: 0 holds exactly {0}; bucket `i >= 1` holds the
/// half-open power-of-two range `[2^(i-1), 2^i)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (saturating at `u64::MAX`).
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Fixed-shape log₂ histogram over `u64` samples (typically nanoseconds).
/// Concurrent `observe` calls are wait-free; `count`/`sum`/buckets may be
/// mutually torn under concurrent snapshots, which is acceptable for
/// monitoring output.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64; BUCKET_COUNT]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

impl Histogram {
    #[inline]
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience for timing: observe a duration in nanoseconds.
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Per-bucket (non-cumulative) counts, `BUCKET_COUNT` entries.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; BUCKET_COUNT],
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) as the inclusive upper bound
    /// of the bucket containing the rank-`ceil(q*count)` sample. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKET_COUNT - 1)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Accumulate another snapshot into this one (used to merge per-shard or
    /// per-thread histograms).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        // `observe` accumulates the sum with a wrapping fetch_add, so a
        // merge of shard snapshots must wrap the same way to agree with a
        // monolithic histogram that saw all the samples.
        self.sum = self.sum.wrapping_add(other.sum);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &b) in other.buckets.iter().enumerate() {
            self.buckets[i] += b;
        }
    }

    fn saturating_sub(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| b.saturating_sub(base.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(base.count),
            sum: self.sum.saturating_sub(base.sum),
            buckets,
        }
    }
}

/// Named-metric registry. One process-global instance exists (see
/// [`global`]); independent instances can be created for tests.
pub struct Registry {
    maps: Mutex<Maps>,
}

/// All three name tables behind the one `obs.registry` lock: a call site
/// registers once per process (the macros cache the handle) and a
/// scrape snapshots them together.
#[derive(Default)]
struct Maps {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

fn get_or_create<T: Default>(map: &mut BTreeMap<String, Arc<T>>, name: &str) -> Arc<T> {
    if let Some(handle) = map.get(name) {
        return Arc::clone(handle);
    }
    let handle = Arc::new(T::default());
    map.insert(name.to_string(), Arc::clone(&handle));
    handle
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            maps: Mutex::new(rank::OBS_REGISTRY, Maps::default()),
        }
    }

    /// Get-or-create the counter with this name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&mut self.maps.lock().counters, name) // xlint::lock(obs.registry)
    }

    /// Get-or-create the gauge with this name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&mut self.maps.lock().gauges, name) // xlint::lock(obs.registry)
    }

    /// Get-or-create the histogram with this name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&mut self.maps.lock().histograms, name) // xlint::lock(obs.registry)
    }

    /// Every metric registered so far, read under one hold of the lock.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let maps = self.maps.lock(); // xlint::lock(obs.registry)
        MetricsSnapshot {
            counters: maps
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: maps
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: maps
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-global registry used by the `counter!`/`gauge!`/`histogram!`
/// macros and therefore by all instrumented crates.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Point-in-time copy of every metric in a registry. This is the API the
/// bench crate and the CLI `--metrics` dump consume.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counters and histograms as deltas against `base` (gauges keep their
    /// current level). Useful to attribute activity to one workload run in a
    /// process whose global registry has older traffic in it.
    pub fn delta_since(&self, base: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                (
                    k.clone(),
                    v.saturating_sub(base.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let sub = match base.histograms.get(k) {
                    Some(b) => h.saturating_sub(b),
                    None => h.clone(),
                };
                (k.clone(), sub)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Prometheus text exposition (format version 0.0.4). Histograms are
    /// rendered with cumulative `le` buckets; empty power-of-two buckets are
    /// elided except for the terminal `+Inf`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                cum += b;
                if b == 0 {
                    continue;
                }
                if i >= 64 {
                    // Folded into the +Inf bucket below.
                    continue;
                }
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    bucket_bound(i)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }

    /// Compact JSON rendering: counters and gauges verbatim, histograms as
    /// `{count, sum, p50, p90, p99}`. Hand-rolled to keep obs zero-dependency.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_json_map(
            &mut out,
            self.counters
                .iter()
                .map(|(k, v)| (k.as_str(), v.to_string())),
        );
        out.push_str("},\n  \"gauges\": {");
        push_json_map(
            &mut out,
            self.gauges.iter().map(|(k, v)| (k.as_str(), v.to_string())),
        );
        out.push_str("},\n  \"histograms\": {");
        let mut first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                json_string(k),
                h.count,
                h.sum,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99)
            ));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn push_json_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, String)>) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    {}: {}", json_string(k), v));
    }
    if !first {
        out.push_str("\n  ");
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The kill switch is process-global, so unit tests that record metrics or
/// toggle it must not interleave with each other.
#[cfg(test)]
pub(crate) fn test_serial_guard() -> crate::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(rank::OBS_TEST_SERIAL, ());
    LOCK.lock() // xlint::lock(obs.test_serial)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> crate::sync::MutexGuard<'static, ()> {
        test_serial_guard()
    }

    #[test]
    fn bucket_index_and_bounds_partition_the_domain() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKET_COUNT - 1 {
            // Every value up to the bound lands in a bucket <= i, and the
            // first value past the bound lands strictly above.
            assert!(bucket_index(bucket_bound(i)) <= i);
            assert_eq!(bucket_index(bucket_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn registry_returns_the_same_handle_for_the_same_name() {
        let _g = serial();
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counters["x"], 3);
    }

    /// A scrape racing registration: every handle this thread registered
    /// before it took the snapshot is in the snapshot, whatever the other
    /// thread is adding to the three tables meanwhile.
    #[test]
    fn snapshot_during_registration_holds_everything_registered_before_it() {
        let _g = serial();
        let r = Registry::new();
        let stop = AtomicBool::new(false);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    r.counter(&format!("bg_c{i}")).inc();
                    r.gauge(&format!("bg_g{i}")).set(1);
                    r.histogram(&format!("bg_h{i}")).observe(1);
                    if i == 0 {
                        started_tx.send(()).expect("the test is waiting");
                    }
                    i += 1;
                }
            });
            started_rx.recv().expect("the registrar runs");
            for round in 0..50u64 {
                r.counter(&format!("mine_c{round}")).add(round + 1);
                r.gauge(&format!("mine_g{round}")).set(round as i64);
                r.histogram(&format!("mine_h{round}")).observe(round);
                let snap = r.snapshot();
                for seen in 0..=round {
                    assert_eq!(snap.counters[&format!("mine_c{seen}")], seen + 1);
                    assert_eq!(snap.gauges[&format!("mine_g{seen}")], seen as i64);
                    assert_eq!(snap.histograms[&format!("mine_h{seen}")].count, 1);
                }
                assert!(snap.counters.contains_key("bg_c0"));
            }
            stop.store(true, Ordering::SeqCst);
        });
    }

    #[test]
    fn quantiles_track_bucket_bounds() {
        let _g = serial();
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 of 1..=100 sits in the bucket holding 50, i.e. [32, 63].
        assert_eq!(s.quantile(0.5), 63);
        assert_eq!(s.quantile(1.0), 127);
        assert_eq!(s.quantile(0.0), bucket_bound(bucket_index(1)));
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _g = serial();
        let c = Counter::default();
        let h = Histogram::default();
        set_enabled(false);
        c.inc();
        h.observe(9);
        set_enabled(true);
        c.inc();
        h.observe(9);
        assert_eq!(c.get(), 1);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn prometheus_rendering_contains_cumulative_buckets() {
        let _g = serial();
        let r = Registry::new();
        r.counter("c_total").add(7);
        r.gauge("g_bytes").set(-3);
        let h = r.histogram("lat_nanos");
        h.observe(1);
        h.observe(100);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("c_total 7"));
        assert!(text.contains("g_bytes -3"));
        assert!(text.contains("lat_nanos_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_nanos_bucket{le=\"127\"} 2"));
        assert!(text.contains("lat_nanos_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_nanos_count 2"));
    }

    #[test]
    fn json_rendering_is_balanced_and_escaped() {
        let _g = serial();
        let r = Registry::new();
        r.counter("a\"b").inc();
        r.histogram("h").observe(5);
        let json = r.snapshot().render_json();
        assert!(json.contains("\"a\\\"b\": 1"));
        assert!(json.contains("\"p50\": 7"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
