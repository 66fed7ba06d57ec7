//! obs — zero-dependency observability for the XRefine reproduction.
//!
//! Two halves:
//!
//! * [`metrics`] — a process-global, lock-cheap registry of atomic counters,
//!   gauges and log₂-bucketed histograms (p50/p90/p99 from bucket bounds),
//!   snapshot-able as a [`MetricsSnapshot`] and renderable as Prometheus
//!   text or JSON. See the `counter!`/`gauge!`/`histogram!` macros for the
//!   cached-handle call-site pattern.
//! * [`trace`] — an opt-in, per-thread span tracer. [`trace::capture`] wraps
//!   a query and returns a structured [`QueryTrace`]; instrumented layers
//!   call [`trace::span`]/[`trace::event`]/[`trace::count`] which are no-ops
//!   unless a capture is active on the calling thread.
//!
//! Beside them, [`lockrank`] holds the table of lock classes and checks the
//! hierarchy at run time, and [`sync`] holds the one `Mutex` the ranked
//! locks use: it carries its class and recovers a poisoned lock.
//!
//! The crate is `std`-only by design: it sits below `kvstore` in the
//! dependency order so every layer of the system can use it.

pub mod lockrank;
pub mod metrics;
pub mod sync;
pub mod trace;

pub use metrics::{
    global, set_enabled, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use trace::{QueryTrace, Span, SpanGuard};

/// Cached-handle counter lookup: `obs::counter!("name")` evaluates to a
/// `&'static Counter` registered in the global registry, resolving the name
/// only on first use at each call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::metrics::global().counter($name))
    }};
}

/// Cached-handle gauge lookup; see [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::metrics::global().gauge($name))
    }};
}

/// Cached-handle histogram lookup; see [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::metrics::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_return_stable_global_handles() {
        let _g = crate::metrics::test_serial_guard();
        let c = crate::counter!("obs_lib_macro_test_total");
        c.inc();
        crate::counter!("obs_lib_macro_test_total").inc();
        // Two distinct call sites, one underlying counter.
        assert_eq!(
            crate::metrics::global()
                .counter("obs_lib_macro_test_total")
                .get(),
            2
        );
        crate::gauge!("obs_lib_macro_test_gauge").set(5);
        crate::histogram!("obs_lib_macro_test_hist").observe(3);
        let snap = crate::metrics::global().snapshot();
        assert_eq!(snap.gauges["obs_lib_macro_test_gauge"], 5);
        assert_eq!(snap.histograms["obs_lib_macro_test_hist"].count, 1);
    }
}
