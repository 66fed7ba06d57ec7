//! `xserve` — the long-running serving layer over the XRefine engine.
//!
//! The engine has been `Send + Sync` since PR 2; this crate is the
//! chassis that lets clients actually connect to it: a hand-rolled
//! HTTP/1.1 server over TCP (zero external dependencies, like every
//! other substrate in this workspace) with the admission-control
//! behaviours a server needs before it can face open-loop load:
//!
//! * **accept/worker model** — one acceptor thread hands each
//!   connection to a dedicated connection thread (bounded by
//!   [`ServeConfig::max_connections`]); parsed requests are pushed onto
//!   one bounded queue ([`queue::BoundedQueue`]) drained by
//!   [`ServeConfig::workers`] query workers sharing one engine, so a
//!   queued request goes to whichever worker frees up first;
//! * **load shedding** — a request that finds the queue full is
//!   answered `503 Service Unavailable` with a `Retry-After` header
//!   instead of queueing unboundedly; connections beyond the cap are
//!   shed the same way;
//! * **per-connection read/write timeouts** — a slow or idle peer cannot
//!   pin a connection thread (reads poll in short slices so drain is
//!   observed promptly; a half-received request past its budget gets
//!   `408`);
//! * **graceful drain** — on SIGTERM/SIGINT ([`signal`]), on
//!   `POST /admin/drain`, or via [`server::ServerHandle::begin_drain`]:
//!   stop accepting, let every queued ("in-flight") request finish and
//!   flush, then exit;
//! * **observability** — `GET /metrics` renders the process-global `obs`
//!   registry in Prometheus text (answered inline on the connection
//!   thread, so it works even when the query queue is saturated), and
//!   the server feeds the `serve_*` counters/gauges/histograms
//!   catalogued in DESIGN.md §4e.
//!
//! Endpoints: `GET /query?q=<keywords>` (JSON refinement outcome),
//! `GET /metrics`, `GET /healthz`, `POST /admin/drain`.
//!
//! Load is generated, and latency reported, by the `bench_e2e` harness
//! (`BENCHMARK.json`); shedding and drain under load are pinned by
//! `tests/server_lifecycle.rs`.

pub mod conn;
pub mod http;
pub mod queue;
pub mod server;
pub mod service;
pub mod signal;

pub use server::{start, ServerHandle};
pub use service::{EngineService, LiveEngineService, QueryService, ServiceReply, UpdateRequest};

use std::time::Duration;

/// Server tunables. The defaults suit an interactive deployment; the
/// lifecycle tests shrink queues and timeouts to provoke shedding
/// quickly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878`; port 0 binds an ephemeral
    /// port (the bound address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Query worker threads.
    pub workers: usize,
    /// Queued-request capacity of the one queue the workers share.
    pub queue_capacity: usize,
    /// Connections beyond this are answered `503` and closed.
    pub max_connections: usize,
    /// Budget for reading one request once its first byte arrived; also
    /// the idle keep-alive timeout.
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Admission-to-response budget: a request still queued when this
    /// expires is answered `504` and never executed.
    pub request_timeout: Duration,
    /// How long drain waits for connection threads after the listener
    /// closes before giving up on stragglers.
    pub drain_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            queue_capacity: 256,
            max_connections: 256,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(10),
            drain_grace: Duration::from_secs(30),
        }
    }
}
