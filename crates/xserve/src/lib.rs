//! `xserve` — the long-running serving layer over the XRefine engine.
//!
//! The engine has been `Send + Sync` since PR 2; this crate is the
//! chassis that lets clients actually connect to it: a hand-rolled
//! HTTP/1.1 server over TCP (zero external dependencies, like every
//! other substrate in this workspace) with the admission-control
//! behaviours a server needs before it can face open-loop load:
//!
//! * **one thread per connection** — one acceptor thread hands each
//!   connection to a dedicated connection thread (bounded by
//!   [`ServeConfig::max_connections`]), which parses each request and
//!   answers it itself: a `/query` runs on the thread that read it, once
//!   it holds a slot of the admission gate ([`admit::Gate`]), which lets
//!   [`ServeConfig::workers`] queries execute at once and
//!   [`ServeConfig::queue_capacity`] more wait for a slot;
//! * **load shedding** — a query that finds every slot busy and the
//!   waiting room full is answered `503 Service Unavailable` with a
//!   `Retry-After` header instead of waiting unboundedly, and one that
//!   waits out [`ServeConfig::request_timeout`] is answered `504`;
//!   connections beyond the cap are shed with a `503` too;
//! * **per-connection read/write timeouts** — a slow or idle peer cannot
//!   pin a connection thread (reads poll in short slices so drain is
//!   observed promptly; a half-received request past its budget gets
//!   `408`);
//! * **graceful drain** — on SIGTERM/SIGINT ([`signal`]), on
//!   `POST /admin/drain`, or via [`server::ServerHandle::begin_drain`]:
//!   stop accepting, let every connection finish the request it holds
//!   (executing or waiting for a slot) and flush it, then exit;
//! * **observability** — `GET /metrics` renders the process-global `obs`
//!   registry in Prometheus text (answered inline on the connection
//!   thread without a slot, so it works even when every slot is busy), and
//!   the server feeds the `serve_*` counters/gauges/histograms
//!   catalogued in DESIGN.md §4e.
//!
//! Endpoints: `GET /query?q=<keywords>` (JSON refinement outcome),
//! `GET /metrics`, `GET /healthz`, `POST /admin/drain`.
//!
//! Load is generated, and latency reported, by the `bench_e2e` harness
//! (`BENCHMARK.json`); shedding and drain under load are pinned by
//! `tests/server_lifecycle.rs`.

pub mod admit;
pub mod conn;
pub mod http;
pub mod server;
pub mod service;
pub mod signal;

pub use server::{start, ServerHandle};
pub use service::{EngineService, LiveEngineService, QueryService, ServiceReply, UpdateRequest};

use std::time::Duration;

/// Server tunables. The defaults suit an interactive deployment; the
/// lifecycle tests shrink slots and timeouts to provoke shedding
/// quickly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878`; port 0 binds an ephemeral
    /// port (the bound address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Queries executing at once: the admission gate's slots. Must be
    /// positive ([`start`] refuses 0).
    pub workers: usize,
    /// Queries waiting for a slot; 0 means none wait, and a query that
    /// finds every slot busy is shed.
    pub queue_capacity: usize,
    /// Connections beyond this are answered `503` and closed.
    pub max_connections: usize,
    /// Budget for reading one request once its first byte arrived; also
    /// the idle keep-alive timeout.
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// How long a query may wait for a slot: one still waiting when
    /// this expires is answered `504` and never executed. A query that
    /// got its slot in time runs to its answer.
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
