//! The server chassis: acceptor thread, connection threads, drain
//! sequencing.
//!
//! Thread model:
//!
//! ```text
//! acceptor ── accept ──> conn thread (≤ max_connections, detached)
//!                            │  parse, route
//!                            ▼
//!                  admission gate — `workers` slots, `queue_capacity`
//!                            │     waiters, the rest shed
//!                            ▼
//!                  QueryService::answer, on the same conn thread
//! ```
//!
//! A `/query` never crosses a thread: the connection thread that read it
//! waits for a slot of the [`Gate`], answers it and writes the reply.
//! Drain is therefore two steps: (1) stop accepting — after one sweep
//! of the accept backlog, so a peer that connected a moment before
//! drain is answered, not reset — and close the listener; (2) wait for
//! the connection threads — idle ones exit on the drain flag, busy ones
//! finish their request/response exchange, whether their query is
//! executing or still waiting for a slot. A query admitted to the gate
//! is therefore always answered, or answered `504` at its
//! `request_timeout`, by its own connection — never silently dropped.
//! A thread that panics in a query gives back its slot and its
//! connection count as it unwinds ([`Permit`](crate::admit::Permit)'s
//! and `OpenConnection`'s `Drop`), so the server keeps its size and
//! drain does not wait for it.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::admit::Gate;
use crate::conn;
use crate::http::{self, Response};
use crate::service::QueryService;
use crate::ServeConfig;

/// State shared by the acceptor and every connection thread.
/// Coordination is atomics plus the gate's own (ranked) lock.
pub struct Shared {
    config: ServeConfig,
    gate: Gate,
    service: Arc<dyn QueryService>,
    /// Set once drain begins; acceptor exits, idle connections close.
    draining: AtomicBool,
    /// Set by `POST /admin/drain`; the acceptor promotes it to
    /// `draining` so a remote operator can initiate shutdown.
    drain_requested: AtomicBool,
    active_conns: AtomicUsize,
}

impl Shared {
    fn new(config: ServeConfig, service: Arc<dyn QueryService>) -> Shared {
        Shared {
            gate: Gate::new(config.workers, config.queue_capacity),
            config,
            service,
            draining: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    pub fn service(&self) -> &Arc<dyn QueryService> {
        &self.service
    }

    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Remote drain request (`POST /admin/drain`). Takes effect at the
    /// acceptor's next poll (≤ ~1ms).
    pub fn request_drain(&self) {
        self.drain_requested.store(true, Ordering::SeqCst);
    }

    pub fn drain_requested(&self) -> bool {
        self.drain_requested.load(Ordering::SeqCst)
    }

    pub fn active_connections(&self) -> usize {
        self.active_conns.load(Ordering::SeqCst)
    }

    /// Re-publishes the two gauges: on `/metrics` render, so scrapes
    /// always see a fresh value, and as connections open and close.
    pub fn refresh_gauges(&self) {
        obs::gauge!("serve_queued_requests").set(self.gate.waiting() as i64);
        obs::gauge!("serve_open_connections").set(self.active_conns.load(Ordering::SeqCst) as i64);
    }
}

/// One counted connection, from accept to close; dropping it gives the
/// count back, on a normal return and while a panic unwinds alike.
struct OpenConnection {
    shared: Arc<Shared>,
    /// Open connections, this one included, when it was counted.
    open: usize,
}

impl OpenConnection {
    fn count(shared: &Arc<Shared>) -> OpenConnection {
        OpenConnection {
            shared: Arc::clone(shared),
            open: shared.active_conns.fetch_add(1, Ordering::SeqCst) + 1,
        }
    }
}

impl Drop for OpenConnection {
    fn drop(&mut self) {
        self.shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        self.shared.refresh_gauges();
    }
}

/// A running server. Dropping the handle does NOT stop the server;
/// call [`ServerHandle::begin_drain`] + [`ServerHandle::join`] (or let
/// the process exit).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Starts the drain sequence: stop accepting, close idle
    /// connections. Idempotent; returns immediately — use
    /// [`join`](Self::join) to wait for completion.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    // xlint::allow(unused-export): observer the lifecycle tests poll to see the drain begin
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// True once `POST /admin/drain` was received (the embedding binary
    /// polls this alongside its signal flag).
    pub fn drain_requested(&self) -> bool {
        self.shared.drain_requested()
    }

    /// Drains and waits for the server to finish: acceptor joined, then
    /// connection threads given `drain_grace` to complete their
    /// exchanges. Returns the number of straggler connections still
    /// open when the grace period expired (0 on a clean drain).
    pub fn join(self) -> usize {
        self.begin_drain();
        let _ = self.acceptor.join();
        let deadline = Instant::now() + self.shared.config.drain_grace;
        while self.shared.active_connections() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        self.shared.refresh_gauges();
        self.shared.active_connections()
    }
}

/// Binds `config.addr` and starts the acceptor thread. Refuses a config
/// without a query slot (`workers` 0): such a server would answer no
/// query.
pub fn start(config: ServeConfig, service: Arc<dyn QueryService>) -> io::Result<ServerHandle> {
    if config.workers == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "workers must be positive, not 0",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    // Nonblocking accept + 1ms poll keeps drain latency bounded without
    // a self-pipe or signalfd (no external crates to provide either).
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new(config, service));

    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("xserve-accept".to_string())
            .spawn(move || accept_loop(listener, &shared))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor,
    })
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.drain_requested() {
            shared.draining.store(true, Ordering::SeqCst);
        }
        // Read before the accept: a peer whose handshake finished before
        // drain began sits in the backlog, its request perhaps already
        // written, and dropping the listener over it is a kernel RST. So
        // drain accepts until the backlog reads empty, and `conn::handle`
        // gives each such peer its answer or its `503`.
        let draining = shared.draining();
        match listener.accept() {
            Ok((stream, _peer)) => admit(stream, shared),
            Err(_) if draining => break, // listener drops here: no more connections
            // Nothing waiting (WouldBlock) or a transient accept error
            // (EMFILE, ECONNABORTED): back off briefly, do not spin.
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Hands one accepted connection to its own thread, or sheds it over
/// the connection cap.
fn admit(mut stream: TcpStream, shared: &Arc<Shared>) {
    obs::counter!("serve_connections_accepted_total").inc();
    let open = OpenConnection::count(shared);
    if open.open > shared.config.max_connections {
        // Over the cap: shed on the acceptor thread (one small write)
        // rather than spawn.
        obs::counter!("serve_connections_shed_total").inc();
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        let resp = Response::error(503, "connection limit reached")
            .with_retry_after(1)
            .with_close();
        let _ = http::write_response(&mut stream, &resp, true);
        return;
    }
    shared.refresh_gauges();
    // A failed spawn drops the closure, and `open` with it.
    let _ = thread::Builder::new()
        .name("xserve-conn".to_string())
        .spawn(move || conn::handle(stream, &open.shared));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceReply;
    use std::io::{Read as _, Write as _};

    struct Echo;
    impl QueryService for Echo {
        fn answer(&self, query: &str) -> ServiceReply {
            ServiceReply {
                status: 200,
                body: format!("{{\"echo\":{}}}", obs::metrics::json_string(query)),
            }
        }
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 8,
            max_connections: 8,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(2),
            drain_grace: Duration::from_secs(5),
        }
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(
            s,
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    /// Three peers finish their handshake and write a request before
    /// drain begins, and nobody has accepted them yet: the acceptor must
    /// hand each to a connection thread before it drops the listener.
    #[test]
    fn drain_sweeps_the_accept_backlog_before_the_listener_drops() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let shared = Arc::new(Shared::new(test_config(), Arc::new(Echo)));
        let mut clients: Vec<TcpStream> = (0..3)
            .map(|_| {
                let mut s = TcpStream::connect(addr).unwrap();
                write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
                s
            })
            .collect();
        shared.draining.store(true, Ordering::SeqCst);
        accept_loop(listener, &shared); // returns with the listener dropped
        for (i, s) in clients.iter_mut().enumerate() {
            let mut raw = String::new();
            s.read_to_string(&mut raw)
                .unwrap_or_else(|e| panic!("client {i} was cut off: {e}"));
            assert!(raw.starts_with("HTTP/1.1 200"), "client {i}: {raw:?}");
            assert!(raw.contains("Connection: close\r\n"), "client {i}: {raw:?}");
            assert!(raw.ends_with("\"draining\":true}"), "client {i}: {raw:?}");
        }
    }

    #[test]
    fn serves_queries_and_basic_endpoints() {
        let h = start(test_config(), Arc::new(Echo)).unwrap();
        let addr = h.addr();
        let (st, body) = get(addr, "/query?q=xml+search");
        assert_eq!(st, 200, "{body}");
        assert_eq!(body, "{\"echo\":\"xml search\"}");
        let (st, body) = get(addr, "/healthz");
        assert_eq!(st, 200);
        assert!(body.contains("\"draining\":false"), "{body}");
        let (st, _) = get(addr, "/nope");
        assert_eq!(st, 404);
        let (st, _) = get(addr, "/query");
        assert_eq!(st, 400);
        assert_eq!(h.join(), 0);
    }

    #[test]
    fn a_config_without_a_query_slot_is_refused() {
        let config = ServeConfig {
            workers: 0,
            ..test_config()
        };
        let err = start(config, Arc::new(Echo))
            .err()
            .expect("workers 0 refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("workers"), "{err}");
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let h = start(test_config(), Arc::new(Echo)).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        for i in 0..3 {
            write!(s, "GET /query?q=k{i} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut chunk = [0u8; 1024];
            let mut got = String::new();
            while !got.contains(&format!("{{\"echo\":\"k{i}\"}}")) {
                let n = s.read(&mut chunk).unwrap();
                assert!(n > 0, "connection closed early at request {i}: {got}");
                got.push_str(&String::from_utf8_lossy(&chunk[..n]));
            }
            assert!(got.contains("Connection: keep-alive"), "{got}");
        }
        drop(s);
        assert_eq!(h.join(), 0);
    }

    #[test]
    fn drain_stops_accepting_and_join_reports_clean() {
        let h = start(test_config(), Arc::new(Echo)).unwrap();
        let addr = h.addr();
        let (st, _) = get(addr, "/query?q=before");
        assert_eq!(st, 200);
        h.begin_drain();
        thread::sleep(Duration::from_millis(50));
        assert!(
            TcpStream::connect(addr).is_err() || {
                // Accepted by a backlog race: the request itself must fail
                // or be answered with a draining 503.
                let (st, _) = get(addr, "/query?q=after");
                st == 503 || st == 0
            }
        );
        assert_eq!(h.join(), 0);
    }
}
