//! End-to-end lifecycle tests for the serving layer: differential
//! correctness under concurrency, load shedding, graceful drain, a
//! slow client cut off by its read budget, idle peers at the connection
//! cap, the corruption-degradation semantics over HTTP, and a real
//! SIGTERM delivered to the spawned `xrefine-serve` binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use invindex::{persist, Index, KvBackedIndex};
use kvstore::{KvStore, MemKv};
use xmldom::fixtures::figure1;
use xrefine::{EngineConfig, XRefineEngine};
use xserve::service::render_outcome;
use xserve::{EngineService, QueryService, ServeConfig, ServiceReply};

// ---------------------------------------------------------------- helpers

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        max_connections: 32,
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_secs(5),
        drain_grace: Duration::from_secs(10),
    }
}

/// One-shot GET returning (status, raw head, body).
fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read");
    let raw = String::from_utf8_lossy(&raw).into_owned();
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

/// Keep-alive client: sends sequential requests over one connection.
struct KeepAlive {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAlive {
    fn connect(addr: SocketAddr) -> KeepAlive {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        KeepAlive {
            stream,
            buf: Vec::new(),
        }
    }

    fn get(&mut self, target: &str) -> (u16, String) {
        write!(self.stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let mut tmp = [0u8; 4096];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut tmp).expect("read head");
            assert!(n > 0, "connection closed mid-head");
            self.buf.extend_from_slice(&tmp[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status");
        let clen: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .and_then(|v| v.trim().parse().ok())
            })
            .unwrap_or(0);
        while self.buf.len() < head_end + clen {
            let n = self.stream.read(&mut tmp).expect("read body");
            assert!(n > 0, "connection closed mid-body");
            self.buf.extend_from_slice(&tmp[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + clen]).into_owned();
        self.buf.drain(..head_end + clen);
        (status, body)
    }
}

fn encode(q: &str) -> String {
    q.replace(' ', "+")
}

fn figure1_engine() -> Arc<XRefineEngine> {
    Arc::new(XRefineEngine::from_document(
        Arc::new(figure1()),
        EngineConfig::default(),
    ))
}

// ------------------------------------------------- differential under load

#[test]
fn concurrent_clients_match_direct_engine_answers() {
    let engine = figure1_engine();
    let handle = xserve::start(
        test_config(),
        Arc::new(EngineService::new(Arc::clone(&engine))),
    )
    .expect("start");
    let addr = handle.addr();

    let queries = [
        "data base",
        "on line data base",
        "database",
        "line",
        "nosuchword at all",
    ];
    thread::scope(|s| {
        for t in 0..6 {
            let engine = Arc::clone(&engine);
            let queries = &queries;
            s.spawn(move || {
                let mut client = KeepAlive::connect(addr);
                for i in 0..10 {
                    let q = queries[(t + i) % queries.len()];
                    let (status, body) = client.get(&format!("/query?q={}", encode(q)));
                    assert_eq!(status, 200, "{q}: {body}");
                    // The served answer must be byte-identical to what
                    // the engine returns directly: the serving layer
                    // may queue and shed, but never alter results.
                    let direct = engine.answer_detailed(q).expect("healthy engine");
                    assert_eq!(body, render_outcome(q, &direct), "{q}");
                }
            });
        }
    });
    assert_eq!(handle.join(), 0, "clean drain after differential load");
}

// ------------------------------------------------------------ load shedding

/// A service that holds every request for a fixed delay — makes queue
/// saturation and in-flight windows deterministic without a huge corpus.
struct SlowService {
    delay: Duration,
    /// Calls to `answer` that have begun (a worker is inside).
    entered: AtomicUsize,
}

impl SlowService {
    fn new(delay: Duration) -> Arc<SlowService> {
        Arc::new(SlowService {
            delay,
            entered: AtomicUsize::new(0),
        })
    }
}

impl QueryService for SlowService {
    fn answer(&self, query: &str) -> ServiceReply {
        self.entered.fetch_add(1, Ordering::SeqCst);
        thread::sleep(self.delay);
        ServiceReply {
            status: 200,
            body: format!("{{\"slow\":{}}}", obs::metrics::json_string(query)),
        }
    }
}

#[test]
fn saturated_queue_sheds_with_503_and_retry_after() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..test_config()
    };
    let handle =
        xserve::start(config, SlowService::new(Duration::from_millis(300))).expect("start");
    let addr = handle.addr();

    let results: Vec<(u16, String)> = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(move || {
                    let (status, head, _) = get(addr, "/query?q=x");
                    (status, head)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    let ok = results.iter().filter(|(s, _)| *s == 200).count();
    let shed: Vec<&String> = results
        .iter()
        .filter(|(s, _)| *s == 503)
        .map(|(_, head)| head)
        .collect();
    // 1 worker (slow) + 1 queue slot: of 8 simultaneous requests at
    // most a handful are admitted; the rest must shed, not block.
    assert!(ok >= 1, "at least one request served: {results:?}");
    assert!(!shed.is_empty(), "expected sheds: {results:?}");
    for head in shed {
        assert!(
            head.contains("Retry-After:"),
            "503 must carry Retry-After: {head}"
        );
    }
    // Shedding must show up in the serve metrics.
    let (st, _, metrics) = get(addr, "/metrics");
    assert_eq!(st, 200);
    assert!(
        metrics.contains("serve_requests_shed_total"),
        "metrics endpoint lists shed counter:\n{metrics}"
    );
    assert_eq!(handle.join(), 0);
}

// ------------------------------------------------------- work conservation

/// Answers at once, except `long`: that reports it has reached a worker
/// and then occupies it for 600 ms.
struct LongQuery {
    started: mpsc::SyncSender<()>,
}

impl QueryService for LongQuery {
    fn answer(&self, query: &str) -> ServiceReply {
        if query == "long" {
            let _ = self.started.send(());
            thread::sleep(Duration::from_millis(600));
        }
        ServiceReply {
            status: 200,
            body: format!("{{\"q\":{}}}", obs::metrics::json_string(query)),
        }
    }
}

/// With two workers and one of them busy, the other takes every queued
/// request: nothing waits behind the long query while a worker sleeps.
#[test]
fn short_requests_are_not_queued_behind_a_long_one() {
    let (started, long_started) = mpsc::sync_channel(1);
    let handle = xserve::start(test_config(), Arc::new(LongQuery { started })).expect("start");
    let addr = handle.addr();

    let long = thread::spawn(move || get(addr, "/query?q=long").0);
    long_started
        .recv_timeout(Duration::from_secs(5))
        .expect("the long request reaches a worker");

    let mut client = KeepAlive::connect(addr);
    for i in 0..4 {
        let sent = Instant::now();
        let (status, body) = client.get(&format!("/query?q=short{i}"));
        assert_eq!(status, 200, "{body}");
        assert!(
            sent.elapsed() < Duration::from_millis(300),
            "short request {i} took {:?} with a worker idle",
            sent.elapsed()
        );
    }
    assert_eq!(long.join().expect("long client"), 200);
    drop(client);
    assert_eq!(handle.join(), 0);
}

// ---------------------------------------------------------- request_timeout

/// `request_timeout` bounds the wait for a slot. With the only slot held
/// by a slow query, a second query is answered `504` at its deadline,
/// counted, and never reaches the service.
#[test]
fn a_query_without_a_slot_by_its_deadline_is_answered_504() {
    let config = ServeConfig {
        workers: 1,
        request_timeout: Duration::from_millis(200),
        ..test_config()
    };
    let hold = Duration::from_millis(900);
    let service = SlowService::new(hold);
    let handle = xserve::start(config, Arc::clone(&service) as _).expect("start");
    let addr = handle.addr();
    let timeouts = || {
        obs::metrics::global()
            .counter("serve_request_timeouts_total")
            .get()
    };

    let slow = thread::spawn(move || get(addr, "/query?q=slow").0);
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.entered.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "the slow query never started");
        thread::sleep(Duration::from_millis(1));
    }
    let before = timeouts();
    let sent = Instant::now();
    let (status, _, body) = get(addr, "/query?q=late");
    let waited = sent.elapsed();
    assert_eq!(status, 504, "{body}");
    assert!(
        waited >= Duration::from_millis(200) && waited < hold,
        "504 after {waited:?}: due at the 200 ms deadline, not when the slot frees"
    );
    assert!(timeouts() > before, "the timeout was not counted");

    assert_eq!(slow.join().expect("slow client"), 200);
    assert_eq!(handle.join(), 0);
    assert_eq!(
        service.entered.load(Ordering::SeqCst),
        1,
        "the timed-out query reached the service"
    );
}

/// A query that got its slot before its deadline runs to its answer,
/// however long it takes: `request_timeout` bounds waiting, not work.
#[test]
fn a_query_with_a_slot_is_answered_past_its_deadline() {
    let config = ServeConfig {
        workers: 1,
        request_timeout: Duration::from_millis(100),
        ..test_config()
    };
    let service = SlowService::new(Duration::from_millis(400));
    let handle = xserve::start(config, service).expect("start");
    let sent = Instant::now();
    let (status, _, body) = get(handle.addr(), "/query?q=long");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "{\"slow\":\"long\"}");
    assert!(sent.elapsed() >= Duration::from_millis(400));
    assert_eq!(handle.join(), 0);
}

// ------------------------------------------------------------------ panics

/// Panics on `boom`, answers anything else at once.
struct Boom;

impl QueryService for Boom {
    fn answer(&self, query: &str) -> ServiceReply {
        assert_ne!(query, "boom", "the service panics on this query");
        ServiceReply {
            status: 200,
            body: format!("{{\"q\":{}}}", obs::metrics::json_string(query)),
        }
    }
}

/// A query that panics costs its own connection, nothing more: the
/// slot and the connection count come back as the thread unwinds, so
/// with one slot the next query is still answered and drain is clean.
#[test]
fn a_panicking_query_does_not_shrink_the_server() {
    let config = ServeConfig {
        workers: 1,
        request_timeout: Duration::from_secs(2),
        ..test_config()
    };
    let handle = xserve::start(config, Arc::new(Boom)).expect("start");
    let addr = handle.addr();

    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "GET /query?q=boom HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let _ = s.read_to_end(&mut Vec::new()); // closed or reset: no answer to check

    let (status, _, body) = get(addr, "/query?q=fine");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "{\"q\":\"fine\"}");

    // `serve_open_connections` is this count, published.
    let deadline = Instant::now() + Duration::from_secs(2);
    while handle.shared().active_connections() > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(handle.shared().active_connections(), 0);
    assert_eq!(handle.join(), 0, "the panicked connection was left behind");
}

// ---------------------------------------------------------------- draining

#[test]
fn drain_completes_in_flight_requests() {
    let service = SlowService::new(Duration::from_millis(400));
    let handle = xserve::start(test_config(), Arc::clone(&service) as _).expect("start");
    let addr = handle.addr();

    // Six clients on two workers: the drain lands once all six are
    // admitted — two executing (the service counts them in) and four
    // still queued — so none can still be waiting to be accepted.
    let clients: Vec<_> = (0..6)
        .map(|i| {
            thread::spawn(move || {
                let started = Instant::now();
                let (status, _, body) = get(addr, &format!("/query?q=inflight{i}"));
                (status, body, started.elapsed())
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.shared().gate().waiting() < 4 || service.entered.load(Ordering::SeqCst) < 2 {
        assert!(Instant::now() < deadline, "six requests never queued up");
        thread::sleep(Duration::from_millis(1));
    }
    handle.begin_drain();
    let stragglers = handle.join();

    for (i, client) in clients.into_iter().enumerate() {
        let (status, body, elapsed) = client.join().expect("client");
        assert_eq!(
            status, 200,
            "admitted request {i} must be answered, not dropped: {body}"
        );
        assert!(body.contains(&format!("inflight{i}")), "{body}");
        assert!(
            elapsed >= Duration::from_millis(300),
            "the answer really went through the slow worker"
        );
    }
    assert_eq!(stragglers, 0, "drain left connections behind");

    // After the drain completes the listener is gone.
    assert!(
        TcpStream::connect(addr).is_err(),
        "drained server must not accept new connections"
    );
}

#[test]
fn admin_drain_endpoint_triggers_drain() {
    let handle = xserve::start(test_config(), SlowService::new(Duration::ZERO)).expect("start");
    let addr = handle.addr();
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "POST /admin/drain HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut raw = String::new();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.read_to_string(&mut raw).expect("read");
    assert!(raw.contains("\"draining\":true"), "{raw}");
    assert!(handle.drain_requested());
    // The acceptor promotes the request to a real drain within ~1ms.
    let deadline = Instant::now() + Duration::from_secs(2);
    while !handle.is_draining() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.is_draining());
    assert_eq!(handle.join(), 0);
}

// ------------------------------------------------------------ slow client

/// A peer that trickles its head one byte per 50 ms — well inside every
/// 100 ms read slice — is still answered `408` once its 500 ms read
/// budget is spent, and meanwhile other clients are served.
#[test]
fn a_trickling_client_is_cut_off_by_its_read_budget() {
    let handle = xserve::start(test_config(), SlowService::new(Duration::ZERO)).expect("start");
    let addr = handle.addr();

    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut trickle = slow.try_clone().expect("clone");
    let answered = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let writer = {
        let answered = Arc::clone(&answered);
        thread::spawn(move || {
            // A head that never ends: one header line, growing forever.
            let head = b"GET /query?q=x HTTP/1.1\r\nHost: t\r\nX-Slow: ";
            let bytes = head.iter().chain(std::iter::repeat(&b'a'));
            for &byte in bytes {
                let late = started.elapsed() > Duration::from_secs(3);
                if late || answered.load(Ordering::SeqCst) || trickle.write_all(&[byte]).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(50));
            }
        })
    };

    // Meanwhile a well-behaved client is answered at once.
    let (status, _, body) = get(addr, "/query?q=fast");
    assert_eq!(status, 200, "{body}");

    let mut raw = Vec::new();
    let mut tmp = [0u8; 1024];
    while !raw.windows(4).any(|w| w == b"\r\n\r\n") {
        match slow.read(&mut tmp) {
            Ok(n) if n > 0 => raw.extend_from_slice(&tmp[..n]),
            _ => break,
        }
    }
    let elapsed = started.elapsed();
    answered.store(true, Ordering::SeqCst);
    writer.join().expect("writer");
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 408"), "{raw:?} after {elapsed:?}");
    assert!(
        elapsed < Duration::from_millis(1200),
        "408 took {elapsed:?} against a 500 ms read budget"
    );
    drop(slow);
    assert_eq!(
        handle.join(),
        0,
        "the slow connection's thread was left behind"
    );
}

/// Four idle peers hold every slot of a four-connection cap. A fifth is
/// shed `503` on the acceptor thread; the four are closed silently on
/// their 500 ms idle budget, which gives their slots back, and the next
/// peer is served.
#[test]
fn idle_peers_at_the_connection_cap_are_shed_then_released() {
    let config = ServeConfig {
        max_connections: 4,
        read_timeout: Duration::from_millis(500),
        ..test_config()
    };
    let handle = xserve::start(config, SlowService::new(Duration::ZERO)).expect("start");
    let addr = handle.addr();
    let active = || handle.shared().active_connections();
    let settle = |want: usize| {
        let deadline = Instant::now() + Duration::from_secs(2);
        while active() != want && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        active()
    };
    // A peer that connects and sends nothing: the server closes it
    // without unread bytes, so the close is a FIN, never a reset.
    let silent_peer = || {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    };
    // Everything the server wrote before it closed the connection.
    let read_all = |mut s: TcpStream| {
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).expect("read until closed");
        String::from_utf8_lossy(&raw).into_owned()
    };

    let started = Instant::now();
    let idle: Vec<TcpStream> = (0..4).map(|_| silent_peer()).collect();
    assert_eq!(settle(4), 4, "the idle peers were not all admitted");

    let shed = read_all(silent_peer());
    assert!(shed.starts_with("HTTP/1.1 503"), "{shed:?}");
    assert!(shed.contains("connection limit reached"), "{shed:?}");
    assert!(shed.contains("\r\nRetry-After: 1\r\n"), "{shed:?}");
    assert!(shed.contains("\r\nConnection: close\r\n"), "{shed:?}");

    for peer in idle {
        let got = read_all(peer);
        assert!(got.is_empty(), "an idle peer was sent {got:?}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(1200),
        "idle peers closed after {elapsed:?} against a 500 ms budget"
    );
    assert_eq!(settle(0), 0, "closed connections kept their slots");

    let (status, _, body) = get(addr, "/query?q=after");
    assert_eq!(status, 200, "{body}");
    assert_eq!(handle.join(), 0, "stragglers after the idle peers closed");
}

// ------------------------------------------------------ corruption degradation

/// Figure 1 served from the store format, with one byte of the `L/`
/// value of `data` flipped: the damage a query meets on a real store.
fn figure1_engine_with_damaged_data_list() -> Arc<XRefineEngine> {
    let index = Index::build(Arc::new(figure1()));
    let id = index
        .vocabulary()
        .get("data")
        .expect("'data' is in figure 1");
    let mut store = MemKv::new();
    persist::persist(&index, &mut store).expect("persist");
    let key = [&b"L/"[..], &id.0.to_be_bytes()].concat();
    let mut value = store.get(&key).expect("get").expect("data's list");
    *value.last_mut().expect("non-empty value") ^= 0xFF;
    store.put(&key, &value).expect("put");
    let reader = KvBackedIndex::open(Box::new(store)).expect("open");
    Arc::new(XRefineEngine::from_reader(
        Arc::new(reader),
        EngineConfig::default(),
    ))
}

#[test]
fn corrupt_keyword_fails_its_query_but_not_the_connection() {
    let engine = figure1_engine_with_damaged_data_list();
    let handle = xserve::start(test_config(), Arc::new(EngineService::new(engine))).expect("start");

    let mut client = KeepAlive::connect(handle.addr());
    // A query touching the damaged original keyword fails. Damage to an original query keyword changes what the
    // query means, so *this query* gets a structured 500 …
    let (status, body) = client.get("/query?q=data+base");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"keyword\":\"data\""), "{body}");
    assert!(body.contains("checksum mismatch"), "{body}");
    // … while the same connection keeps serving healthy queries: the
    // engine, worker and connection all survive per-query corruption.
    let (status, body) = client.get("/query?q=line");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"refinements\""), "{body}");
    // And the failure repeats deterministically rather than poisoning.
    let (status, _) = client.get("/query?q=data");
    assert_eq!(status, 500);
    drop(client);
    assert_eq!(handle.join(), 0);
}

// ------------------------------------------------- query width, refused early

/// The `xrefine-serve` binary on a small generated corpus, spawned as
/// its own process: the child, its stdout (the drain report follows the
/// address line) and the address it listens on.
fn spawn_server() -> (
    std::process::Child,
    BufReader<std::process::ChildStdout>,
    SocketAddr,
) {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_xrefine-serve"))
        .args(["--dblp", "0.005", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn xrefine-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    let addr: SocketAddr = loop {
        line.clear();
        let n = stdout.read_line(&mut line).expect("read stdout");
        assert!(n > 0, "server exited before listening");
        if let Some(rest) = line.trim().strip_prefix("xrefine-serve listening on ") {
            break rest.parse().expect("addr");
        }
    };
    (child, stdout, addr)
}

/// The value of the plain `name value` line of a `/metrics` page.
fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` in /metrics"))
}

/// Against the spawned binary, so the counters read are this server's
/// alone (the tests of this file share one process-wide registry).
#[test]
fn an_over_wide_query_is_refused_before_it_is_queued() {
    let (mut child, mut stdout, addr) = spawn_server();
    let words = |n: usize| {
        (0..n)
            .map(|i| format!("w{i}"))
            .collect::<Vec<_>>()
            .join("+")
    };
    let counts = || {
        let (status, _, page) = get(addr, "/metrics");
        assert_eq!(status, 200);
        (
            metric(&page, "xrefine_queries_total"),
            metric(&page, "serve_queue_wait_nanos_count"),
        )
    };

    // One served query, so both series exist.
    let (status, _, body) = get(addr, "/query?q=xml");
    assert_eq!(status, 200, "{body}");
    let before = counts();
    assert_eq!(before, (1, 1));

    // 33 keywords and no keyword at all: a structured 400 each, and
    // neither a worker nor the engine has seen them.
    let (status, _, body) = get(addr, &format!("/query?q={}", words(33)));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"keywords\":33"), "{body}");
    assert!(body.contains("\"max_keywords\":32"), "{body}");
    let (status, _, body) = get(addr, "/query?q=!!!");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"keywords\":0"), "{body}");
    assert_eq!(counts(), before, "a refused query reached the queue");

    // 32 keywords is a query like any other.
    let (status, _, body) = get(addr, &format!("/query?q={}", words(32)));
    assert_eq!(status, 200, "{body}");
    assert_eq!(counts(), (2, 2));

    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "POST /admin/drain HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain output");
    assert!(child.wait().expect("wait").success(), "{rest}");
}

// ------------------------------------------------------- SIGTERM, for real

#[test]
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn spawned_binary_drains_on_sigterm() {
    let (mut child, mut stdout, addr) = spawn_server();

    // The server answers over TCP…
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");

    // …then receives a real SIGTERM and must exit 0 after draining.
    // Delivered via the raw kill syscall — no dependence on a `kill`
    // binary being present in the environment.
    let ret: i64;
    // SAFETY: kill(2) takes two integer arguments and reads no memory;
    // rcx/r11 are clobbered by `syscall` and declared so.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 62i64 => ret, // SYS_kill
            in("rdi") child.id() as u64,
            in("rsi") 15u64, // SIGTERM
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    assert_eq!(ret, 0, "kill syscall failed");

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain output");
    let status = child.wait().expect("wait");
    assert!(
        status.success(),
        "SIGTERM must drain and exit 0; output:\n{rest}"
    );
    assert!(rest.contains("drained cleanly"), "{rest}");
}
