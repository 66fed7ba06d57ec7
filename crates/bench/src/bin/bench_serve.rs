//! Serving-path load bench: drives an in-process `xserve` server with a
//! closed loop (capacity probe), an open loop at a multiple of that
//! capacity (overload: shedding + tail latency), and a drain check
//! (in-flight requests across `begin_drain` must all be answered).
//! Emits `results/BENCH_serve.json` with qps, p50/p99/p999 (shared
//! nearest-rank `bench::percentile`), shed rate, the `serve_*` metric
//! deltas, and — under `store` — the at-rest footprint of the served
//! corpus: store bytes and cache resident bytes at a fixed budget
//! (`bench::store_footprint`).
//!
//! Knobs (environment): `SERVE_BENCH_SECS` per-phase duration (default
//! 2), `SERVE_BENCH_CONNS` closed-loop connections (default 8),
//! `SERVE_OVERLOAD_FACTOR` open-loop rate multiplier (default 3.0),
//! `SERVE_BENCH_FRACTION` DBLP corpus scale (default 0.02),
//! `SERVE_QUEUE_CAP` server queue capacity (default 32),
//! `SERVE_BENCH_CACHE_BYTES` footprint cache budget (default 32768).

use bench::{dblp, percentile, store_footprint};
use datagen::{generate_workload, WorkloadConfig};
use invindex::Index;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xrefine::{EngineConfig, XRefineEngine};
use xserve::{EngineService, ServeConfig};

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Minimal keep-alive HTTP client for loopback load generation.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    fn send(&mut self, target: &str) -> io::Result<()> {
        write!(self.stream, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n")
    }

    /// Reads one response; returns (status, peer_will_close).
    fn read_response(&mut self) -> io::Result<(u16, bool)> {
        let mut tmp = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut tmp)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&tmp[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_ascii_lowercase();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let close = head.contains("connection: close");
        let clen: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        while self.buf.len() < head_end + clen {
            let n = self.stream.read(&mut tmp)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&tmp[..n]);
        }
        self.buf.drain(..head_end + clen);
        Ok((status, close))
    }

    fn get(&mut self, target: &str) -> io::Result<(u16, bool)> {
        self.send(target)?;
        self.read_response()
    }
}

/// Conservative query-string encoding (words from datagen are ASCII,
/// but the encoder must not depend on that).
fn encode_query(q: &str) -> String {
    let mut out = String::with_capacity(q.len());
    for b in q.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

#[derive(Default)]
struct LoopTally {
    ok: u64,
    shed: u64,
    timeouts: u64,
    http_other: u64,
    conn_errors: u64,
    latencies: Vec<Duration>,
}

impl LoopTally {
    fn merge(&mut self, other: LoopTally) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.timeouts += other.timeouts;
        self.http_other += other.http_other;
        self.conn_errors += other.conn_errors;
        self.latencies.extend(other.latencies);
    }

    fn record(&mut self, status: u16, latency: Duration) {
        match status {
            200 => {
                self.ok += 1;
                self.latencies.push(latency);
            }
            503 => self.shed += 1,
            504 => self.timeouts += 1,
            _ => self.http_other += 1,
        }
    }
}

fn targets(queries: &[String]) -> Vec<String> {
    queries
        .iter()
        .map(|q| format!("/query?q={}", encode_query(q)))
        .collect()
}

/// Closed loop: `conns` connections each issue the next request as soon
/// as the previous one is answered. Measures delivered capacity.
fn closed_loop(addr: SocketAddr, targets: &[String], conns: usize, secs: f64) -> LoopTally {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let next = AtomicU64::new(0);
    let mut total = LoopTally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut tally = LoopTally::default();
                    let mut client = None;
                    while Instant::now() < deadline {
                        let c = match client.as_mut() {
                            Some(c) => c,
                            None => match Client::connect(addr) {
                                Ok(c) => {
                                    client = Some(c);
                                    client.as_mut().expect("just set")
                                }
                                Err(_) => {
                                    tally.conn_errors += 1;
                                    continue;
                                }
                            },
                        };
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let target = &targets[i % targets.len()];
                        let t0 = Instant::now();
                        match c.get(target) {
                            Ok((status, close)) => {
                                tally.record(status, t0.elapsed());
                                if close {
                                    client = None;
                                }
                            }
                            Err(_) => {
                                tally.conn_errors += 1;
                                client = None;
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("closed-loop thread"));
        }
    });
    total
}

/// Open loop: requests fire on a fixed schedule (`rate` per second)
/// regardless of responses — the arrival process servers actually face.
/// Returns the tally plus the attempted count.
fn open_loop(
    addr: SocketAddr,
    targets: &[String],
    rate: f64,
    senders: usize,
    secs: f64,
) -> (LoopTally, u64) {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let next = AtomicU64::new(0);
    let attempted = AtomicU64::new(0);
    let mut total = LoopTally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                let next = &next;
                let attempted = &attempted;
                s.spawn(move || {
                    let mut tally = LoopTally::default();
                    let mut client = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let sched = t0 + Duration::from_secs_f64(i as f64 / rate);
                        if sched >= deadline {
                            break;
                        }
                        let now = Instant::now();
                        if sched > now {
                            std::thread::sleep(sched - now);
                        }
                        attempted.fetch_add(1, Ordering::Relaxed);
                        let c = match client.as_mut() {
                            Some(c) => c,
                            None => match Client::connect(addr) {
                                Ok(c) => {
                                    client = Some(c);
                                    client.as_mut().expect("just set")
                                }
                                Err(_) => {
                                    tally.conn_errors += 1;
                                    continue;
                                }
                            },
                        };
                        let target = &targets[i as usize % targets.len()];
                        let t = Instant::now();
                        match c.get(target) {
                            Ok((status, close)) => {
                                tally.record(status, t.elapsed());
                                if close {
                                    client = None;
                                }
                            }
                            Err(_) => {
                                tally.conn_errors += 1;
                                client = None;
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("open-loop thread"));
        }
    });
    (total, attempted.load(Ordering::Relaxed))
}

/// Drain check: synchronous clients keep one request in flight each;
/// drain begins mid-run; every request *fully sent* before the drain
/// instant must receive a response (the zero-dropped-in-flight
/// invariant). Returns (dropped_inflight, answered_before_or_during,
/// stragglers_reported_by_join).
fn drain_check(
    service: Arc<EngineService>,
    targets: &[String],
    clients: usize,
) -> (u64, u64, usize) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 64,
        max_connections: 64,
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_secs(5),
        drain_grace: Duration::from_secs(10),
    };
    let svc: Arc<dyn xserve::QueryService> = service;
    let handle = xserve::start(config, svc).expect("drain-check server");
    let addr = handle.addr();
    let draining = Arc::new(AtomicBool::new(false));
    let drain_at: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
    let dropped = AtomicU64::new(0);
    let answered = AtomicU64::new(0);

    std::thread::scope(|s| {
        for tid in 0..clients {
            let draining = Arc::clone(&draining);
            let drain_at = Arc::clone(&drain_at);
            let dropped = &dropped;
            let answered = &answered;
            let targets = &targets;
            s.spawn(move || {
                let mut i = tid;
                'conns: loop {
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        // Listener gone: drain reached the accept path.
                        Err(_) => break,
                    };
                    loop {
                        let target = &targets[i % targets.len()];
                        i += clients;
                        if client.send(target).is_err() {
                            // Send failed ⇒ the request never fully
                            // reached the server; not an in-flight drop.
                            continue 'conns;
                        }
                        let sent_at = Instant::now();
                        match client.read_response() {
                            Ok((_, close)) => {
                                answered.fetch_add(1, Ordering::Relaxed);
                                if close {
                                    if draining.load(Ordering::SeqCst) {
                                        break 'conns;
                                    }
                                    continue 'conns;
                                }
                            }
                            Err(_) => {
                                let t_drain = *drain_at.lock().expect("drain_at");
                                let before_drain = t_drain.map(|t| sent_at <= t).unwrap_or(true);
                                if before_drain {
                                    // Fully sent before drain began and
                                    // never answered: a dropped
                                    // in-flight request.
                                    dropped.fetch_add(1, Ordering::Relaxed);
                                }
                                continue 'conns;
                            }
                        }
                        if draining.load(Ordering::SeqCst) {
                            // Don't start new work into a draining
                            // server forever; one tail request already
                            // exercised the race window.
                            break 'conns;
                        }
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(300));
        *drain_at.lock().expect("drain_at") = Some(Instant::now());
        draining.store(true, Ordering::SeqCst);
        handle.begin_drain();
    });
    let stragglers = handle.join();
    (
        dropped.load(Ordering::Relaxed),
        answered.load(Ordering::Relaxed),
        stragglers,
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// `{p50, p99, p999, max}` JSON fragment over an unsorted latency list.
fn latency_json(latencies: &mut [Duration]) -> String {
    latencies.sort_unstable();
    let max = latencies.last().copied().unwrap_or(Duration::ZERO);
    format!(
        "{{\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \"max_ms\": {:.3}}}",
        ms(percentile(latencies, 0.50)),
        ms(percentile(latencies, 0.99)),
        ms(percentile(latencies, 0.999)),
        ms(max),
    )
}

fn main() {
    let secs = env_f64("SERVE_BENCH_SECS", 2.0);
    let conns = env_usize("SERVE_BENCH_CONNS", 8);
    let overload = env_f64("SERVE_OVERLOAD_FACTOR", 3.0);
    let fraction = env_f64("SERVE_BENCH_FRACTION", 0.02);
    let queue_cap = env_usize("SERVE_QUEUE_CAP", 32);
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_serve.json".to_string());

    let doc = dblp(fraction);
    let keyword_sets: Vec<Vec<String>> = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 3,
            ..Default::default()
        },
    )
    .into_iter()
    .map(|q| q.keywords)
    .collect();
    let queries: Vec<String> = keyword_sets.iter().map(|k| k.join(" ")).collect();
    let targets = targets(&queries);
    println!(
        "corpus: {} nodes; workload: {} queries; {conns} conn(s); {secs}s per phase",
        doc.len(),
        queries.len()
    );

    // At-rest footprint of the served corpus, measured before the
    // metric snapshot so the warm-up pass stays out of the serve-phase
    // counter deltas.
    let cache_budget = env_usize("SERVE_BENCH_CACHE_BYTES", 32 * 1024);
    let footprint = store_footprint(&Index::build(Arc::clone(&doc)), &keyword_sets, cache_budget);
    println!(
        "store: {} B; cache resident {} B of {} B (hit rate {:.3})",
        footprint.v4_bytes,
        footprint.cache.cached_bytes,
        cache_budget,
        footprint.cache_hit_rate(),
    );

    let engine = Arc::new(XRefineEngine::from_document(
        Arc::clone(&doc),
        EngineConfig::default(),
    ));
    let service = Arc::new(EngineService::new(Arc::clone(&engine)));

    // Two query workers makes overload reachable without a giant corpus:
    // the bench exercises admission control, not engine throughput.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: queue_cap,
        max_connections: 512,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_secs(2),
        drain_grace: Duration::from_secs(10),
    };
    let before = obs::global().snapshot();
    let svc: Arc<dyn xserve::QueryService> = Arc::clone(&service) as Arc<dyn xserve::QueryService>;
    let handle = xserve::start(config, svc).expect("bench server");
    let addr = handle.addr();
    println!("server on {addr}");

    // Phase 1 — closed loop: delivered capacity under well-behaved load.
    let mut closed = closed_loop(addr, &targets, conns, secs);
    let closed_qps = closed.ok as f64 / secs;
    println!(
        "closed loop: {} ok ({closed_qps:.1} q/s), {} shed, {} errors",
        closed.ok, closed.shed, closed.conn_errors
    );

    // Phase 2 — open loop at `overload`× the measured capacity.
    let rate = (closed_qps * overload).max(50.0);
    let senders = (conns * 4).max(8);
    let (mut open, attempted) = open_loop(addr, &targets, rate, senders, secs);
    let shed_rate = if attempted > 0 {
        open.shed as f64 / attempted as f64
    } else {
        0.0
    };
    println!(
        "open loop @ {rate:.0} q/s target: {attempted} attempted, {} ok, {} shed ({:.1}%), {} timeouts, {} errors",
        open.ok,
        open.shed,
        shed_rate * 100.0,
        open.timeouts,
        open.conn_errors
    );

    let stragglers_main = handle.join();
    println!("main server drained ({stragglers_main} stragglers)");

    // Phase 3 — drain under load on a fresh server.
    let (dropped, drain_answered, drain_stragglers) =
        drain_check(Arc::clone(&service), &targets, 4);
    println!(
        "drain check: {drain_answered} answered, {dropped} dropped in-flight, {drain_stragglers} stragglers"
    );

    let metrics = obs::global().snapshot().delta_since(&before);
    let json = format!(
        "{{\n  \"corpus_nodes\": {},\n  \"workload_queries\": {},\n  \"phase_secs\": {:.1},\n  \
         \"closed_loop\": {{\"connections\": {}, \"requests_ok\": {}, \"qps\": {:.2}, \"latency\": {}}},\n  \
         \"open_loop\": {{\"target_qps\": {:.1}, \"senders\": {}, \"attempted\": {}, \"ok\": {}, \
         \"shed\": {}, \"timeouts\": {}, \"http_other\": {}, \"conn_errors\": {}, \
         \"shed_rate\": {:.4}, \"delivered_qps\": {:.2}, \"latency\": {}}},\n  \
         \"drain\": {{\"answered\": {}, \"dropped_inflight\": {}, \"stragglers\": {}}},\n  \
         \"store\": {},\n  \
         \"metrics\": {}\n}}\n",
        doc.len(),
        queries.len(),
        secs,
        conns,
        closed.ok,
        closed_qps,
        latency_json(&mut closed.latencies),
        rate,
        senders,
        attempted,
        open.ok,
        open.shed,
        open.timeouts,
        open.http_other,
        open.conn_errors,
        shed_rate,
        open.ok as f64 / secs,
        latency_json(&mut open.latencies),
        drain_answered,
        dropped,
        drain_stragglers,
        footprint.json(),
        metrics.render_json(),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");

    if dropped > 0 || drain_stragglers > 0 {
        eprintln!("DRAIN VIOLATION: dropped={dropped} stragglers={drain_stragglers}");
        std::process::exit(1);
    }
}
