//! End-to-end live maintenance over HTTP: `POST /admin/update` against
//! a running server while `GET /query` keeps answering — updates land
//! atomically, queries never see a torn index, and a server started
//! read-only refuses updates with `501`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use invindex::{build_streaming, persist};
use kvstore::{DiskKv, FaultVfs, KvStore};
use xrefine::{EngineConfig, LiveEngine, XRefineEngine};
use xserve::{EngineService, LiveEngineService, ServeConfig};

const SEED_CORPUS: &str = "<bib>\
    <paper><title>xml keyword search</title></paper>\
    <paper><title>query refinement ranking</title></paper>\
    </bib>";

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

fn live_service() -> LiveEngineService {
    let vfs = FaultVfs::new().as_dyn();
    let base = std::path::PathBuf::from("/serve-live/store.db");
    let built = build_streaming(SEED_CORPUS, 1).unwrap();
    let mut disk = DiskKv::open_with_vfs(&vfs, &base.with_extension("db")).unwrap();
    persist::persist(&built, &mut disk).unwrap();
    disk.sync().unwrap();
    let live = LiveEngine::open_with_vfs(vfs, &base, EngineConfig::default()).unwrap();
    LiveEngineService::new(Arc::new(live))
}

/// One-shot request returning (status, body).
fn roundtrip(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(request.as_bytes()).expect("send");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read");
    let raw = String::from_utf8_lossy(&raw).into_owned();
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    roundtrip(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    roundtrip(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn updates_apply_over_http_while_queries_keep_serving() {
    let handle = xserve::start(test_config(), Arc::new(live_service())).unwrap();
    let addr = handle.addr();

    // Background readers hammer /query for the whole test: every reply
    // must be a complete 200 — never a torn index, never a 5xx.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (status, body) = get(addr, "/query?q=xml%20keyword");
                    assert_eq!(status, 200, "{body}");
                    assert!(body.ends_with('}'), "torn body: {body}");
                    served += 1;
                }
                served
            })
        })
        .collect();

    // A mixed update stream: adds, a remove, a compaction.
    let (status, body) = post(
        addr,
        "/admin/update?op=add",
        "<paper><title>epoch handoff protocol</title></paper>",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"seq\":1"), "{body}");

    let (status, body) = get(addr, "/query?q=epoch%20handoff");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"original_ok\":true"), "{body}");

    let (status, body) = post(addr, "/admin/update?op=remove&slot=0", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"records\":2"), "{body}");

    let (status, body) = post(addr, "/admin/update?op=compact", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"compacted\":true"), "{body}");

    // Client mistakes are 400s and never wedge the server.
    let (status, _) = post(addr, "/admin/update?op=add", "");
    assert_eq!(status, 400);
    let (status, _) = post(addr, "/admin/update?op=remove&slot=banana", "");
    assert_eq!(status, 400);
    let (status, _) = post(addr, "/admin/update", "");
    assert_eq!(status, 400);

    // Maintenance metrics are live on /metrics.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("maint_txns_total"), "{metrics}");
    assert!(metrics.contains("serve_update_requests_total"), "{metrics}");

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let served = r.join().expect("reader thread");
        assert!(served > 0, "reader never got a query through");
    }
    handle.begin_drain();
    assert_eq!(handle.join(), 0);
}

#[test]
fn fragments_too_deep_for_the_corpus_are_refused_400() {
    let service = Arc::new(live_service());
    let handle = xserve::start(test_config(), Arc::clone(&service) as _).unwrap();
    let addr = handle.addr();
    let nested = |depth: usize| format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));

    // Past the scanner's depth limit, though inside the body limit.
    let too_deep = nested(9_300);
    assert_eq!(too_deep.len(), 65_100);
    // Within the limit on its own, one level past it under the root.
    let at_limit = nested(xmldom::MAX_SCAN_DEPTH);
    for fragment in [too_deep, at_limit] {
        let (status, body) = post(addr, "/admin/update?op=add", &fragment);
        assert_eq!(status, 400, "{body}");
        assert!(!body.contains("corrupt"), "{body}");
    }
    assert_eq!(service.live().maint().seq(), 0, "a refusal commits nothing");
    let (status, body) = get(addr, "/query?q=xml%20keyword");
    assert_eq!(status, 200, "{body}");

    handle.begin_drain();
    assert_eq!(handle.join(), 0);
}

#[test]
fn read_only_server_answers_update_with_501() {
    let engine = XRefineEngine::from_xml(SEED_CORPUS, EngineConfig::default()).unwrap();
    let service = Arc::new(EngineService::new(Arc::new(engine)));
    let handle = xserve::start(test_config(), service).unwrap();
    let addr = handle.addr();

    let (status, body) = post(
        addr,
        "/admin/update?op=add",
        "<paper><title>nope</title></paper>",
    );
    assert_eq!(status, 501, "{body}");
    assert!(body.contains("--live"), "{body}");
    // And the read path is untouched.
    let (status, _) = get(addr, "/query?q=xml");
    assert_eq!(status, 200);

    handle.begin_drain();
    assert_eq!(handle.join(), 0);
}
