//! Per-connection thread: reads requests, routes them, writes replies.
//!
//! The attribute below denies clippy's panic lints here — bytes come
//! from the network, and a malformed or malicious peer must never cost
//! more than its own connection. Reads happen in short slices
//! (`min(read_timeout, 100ms)`) so the thread observes drain promptly
//! even while a peer is idle; a request that stays half-received past
//! its read budget is answered `408` and the connection closed, however
//! steadily its bytes trickle in.
//!
//! `/query` goes through admission control: a `q` that is missing,
//! blank, without a single keyword or wider than
//! [`http::MAX_QUERY_KEYWORDS`] is refused `400` right here, the
//! engine never hears of it; otherwise this thread enters the server's
//! [`Gate`](crate::admit::Gate) and, holding a slot, runs the query
//! itself. Every slot busy and the waiting room full is a `503` +
//! `Retry-After` — the shed path never blocks; no slot within
//! `request_timeout` is a `504`. `/metrics`, `/healthz` and the
//! `/admin/*` endpoints need no slot, so observability and operators
//! keep working when every slot is busy.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::io::{ErrorKind, Read as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::admit::Refused;
use crate::http::{self, Parse, Request, Response};
use crate::server::Shared;

/// Serves one connection to completion. Never panics; any socket error
/// simply ends the connection.
pub fn handle(mut stream: TcpStream, shared: &Arc<Shared>) {
    let cfg = shared.config();
    let slice = cfg
        .read_timeout
        .min(Duration::from_millis(100))
        .max(Duration::from_millis(1));
    if stream.set_read_timeout(Some(slice)).is_err() {
        return;
    }
    if stream.set_write_timeout(Some(cfg.write_timeout)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut tmp = [0u8; 4096];
    // Set when the first byte of a not-yet-complete request arrived;
    // cleared once the request is dispatched.
    let mut first_byte: Option<Instant> = None;
    let mut idle_since = Instant::now();
    // Drain race closer: a peer may have finished sending a request
    // microseconds before the drain flag flipped, with the bytes still
    // in the kernel buffer. Each connection gets exactly one extra read
    // slice at drain time so such a request is served, not dropped.
    let mut drain_grace_read = true;

    loop {
        let ready: Option<Box<Request>> = match http::parse_request(&buf) {
            Parse::Ready(req) if buf.len() >= req.frame_len() => Some(req),
            Parse::Ready(_) | Parse::Incomplete => None,
            Parse::Bad(e) => {
                obs::counter!("serve_http_errors_total").inc();
                let resp = Response::error(e.status, e.detail).with_close();
                let _ = http::write_response(&mut stream, &resp, true);
                return;
            }
        };

        if let Some(req) = ready {
            let frame = req.frame_len().min(buf.len());
            let body = buf.get(req.head_len..frame).unwrap_or(&[]);
            let resp = route(shared, &req, body);
            // During drain the response is the connection's last: tell
            // the peer instead of letting its next request race the
            // close.
            let close = resp.close || !req.keep_alive || shared.draining();
            if http::write_response(&mut stream, &resp, close).is_err() {
                return;
            }
            buf.drain(..frame);
            first_byte = None;
            idle_since = Instant::now();
            if close {
                return;
            }
            continue;
        }

        // Not a full frame yet. The read budgets are enforced before every
        // read, not only after a slice that came back empty: a peer that
        // trickles a byte per slice is answered `408` on time too.
        if let Some(t0) = first_byte {
            if t0.elapsed() >= cfg.read_timeout {
                obs::counter!("serve_http_errors_total").inc();
                let resp = Response::error(408, "request not fully received within read_timeout")
                    .with_close();
                let _ = http::write_response(&mut stream, &resp, true);
                return;
            }
        } else if idle_since.elapsed() >= cfg.read_timeout {
            return; // keep-alive idle expiry; close silently
        }

        // An idle (nothing buffered) connection closes as soon as drain
        // begins — after one final read slice (see `drain_grace_read`); a
        // partial request keeps its read budget so drain never truncates
        // bytes already in flight.
        if shared.draining() && buf.is_empty() {
            if !drain_grace_read {
                return;
            }
            drain_grace_read = false;
            match stream.read(&mut tmp) {
                Ok(n) if n > 0 => {
                    let Some(chunk) = tmp.get(..n) else { return };
                    buf.extend_from_slice(chunk);
                    first_byte = Some(Instant::now());
                    continue;
                }
                _ => return,
            }
        }

        match stream.read(&mut tmp) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                let Some(chunk) = tmp.get(..n) else { return };
                buf.extend_from_slice(chunk);
                if first_byte.is_none() {
                    first_byte = Some(Instant::now());
                }
            }
            // A read slice expired with no bytes; the budgets are checked
            // on the next turn.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// Maps a parsed request to its response. Only `/query` needs a slot of
/// the admission gate — not `/admin/update`: maintenance commits are
/// serialized by the store's writer lock anyway, and keeping them out
/// of the gate means busy query slots can't starve operators.
fn route(shared: &Arc<Shared>, req: &Request, body: &[u8]) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/query") => query(shared, req),
        ("POST", "/admin/update") => update(shared, req, body),
        ("GET", "/metrics") => {
            shared.refresh_gauges();
            Response::text(200, obs::metrics::global().snapshot().render_prometheus())
        }
        ("GET", "/healthz") => Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"draining\":{}}}",
                if shared.draining() { "true" } else { "false" }
            ),
        ),
        ("POST", "/admin/drain") => {
            shared.request_drain();
            Response::json(200, "{\"draining\":true}".to_string())
        }
        ("GET" | "POST", _) => Response::error(404, "no such endpoint"),
        _ => Response::error(405, "method not allowed"),
    }
}

/// The `/admin/update` path: decodes op/slot/body and hands the request
/// to the service. Read-only services answer `501` via the trait's
/// default implementation.
fn update(shared: &Arc<Shared>, req: &Request, body: &[u8]) -> Response {
    obs::counter!("serve_update_requests_total").inc();
    let Some(op) = req.param("op").map(str::trim).filter(|o| !o.is_empty()) else {
        obs::counter!("serve_http_errors_total").inc();
        return Response::error(400, "missing `op` parameter (add, remove or compact)");
    };
    let slot = match req.param("slot") {
        None => None,
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => {
                obs::counter!("serve_http_errors_total").inc();
                return Response::error(400, "`slot` must be a non-negative integer");
            }
        },
    };
    let Ok(body) = std::str::from_utf8(body) else {
        obs::counter!("serve_http_errors_total").inc();
        return Response::error(400, "request body must be UTF-8 XML");
    };
    let reply = shared
        .service()
        .update(&crate::service::UpdateRequest { op, slot, body });
    Response::json(reply.status, reply.body)
}

/// The `/query` path: admission control, then the query on this thread.
fn query(shared: &Arc<Shared>, req: &Request) -> Response {
    obs::counter!("serve_requests_total").inc();
    let Some(q) = req.param("q").map(str::trim).filter(|q| !q.is_empty()) else {
        obs::counter!("serve_http_errors_total").inc();
        return Response::error(400, "missing or empty query parameter `q`");
    };
    if let Some(refusal) = refuse_width(q) {
        obs::counter!("serve_http_errors_total").inc();
        return refusal;
    }

    let admitted = Instant::now();
    let slot = match shared.gate().enter(shared.config().request_timeout) {
        Ok(slot) => slot,
        Err(Refused::Full) => {
            obs::counter!("serve_requests_shed_total").inc();
            return Response::error(503, "every query slot is busy").with_retry_after(1);
        }
        Err(Refused::TimedOut) => {
            obs::counter!("serve_request_timeouts_total").inc();
            return Response::error(504, "no query slot within request_timeout");
        }
    };
    obs::histogram!("serve_queue_wait_nanos").observe_duration(admitted.elapsed());
    let reply = shared.service().answer(q);
    drop(slot);
    obs::histogram!("serve_request_nanos").observe_duration(admitted.elapsed());
    Response::json(reply.status, reply.body)
}

/// The `400` for a `q` the engine should not be asked: one that
/// tokenises to no keyword at all (`q=!!!`), or to more than
/// [`http::MAX_QUERY_KEYWORDS`]. The body names the count.
fn refuse_width(q: &str) -> Option<Response> {
    // Counted with the tokenizer `Query::parse` uses, without building
    // the keywords: the query this refuses may have thousands.
    let mut keywords = 0usize;
    xmldom::for_each_token(q, &mut String::new(), |_| {
        keywords = keywords.saturating_add(1)
    });
    let error = match keywords {
        0 => "query parameter `q` contains no keyword",
        n if n > http::MAX_QUERY_KEYWORDS => "query parameter `q` has too many keywords",
        _ => return None,
    };
    Some(Response::json(
        400,
        format!(
            "{{\"error\":{},\"keywords\":{keywords},\"max_keywords\":{}}}",
            obs::metrics::json_string(error),
            http::MAX_QUERY_KEYWORDS
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize) -> String {
        (0..n)
            .map(|i| format!("w{i}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn a_query_without_a_keyword_is_refused() {
        for q in ["!!!", "?", "- - -", "\u{3000}…"] {
            let r = refuse_width(q).unwrap_or_else(|| panic!("{q:?} was let through"));
            assert_eq!(r.status, 400);
            let body = String::from_utf8(r.body).unwrap();
            assert!(body.contains("\"keywords\":0"), "{body}");
            assert!(body.contains("no keyword"), "{body}");
        }
    }

    #[test]
    fn the_widest_admitted_query_has_max_query_keywords() {
        assert!(refuse_width("xml").is_none());
        assert!(refuse_width(&words(http::MAX_QUERY_KEYWORDS)).is_none());
        // punctuation between keywords adds none
        assert!(refuse_width(&words(http::MAX_QUERY_KEYWORDS).replace(' ', " -- ")).is_none());
    }

    #[test]
    fn one_keyword_more_is_refused_with_the_count() {
        let r = refuse_width(&words(http::MAX_QUERY_KEYWORDS + 1)).expect("refused");
        assert_eq!(r.status, 400);
        let body = String::from_utf8(r.body).unwrap();
        assert_eq!(
            body,
            "{\"error\":\"query parameter `q` has too many keywords\",\"keywords\":33,\"max_keywords\":32}"
        );
    }
}
