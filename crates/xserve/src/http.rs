//! Minimal HTTP/1.1 framing: request parsing and response writing.
//!
//! Only what the serving path needs — request line, the `Connection` and
//! `Content-Length` headers, query-string decoding — parsed defensively:
//! the attribute below denies clippy's panic lints here, with unchecked
//! indexing and overflowing arithmetic among them, so bytes off the wire
//! are never indexed unchecked and malformed input surfaces as a
//! structured [`ParseError`], never a panic. A garbage request must cost the server
//! one `400`, not a connection thread.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing
    )
)]

use std::io::{self, Write};

/// Head bytes (request line + headers) beyond this are rejected with
/// `431 Request Header Fields Too Large`.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Request bodies beyond this are rejected with `413 Content Too Large`.
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// A `/query` whose `q` tokenises to more keywords than this is refused
/// with `400` before it is admitted. Every keyword costs a rule
/// generation against the whole vocabulary, a key-set entry, a list
/// cursor and a layer of the dynamic program, and a head of
/// [`MAX_HEAD_BYTES`] has room for some 4 000 of them; real queries
/// have a handful.
pub const MAX_QUERY_KEYWORDS: usize = 32;

/// A parsed request head. The body (`content_length` bytes) follows the
/// head in the connection buffer; the server reads and discards it.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Decoded query parameters, in request order.
    pub query: Vec<(String, String)>,
    pub keep_alive: bool,
    pub content_length: usize,
    /// Bytes of the head, including the terminating blank line.
    pub head_len: usize,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Total frame length: head plus declared body.
    pub fn frame_len(&self) -> usize {
        self.head_len.saturating_add(self.content_length)
    }
}

/// Why a request head could not be parsed, with the status the
/// connection should answer before closing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub status: u16,
    pub detail: &'static str,
}

/// Incremental parse result over the connection's receive buffer.
#[derive(Debug)]
pub enum Parse {
    /// Not enough bytes for a full head yet; read more.
    Incomplete,
    /// A complete head (the body may still be in flight; compare
    /// `frame_len()` against the buffered length).
    Ready(Box<Request>),
    /// Irrecoverable framing problem; answer `status` and close.
    Bad(ParseError),
}

fn bad(status: u16, detail: &'static str) -> Parse {
    Parse::Bad(ParseError { status, detail })
}

/// Finds `\r\n\r\n` in `buf`, returning the index one past it.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i.saturating_add(4))
}

/// Parses a request head from the front of `buf`.
pub fn parse_request(buf: &[u8]) -> Parse {
    let Some(head_len) = head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return bad(431, "request head exceeds MAX_HEAD_BYTES");
        }
        return Parse::Incomplete;
    };
    if head_len > MAX_HEAD_BYTES {
        return bad(431, "request head exceeds MAX_HEAD_BYTES");
    }
    let Some(head) = buf.get(..head_len.saturating_sub(4)) else {
        return bad(400, "head bounds disagree"); // unreachable by construction
    };
    let Ok(head) = std::str::from_utf8(head) else {
        return bad(400, "request head is not UTF-8");
    };
    let mut lines = head.split("\r\n");
    let Some(request_line) = lines.next() else {
        return bad(400, "empty request head");
    };

    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return bad(400, "malformed request line");
    };
    if parts.next().is_some() || method.is_empty() || target.is_empty() {
        return bad(400, "malformed request line");
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return bad(505, "unsupported HTTP version"),
    };

    let mut keep_alive = keep_alive_default;
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return bad(400, "malformed header line");
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            let Ok(n) = value.parse::<usize>() else {
                return bad(400, "unparseable Content-Length");
            };
            content_length = n;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Chunked bodies are out of scope for the query protocol.
            return bad(501, "Transfer-Encoding is not supported");
        }
    }
    if content_length > MAX_BODY_BYTES {
        return bad(413, "request body exceeds MAX_BODY_BYTES");
    }

    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Parse::Ready(Box::new(Request {
        method: method.to_string(),
        path: path.to_string(),
        query: parse_query(query_string),
        keep_alive,
        content_length,
        head_len,
    }))
}

/// Splits and percent-decodes `a=b&c=d` pairs. Pairs without `=` decode
/// to an empty value; undecodable `%` escapes are kept literally (the
/// query layer treats them as ordinary characters).
pub fn parse_query(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

/// `+` → space, `%XX` → byte; invalid escapes pass through unchanged.
/// Decoded bytes are interpreted as UTF-8, lossily.
pub fn percent_decode(s: &str) -> String {
    let mut out: Vec<u8> = Vec::with_capacity(s.len());
    let mut bytes = s.bytes();
    while let Some(b) = bytes.next() {
        match b {
            b'+' => out.push(b' '),
            b'%' => {
                let hi = bytes.next();
                let lo = bytes.next();
                match (hi.and_then(hex_val), lo.and_then(hex_val)) {
                    (Some(h), Some(l)) => out.push((h << 4) | l),
                    _ => {
                        out.push(b'%');
                        out.extend(hi);
                        out.extend(lo);
                    }
                }
            }
            other => out.push(other),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: u8) -> Option<u8> {
    char::from(b)
        .to_digit(16)
        .and_then(|d| u8::try_from(d).ok())
}

/// A response ready to serialize. Bodies are formed before writing so
/// `Content-Length` is always exact (no chunking).
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Adds `Retry-After: <secs>` (shedding responses).
    pub retry_after: Option<u32>,
    /// Forces `Connection: close` regardless of the request.
    pub close: bool,
}

impl Response {
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
            close: false,
        }
    }

    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
            retry_after: None,
            close: false,
        }
    }

    /// JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, detail: &str) -> Response {
        Response::json(
            status,
            format!("{{\"error\":{}}}", obs::metrics::json_string(detail)),
        )
    }

    pub fn with_retry_after(mut self, secs: u32) -> Response {
        self.retry_after = Some(secs);
        self
    }

    pub fn with_close(mut self) -> Response {
        self.close = true;
        self
    }
}

/// Canonical reason phrases for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serializes `resp` (status line, headers, body) to `out` in one
/// buffered write so small responses leave in a single segment.
pub fn write_response(
    out: &mut impl Write,
    resp: &Response,
    close_connection: bool,
) -> io::Result<()> {
    let mut head = String::with_capacity(128);
    use std::fmt::Write as _;
    let _ = write!(
        head,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after {
        let _ = write!(head, "Retry-After: {secs}\r\n");
    }
    let conn = if close_connection || resp.close {
        "close"
    } else {
        "keep-alive"
    };
    let _ = write!(head, "Connection: {conn}\r\n\r\n");

    out.write_all(&[head.as_bytes(), &resp.body].concat())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(raw: &str) -> Request {
        match parse_request(raw.as_bytes()) {
            Parse::Ready(r) => *r,
            other => panic!("expected Ready, got {other:?} for {raw:?}"),
        }
    }

    #[test]
    fn parses_request_line_query_and_headers() {
        let req =
            parse_ok("GET /query?q=xml+2003&k=3 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.param("q"), Some("xml 2003"));
        assert_eq!(req.param("k"), Some("3"));
        assert_eq!(req.param("missing"), None);
        assert!(!req.keep_alive);
        assert_eq!(req.content_length, 0);
        assert_eq!(req.frame_len(), req.head_len);
    }

    #[test]
    fn keep_alive_defaults_follow_version() {
        assert!(parse_ok("GET / HTTP/1.1\r\n\r\n").keep_alive);
        assert!(!parse_ok("GET / HTTP/1.0\r\n\r\n").keep_alive);
        let req = parse_ok("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive);
    }

    #[test]
    fn body_length_is_carried() {
        let req = parse_ok("POST /admin/drain HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(req.content_length, 5);
        assert_eq!(req.frame_len(), req.head_len + 5);
    }

    #[test]
    fn incomplete_heads_ask_for_more() {
        assert!(matches!(
            parse_request(b"GET /query HTTP/1.1\r\nHost"),
            Parse::Incomplete
        ));
        assert!(matches!(parse_request(b""), Parse::Incomplete));
    }

    #[test]
    fn framing_errors_map_to_statuses() {
        let cases: &[(&[u8], u16)] = &[
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /x SPDY/3\r\n\r\n", 505),
            (b"GET /x HTTP/1.1\r\nContent-Length: zap\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n", 413),
            (
                b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            ),
            (b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n", 400),
            (b"\xff\xfe\r\n\r\n", 400),
        ];
        for (raw, status) in cases {
            match parse_request(raw) {
                Parse::Bad(e) => assert_eq!(e.status, *status, "{raw:?}"),
                other => panic!("expected Bad({status}), got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_head_is_rejected_even_unterminated() {
        let huge = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(matches!(parse_request(&huge), Parse::Bad(e) if e.status == 431));
    }

    #[test]
    fn percent_decoding_is_lenient() {
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("caf%C3%A9"), "café");
    }

    #[test]
    fn response_serialization_includes_headers() {
        let mut out = Vec::new();
        let resp = Response::error(503, "shed").with_retry_after(1);
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\"error\":\"shed\"}"), "{text}");
        let body_len = "{\"error\":\"shed\"}".len();
        assert!(
            text.contains(&format!("Content-Length: {body_len}\r\n")),
            "{text}"
        );
    }
}
