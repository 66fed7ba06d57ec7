//! The load generator's side of the wire: one keep-alive connection,
//! one request at a time, timed from the first byte written to the last
//! body byte read.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longer than any request of any workload; a reply that takes this
/// long is a transport failure, not a slow sample.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub elapsed: Duration,
}

pub struct Connection {
    stream: TcpStream,
    /// Bytes read past the previous response (always empty with a
    /// well-behaved server, kept so a stray byte fails loudly).
    buf: Vec<u8>,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Connection {
            stream,
            buf: Vec::with_capacity(8 * 1024),
        })
    }

    pub fn get_query(&mut self, query: &str) -> io::Result<Reply> {
        let head = format!(
            "GET /query?q={} HTTP/1.1\r\nHost: bench\r\n\r\n",
            encode_query(query)
        );
        self.exchange(head.as_bytes())
    }

    /// `POST /admin/update?<params>` with `body` as the XML fragment.
    pub fn post_update(&mut self, params: &str, body: &str) -> io::Result<Reply> {
        let mut frame = format!(
            "POST /admin/update?{params} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        frame.extend_from_slice(body.as_bytes());
        self.exchange(&frame)
    }

    pub fn post_drain(&mut self) -> io::Result<Reply> {
        self.exchange(b"POST /admin/drain HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")
    }

    fn exchange(&mut self, frame: &[u8]) -> io::Result<Reply> {
        let started = Instant::now();
        self.stream.write_all(frame)?;
        let (status, body) = self.read_response()?;
        Ok(Reply {
            status,
            body,
            elapsed: started.elapsed(),
        })
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let mut chunk = [0u8; 8 * 1024];
        let head_len = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let (status, content_length) = parse_head(&self.buf[..head_len])
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response head"))?;
        while self.buf.len() < head_len + content_length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_len..head_len + content_length].to_vec();
        self.buf.drain(..head_len + content_length);
        Ok((status, body))
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn parse_head(head: &[u8]) -> Option<(u16, usize)> {
    let head = std::str::from_utf8(head).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let content_length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))?
        .1
        .trim()
        .parse()
        .ok()?;
    Some((status, content_length))
}

/// Percent-encodes a query for the `q` parameter: space becomes `+`,
/// anything outside the unreserved set becomes `%XX`.
pub fn encode_query(query: &str) -> String {
    let mut out = String::with_capacity(query.len());
    for b in query.bytes() {
        match b {
            b' ' => out.push('+'),
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trips_through_the_servers_decoder() {
        for q in ["xml keyword search", "a+b&c=d", "100% caf\u{e9}", "x  y"] {
            assert_eq!(xserve::http::percent_decode(&encode_query(q)), q);
        }
    }

    #[test]
    fn response_heads_parse() {
        let head =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 12\r\n\r\n";
        assert_eq!(parse_head(head), Some((200, 12)));
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n"), None);
    }
}
