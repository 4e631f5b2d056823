//! The benchmark's HTTP/1.1 client: persistent keep-alive connections
//! with `TCP_NODELAY`, each request sent in one write.
//!
//! The crate's own `client::exchange` writes head and body separately,
//! and on a Nagle-enabled socket that second small write waits for the
//! peer's delayed ACK; `load::run_open_loop` opens a connection and a
//! thread per request. Neither would measure the server alone. With
//! this client, any stall a keep-alive exchange shows is the server's.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One response as read off the wire.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Head plus body, in bytes.
    pub wire_bytes: usize,
}

/// A complete request (head and body) ready for a single write.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: aimq\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One persistent connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Send `request` (from [`request_bytes`]) in one write and read one
    /// `Content-Length`-framed response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(n, _)| n.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let rest = self.buf.split_off(head_end + length);
        let body = self.buf.split_off(head_end);
        self.buf = rest;
        Ok(Reply {
            status,
            body,
            wire_bytes: head_end + length,
        })
    }
}

/// The bytes of a JSON value that follows `key` in `body` and ends right
/// before `end` — a byte-exact slice, no parse.
pub fn slice_between<'a>(body: &'a [u8], key: &[u8], end: &[u8]) -> Option<&'a [u8]> {
    let from = find(body, key)? + key.len();
    let len = find(&body[from..], end)?;
    Some(&body[from..from + len])
}

/// The unsigned integer that follows `key` in `body`.
pub fn number_after(body: &[u8], key: &[u8]) -> Option<u64> {
    let from = find(body, key)? + key.len();
    let digits: Vec<u8> = body[from..]
        .iter()
        .copied()
        .take_while(u8::is_ascii_digit)
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_one_buffer_with_exact_length() {
        let r = request_bytes("POST", "/x", "{\"a\":1}");
        let text = String::from_utf8(r).unwrap();
        assert!(text.starts_with("POST /x HTTP/1.1\r\n"));
        assert!(text.contains("content-length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }

    #[test]
    fn slices_answers_and_numbers_from_a_body() {
        let body = br#"{"index":"cardb","result":{"answers":[{"x":1}],"stats":{"q":2}},"degradation":{"probes_attempted":29},"worker":1}"#;
        assert_eq!(
            slice_between(body, br#""result":{"answers":"#, br#","stats":{"#),
            Some(&br#"[{"x":1}]"#[..])
        );
        assert_eq!(number_after(body, br#""probes_attempted":"#), Some(29));
        assert_eq!(number_after(body, br#""worker":"#), Some(1));
    }
}
