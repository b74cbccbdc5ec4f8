//! A timed one-shot HTTP/1.1 client.
//!
//! The server closes each connection after one response, so a request is
//! connect, write, read to end of stream. The three phases are timed
//! separately: connect, time to first byte (server time plus the request
//! write), and the read of the rest (transfer time).

use lesm_query::fnv1a64;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Per-request client timeout; a request that takes longer fails.
pub const TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, Default)]
pub struct Reply {
    pub status: u16,
    /// FNV-1a 64 of the body bytes.
    pub body_hash: u64,
    pub connect_ns: u64,
    pub ttfb_ns: u64,
    pub read_ns: u64,
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

/// Sends the raw request bytes to `addr` and reads the whole response.
/// A response whose body length disagrees with its `Content-Length` is
/// an error, so a truncated body can never pass as a served one.
pub fn send(addr: SocketAddr, raw: &[u8]) -> std::io::Result<Reply> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    let t1 = Instant::now();
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.write_all(raw)?;
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16384];
    let n = stream.read(&mut chunk)?;
    let t2 = Instant::now();
    if n == 0 {
        return Err(invalid("connection closed before a response"));
    }
    buf.extend_from_slice(&chunk[..n]);
    stream.read_to_end(&mut buf)?;
    let t3 = Instant::now();

    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| invalid("response head never ended"))?;
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let body = &buf[head_end + 4..];
    let declared = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())?
        })
        .ok_or_else(|| invalid("missing content-length"))?;
    if declared != body.len() {
        return Err(invalid("body length differs from content-length"));
    }
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    Ok(Reply {
        status,
        body_hash: fnv1a64(body),
        connect_ns: ns(t0, t1),
        ttfb_ns: ns(t1, t2),
        read_ns: ns(t2, t3),
    })
}
