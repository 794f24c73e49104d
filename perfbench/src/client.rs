//! The benchmark's keep-alive HTTP/1.1 client.
//!
//! Requests are pipelined: a connection sends each request when it falls
//! due, whether or not earlier replies have arrived, and parses replies
//! out of one buffer filled by large reads. The client's own syscalls stay
//! few (one write per due group, one read per arrival burst), so they are
//! not billed to the daemon, and a slow reply delays only the replies
//! queued behind it on the daemon's side, never the sending schedule.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One reply: HTTP status and body.
pub type Reply = (u16, String);

pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            addr,
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Writes requests (several may go out in one write).
    pub fn send(&mut self, wire: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(wire)
    }

    /// Waits up to `timeout` for data and appends every complete reply now
    /// buffered to `out`, in order.
    pub fn receive(&mut self, timeout: Duration, out: &mut Vec<Reply>) -> std::io::Result<()> {
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_micros(10))))?;
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
        let mut consumed = 0;
        while let Some((reply, used)) = parse_reply(&self.buf[consumed..])? {
            out.push(reply);
            consumed += used;
        }
        self.buf.drain(..consumed);
        Ok(())
    }

    /// One request, one reply (used outside the timed phases).
    pub fn round_trip(&mut self, wire: &[u8]) -> std::io::Result<Reply> {
        self.send(wire)?;
        let mut out = Vec::new();
        while out.is_empty() {
            self.receive(Duration::from_secs(30), &mut out)?;
        }
        Ok(out.remove(0))
    }
}

/// Parses one complete reply off the front of `buf`: the reply and the
/// bytes it used, or `None` when more bytes are needed.
fn parse_reply(buf: &[u8]) -> std::io::Result<Option<(Reply, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    for line in lines {
        if let Some((key, value)) = line.split_once(':') {
            if key.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let body =
        String::from_utf8(buf[head_end + 4..total].to_vec()).map_err(|_| bad("non-UTF-8 body"))?;
    Ok(Some(((status, body), total)))
}

fn bad(message: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, message.to_string())
}

/// The wire form of a POST with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The wire form of a GET.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_only_when_complete() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 503 X\r\ncontent-length: 0\r\n\r\n";
        let ((status, body), used) = parse_reply(wire).unwrap().unwrap();
        assert_eq!((status, body.as_str()), (200, "{}"));
        let ((status, _), rest) = parse_reply(&wire[used..]).unwrap().unwrap();
        assert_eq!(status, 503);
        assert_eq!(used + rest, wire.len());
        assert!(parse_reply(&wire[..used - 1]).unwrap().is_none());
    }
}
