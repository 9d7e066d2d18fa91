//! A minimal keep-alive HTTP/1.1 client over one TCP connection.
//!
//! Requests are pre-built byte strings (see [`request_bytes`]), so the
//! timed path is one `write_all` plus reading one response; nothing is
//! formatted or allocated per request beyond the response buffer.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest response head accepted.
const MAX_HEAD: usize = 16 * 1024;

/// A full HTTP request: method, path, and an optional JSON body.
#[must_use]
pub fn request_bytes(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    let mut out = match body {
        Some(body) => format!(
            "{method} {path} HTTP/1.1\r\nhost: cibench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        ),
        None => format!("{method} {path} HTTP/1.1\r\nhost: cibench\r\n\r\n"),
    };
    out.shrink_to_fit();
    out.into_bytes()
}

/// Offset of the body in a request built by [`request_bytes`].
#[must_use]
pub fn body_offset(request: &[u8]) -> usize {
    request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(request.len(), |at| at + 4)
}

/// One response: status code and body bytes.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

impl Reply {
    /// Whether the status is 200 or 201, the only statuses the
    /// benchmark's operations may receive.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.status == 200 || self.status == 201
    }

    /// The body as text (lossy; bodies are JSON or the metrics text).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Points in one round trip, as offsets from its start, for the traced
/// run's client spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Marks {
    /// The request's last byte was handed to the kernel.
    pub sent_ns: u64,
    /// The first response bytes arrived.
    pub first_byte_ns: u64,
    /// The whole response was read.
    pub done_ns: u64,
}

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with `TCP_NODELAY` (small requests must not wait on
    /// Nagle's algorithm).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Send one request and read its response.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.roundtrip_marked(request, None)
    }

    /// [`Conn::roundtrip`], recording [`Marks`] relative to `start` when
    /// given.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses.
    pub fn roundtrip_marked(
        &mut self,
        request: &[u8],
        mut marks: Option<(&std::time::Instant, &mut Marks)>,
    ) -> io::Result<Reply> {
        let stamp = |start: &std::time::Instant| start.elapsed().as_nanos() as u64;
        self.stream.write_all(request)?;
        if let Some((start, m)) = marks.as_mut() {
            m.sent_ns = stamp(start);
        }
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            if self.buf.is_empty() {
                if let Some((start, m)) = marks.as_mut() {
                    m.first_byte_ns = stamp(start);
                }
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(bad("response head too large"));
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("no status code"))?;
        let length = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())
                    .flatten()
            })
            .ok_or_else(|| bad("no content-length"))?;
        let total = head_end + length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if self.buf.len() > total {
            return Err(bad("unexpected bytes after the response"));
        }
        if let Some((start, m)) = marks.as_mut() {
            m.done_ns = stamp(start);
        }
        Ok(Reply {
            status,
            body: self.buf[head_end..total].to_vec(),
        })
    }
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}
