//! The HTTP/1.1 client side of the closed loop: a reply reader that
//! checks status line and `Content-Length` framing (an unverifiable reply
//! is a failure, never a guess), and a keep-alive connection that
//! reconnects when the server announces `Connection: close` — which
//! `alicoco-serve` does at its 1000-requests-per-connection cap. Buffers
//! are reused, so a request costs no allocation.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A reply head larger than this is malformed, not slow.
const MAX_HEAD: usize = 16 * 1024;
/// A stalled server is an error, not a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Status and framing of one reply; the body stays in the reader's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    /// The server will close the connection after this reply.
    pub close: bool,
    /// Head plus body, in bytes.
    pub wire_bytes: usize,
    body_start: usize,
    body_end: usize,
}

/// Incremental reply reader over any byte stream.
pub struct ReplyReader {
    buf: Vec<u8>,
    /// Bytes of `buf` that hold data; the last reply occupies a prefix.
    filled: usize,
    /// End of the reply returned last, dropped at the next read.
    consumed: usize,
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl ReplyReader {
    pub fn new() -> Self {
        ReplyReader {
            buf: vec![0; 64 * 1024],
            filled: 0,
            consumed: 0,
        }
    }

    /// Forget buffered bytes (after a reconnect).
    pub fn reset(&mut self) {
        self.filled = 0;
        self.consumed = 0;
    }

    fn fill<R: Read>(&mut self, stream: &mut R) -> io::Result<()> {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match stream.read(&mut self.buf[self.filled..])? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.filled += n;
                Ok(())
            }
        }
    }

    /// Read exactly one reply, however the stream chunks it.
    pub fn read_reply<R: Read>(&mut self, stream: &mut R) -> io::Result<Reply> {
        self.buf.copy_within(self.consumed..self.filled, 0);
        self.filled -= self.consumed;
        self.consumed = 0;
        let head_end = loop {
            if let Some(at) = find(&self.buf[..self.filled], b"\r\n\r\n") {
                break at + 4;
            }
            if self.filled > MAX_HEAD {
                return Err(bad("reply head too large"));
            }
            self.fill(stream)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not utf-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1.1 "))
            .and_then(|l| l.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut close) = (None, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| bad("bad content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| bad("reply without content-length"))?;
        let body_end = head_end + length;
        while self.filled < body_end {
            self.fill(stream)?;
        }
        self.consumed = body_end;
        Ok(Reply {
            status,
            close,
            wire_bytes: body_end,
            body_start: head_end,
            body_end,
        })
    }

    /// The body of the reply `read_reply` returned last.
    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.body_start..reply.body_end]
    }
}

/// Overwrite `out` with the bytes of `GET target`.
pub fn write_request(out: &mut Vec<u8>, target: &str) {
    out.clear();
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nhost: bench\r\n\r\n");
}

/// One keep-alive client connection with transparent reconnect.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    reader: ReplyReader,
    request: Vec<u8>,
    /// TCP connections opened so far.
    pub opened: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            reader: ReplyReader::new(),
            request: Vec::with_capacity(256),
            opened: 0,
        }
    }

    /// Send `GET target` and read the reply. On any error the connection
    /// is dropped, so the next call starts on a fresh one.
    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        let result = self.exchange(target);
        if !matches!(result, Ok(reply) if !reply.close) {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, target: &str) -> io::Result<Reply> {
        let stream = match &mut self.stream {
            Some(stream) => stream,
            slot => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                self.reader.reset();
                self.opened += 1;
                slot.insert(stream)
            }
        };
        write_request(&mut self.request, target);
        stream.write_all(&self.request)?;
        self.reader.read_reply(stream)
    }

    /// The body of the reply `get` returned last.
    pub fn body(&self, reply: &Reply) -> &[u8] {
        self.reader.body(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Yields its bytes in fixed-size chunks, like a slow socket.
    struct Chunked<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(self.data.len()).min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const TWO_REPLIES: &[u8] = b"HTTP/1.1 200 OK\r\nconnection: keep-alive\r\ncontent-length: 11\r\n\
        content-type: application/json\r\n\r\n{\"cards\":1}HTTP/1.1 404 Not Found\r\nConnection: Close\r\n\
        Content-Length: 2\r\n\r\n{}";

    #[test]
    fn replies_parse_the_same_however_the_stream_splits_them() {
        for chunk in [1, 2, 3, 7, 64, 4096] {
            let mut stream = Chunked {
                data: TWO_REPLIES,
                chunk,
            };
            let mut reader = ReplyReader::new();
            let first = reader.read_reply(&mut stream).unwrap();
            assert_eq!((first.status, first.close), (200, false), "chunk {chunk}");
            assert_eq!(reader.body(&first), b"{\"cards\":1}");
            let second = reader.read_reply(&mut stream).unwrap();
            assert_eq!((second.status, second.close), (404, true), "chunk {chunk}");
            assert_eq!(reader.body(&second), b"{}");
            assert_eq!(first.wire_bytes + second.wire_bytes, TWO_REPLIES.len());
            let eof = reader.read_reply(&mut stream).unwrap_err();
            assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn a_body_larger_than_the_buffer_grows_it() {
        let body = vec![b'x'; 200_000];
        let mut wire =
            format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", body.len()).into_bytes();
        wire.extend_from_slice(&body);
        let mut reader = ReplyReader::new();
        let reply = reader
            .read_reply(&mut Chunked {
                data: &wire,
                chunk: 1500,
            })
            .unwrap();
        assert_eq!(reader.body(&reply), &body[..]);
    }

    #[test]
    fn unverifiable_replies_are_errors() {
        let cases: [&[u8]; 4] = [
            b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\nbody",
            b"HTTP/1.1 200 OK\r\ncontent-length: nine\r\n\r\n",
            b"ICY 200 OK\r\ncontent-length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort",
        ];
        for wire in cases {
            let mut reader = ReplyReader::new();
            assert!(reader
                .read_reply(&mut Chunked {
                    data: wire,
                    chunk: 5
                })
                .is_err());
        }
    }

    /// A canned server that closes every connection after `cap` replies,
    /// announcing it on the last one — the shape of `alicoco-serve`'s
    /// per-connection request cap.
    fn capped_server(cap: usize, total: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut served = 0;
            while served < total {
                let (mut stream, _) = listener.accept().unwrap();
                let mut seen = Vec::new();
                for nth in 1..=cap {
                    while find(&seen, b"\r\n\r\n").is_none() {
                        let mut chunk = [0u8; 512];
                        let n = stream.read(&mut chunk).unwrap();
                        assert!(n > 0, "client hung up early");
                        seen.extend_from_slice(&chunk[..n]);
                    }
                    seen.clear();
                    served += 1;
                    let last = nth == cap || served == total;
                    let body = format!("{{\"n\":{served}}}");
                    let head = format!(
                        "HTTP/1.1 200 OK\r\nconnection: {}\r\ncontent-length: {}\r\n\r\n",
                        if last { "close" } else { "keep-alive" },
                        body.len()
                    );
                    stream.write_all(head.as_bytes()).unwrap();
                    stream.write_all(body.as_bytes()).unwrap();
                    if last {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn connection_reconnects_at_the_servers_request_cap() {
        let (addr, server) = capped_server(4, 10);
        let mut conn = Conn::new(addr);
        for n in 1..=10 {
            let reply = conn.get("/healthz").unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.close, n % 4 == 0 || n == 10);
            assert_eq!(conn.body(&reply), format!("{{\"n\":{n}}}").as_bytes());
        }
        assert_eq!(conn.opened, 3, "4 + 4 + 2 requests over three connections");
        server.join().unwrap();
    }
}
