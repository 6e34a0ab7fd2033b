//! Hand-rolled incremental HTTP/1.1 request parsing with strict limits,
//! plus the matching response encoder.
//!
//! The parser is a pure function of the bytes fed so far: feeding the
//! same stream in different chunkings always yields the same sequence of
//! parses and errors (the property suite drives this with random split
//! points). Every malformed input maps to a typed [`HttpError`] carrying
//! exactly one response status — nothing on this path can panic, which
//! is what lets AL001/AL007 extend their panic-free guarantee to the
//! connection loop.

use std::fmt::{self, Write};

/// Hard ceilings enforced while request bytes accumulate, so a hostile
/// client can grow neither the head buffer nor the body without bound.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Max bytes of request line + headers, terminators included.
    pub max_head_bytes: usize,
    /// Max number of header lines.
    pub max_headers: usize,
    /// Max bytes of the request target (path + query string).
    pub max_target_bytes: usize,
    /// Max declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 8 * 1024,
            max_headers: 64,
            max_target_bytes: 2 * 1024,
            max_body_bytes: 64 * 1024,
        }
    }
}

/// Request methods the routes serve. Anything else is a typed error:
/// a recognizable-but-unsupported token maps to `501`, garbage to `400`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read a resource.
    Get,
    /// Like GET but the response carries headers only.
    Head,
    /// Capability probe: routes answer `204` with an `Allow` header.
    Options,
    /// Accepted by the parser so routes can answer `405` deliberately.
    Post,
}

/// One fully parsed request, body included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Parsed method.
    pub method: Method,
    /// Raw request target (`/search?q=grill`), percent-encoded.
    pub target: String,
    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults on, HTTP/1.0 off, `Connection:` overrides.
    pub keep_alive: bool,
    /// Request body (exactly `Content-Length` bytes; empty if absent).
    pub body: Vec<u8>,
}

/// Typed protocol errors. Each maps to exactly one response status via
/// [`status`](HttpError::status); the connection closes after reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Request line + headers exceeded [`Limits::max_head_bytes`] or
    /// [`Limits::max_headers`]. → `431`
    HeadTooLarge,
    /// Request line is not `METHOD SP TARGET SP HTTP/x.y`. → `400`
    BadRequestLine,
    /// Target does not start with `/`, is overlong, or contains control
    /// bytes. → `400`
    BadTarget,
    /// A well-formed token naming a method the server does not
    /// implement. → `501`
    UnknownMethod(String),
    /// A version other than HTTP/1.0 or HTTP/1.1. → `505`
    BadVersion,
    /// Header line without a colon or with an empty name. → `400`
    BadHeader,
    /// More than one `Content-Length` header (smuggling vector). → `400`
    DuplicateContentLength,
    /// `Content-Length` is not a plain decimal integer. → `400`
    BadContentLength,
    /// Declared body exceeds [`Limits::max_body_bytes`]. → `413`
    BodyTooLarge,
    /// `Transfer-Encoding` is not supported at all. → `501`
    UnsupportedTransferEncoding,
}

impl HttpError {
    /// The one response status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::UnknownMethod(_) | HttpError::UnsupportedTransferEncoding => 501,
            HttpError::BadVersion => 505,
            HttpError::BadRequestLine
            | HttpError::BadTarget
            | HttpError::BadHeader
            | HttpError::DuplicateContentLength
            | HttpError::BadContentLength => 400,
        }
    }

    /// Short machine-stable description for the error body.
    pub fn reason(&self) -> &'static str {
        match self {
            HttpError::HeadTooLarge => "request head too large",
            HttpError::BadRequestLine => "malformed request line",
            HttpError::BadTarget => "malformed request target",
            HttpError::UnknownMethod(_) => "method not implemented",
            HttpError::BadVersion => "http version not supported",
            HttpError::BadHeader => "malformed header",
            HttpError::DuplicateContentLength => "duplicate content-length",
            HttpError::BadContentLength => "malformed content-length",
            HttpError::BodyTooLarge => "body too large",
            HttpError::UnsupportedTransferEncoding => "transfer-encoding not supported",
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::UnknownMethod(m) => write!(f, "method not implemented: {m}"),
            other => f.write_str(other.reason()),
        }
    }
}

/// Parsed head, pending its body bytes.
#[derive(Debug)]
struct Head {
    method: Method,
    target: String,
    keep_alive: bool,
    body_len: usize,
    /// Offset into the parser buffer where the body starts.
    body_start: usize,
}

/// Incremental request parser. Feed bytes as they arrive; a request is
/// returned as soon as its head and declared body are complete, and
/// leftover bytes stay buffered for the next pipelined request.
#[derive(Debug)]
pub struct RequestParser {
    limits: Limits,
    buf: Vec<u8>,
    head: Option<Head>,
}

impl RequestParser {
    /// Empty parser with the given limits.
    pub fn new(limits: Limits) -> Self {
        RequestParser {
            limits,
            buf: Vec::new(),
            head: None,
        }
    }

    /// Append freshly read bytes without parsing.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// [`push`](Self::push) then [`poll`](Self::poll).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        self.push(bytes);
        self.poll()
    }

    /// Try to complete one request from the buffered bytes. `Ok(None)`
    /// means more bytes are needed; errors are terminal for the
    /// connection.
    pub fn poll(&mut self) -> Result<Option<Request>, HttpError> {
        if self.head.is_none() {
            let Some(end) = find_head_end(&self.buf) else {
                if self.buf.len() > self.limits.max_head_bytes {
                    return Err(HttpError::HeadTooLarge);
                }
                return Ok(None);
            };
            if end > self.limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
            let head_bytes = self.buf.get(..end).unwrap_or(&[]);
            let mut head = parse_head(head_bytes, &self.limits)?;
            head.body_start = end;
            self.head = Some(head);
        }
        let Some(head) = &self.head else {
            return Ok(None);
        };
        let need = head.body_start.saturating_add(head.body_len);
        if self.buf.len() < need {
            return Ok(None);
        }
        let body = self
            .buf
            .get(head.body_start..need)
            .map(<[u8]>::to_vec)
            .unwrap_or_default();
        let req = Request {
            method: head.method,
            target: head.target.clone(),
            keep_alive: head.keep_alive,
            body,
        };
        self.head = None;
        let rest = self.buf.split_off(need);
        self.buf = rest;
        Ok(Some(req))
    }

    /// True while bytes of a not-yet-complete request are buffered — the
    /// connection loop uses this to tell a stalled mid-request client
    /// (shed with `408`) from an idle keep-alive one (closed quietly).
    pub fn mid_request(&self) -> bool {
        self.head.is_some() || !self.buf.is_empty()
    }
}

/// Index one past the first empty line (end of the head), if present.
/// Lines end at `\n`; one preceding `\r` is tolerated.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0usize;
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        let line = buf.get(line_start..i).unwrap_or(&[]);
        if strip_cr(line).is_empty() {
            return Some(i + 1);
        }
        line_start = i + 1;
    }
    None
}

fn strip_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

fn parse_head(head: &[u8], limits: &Limits) -> Result<Head, HttpError> {
    let mut lines = head
        .split(|&b| b == b'\n')
        .map(strip_cr)
        .filter(|l| !l.is_empty());
    let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
    let (method, target, keep_alive_default) = parse_request_line(request_line, limits)?;

    let mut keep_alive = keep_alive_default;
    let mut body_len: Option<usize> = None;
    let mut n_headers = 0usize;
    for line in lines {
        n_headers += 1;
        if n_headers > limits.max_headers {
            return Err(HttpError::HeadTooLarge);
        }
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or(HttpError::BadHeader)?;
        let name = line.get(..colon).unwrap_or(&[]);
        if name.is_empty() || !name.iter().all(|&b| b.is_ascii_graphic()) {
            return Err(HttpError::BadHeader);
        }
        let value = line.get(colon + 1..).unwrap_or(&[]);
        let value = String::from_utf8_lossy(value);
        let value = value.trim();
        let name = name.to_ascii_lowercase();
        match name.as_slice() {
            b"content-length" => {
                if body_len.is_some() || value.contains(',') {
                    return Err(HttpError::DuplicateContentLength);
                }
                let n: usize = value.parse().map_err(|_| HttpError::BadContentLength)?;
                if n > limits.max_body_bytes {
                    return Err(HttpError::BodyTooLarge);
                }
                body_len = Some(n);
            }
            b"transfer-encoding" => return Err(HttpError::UnsupportedTransferEncoding),
            b"connection" => {
                let v = value.to_ascii_lowercase();
                if v.split(',').any(|t| t.trim() == "close") {
                    keep_alive = false;
                } else if v.split(',').any(|t| t.trim() == "keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    Ok(Head {
        method,
        target,
        keep_alive,
        body_len: body_len.unwrap_or(0),
        body_start: 0,
    })
}

fn parse_request_line(line: &[u8], limits: &Limits) -> Result<(Method, String, bool), HttpError> {
    let text = std::str::from_utf8(line).map_err(|_| HttpError::BadRequestLine)?;
    let mut parts = text.split(' ').filter(|p| !p.is_empty());
    let (method_tok, target, version) =
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v), None) => (m, t, v),
            _ => return Err(HttpError::BadRequestLine),
        };
    let method = match method_tok {
        "GET" => Method::Get,
        "HEAD" => Method::Head,
        "OPTIONS" => Method::Options,
        "POST" => Method::Post,
        tok if tok.chars().all(|c| c.is_ascii_alphabetic()) && !tok.is_empty() => {
            let mut t = tok.to_string();
            t.truncate(16);
            return Err(HttpError::UnknownMethod(t));
        }
        _ => return Err(HttpError::BadRequestLine),
    };
    if !target.starts_with('/')
        || target.len() > limits.max_target_bytes
        || target.chars().any(|c| c.is_ascii_control())
    {
        return Err(HttpError::BadTarget);
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v if v.starts_with("HTTP/") => return Err(HttpError::BadVersion),
        _ => return Err(HttpError::BadRequestLine),
    };
    Ok((method, target.to_string(), keep_alive_default))
}

// ---------------------------------------------------------------- responses

/// A response ready to encode. Encoding is deterministic: fixed header
/// set, fixed (alphabetical) header order, one formatter for lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes (JSON for every route).
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Whether to announce and perform connection close.
    pub close: bool,
    /// Optional `Allow` header (OPTIONS probes and `405` responses).
    pub allow: Option<&'static str>,
}

impl Response {
    /// A JSON response that keeps the connection open.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            close: false,
            allow: None,
        }
    }

    /// Same, but closing the connection after the send.
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// Attach an `Allow` header listing the methods the route serves.
    pub fn with_allow(mut self, allow: &'static str) -> Self {
        self.allow = Some(allow);
        self
    }

    /// Canonical reason phrase for the status codes the server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Unknown",
        }
    }

    /// Encode status line + headers + body. `head_only` omits the body
    /// (HEAD) while keeping the `Content-Length` of the full response.
    pub fn encode(&self, head_only: bool) -> Vec<u8> {
        let mut out = String::with_capacity(96 + self.body.len());
        let _ = write!(out, "HTTP/1.1 {} ", self.status);
        out.push_str(Response::reason(self.status));
        if let Some(allow) = self.allow {
            out.push_str("\r\nallow: ");
            out.push_str(allow);
        }
        out.push_str("\r\nconnection: ");
        out.push_str(if self.close { "close" } else { "keep-alive" });
        let _ = write!(out, "\r\ncontent-length: {}", self.body.len());
        out.push_str("\r\ncontent-type: ");
        out.push_str(self.content_type);
        out.push_str("\r\n\r\n");
        let mut bytes = out.into_bytes();
        if !head_only {
            bytes.extend_from_slice(&self.body);
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        RequestParser::new(Limits::default()).feed(bytes)
    }

    #[test]
    fn simple_get_parses() {
        let req = parse_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target, "/healthz");
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn body_is_collected_exactly() {
        let req = parse_all(b"POST /x HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn byte_at_a_time_equals_one_shot() {
        let stream = b"GET /search?q=grill HTTP/1.1\r\nconnection: close\r\n\r\n";
        let mut p = RequestParser::new(Limits::default());
        let mut trickled = None;
        for &b in stream.iter() {
            if let Some(r) = p.feed(&[b]).unwrap() {
                trickled = Some(r);
            }
        }
        assert_eq!(trickled, parse_all(stream).unwrap());
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut p = RequestParser::new(Limits::default());
        p.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(p.poll().unwrap().unwrap().target, "/a");
        assert_eq!(p.poll().unwrap().unwrap().target, "/b");
        assert_eq!(p.poll().unwrap(), None);
        assert!(!p.mid_request());
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn typed_errors_map_to_statuses() {
        let cases: &[(&[u8], u16)] = &[
            (b"FROB / HTTP/1.1\r\n\r\n", 501),
            (b"get / HTTP/1.1\r\n\r\n", 501),
            (b"GET / HTTP/2.0\r\n\r\n", 505),
            (b"GET nopath HTTP/1.1\r\n\r\n", 400),
            (b"GET /\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nbad line\r\n\r\n", 400),
            (
                b"GET / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 1\r\n\r\n",
                400,
            ),
            (b"GET / HTTP/1.1\r\ncontent-length: x\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", 501),
        ];
        for (bytes, status) in cases {
            let err = parse_all(bytes).unwrap_err();
            assert_eq!(
                err.status(),
                *status,
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let limits = Limits {
            max_head_bytes: 64,
            max_headers: 4,
            max_target_bytes: 32,
            max_body_bytes: 8,
        };
        let mut p = RequestParser::new(limits);
        let big = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "a".repeat(100));
        assert_eq!(p.feed(big.as_bytes()).unwrap_err(), HttpError::HeadTooLarge);

        let mut p = RequestParser::new(limits);
        assert_eq!(
            p.feed(b"POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\n")
                .unwrap_err(),
            HttpError::BodyTooLarge
        );
    }

    #[test]
    fn head_limit_fires_before_terminator_arrives() {
        let limits = Limits {
            max_head_bytes: 32,
            ..Limits::default()
        };
        let mut p = RequestParser::new(limits);
        // Never send the blank line; the buffer cap must still trip.
        let r = p.feed(format!("GET /{} HTTP/1.1\r\n", "a".repeat(64)).as_bytes());
        assert_eq!(r.unwrap_err(), HttpError::HeadTooLarge);
    }

    #[test]
    fn options_requests_parse() {
        let req = parse_all(b"OPTIONS /search HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Options);
        assert_eq!(req.target, "/search");
    }

    #[test]
    fn allow_header_encodes_in_alphabetical_position() {
        let resp = Response::json(204, String::new()).with_allow("GET, HEAD, OPTIONS");
        let text = String::from_utf8(resp.encode(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 204 No Content\r\n"));
        let allow_at = text.find("allow:").unwrap();
        let conn_at = text.find("connection:").unwrap();
        assert!(allow_at < conn_at, "headers must stay alphabetical: {text}");
        assert!(text.contains("allow: GET, HEAD, OPTIONS\r\n"));
        // Absent allow leaves the header set untouched.
        let plain = Response::json(200, "{}".to_string());
        assert!(!String::from_utf8(plain.encode(false))
            .unwrap()
            .contains("allow:"));
    }

    #[test]
    fn encode_is_deterministic_and_head_only_drops_body() {
        let resp = Response::json(200, "{\"a\":1}".to_string());
        let full = resp.encode(false);
        assert_eq!(full, resp.encode(false));
        let head = resp.encode(true);
        assert!(full.ends_with(b"{\"a\":1}"));
        assert!(head.ends_with(b"\r\n\r\n"));
        let text = String::from_utf8(head).unwrap();
        assert!(text.contains("content-length: 7"));
    }

    /// The exact bytes of the statuses the routes send, with and without
    /// `allow`, `close` and `head_only`.
    #[test]
    fn encoded_bytes_are_pinned() {
        let ok = Response::json(200, "{\"status\":\"ok\"}".to_string());
        assert_eq!(
            ok.encode(false),
            b"HTTP/1.1 200 OK\r\nconnection: keep-alive\r\ncontent-length: 15\r\n\
              content-type: application/json\r\n\r\n{\"status\":\"ok\"}"
        );
        assert_eq!(
            ok.clone().closing().encode(true),
            b"HTTP/1.1 200 OK\r\nconnection: close\r\ncontent-length: 15\r\n\
              content-type: application/json\r\n\r\n"
        );
        let probe = Response::json(204, String::new()).with_allow("GET, HEAD, OPTIONS");
        assert_eq!(
            probe.encode(false),
            b"HTTP/1.1 204 No Content\r\nallow: GET, HEAD, OPTIONS\r\n\
              connection: keep-alive\r\ncontent-length: 0\r\n\
              content-type: application/json\r\n\r\n"
        );
        let missing = Response::json(404, "x".repeat(1234)).closing();
        let mut want = b"HTTP/1.1 404 Not Found\r\nconnection: close\r\n\
                         content-length: 1234\r\ncontent-type: application/json\r\n\r\n"
            .to_vec();
        assert_eq!(missing.encode(true), want);
        want.extend_from_slice(&missing.body);
        assert_eq!(missing.encode(false), want);
        let busy = Response::json(503, "{}".to_string()).with_allow("GET");
        assert_eq!(
            busy.encode(true),
            b"HTTP/1.1 503 Service Unavailable\r\nallow: GET\r\nconnection: keep-alive\r\n\
              content-length: 2\r\ncontent-type: application/json\r\n\r\n"
        );
    }
}
