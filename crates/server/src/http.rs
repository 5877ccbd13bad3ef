//! A minimal HTTP/1.1 layer over any `Read`/`Write` stream — just enough
//! for the mining API, hand-rolled so the server stays dependency-free like
//! the rest of the workspace.
//!
//! Scope: one request per connection (`Connection: close` on every
//! response), request line + headers + an optional `Content-Length` body,
//! percent-decoded query parameters. Deliberately not supported: chunked
//! request bodies, keep-alive, pipelining, TLS. Malformed input never
//! panics — it surfaces as a typed [`HttpError`] the caller maps to a 4xx.
//!
//! Parsing is generic over the stream (`Read` for requests, `Write` for
//! responses) so the same code path runs over a bare `TcpStream` or a
//! [`crate::chaos::ChaosStream`] wrapper. Deadlines are enforced at two
//! scopes, both surfacing as [`HttpError::Timeout`] → 408: the *socket's*
//! per-read deadline (`set_read_timeout` at admission in `api.rs`) bounds
//! any single stalled read, and [`RequestLimits::request_deadline`] bounds
//! the **whole request** — a per-read timeout alone is renewable, so a
//! client trickling one byte just under it would otherwise hold a handler
//! thread indefinitely; the absolute budget is checked before every read
//! in both the head and body loops. Size caps come from [`RequestLimits`]
//! so admission control owns them: the head is bounded as it streams in,
//! and an over-cap declared `Content-Length` is refused **before a single
//! body byte is read or buffered** — a hostile declared length never
//! drives an allocation.

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// The default largest request body the server accepts (64 MiB) — uploads
/// beyond this are refused with `413 Payload Too Large` before buffering.
pub const MAX_BODY_BYTES: usize = 64 << 20;
/// The default largest request head (request line + headers) accepted.
pub const MAX_HEAD_BYTES: usize = 64 << 10;
/// The default absolute per-request deadline: total wall-clock time a
/// request may spend being received, across *all* reads. Per-read socket
/// timeouts bound a silent stall; this bounds a trickle.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(30);
/// Body bytes are read in chunks of at most this, so even an accepted
/// `Content-Length` never triggers one up-front allocation of the full
/// declared size.
const BODY_CHUNK: usize = 64 << 10;

/// Per-request byte caps, owned by the server's
/// [`crate::limits::LimitsConfig`] and threaded into [`read_request`].
#[derive(Debug, Clone, Copy)]
pub struct RequestLimits {
    /// Cap on the request head (request line + headers) → 413 beyond.
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length` → 413 beyond, checked before
    /// any body byte is read.
    pub max_body_bytes: usize,
    /// Absolute budget for receiving the whole request (head + body),
    /// checked before every read → 408 once exhausted. This is what
    /// actually defeats a trickling slow-loris: the socket's per-read
    /// timeout renews on every byte received, so without an absolute
    /// deadline a 1-byte-per-interval client holds a handler thread for
    /// up to `max_head_bytes × read_timeout`. With it, a handler is held
    /// at most `request_deadline` plus one final in-flight read timeout.
    pub request_deadline: Duration,
}

impl Default for RequestLimits {
    fn default() -> RequestLimits {
        RequestLimits {
            max_head_bytes: MAX_HEAD_BYTES,
            max_body_bytes: MAX_BODY_BYTES,
            request_deadline: REQUEST_DEADLINE,
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The connection failed mid-request.
    Io(std::io::Error),
    /// A deadline expired mid-request — either the socket's per-read
    /// timeout (silent stall) or the absolute
    /// [`RequestLimits::request_deadline`] (trickle) → 408.
    Timeout,
    /// The request line or headers were malformed → 400.
    Malformed(&'static str),
    /// The request head exceeded [`RequestLimits::max_head_bytes`] → 413.
    HeadTooLarge(usize),
    /// The declared body length exceeds [`RequestLimits::max_body_bytes`] → 413.
    BodyTooLarge(usize),
    /// A response exceeded the caller's byte cap (client side; see
    /// [`read_response`]). A protocol-level fault, not a network one —
    /// retrying would download the same oversized reply again.
    ResponseTooLarge(usize),
}

/// A parsed request: method, decoded path, query parameters, body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, ...
    pub method: String,
    /// The path component, before `?`, percent-decoded.
    pub path: String,
    /// Decoded `key=value` query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The last value of query parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Whether boolean-ish parameter `key` is set (present and not `0`/`false`).
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.param(key), Some(v) if v != "0" && v != "false")
    }
}

/// Whether an I/O error is the socket deadline expiring. `WouldBlock` is
/// how Unix reports a timed-out blocking read with `SO_RCVTIMEO` set;
/// Windows uses `TimedOut`.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn io_error(e: std::io::Error) -> HttpError {
    if is_timeout(&e) {
        HttpError::Timeout
    } else {
        HttpError::Io(e)
    }
}

/// Reads and parses one request from `stream`, enforcing the byte caps
/// and the absolute [`RequestLimits::request_deadline`] of `limits`. The
/// caller owns the socket's per-read deadline (`set_read_timeout`); both
/// kinds of expiry surface as [`HttpError::Timeout`].
pub fn read_request<S: Read>(stream: &mut S, limits: &RequestLimits) -> Result<Request, HttpError> {
    // The absolute budget starts when the handler starts reading (the
    // moment this connection begins occupying a handler thread) and is
    // checked before every read below, so progress — unlike the socket's
    // per-read timeout — never renews it.
    let deadline = Instant::now() + limits.request_deadline;
    let mut head = Vec::with_capacity(1024);
    let mut byte = [0u8; 1];
    // Read byte-at-a-time until CRLF CRLF; the head is tiny and this keeps
    // the body bytes (which follow immediately) out of any lookahead buffer.
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge(head.len()));
        }
        if Instant::now() >= deadline {
            return Err(HttpError::Timeout);
        }
        match stream.read(&mut byte) {
            Ok(0) => return Err(HttpError::Malformed("connection closed mid-head")),
            Ok(_) => head.push(byte[0]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(e)),
        }
    }
    let head = std::str::from_utf8(&head).map_err(|_| HttpError::Malformed("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or(HttpError::Malformed("missing method"))?.to_string();
    let target = parts.next().ok_or(HttpError::Malformed("missing request target"))?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::Malformed("not an HTTP/1.x request")),
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("bad method"));
    }

    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header without colon"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("unparseable Content-Length"))?;
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed("chunked bodies are not supported"));
        }
    }
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    // Incremental body read: grow by bounded chunks so the declared length
    // never sizes an allocation on its own, and short reads (chaos,
    // fragmentation) are absorbed in the loop.
    let mut body = Vec::with_capacity(content_length.min(BODY_CHUNK));
    let mut chunk = [0u8; 4096];
    while body.len() < content_length {
        // The body shares the request's absolute budget: a trickled body
        // is the same slow-loris as a trickled head, just past the caps.
        if Instant::now() >= deadline {
            return Err(HttpError::Timeout);
        }
        let want = (content_length - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => return Err(HttpError::Malformed("connection closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(e)),
        }
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(raw_path).ok_or(HttpError::Malformed("bad path encoding"))?;
    let mut query = Vec::new();
    for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let k = percent_decode(k).ok_or(HttpError::Malformed("bad query encoding"))?;
        let v = percent_decode(v).ok_or(HttpError::Malformed("bad query encoding"))?;
        query.push((k, v));
    }
    Ok(Request { method, path, query, body })
}

/// Decodes `%XX` escapes and `+`-as-space. `None` on truncated or
/// non-hex escapes or non-UTF-8 results.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// A response under construction.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (`Retry-After`, ...), name/value.
    pub headers: Vec<(&'static str, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (the result stream uses this).
    pub fn text(status: u16, body: Vec<u8>) -> Response {
        Response { status, content_type: "text/plain; charset=utf-8", headers: Vec::new(), body }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }

    /// Serializes and writes the response. Write errors are swallowed — the
    /// client is gone and there is nobody left to tell.
    pub fn send<W: Write>(self, stream: &mut W) {
        let reason = reason_phrase(self.status);
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(&self.body);
        let _ = stream.flush();
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Parses the status line and headers of an HTTP/1.1 response and returns
/// `(status, retry_after_secs, body)`. Shared with `disc-client`, which
/// needs to read what [`Response::send`] writes back through a faulty
/// stream — a short or garbled response is a typed error, never a panic.
///
/// `max_response_bytes` caps the total bytes read (head + body) — the
/// caller owns it (the client plumbs its `ClientConfig` value) so a big
/// legitimate result is not refused by a constant buried here. Exceeding
/// it is [`HttpError::ResponseTooLarge`]: a protocol-level refusal the
/// caller must treat as fatal, not a transient fault to retry.
pub fn read_response<S: Read>(
    stream: &mut S,
    max_response_bytes: usize,
) -> Result<(u16, Option<u32>, Vec<u8>), HttpError> {
    let mut raw = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // `Connection: close` on every response: read to EOF, then split head
    // from body — simpler and more chaos-tolerant than length tracking.
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                if raw.len() > max_response_bytes {
                    return Err(HttpError::ResponseTooLarge(raw.len()));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(e)),
        }
    }
    let head_end =
        find_crlf_crlf(&raw).ok_or(HttpError::Malformed("response head never terminated"))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| HttpError::Malformed("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(HttpError::Malformed("empty response"))?;
    let mut parts = status_line.split(' ');
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::Malformed("not an HTTP/1.x response")),
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::Malformed("unparseable status code"))?;
    let mut retry_after = None;
    let mut content_length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.trim().parse().ok();
        }
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse::<usize>().ok();
        }
    }
    let body = raw[head_end + 4..].to_vec();
    if let Some(len) = content_length {
        if body.len() != len {
            return Err(HttpError::Malformed("truncated response body"));
        }
    }
    Ok((status, retry_after, body))
}

fn find_crlf_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn percent_decoding_roundtrips_common_cases() {
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert_eq!(percent_decode("a%2Fb%20c+d").as_deref(), Some("a/b c d"));
        assert_eq!(percent_decode("%e2%82%ac").as_deref(), Some("€"));
        assert!(percent_decode("%zz").is_none());
        assert!(percent_decode("%2").is_none());
        assert!(percent_decode("%ff").is_none(), "invalid UTF-8 is rejected");
    }

    #[test]
    fn json_escaping_covers_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn oversized_declared_length_is_refused_before_reading_the_body() {
        let limits =
            RequestLimits { max_head_bytes: 64 << 10, max_body_bytes: 16, ..Default::default() };
        // The declared length is absurd and the body bytes are absent: the
        // parser must refuse from the header alone, without blocking on or
        // buffering a single body byte.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n";
        let mut stream = Cursor::new(raw.to_vec());
        match read_request(&mut stream, &limits) {
            Err(HttpError::BodyTooLarge(n)) => assert_eq!(n, 99_999_999_999usize),
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
        let consumed = stream.position() as usize;
        assert_eq!(consumed, raw.len(), "head fully read, body never touched");
    }

    #[test]
    fn oversized_head_is_a_typed_413_not_a_400() {
        let limits = RequestLimits { max_head_bytes: 32, max_body_bytes: 16, ..Default::default() };
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100));
        let mut stream = Cursor::new(raw.into_bytes());
        assert!(matches!(read_request(&mut stream, &limits), Err(HttpError::HeadTooLarge(_))));
    }

    #[test]
    fn body_reads_are_chunked_and_tolerate_short_reads() {
        struct OneByte(Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let take = buf.len().min(1);
                self.0.read(&mut buf[..take])
            }
        }
        let body = vec![b'z'; 300];
        let mut raw =
            format!("POST /u HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
        raw.extend_from_slice(&body);
        let mut stream = OneByte(Cursor::new(raw));
        let req = read_request(&mut stream, &RequestLimits::default()).unwrap();
        assert_eq!(req.body, body);
    }

    #[test]
    fn timeout_kinds_surface_as_http_timeout() {
        struct Stall;
        impl Read for Stall {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(ErrorKind::WouldBlock, "deadline"))
            }
        }
        assert!(matches!(
            read_request(&mut Stall, &RequestLimits::default()),
            Err(HttpError::Timeout)
        ));
    }

    #[test]
    fn responses_roundtrip_through_read_response() {
        let resp = Response::json(429, "{\"error\":\"rate\"}".to_string())
            .with_header("Retry-After", "7".to_string());
        let mut wire = Vec::new();
        resp.send(&mut wire);
        let (status, retry_after, body) = read_response(&mut Cursor::new(wire), 64 << 20).unwrap();
        assert_eq!(status, 429);
        assert_eq!(retry_after, Some(7));
        assert_eq!(body, b"{\"error\":\"rate\"}");
    }

    #[test]
    fn truncated_response_bodies_are_typed_errors() {
        let mut wire = Vec::new();
        Response::text(200, b"full body".to_vec()).send(&mut wire);
        wire.truncate(wire.len() - 3); // lose the tail mid-body
        assert!(matches!(
            read_response(&mut Cursor::new(wire), 64 << 20),
            Err(HttpError::Malformed("truncated response body"))
        ));
    }

    #[test]
    fn over_cap_responses_are_typed_too_large_not_malformed() {
        let mut wire = Vec::new();
        Response::text(200, vec![b'x'; 4096]).send(&mut wire);
        assert!(matches!(
            read_response(&mut Cursor::new(wire.clone()), 1024),
            Err(HttpError::ResponseTooLarge(_))
        ));
        // The same bytes under a sufficient cap parse fine.
        let (status, _, body) = read_response(&mut Cursor::new(wire), 64 << 10).unwrap();
        assert_eq!((status, body.len()), (200, 4096));
    }

    #[test]
    fn trickled_request_hits_the_absolute_deadline() {
        // Each read yields one byte promptly — never a per-read timeout —
        // and the head never terminates. Only the absolute request
        // deadline can end this; without it the loop runs until the head
        // cap after max_head_bytes reads.
        struct Trickle;
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_millis(1));
                buf[0] = b'a';
                Ok(1)
            }
        }
        let limits = RequestLimits {
            request_deadline: Duration::from_millis(30),
            ..RequestLimits::default()
        };
        let begun = Instant::now();
        assert!(matches!(read_request(&mut Trickle, &limits), Err(HttpError::Timeout)));
        assert!(begun.elapsed() < Duration::from_secs(5), "deadline must fire promptly");
    }

    #[test]
    fn trickled_body_hits_the_absolute_deadline_too() {
        // A complete head followed by a body that trickles forever: the
        // body loop shares the same absolute budget.
        struct TrickleBody {
            head: Cursor<Vec<u8>>,
        }
        impl Read for TrickleBody {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.head.read(&mut buf[..1]) {
                    Ok(0) | Err(_) => {
                        std::thread::sleep(Duration::from_millis(1));
                        buf[0] = b'z';
                        Ok(1)
                    }
                    Ok(n) => Ok(n),
                }
            }
        }
        let head = b"POST /u HTTP/1.1\r\nContent-Length: 999999\r\n\r\n".to_vec();
        let mut stream = TrickleBody { head: Cursor::new(head) };
        let limits = RequestLimits {
            request_deadline: Duration::from_millis(30),
            ..RequestLimits::default()
        };
        assert!(matches!(read_request(&mut stream, &limits), Err(HttpError::Timeout)));
    }
}
