//! A deliberately small HTTP/1.1 subset: enough to serve JSON over
//! localhost TCP with no external crates.
//!
//! Supported: `GET` requests, a request line plus headers (bodies are
//! rejected), percent-encoded query strings, and `Content-Length`-framed
//! responses on persistent connections.  A [`Connection`] carries one
//! request after another, pipelined ones included, until the client sends
//! `Connection: close` or speaks HTTP/1.0.  Every input dimension is
//! bounded — line length, header count, and the time from a request's
//! first byte to the end of its headers — so a misbehaving client can
//! neither make the server buffer unbounded data nor hold a reader by
//! trickling bytes.

use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest accepted request line or header line, in bytes.
pub const MAX_LINE_BYTES: usize = 8192;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// Why a request could not be served.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (including timeouts).
    Io(std::io::Error),
    /// The request exceeded a size bound.
    TooLarge,
    /// The bytes are not a well-formed HTTP request.
    Malformed(String),
    /// A well-formed request for a method the server does not implement.
    UnsupportedMethod(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::TooLarge => write!(f, "request exceeds size bounds"),
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl HttpError {
    /// The response status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Io(_) => 400,
            HttpError::TooLarge => 431,
            HttpError::Malformed(_) => 400,
            HttpError::UnsupportedMethod(_) => 405,
        }
    }
}

/// A parsed request: the path and its decoded query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request path without the query string, e.g. `/time_slice`.
    pub path: String,
    /// Decoded `key=value` query parameters, in order of appearance.
    pub params: Vec<(String, String)>,
    /// Whether the client keeps the connection open after the answer:
    /// HTTP/1.1 without `Connection: close`.
    pub keep_alive: bool,
}

impl Request {
    /// The last value given for `key` (`None` when absent).
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one CRLF- (or LF-) terminated line, enforcing
/// [`MAX_LINE_BYTES`].
fn read_line(reader: &mut impl BufRead) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Err(HttpError::Malformed("connection closed mid-line".into()));
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        line.extend_from_slice(&buf[..chunk]);
        reader.consume(chunk);
        if line.len() > MAX_LINE_BYTES {
            return Err(HttpError::TooLarge);
        }
        if done {
            while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| HttpError::Malformed("non-UTF-8 request bytes".into()));
        }
    }
}

/// Decodes `%XX` escapes and `+` (as space) in a query component.
/// Malformed escapes pass through literally — queries here carry numbers
/// and device ids, and a lenient decode never turns a valid value invalid.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // Both escape characters must be hex digits before the
                // radix parse runs: `from_str_radix` accepts a leading
                // sign, so without this check `%+5` would "decode" to
                // byte 0x05 and corrupt the value (and `+` would lose
                // its as-space meaning inside a malformed escape).
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|h| {
                        std::str::from_utf8(h)
                            .ok()
                            .and_then(|h| u8::from_str_radix(h, 16).ok())
                    });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Splits a request target into path and decoded parameters.
fn parse_target(target: &str) -> Request {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    Request {
        path: percent_decode(path),
        params,
        keep_alive: true,
    }
}

/// Reads and parses one GET request from `reader`, consuming its headers.
///
/// # Errors
///
/// Any [`HttpError`]; the caller maps it to a status code via
/// [`HttpError::status`].
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line missing target".into()))?;
    let version = parts.next().unwrap_or("HTTP/1.0");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol {version}"
        )));
    }
    // HTTP/1.0 closes after one exchange; HTTP/1.1 persists unless told.
    let mut keep_alive = version != "HTTP/1.0";
    // Drain headers (bounded); reject requests that carry a body — every
    // endpoint is a read-only GET.
    let mut headers = 0;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError::TooLarge);
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length")
                && value.trim().parse::<u64>().map_or(true, |n| n > 0)
            {
                return Err(HttpError::Malformed("request bodies not supported".into()));
            }
            if name.eq_ignore_ascii_case("connection")
                && value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"))
            {
                keep_alive = false;
            }
        }
    }
    if method != "GET" {
        return Err(HttpError::UnsupportedMethod(method.to_string()));
    }
    Ok(Request {
        keep_alive,
        ..parse_target(target)
    })
}

/// The read side of a [`Connection`]: reads wait at most the idle
/// deadline between requests, and all reads of one request's head share
/// a single deadline.
struct DeadlineReader {
    stream: Arc<TcpStream>,
    io_timeout: Duration,
    /// When the current request's head must be complete; `None` while
    /// idle between requests.
    deadline: Option<Instant>,
    /// The read timeout last set on the socket, so that it is set only
    /// when it changes.
    timeout: Duration,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let timeout = match self.deadline {
            None => self.io_timeout,
            Some(deadline) => deadline
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "request head not complete within the deadline",
                    )
                })?,
        };
        if timeout != self.timeout {
            self.stream.set_read_timeout(Some(timeout))?;
            self.timeout = timeout;
        }
        (&*self.stream).read(buf)
    }
}

/// The server side of one persistent connection.  `io_timeout` bounds
/// the idle wait for each request, the time from a request's first byte
/// to the end of its headers, and each write.
pub struct Connection {
    reader: BufReader<DeadlineReader>,
}

impl Connection {
    /// Wraps an accepted stream, with Nagle's algorithm off so that a
    /// response is not held back waiting for the client's ACK.
    ///
    /// # Errors
    ///
    /// The socket options could not be set.
    pub fn new(stream: Arc<TcpStream>, io_timeout: Duration) -> std::io::Result<Connection> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        Ok(Connection {
            reader: BufReader::new(DeadlineReader {
                stream,
                io_timeout,
                deadline: None,
                timeout: io_timeout,
            }),
        })
    }

    /// Waits, at most `io_timeout`, for the next request's first byte,
    /// then reads the request within `io_timeout` of that byte.  Returns
    /// when that first byte was seen, and the parse; `None` when the
    /// client closed the connection or it idled out first.  An
    /// [`HttpError::Io`] (the deadline passed, or the socket failed)
    /// leaves a partial request consumed: close the connection.
    pub fn next_request(&mut self) -> Option<(Instant, Result<Request, HttpError>)> {
        self.reader.get_mut().deadline = None;
        match self.reader.fill_buf() {
            Ok(buf) if !buf.is_empty() => {}
            _ => return None,
        }
        let started = Instant::now();
        let reader = self.reader.get_mut();
        reader.deadline = Some(started + reader.io_timeout);
        Some((started, read_request(&mut self.reader)))
    }

    /// Writes one response; see [`write_response`].
    ///
    /// # Errors
    ///
    /// Socket errors, including the write timeout.
    pub fn write_response(
        &mut self,
        status: u16,
        content_type: &str,
        body: &str,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        let mut stream = &*self.reader.get_ref().stream;
        write_response(&mut stream, status, content_type, body, keep_alive)
    }
}

/// The reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one JSON response; see [`write_response`].
///
/// # Errors
///
/// Socket errors, for the caller to count or drop.
pub fn write_json_response(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response(stream, status, "application/json", body, keep_alive)
}

/// Longest response head [`write_response`] renders: the status line and
/// three headers, whose only open-ended part is the content type.
const MAX_HEAD_BYTES: usize = 256;

/// Writes one length-framed response with an explicit content type —
/// `/metrics` serves Prometheus text exposition, everything else JSON.
/// `Connection: keep-alive` tells the client the connection stays open,
/// `Connection: close` that the server closes it after this response.
/// Head and body leave in one vectored write, so on a connection that
/// stays open the body never waits for the client's delayed ACK of the
/// head.
///
/// # Errors
///
/// Socket errors, and `InvalidInput` for a content type too long for the
/// head buffer.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = [0u8; MAX_HEAD_BYTES];
    let mut free = &mut head[..];
    write!(
        free,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "response head exceeds its buffer",
        )
    })?;
    let head_len = MAX_HEAD_BYTES - free.len();
    write_all_vectored(
        stream,
        &mut [
            IoSlice::new(&head[..head_len]),
            IoSlice::new(body.as_bytes()),
        ],
    )?;
    stream.flush()
}

/// Writes every byte of `parts`, in as few calls as the socket allows.
pub(crate) fn write_all_vectored(
    stream: &mut impl Write,
    mut parts: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    while !parts.is_empty() {
        match stream.write_vectored(parts) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse("GET /time_slice?device=7&from=0&to=100 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.path, "/time_slice");
        assert_eq!(req.param("device"), Some("7"));
        assert_eq!(req.param("from"), Some("0"));
        assert_eq!(req.param("to"), Some("100"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn decodes_percent_escapes() {
        let req = parse("GET /a%20b?k=1%2C2&s=x+y&bad=%zz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/a b");
        assert_eq!(req.param("k"), Some("1,2"));
        assert_eq!(req.param("s"), Some("x y"));
        assert_eq!(req.param("bad"), Some("%zz"));
    }

    #[test]
    fn percent_decode_handles_malformed_escapes() {
        // (input, expected): malformed escapes pass through literally,
        // `+` always means space outside a *valid* escape, and a sign
        // character is never accepted as a hex digit (`from_str_radix`
        // would otherwise parse "+5" as 5, corrupting the value).
        let cases: &[(&str, &str)] = &[
            ("plain", "plain"),
            ("a+b", "a b"),
            ("%41", "A"),
            ("%2C", ","),
            ("%2c", ","),
            ("100%", "100%"), // trailing % with no digits
            ("%2", "%2"),     // truncated escape
            ("%G1", "%G1"),   // non-hex first digit
            ("%1G", "%1G"),   // non-hex second digit
            ("%zz", "%zz"),   // non-hex pair
            ("%+5", "% 5"),   // sign must not reach the radix parse
            ("%-5", "%-5"),   // ditto for minus
            ("% 20", "% 20"), // space is not a hex digit
            ("%%41", "%A"),   // first % literal, second escape valid
            ("%25", "%"),     // escaped percent round-trips
            ("%2B", "+"),     // escaped plus stays a plus, not a space
            ("a%2Gb+c", "a%2Gb c"),
        ];
        for (input, expected) in cases {
            assert_eq!(
                percent_decode(input),
                *expected,
                "percent_decode({input:?})"
            );
        }
    }

    #[test]
    fn rejects_non_get_and_bodies() {
        assert!(matches!(
            parse("POST /stats HTTP/1.1\r\n\r\n"),
            Err(HttpError::UnsupportedMethod(_))
        ));
        assert!(matches!(
            parse("GET /stats HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"),
            Err(HttpError::Malformed(_))
        ));
        // Content-Length: 0 is fine.
        assert!(parse("GET /stats HTTP/1.1\r\nContent-Length: 0\r\n\r\n").is_ok());
    }

    #[test]
    fn rejects_oversized_input() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_LINE_BYTES));
        assert!(matches!(parse(&long), Err(HttpError::TooLarge)));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "H: v\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(matches!(parse(&many), Err(HttpError::TooLarge)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("\r\n\r\n").is_err());
        assert!(parse("GET\r\n\r\n").is_err());
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err());
        let mut truncated = BufReader::new(&b"GET / HTTP/1.1\r\nHost"[..]);
        assert!(read_request(&mut truncated).is_err());
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let keep = |raw: &str| parse(raw).unwrap().keep_alive;
        assert!(keep("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
        assert!(keep("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!keep("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!keep(
            "GET / HTTP/1.1\r\nconnection: Upgrade, Close\r\n\r\n"
        ));
        assert!(!keep("GET / HTTP/1.0\r\n\r\n"));
        assert!(!keep("GET /\r\n\r\n"));
    }

    #[test]
    fn pipelined_requests_parse_one_after_another() {
        let mut reader = BufReader::new(
            &b"GET /a HTTP/1.1\r\n\r\nGET /b?k=1 HTTP/1.1\r\nConnection: close\r\n\r\n"[..],
        );
        let first = read_request(&mut reader).unwrap();
        let second = read_request(&mut reader).unwrap();
        assert_eq!((first.path.as_str(), first.keep_alive), ("/a", true));
        assert_eq!((second.path.as_str(), second.keep_alive), ("/b", false));
        assert_eq!(second.param("k"), Some("1"));
        assert!(reader.fill_buf().unwrap().is_empty());
    }

    #[test]
    fn response_is_length_framed() {
        for (keep_alive, connection) in [(true, "keep-alive"), (false, "close")] {
            let mut out = Vec::new();
            write_json_response(&mut out, 200, "{\"ok\":true}", keep_alive).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
            assert!(text.contains("Content-Length: 11\r\n"));
            assert!(text.contains(&format!("Connection: {connection}\r\n")));
            assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        }
    }

    /// Accepts at most `limit` bytes per write call.
    struct Dribble {
        out: Vec<u8>,
        limit: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.limit);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_send_the_whole_response() {
        let body = "x".repeat(1000);
        let mut whole = Vec::new();
        write_response(&mut whole, 200, "text/plain", &body, true).unwrap();
        for limit in [1, 7, 64, 4096] {
            let mut dribble = Dribble {
                out: Vec::new(),
                limit,
            };
            write_response(&mut dribble, 200, "text/plain", &body, true).unwrap();
            assert_eq!(dribble.out, whole, "{limit} bytes per write");
        }
        let mut out = Vec::new();
        let too_long = "t".repeat(MAX_HEAD_BYTES);
        assert!(write_response(&mut out, 200, &too_long, "", false).is_err());
    }
}
