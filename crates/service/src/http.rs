//! A deliberately small HTTP/1.1 subset: enough to serve JSON over
//! localhost TCP with no external crates.
//!
//! Supported: `GET` requests, a request line plus headers (bodies are
//! rejected), percent-encoded query strings, `Content-Length`-framed
//! responses on connections that close after one exchange.  Every input
//! dimension is bounded — line length, header count, total header bytes —
//! so a misbehaving client cannot make the server buffer unbounded data.

use std::io::{BufRead, Write};

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
            if name.trim().eq_ignore_ascii_case("content-length")
                && value.trim().parse::<u64>().map_or(true, |n| n > 0)
            {
                return Err(HttpError::Malformed("request bodies not supported".into()));
            }
        }
    }
    if method != "GET" {
        return Err(HttpError::UnsupportedMethod(method.to_string()));
    }
    Ok(parse_target(target))
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

/// Writes one JSON response with `Connection: close` framing.  Socket
/// errors are returned for the caller to count; there is nothing else a
/// one-shot connection can do about them.
pub fn write_json_response(
    stream: &mut impl Write,
    status: u16,
    body: &str,
) -> std::io::Result<()> {
    write_response(stream, status, "application/json", body)
}

/// Writes one length-framed response with an explicit content type —
/// `/metrics` serves Prometheus text exposition, everything else JSON.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
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
    fn response_is_length_framed() {
        let mut out = Vec::new();
        write_json_response(&mut out, 200, "{\"ok\":true}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}
