//! A minimal blocking HTTP client for tests, benchmarks and smoke checks.
//!
//! Connections persist: each thread keeps one open connection per server
//! address and sends its next request there, so a closed-loop caller pays
//! for TCP set-up once rather than per request.  A kept connection the
//! server has closed since (it idled out, or the server restarted) shows
//! as a failed write, or as EOF or a reset before the first response
//! byte; the request then goes once more on a fresh connection, which is
//! safe because every request is an idempotent `GET`.  Responses are read
//! to the `Content-Length` the server declares (bounded), so a stuck
//! server surfaces as a timeout instead of a hang.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, IoSlice, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::write_all_vectored;

/// Largest response body the client accepts (16 MiB) — a defense against
/// a buggy or hostile server declaring an absurd `Content-Length`.
pub const MAX_BODY_BYTES: usize = 16 << 20;

/// Longest accepted status or header line, and the most headers accepted
/// per response — the header phase is bounded just like the server's
/// request parser, so a server streaming garbage without newlines cannot
/// grow the client's buffers without bound.
pub const MAX_HEADER_LINE_BYTES: u64 = 8192;
/// See [`MAX_HEADER_LINE_BYTES`].
pub const MAX_HEADERS: usize = 64;

/// Most connections one thread keeps open; past it the oldest closes.
const MAX_KEPT: usize = 8;

/// Reads one line of at most [`MAX_HEADER_LINE_BYTES`] bytes.
fn read_line_bounded(reader: &mut impl BufRead, line: &mut String) -> std::io::Result<usize> {
    let n = reader.take(MAX_HEADER_LINE_BYTES).read_line(line)?;
    if n as u64 >= MAX_HEADER_LINE_BYTES && !line.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response header line too long",
        ));
    }
    Ok(n)
}

/// An open connection to one server.
struct Conn {
    reader: BufReader<TcpStream>,
    /// The `Host` header value.
    host: String,
    /// The read and write timeout set on the socket.
    timeout: Duration,
}

impl Conn {
    fn open(addr: SocketAddr, timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            host: addr.to_string(),
            timeout,
        })
    }

    fn set_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        if timeout != self.timeout {
            let stream = self.reader.get_ref();
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
            self.timeout = timeout;
        }
        Ok(())
    }
}

thread_local! {
    /// This thread's open connections, by server address.
    static KEPT: RefCell<Vec<(SocketAddr, Conn)>> = const { RefCell::new(Vec::new()) };
}

/// Takes this thread's kept connection to `addr`, if any.
fn take_kept(addr: SocketAddr) -> Option<Conn> {
    KEPT.with_borrow_mut(|kept| {
        let i = kept.iter().position(|(a, _)| *a == addr)?;
        Some(kept.remove(i).1)
    })
}

/// Keeps `conn` open for this thread's next request to `addr`.
fn keep(addr: SocketAddr, conn: Conn) {
    KEPT.with_borrow_mut(|kept| {
        if kept.len() == MAX_KEPT {
            kept.remove(0);
        }
        kept.push((addr, conn));
    });
}

/// One response, and whether the server keeps the connection open.
struct Response {
    status: u16,
    body: String,
    keep_alive: bool,
}

/// Why an exchange failed.
enum Failure {
    /// Before any response byte: the request write failed, or the
    /// connection hit EOF or a reset.  On a kept connection this means
    /// the server had closed it, and the request may go again.
    BeforeResponse(std::io::Error),
    /// Anything else, including a timeout before the first byte.
    Other(std::io::Error),
}

impl Failure {
    fn into_error(self) -> std::io::Error {
        match self {
            Failure::BeforeResponse(e) | Failure::Other(e) => e,
        }
    }
}

/// Sends `GET path` on `conn` and reads the whole response.
fn exchange(conn: &mut Conn, path: &str) -> Result<Response, Failure> {
    write_all_vectored(
        conn.reader.get_mut(),
        &mut [
            IoSlice::new(b"GET "),
            IoSlice::new(path.as_bytes()),
            IoSlice::new(b" HTTP/1.1\r\nHost: "),
            IoSlice::new(conn.host.as_bytes()),
            IoSlice::new(b"\r\n\r\n"),
        ],
    )
    .map_err(Failure::BeforeResponse)?;
    match conn.reader.fill_buf() {
        // The server closed without a byte of response: it dropped a
        // kept connection, or crashed or restarted mid-exchange.  Keep
        // the EOF error class so retry policies treat it as transient.
        Ok([]) => {
            return Err(Failure::BeforeResponse(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            )))
        }
        Ok(_) => {}
        Err(e) if closed(e.kind()) => return Err(Failure::BeforeResponse(e)),
        Err(e) => return Err(Failure::Other(e)),
    }
    read_response(&mut conn.reader).map_err(Failure::Other)
}

/// Whether an error class means the peer closed the connection.
fn closed(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Reads a status line, headers and a body from `reader`.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<Response> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut status_line = String::new();
    read_line_bounded(reader, &mut status_line)?;
    if !status_line.ends_with('\n') {
        return Err(bad("connection closed inside the status line"));
    }
    let mut fields = status_line.split_ascii_whitespace();
    // An HTTP/1.0 server closes after the response unless told otherwise.
    let mut keep_alive = fields.next() == Some("HTTP/1.1");
    let status: u16 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length: Option<usize> = None;
    let mut headers = 0usize;
    let mut line = status_line;
    loop {
        line.clear();
        if read_line_bounded(reader, &mut line)? == 0 {
            return Err(bad("connection closed inside headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(bad("too many response headers"));
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad("malformed content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"));
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) if n > MAX_BODY_BYTES => return Err(bad("response body too large")),
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        // No declared length: the server closes the connection after the
        // body; read to EOF (still bounded).
        None => {
            keep_alive = false;
            reader
                .take(MAX_BODY_BYTES as u64 + 1)
                .read_to_end(&mut body)?;
            if body.len() > MAX_BODY_BYTES {
                return Err(bad("response body too large"));
            }
        }
    }
    let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 response body"))?;
    Ok(Response {
        status,
        body,
        keep_alive,
    })
}

/// Issues `GET path` against `addr` and returns `(status, body)`, on
/// this thread's kept connection to `addr` when it has one.  Connect,
/// read and write all run under `timeout`.
///
/// # Errors
///
/// `std::io::Error` for connection failures, timeouts, or a response that
/// is not minimally well-formed HTTP.
pub fn http_get_timeout(
    addr: SocketAddr,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, String)> {
    let kept = take_kept(addr).and_then(|mut conn| {
        conn.set_timeout(timeout).ok()?;
        match exchange(&mut conn, path) {
            // The server had closed the kept connection: retry once on a
            // fresh one below.
            Err(Failure::BeforeResponse(_)) => None,
            result => Some((conn, result)),
        }
    });
    let (conn, result) = match kept {
        Some(outcome) => outcome,
        None => {
            let mut conn = Conn::open(addr, timeout)?;
            let result = exchange(&mut conn, path);
            (conn, result)
        }
    };
    let response = result.map_err(Failure::into_error)?;
    // Bytes past the declared body would be misread as the next response.
    if response.keep_alive && conn.reader.buffer().is_empty() {
        keep(addr, conn);
    }
    Ok((response.status, response.body))
}

/// [`http_get_timeout`] with a 10-second default.
///
/// # Errors
///
/// As for [`http_get_timeout`].
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    http_get_timeout(addr, path, Duration::from_secs(10))
}

/// Bounded retry for the transient failures the server deliberately
/// produces under load: 503 backpressure rejections and connection
/// resets/refusals while the accept queue churns.
///
/// Backoff is exponential (`base_delay · 2^attempt`, capped at
/// `max_delay`) with full jitter — each sleep is a uniformly random
/// fraction of the current cap, so a herd of retrying clients spreads out
/// instead of re-stampeding in lockstep.  Total sleep across one call
/// never exceeds `budget`; whichever of `max_attempts` or `budget` runs
/// out first ends the retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries, including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Cap on a single backoff sleep.
    pub max_delay: Duration,
    /// Cap on the *sum* of backoff sleeps in one call — a latency budget,
    /// so callers can bound worst-case blocking regardless of attempts.
    pub budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            budget: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, zero budget).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            budget: Duration::ZERO,
        }
    }
}

/// Whether an I/O error class is worth retrying: the connection-level
/// failures a briefly overloaded or restarting server produces.  Malformed
/// responses and timeouts are not retried — the former will not improve,
/// the latter already cost the caller its patience once.
fn transient(kind: std::io::ErrorKind) -> bool {
    kind == std::io::ErrorKind::ConnectionRefused || closed(kind)
}

/// xorshift64* — a tiny deterministic PRNG for jitter (no external
/// dependencies; statistical quality is irrelevant here, spread is all
/// that matters).
fn jitter_fraction(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
}

/// [`http_get_timeout`] with bounded, jittered retries per `policy`.
/// Retries on 503 responses and transient connection errors; any other
/// status (including other error statuses) and any non-transient error
/// return immediately.  When attempts or budget run out, the last 503
/// response or transient error is returned as-is.
///
/// # Errors
///
/// As for [`http_get_timeout`]; a final 503 after exhausted retries is
/// returned as `Ok((503, body))` for the caller to interpret.
pub fn http_get_retry(
    addr: SocketAddr,
    path: &str,
    timeout: Duration,
    policy: &RetryPolicy,
) -> std::io::Result<(u16, String)> {
    let mut slept = Duration::ZERO;
    // Seed per call from address + path + a process-wide counter, so
    // concurrent callers jitter independently without sharing state.
    static SEED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0x9E37_79B9);
    let mut rng = SEED.fetch_add(0x9E37_79B9_7F4A_7C15, std::sync::atomic::Ordering::Relaxed)
        ^ (addr.port() as u64) << 32
        ^ path.len() as u64
        | 1;
    let attempts = policy.max_attempts.max(1);
    for attempt in 0..attempts {
        let result = http_get_timeout(addr, path, timeout);
        let retryable = match &result {
            Ok((503, _)) => true,
            Ok(_) => return result,
            Err(e) => transient(e.kind()),
        };
        if !retryable || attempt + 1 == attempts {
            return result;
        }
        // Exponential cap for this attempt, full jitter below it.
        let exp = policy
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(policy.max_delay);
        let delay = exp.mul_f64(jitter_fraction(&mut rng));
        if slept + delay > policy.budget {
            return result;
        }
        std::thread::sleep(delay);
        slept += delay;
    }
    unreachable!("the loop always returns on its last attempt");
}
