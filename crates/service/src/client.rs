//! A minimal blocking HTTP client for tests, benchmarks and smoke checks.
//!
//! One request per connection, mirroring the server's `Connection: close`
//! framing.  Responses are read to the `Content-Length` the server
//! declares (bounded), so a stuck server surfaces as a timeout instead of
//! a hang.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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

/// Issues `GET path` against `addr` and returns `(status, body)`.
/// Connect/read/write all run under `timeout`.
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
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    if read_line_bounded(&mut reader, &mut status_line)? == 0 {
        // The server accepted and closed without a byte of response — a
        // crash or restart mid-exchange, not a protocol violation.  Keep
        // the EOF error class so retry policies can treat it as
        // transient.
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length: Option<usize> = None;
    let mut headers = 0usize;
    let mut line = status_line;
    loop {
        line.clear();
        if read_line_bounded(&mut reader, &mut line)? == 0 {
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
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad("malformed content-length"))?,
                );
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
            reader
                .take(MAX_BODY_BYTES as u64 + 1)
                .read_to_end(&mut body)?;
            if body.len() > MAX_BODY_BYTES {
                return Err(bad("response body too large"));
            }
        }
    }
    String::from_utf8(body)
        .map(|text| (status, text))
        .map_err(|_| bad("non-UTF-8 response body"))
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
    matches!(
        kind,
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
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
