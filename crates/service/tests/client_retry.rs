//! Retry behaviour of the blocking client against a stub server that
//! misbehaves in controlled ways: 503 backpressure that clears after a
//! few attempts, connections reset before a response, and failures that
//! never clear (attempts and budget must bound the loop).  Then the
//! client's kept connections: one the server closed is replaced exactly
//! once, a response cut short is never resent, and `Connection: close`
//! is honoured.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use traj_service::client::{http_get_retry, http_get_timeout, RetryPolicy};

/// A stub HTTP server: for each accepted connection, calls `plan` with
/// the 0-based connection index and performs the returned [`StubAction`]
/// — respond with a status (503 mirrors the real server's backpressure
/// rejection) or reset by dropping the socket unanswered.
fn stub_server<F>(plan: F) -> (SocketAddr, std::thread::JoinHandle<usize>)
where
    F: Fn(usize) -> StubAction + Send + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut served = 0usize;
        loop {
            let Ok((mut stream, _)) = listener.accept() else {
                return served;
            };
            let action = plan(served);
            served += 1;
            // Read the request head so the client is not racing a reset
            // against its own write.
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            match action {
                StubAction::Reset => drop(stream),
                StubAction::Respond(status) => {
                    let (reason, body) = match status {
                        200 => ("OK", "{\"ok\":true}"),
                        503 => ("Service Unavailable", "{\"error\":\"busy\"}"),
                        _ => ("Error", "{}"),
                    };
                    let _ = stream.write_all(
                        format!(
                            "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\n\
                             Connection: close\r\n\r\n{body}",
                            body.len()
                        )
                        .as_bytes(),
                    );
                }
            }
        }
    });
    (addr, handle)
}

enum StubAction {
    Respond(u16),
    Reset,
}

fn timeout() -> Duration {
    Duration::from_secs(2)
}

/// Fast test policy: generous attempts, millisecond backoff.
fn policy(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(8),
        budget: Duration::from_secs(1),
    }
}

#[test]
fn retries_through_backpressure_until_the_server_recovers() {
    // Two 503s, then a 200.
    let served = Arc::new(AtomicUsize::new(0));
    let served2 = Arc::clone(&served);
    let (addr, handle) = stub_server(move |i| {
        served2.store(i + 1, Ordering::SeqCst);
        if i < 2 {
            StubAction::Respond(503)
        } else {
            StubAction::Respond(200)
        }
    });
    let (status, body) = http_get_retry(addr, "/stats", timeout(), &policy(5)).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("ok"));
    assert_eq!(served.load(Ordering::SeqCst), 3, "two retries expected");
    drop(handle);
}

#[test]
fn retries_through_connection_resets() {
    let (addr, handle) = stub_server(|i| {
        if i < 2 {
            StubAction::Reset
        } else {
            StubAction::Respond(200)
        }
    });
    let (status, _) = http_get_retry(addr, "/devices", timeout(), &policy(6)).unwrap();
    assert_eq!(status, 200);
    drop(handle);
}

#[test]
fn exhausted_attempts_return_the_last_503() {
    let served = Arc::new(AtomicUsize::new(0));
    let served2 = Arc::clone(&served);
    let (addr, handle) = stub_server(move |i| {
        served2.store(i + 1, Ordering::SeqCst);
        StubAction::Respond(503)
    });
    let (status, body) = http_get_retry(addr, "/stats", timeout(), &policy(4)).unwrap();
    assert_eq!(status, 503, "a server that never recovers surfaces its 503");
    assert!(body.contains("busy"));
    assert_eq!(
        served.load(Ordering::SeqCst),
        4,
        "exactly max_attempts tries"
    );
    drop(handle);
}

#[test]
fn non_retryable_statuses_return_immediately() {
    let served = Arc::new(AtomicUsize::new(0));
    let served2 = Arc::clone(&served);
    let (addr, handle) = stub_server(move |i| {
        served2.store(i + 1, Ordering::SeqCst);
        StubAction::Respond(404)
    });
    let (status, _) = http_get_retry(addr, "/nope", timeout(), &policy(5)).unwrap();
    assert_eq!(status, 404);
    assert_eq!(served.load(Ordering::SeqCst), 1, "404 must not be retried");
    drop(handle);
}

#[test]
fn the_budget_caps_total_backoff() {
    // A policy with a huge attempt count but a tiny budget: the loop must
    // stop sleeping once the budget is spent, long before max_attempts.
    let served = Arc::new(AtomicUsize::new(0));
    let served2 = Arc::clone(&served);
    let (addr, handle) = stub_server(move |i| {
        served2.store(i + 1, Ordering::SeqCst);
        StubAction::Respond(503)
    });
    let tight = RetryPolicy {
        max_attempts: 1000,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(20),
        budget: Duration::from_millis(60),
    };
    let started = Instant::now();
    let (status, _) = http_get_retry(addr, "/stats", timeout(), &tight).unwrap();
    assert_eq!(status, 503);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "budget must bound the retry loop, took {:?}",
        started.elapsed()
    );
    assert!(
        served.load(Ordering::SeqCst) < 500,
        "budget must end retries well before max_attempts, saw {}",
        served.load(Ordering::SeqCst)
    );
    drop(handle);
}

#[test]
fn no_retry_policy_behaves_like_a_plain_get() {
    let served = Arc::new(AtomicUsize::new(0));
    let served2 = Arc::clone(&served);
    let (addr, handle) = stub_server(move |i| {
        served2.store(i + 1, Ordering::SeqCst);
        StubAction::Respond(503)
    });
    let (status, _) = http_get_retry(addr, "/stats", timeout(), &RetryPolicy::none()).unwrap();
    assert_eq!(status, 503);
    assert_eq!(served.load(Ordering::SeqCst), 1);
    drop(handle);
}

/// A stub HTTP server that hands each accepted connection, with its
/// 0-based index, to `serve`, one connection at a time.  The returned
/// counter is the number of connections accepted so far.
fn connection_stub<F>(serve: F) -> (SocketAddr, Arc<AtomicUsize>)
where
    F: Fn(usize, TcpStream) + Send + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&accepted);
    std::thread::spawn(move || {
        while let Ok((stream, _)) = listener.accept() {
            serve(counter.fetch_add(1, Ordering::SeqCst), stream);
        }
    });
    (addr, accepted)
}

/// Reads one request head, byte by byte so that nothing past it is
/// consumed; false when the client closed first.
fn read_head(stream: &mut TcpStream) -> bool {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => return false,
        }
    }
    true
}

/// A 200 response; `extra` holds additional header lines.
fn ok_response(extra: &str) -> String {
    format!("HTTP/1.1 200 OK\r\nContent-Length: 11\r\n{extra}\r\n{{\"ok\":true}}")
}

#[test]
fn a_kept_connection_the_server_closed_is_replaced_once() {
    // Answers one request per connection, then closes without saying so.
    let (addr, accepted) = connection_stub(|_, mut stream| {
        if read_head(&mut stream) {
            let _ = stream.write_all(ok_response("").as_bytes());
        }
    });
    for call in 0..2 {
        let (status, body) = http_get_timeout(addr, "/stats", timeout())
            .unwrap_or_else(|e| panic!("call {call}: {e}"));
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
    }
    assert_eq!(accepted.load(Ordering::SeqCst), 2);
}

#[test]
fn a_response_cut_short_is_an_error_and_never_resent() {
    // The first request gets a whole response on a kept connection, the
    // second half a status line before the stub closes.
    let (addr, accepted) = connection_stub(|_, mut stream| {
        if read_head(&mut stream) {
            let _ = stream.write_all(ok_response("").as_bytes());
        }
        if read_head(&mut stream) {
            let _ = stream.write_all(b"HTTP/1.1 20");
        }
    });
    let (status, _) = http_get_timeout(addr, "/stats", timeout()).unwrap();
    assert_eq!(status, 200);
    assert!(http_get_timeout(addr, "/stats", timeout()).is_err());
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        1,
        "a request whose response began must not be sent again"
    );
}

#[test]
fn connection_close_makes_the_next_call_open_a_new_connection() {
    // The stub says `Connection: close` but holds every socket open and
    // reads nothing more: a client that reused one would time out.
    let held = Arc::new(std::sync::Mutex::new(Vec::new()));
    let keep = Arc::clone(&held);
    let (addr, accepted) = connection_stub(move |_, mut stream| {
        if read_head(&mut stream) {
            let _ = stream.write_all(ok_response("Connection: close\r\n").as_bytes());
        }
        keep.lock().unwrap().push(stream);
    });
    for call in 0..2 {
        let (status, _) = http_get_timeout(addr, "/stats", timeout())
            .unwrap_or_else(|e| panic!("call {call}: {e}"));
        assert_eq!(status, 200);
    }
    assert_eq!(accepted.load(Ordering::SeqCst), 2);
}

#[test]
fn keep_alive_reuses_one_connection() {
    let (addr, accepted) = connection_stub(|_, mut stream| {
        while read_head(&mut stream) {
            if stream.write_all(ok_response("").as_bytes()).is_err() {
                return;
            }
        }
    });
    for _ in 0..5 {
        let (status, _) = http_get_timeout(addr, "/stats", timeout()).unwrap();
        assert_eq!(status, 200);
    }
    assert_eq!(accepted.load(Ordering::SeqCst), 1);
}
