//! A zero-dependency telemetry HTTP listener: `/metrics`,
//! `/snapshot.json`, `/healthz`.
//!
//! ARROW's online stage is a long-lived epoch loop (ROADMAP item 3), and a
//! long-lived process needs its telemetry *served*, not dumped at exit.
//! This module is a deliberately small, GET-only HTTP/1.1 listener
//! hand-rolled over [`std::net::TcpListener`] — no async runtime, no
//! hyper, in keeping with the workspace's no-external-deps rule. Any
//! binary can call [`spawn`] to serve the process-global metrics registry:
//!
//! * `GET /metrics` — Prometheus text exposition
//!   (`Snapshot::to_prometheus`);
//! * `GET /snapshot.json` — the JSON snapshot
//!   (`Snapshot::to_json`);
//! * `GET /healthz` — `ok`, for liveness probes;
//! * `GET /readyz` — readiness: `503` until the serving process marks
//!   itself ready via [`set_ready`] (the daemon does so after its first
//!   successful plan), `200 ready` after.
//!
//! Liveness and readiness are deliberately distinct: `/healthz` answers
//! "is the process up" and is `200` from the moment the listener binds,
//! while `/readyz` answers "can this controller serve a plan" and stays
//! `503` through offline ticket generation and the first epoch. The flag
//! is process-global (one controller per process), so orchestrators can
//! point both probes at the same exporter.
//!
//! Anything else is `404`; non-GET methods are `405`. Requests are served
//! sequentially on one background thread (scrapes are rare and the
//! snapshot is cheap); each connection gets a short read timeout so a
//! stalled client cannot wedge the exporter. [`ExportHandle::shutdown`]
//! stops the thread deterministically; dropping the handle does the same.
//!
//! Deliberately omitted: TLS, authentication, POST/pushgateway flows,
//! HTTP keep-alive, and request routing beyond the three fixed paths.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::{metrics, Counter};

/// Per-connection socket timeout: a scrape that cannot send its request
/// line (or drain the response) within this window is dropped.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Maximum request head we are willing to buffer before answering.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Process-global readiness flag behind `/readyz`. False at startup;
/// flipped by [`set_ready`] once the controller has produced its first
/// successful plan (and back to false if it wants to shed load).
static READY: AtomicBool = AtomicBool::new(false);

/// Sets the process-global readiness flag served by `/readyz`.
pub fn set_ready(ready: bool) {
    READY.store(ready, Ordering::Release);
}

/// The current readiness flag, exactly as `/readyz` sees it.
pub fn ready() -> bool {
    READY.load(Ordering::Acquire)
}

static REQUESTS: Counter =
    Counter::new("obs.export.requests", "HTTP requests the exporter answered");
static ERRORS: Counter = Counter::new("obs.export.errors", "exporter connections that failed");

/// A running exporter. Keep it alive for as long as the endpoints should
/// be served; [`ExportHandle::shutdown`] (or drop) stops the listener
/// thread and joins it.
#[derive(Debug)]
pub struct ExportHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ExportHandle {
    /// The address actually bound (resolves port 0 to the assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and waits for it to exit. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            // The accept loop may be blocked; poke it with one throwaway
            // connection so it observes the stop flag promptly.
            let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
            let _ = thread.join();
        }
    }
}

impl Drop for ExportHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
/// the metrics endpoints from a background thread until the returned
/// handle is shut down or dropped.
pub fn spawn(addr: impl ToSocketAddrs) -> std::io::Result<ExportHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let thread = std::thread::Builder::new()
        .name("arrow-obs-export".to_string())
        .spawn(move || serve(listener, &stop_flag))?;
    crate::event!("obs.export.listening", "addr" => bound.to_string());
    Ok(ExportHandle { addr: bound, stop, thread: Some(thread) })
}

fn serve(listener: TcpListener, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match conn {
            Ok(stream) => {
                if handle_connection(stream).is_err() {
                    ERRORS.inc();
                }
            }
            Err(_) => ERRORS.inc(),
        }
    }
}

/// Reads the request head (up to the blank line or [`MAX_REQUEST_BYTES`])
/// and writes exactly one response.
fn handle_connection(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    let (status, content_type, body) = respond(&head);
    REQUESTS.inc();
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

/// Routes one request head to `(status line, content type, body)`.
fn respond(head: &[u8]) -> (&'static str, &'static str, String) {
    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .and_then(|l| std::str::from_utf8(l).ok())
        .unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    // Scrapers may append query strings (`/metrics?format=...`); route on
    // the path component only.
    let path = path.split('?').next().unwrap_or(path);
    if method != "GET" {
        return ("405 Method Not Allowed", "text/plain; charset=utf-8", "GET only\n".to_string());
    }
    match path {
        "/metrics" => (
            "200 OK",
            // The Prometheus text exposition content type (v0.0.4).
            "text/plain; version=0.0.4; charset=utf-8",
            metrics::snapshot().to_prometheus(),
        ),
        "/snapshot.json" => {
            ("200 OK", "application/json; charset=utf-8", metrics::snapshot().to_json())
        }
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        "/readyz" => {
            if ready() {
                ("200 OK", "text/plain; charset=utf-8", "ready\n".to_string())
            } else {
                (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "not ready: no successful plan yet\n".to_string(),
                )
            }
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "endpoints: /metrics /snapshot.json /healthz /readyz\n".to_string(),
        ),
    }
}

/// A blocking, `curl`-equivalent GET against `addr`, returning the raw
/// HTTP response as a string. Used by sweeps and tests to exercise the
/// exporter over a real socket without shelling out.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body_of(response: &str) -> &str {
        response.split("\r\n\r\n").nth(1).unwrap_or("")
    }

    #[test]
    fn serves_metrics_snapshot_and_health() {
        static HITS: Counter = Counter::new("test.export.hits", "test counter");
        HITS.add(3);
        let mut handle = spawn("127.0.0.1:0").expect("bind ephemeral port");
        let addr = handle.local_addr();

        let health = http_get(addr, "/healthz").expect("GET /healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert_eq!(body_of(&health), "ok\n");

        let prom = http_get(addr, "/metrics").expect("GET /metrics");
        assert!(prom.starts_with("HTTP/1.1 200 OK"));
        assert!(prom.contains("text/plain; version=0.0.4"));
        assert!(body_of(&prom).contains("test_export_hits 3"), "{prom}");

        let snap = http_get(addr, "/snapshot.json").expect("GET /snapshot.json");
        assert!(snap.contains("application/json"));
        let doc = crate::json::parse(body_of(&snap)).expect("snapshot body is valid JSON");
        assert!(
            doc.get("counters").and_then(|c| c.get("test.export.hits")).is_some(),
            "snapshot carries the counter"
        );
        handle.shutdown();
    }

    #[test]
    fn unknown_paths_404_and_non_get_405() {
        let handle = spawn("127.0.0.1:0").expect("bind");
        let addr = handle.local_addr();
        let missing = http_get(addr, "/nope").expect("GET /nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }

    #[test]
    fn readyz_tracks_the_readiness_flag() {
        // The flag is process-global; this is the only test that touches
        // it, so the 503 -> 200 -> 503 sequence below is race-free.
        let handle = spawn("127.0.0.1:0").expect("bind");
        let addr = handle.local_addr();

        set_ready(false);
        let starting = http_get(addr, "/readyz").expect("GET /readyz");
        assert!(starting.starts_with("HTTP/1.1 503"), "{starting}");
        assert!(body_of(&starting).contains("not ready"), "{starting}");
        // Liveness stays green the whole time.
        let health = http_get(addr, "/healthz").expect("GET /healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");

        set_ready(true);
        assert!(ready());
        let ok = http_get(addr, "/readyz").expect("GET /readyz");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert_eq!(body_of(&ok), "ready\n");

        // Readiness can be withdrawn (load shedding / re-offline).
        set_ready(false);
        let again = http_get(addr, "/readyz").expect("GET /readyz");
        assert!(again.starts_with("HTTP/1.1 503"), "{again}");
    }

    #[test]
    fn query_strings_route_on_path_only() {
        let handle = spawn("127.0.0.1:0").expect("bind");
        let ok = http_get(handle.local_addr(), "/metrics?format=prometheus").expect("GET");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let mut handle = spawn("127.0.0.1:0").expect("bind");
        let addr = handle.local_addr();
        handle.shutdown();
        handle.shutdown();
        // The listener is gone: a rebind on the same port must succeed.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port still held after shutdown");
    }

    #[test]
    fn exporter_counts_requests() {
        let before = metrics::snapshot().counter("obs.export.requests");
        let handle = spawn("127.0.0.1:0").expect("bind");
        let _ = http_get(handle.local_addr(), "/healthz").expect("GET");
        let _ = http_get(handle.local_addr(), "/metrics").expect("GET");
        assert!(metrics::snapshot().counter("obs.export.requests") >= before + 2);
    }

    #[test]
    fn a_connection_that_sends_nothing_counts_as_an_error() {
        let before = metrics::snapshot();
        let handle = spawn("127.0.0.1:0").expect("bind");
        let silent = TcpStream::connect(handle.local_addr()).expect("connect");
        std::thread::sleep(2 * IO_TIMEOUT);
        // Connections are served in order: this one is answered only after
        // the silent one timed out and was counted.
        let ok = http_get(handle.local_addr(), "/healthz").expect("GET");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        let after = metrics::snapshot();
        assert!(after.counter("obs.export.errors") > before.counter("obs.export.errors"));
        drop(silent);
    }
}
