//! The daemon's TCP front-end: a std-only, non-blocking readiness loop.
//!
//! One reactor thread owns the listener and every connection. Sockets
//! are non-blocking; the loop accepts, reads whatever bytes are
//! available, processes complete NDJSON lines (plus one-shot HTTP
//! `GET /metrics` scrapes on the same port), pumps `subscribe`
//! streams from the campaign event logs, and flushes write buffers —
//! then dozes [`crate::config::poll_interval`] when nothing moved. No
//! async runtime, no epoll: at daemon scale (a handful of clients and
//! log files) a poll loop is simpler and portable.

use crate::config::{poll_interval, DaemonConfig};
use crate::protocol::{error_line, line, ok_doc, subscribe_end_line, Request};
use crate::state::{disk_terminal_status, DaemonCore, SubmitReceipt};
use crate::watch::poll_event_logs;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gnnunlock_engine::Json;

/// A running campaign-as-a-service daemon: reactor + executor thread
/// over a [`DaemonCore`].
pub struct Daemon {
    core: Arc<DaemonCore>,
    addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
    worker: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Bind the configured address, spawn the executor thread and the
    /// reactor, and return the live daemon. `addr()` carries the
    /// resolved address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn start(cfg: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let core = DaemonCore::new(cfg);
        let worker = core.spawn_worker();
        let reactor = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("gnnunlockd-reactor".to_string())
                .spawn(move || reactor_loop(listener, core))
                .expect("spawn daemon reactor")
        };
        Ok(Daemon {
            core,
            addr,
            reactor: Some(reactor),
            worker: Some(worker),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The transport-independent state machine (in-process clients).
    pub fn core(&self) -> &Arc<DaemonCore> {
        &self.core
    }

    /// Block until a `shutdown` request drains the daemon, then join
    /// every thread.
    pub fn wait(mut self) {
        self.core.wait_drained();
        self.join_threads();
    }

    /// Initiate the graceful drain (as the `shutdown` op would) and
    /// block until every queued campaign finished and every thread
    /// exited.
    pub fn stop(mut self) {
        self.core.shutdown();
        self.core.wait_drained();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Best-effort drain if the owner forgot to stop() — never hang
        // a panicking test on a live reactor.
        self.core.shutdown();
        self.join_threads();
    }
}

/// Largest request line accepted before the connection is dropped: no
/// legal request (submissions included) comes anywhere near this, so
/// anything bigger is a peer flooding bytes without a newline.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Write-buffer high-water mark: past this many pending bytes the
/// connection stops generating output (subscription pumping and request
/// processing pause) until the peer drains its socket, so a slow or
/// stalled reader cannot grow `wbuf` without bound.
const WBUF_HIGH_WATER: usize = 256 * 1024;

/// How long a subscription to a campaign the registry does not know
/// (a prior-life directory) may stay silent with no terminal marker
/// before the daemon ends the stream instead of polling forever — the
/// prior daemon died mid-campaign and nobody is appending logs.
const SUBSCRIBE_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Streaming state of a `subscribe`d connection.
struct Stream {
    id: String,
    dir: PathBuf,
    cursors: BTreeMap<PathBuf, u64>,
    /// Last time the stream consumed a line (or was created).
    idle_since: Instant,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    subscription: Option<Stream>,
    close_after_flush: bool,
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            subscription: None,
            close_after_flush: false,
            closed: false,
        }
    }

    /// One service pass: read, process lines, pump the subscription,
    /// flush. Returns whether anything happened (for the idle doze).
    fn pump(&mut self, core: &DaemonCore) -> bool {
        let mut activity = false;
        activity |= self.fill_read_buffer();
        activity |= self.process_lines(core);
        activity |= self.pump_subscription(core);
        activity |= self.flush();
        activity
    }

    fn fill_read_buffer(&mut self) -> bool {
        if self.close_after_flush || self.wbuf.len() >= WBUF_HIGH_WATER {
            // Draining out, or the peer is not reading its responses:
            // stop taking bytes (backpressure) — `rbuf` and `wbuf` both
            // stay bounded.
            return false;
        }
        let mut any = false;
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed its write side; serve what we have,
                    // then drop the connection once flushed.
                    self.close_after_flush = true;
                    return any;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    any = true;
                    if self.rbuf.len() > MAX_REQUEST_LINE {
                        if self.rbuf.contains(&b'\n') {
                            // A pipelined burst: drain the complete
                            // lines before reading further.
                            return any;
                        }
                        // One "line" larger than any legal request:
                        // reject it and drop the peer.
                        self.rbuf.clear();
                        self.wbuf
                            .extend_from_slice(error_line("request line too long").as_bytes());
                        self.close_after_flush = true;
                        return any;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return any,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    return any;
                }
            }
        }
    }

    fn process_lines(&mut self, core: &DaemonCore) -> bool {
        let mut any = false;
        loop {
            if self.wbuf.len() >= WBUF_HIGH_WATER {
                // Response backlog: leave the remaining requests in
                // `rbuf` until the peer drains what it already owes us.
                return any;
            }
            let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') else {
                return any;
            };
            let raw: Vec<u8> = self.rbuf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&raw[..raw.len() - 1]);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            any = true;
            if self.subscription.is_some() {
                // A streaming connection is output-only.
                continue;
            }
            if let Some(path) = text.strip_prefix("GET ") {
                // A plain HTTP scraper (curl, Prometheus): answer the
                // one request, ignore the header lines still buffered,
                // and close — the daemon speaks HTTP/1.0-style
                // one-shot responses, never keep-alive.
                let path = path.split_whitespace().next().unwrap_or("");
                self.wbuf.extend_from_slice(http_response(path).as_bytes());
                self.rbuf.clear();
                self.close_after_flush = true;
                return any;
            }
            let response = self.handle(core, text);
            self.wbuf.extend_from_slice(response.as_bytes());
        }
    }

    fn handle(&mut self, core: &DaemonCore, text: &str) -> String {
        match Request::parse(text) {
            Err(e) => error_line(&e),
            Ok(Request::Submit(submission)) => match core.submit(submission) {
                Ok(SubmitReceipt {
                    id,
                    status,
                    deduped,
                }) => line(&ok_doc(
                    "submit",
                    vec![
                        ("id", Json::Str(id)),
                        ("status", Json::Str(status.as_str().to_string())),
                        ("deduped", Json::Bool(deduped)),
                    ],
                )),
                Err(e) => error_line(&e),
            },
            Ok(Request::Status(id)) => match core.status_doc(id.as_deref()) {
                Ok(doc) => {
                    let Json::Obj(fields) = doc else {
                        unreachable!("status_doc returns objects")
                    };
                    line(&ok_doc(
                        "status",
                        fields
                            .iter()
                            .map(|(k, v)| (k.as_str(), v.clone()))
                            .collect(),
                    ))
                }
                Err(e) => error_line(&e),
            },
            Ok(Request::Report(id)) => match core.report_text(&id) {
                Ok(text) => line(&ok_doc(
                    "report",
                    vec![("id", Json::Str(id)), ("report", Json::Str(text))],
                )),
                Err(e) => error_line(&e),
            },
            Ok(Request::Cancel(id)) => match core.cancel(&id) {
                Ok(status) => line(&ok_doc(
                    "cancel",
                    vec![
                        ("id", Json::Str(id)),
                        ("status", Json::Str(status.as_str().to_string())),
                    ],
                )),
                Err(e) => error_line(&e),
            },
            Ok(Request::Subscribe(id)) => {
                let dir = core.campaign_dir(&id);
                if core.status_of(&id).is_none() && !dir.is_dir() {
                    return error_line(&format!("unknown campaign id '{id}'"));
                }
                self.subscription = Some(Stream {
                    id: id.clone(),
                    dir,
                    cursors: BTreeMap::new(),
                    idle_since: Instant::now(),
                });
                line(&ok_doc("subscribe", vec![("id", Json::Str(id))]))
            }
            Ok(Request::Metrics) => line(&ok_doc(
                "metrics",
                vec![(
                    "metrics",
                    Json::Str(gnnunlock_telemetry::Registry::global().render_prometheus()),
                )],
            )),
            Ok(Request::Shutdown) => {
                core.shutdown();
                line(&ok_doc("shutdown", vec![]))
            }
        }
    }

    fn pump_subscription(&mut self, core: &DaemonCore) -> bool {
        if self.subscription.is_none() || self.wbuf.len() >= WBUF_HIGH_WATER {
            // No stream, or a slow reader hit the high-water mark:
            // leave the log cursors where they are until the backlog
            // drains.
            return false;
        }
        let sub = self.subscription.as_mut().expect("checked above");
        // Terminal-before-tail ordering: every log append happens
        // before the worker marks the campaign terminal (registry
        // status or on-disk marker), so observing "terminal" first and
        // then draining zero lines proves the stream is complete.
        let registered = core.status_of(&sub.id);
        let terminal = match registered {
            Some(status) => status.is_terminal().then_some(status),
            // Known only on disk (previous daemon life, or evicted from
            // the registry).
            None => disk_terminal_status(&sub.dir),
        };
        let wbuf = &mut self.wbuf;
        let consumed = poll_event_logs(&sub.dir, &mut sub.cursors, |l| {
            wbuf.extend_from_slice(l.as_bytes());
            wbuf.push(b'\n');
        })
        .unwrap_or(0);
        if consumed > 0 {
            sub.idle_since = Instant::now();
            return true;
        }
        if let Some(status) = terminal {
            self.wbuf
                .extend_from_slice(subscribe_end_line(&sub.id, status.as_str()).as_bytes());
            self.subscription = None;
            self.close_after_flush = true;
            return true;
        }
        if registered.is_none() && sub.idle_since.elapsed() >= SUBSCRIBE_IDLE_TIMEOUT {
            // A prior-life directory that never reaches a terminal
            // marker (the previous daemon died mid-campaign and nothing
            // is appending): end the stream rather than poll forever.
            self.wbuf
                .extend_from_slice(subscribe_end_line(&sub.id, "unknown").as_bytes());
            self.subscription = None;
            self.close_after_flush = true;
            return true;
        }
        false
    }

    fn flush(&mut self) -> bool {
        let mut any = false;
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => {
                    self.closed = true;
                    return any;
                }
                Ok(n) => {
                    self.wbuf.drain(..n);
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return any,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    return any;
                }
            }
        }
        if self.close_after_flush && self.subscription.is_none() {
            self.closed = true;
        }
        any
    }
}

/// Render the one-shot HTTP response for `path`. `/metrics` serves the
/// process-wide registry in Prometheus text format (0.0.4); anything
/// else is a 404 pointing the caller at the right path.
fn http_response(path: &str) -> String {
    let (status, content_type, body) = if path == "/metrics" {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            gnnunlock_telemetry::Registry::global().render_prometheus(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found (try /metrics)\n".to_string(),
        )
    };
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn reactor_loop(listener: TcpListener, core: Arc<DaemonCore>) {
    let idle = poll_interval();
    let mut conns: Vec<Conn> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let mut activity = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        conns.push(Conn::new(stream));
                        activity = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        for conn in &mut conns {
            activity |= conn.pump(&core);
        }
        conns.retain(|c| !c.closed);
        if core.is_drained() {
            // Give in-flight responses a moment to flush, then exit.
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(2));
            let flushed = conns.iter().all(|c| c.wbuf.is_empty());
            if (flushed && !activity) || Instant::now() >= deadline {
                return;
            }
        }
        if !activity {
            std::thread::sleep(idle);
        }
    }
}
