//! The TCP front end: four connection-handler threads, each accepting
//! from one non-blocking listener and serving what it accepted.
//!
//! One connection = one request = one response (`Connection: close`);
//! job responses stream as NDJSON so a client sees accepted front
//! members as soon as the job resolves, without chunked encoding. A
//! connection that arrives while every handler is busy waits in the
//! kernel's listen backlog until one is free; a client that goes quiet
//! gets a `408` once a read has waited two seconds, so no idle
//! client holds a handler for longer.
//!
//! Shutdown is graceful and layered: cancelling the server's token stops
//! every handler from accepting, each finishes the connection it holds,
//! and the same token — shared with the engine — makes running pipelines
//! stop at their next stage/round boundary (surfacing as a `500
//! cancelled` to those clients, never a hung socket).

use crate::engine::{EngineConfig, JobEngine, JobOutcome, JobRequest, Served};
use crate::http::{read_request, write_error, write_head_with, HttpLimits, ProtocolError, Request};
use crate::json::{obj, Json};
use autoax::CancelToken;
use autoax_telemetry as telemetry;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection-handler threads: at most this many requests are served at
/// once.
const HANDLERS: usize = 4;

/// The longest one read of a request may wait. A client that connects
/// and goes quiet gets a 408 after this, so it holds a handler (and
/// [`ServerHandle::stop`], which joins the handlers) only this long per
/// read.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Server construction knobs.
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Wire-format limits.
    pub http: HttpLimits,
    /// Engine knobs.
    pub engine: EngineConfig,
}

impl ServerConfig {
    /// Loopback server on an OS-assigned port over `cache_dir`.
    pub fn on_loopback(cache_dir: impl Into<std::path::PathBuf>) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            http: HttpLimits::default(),
            engine: EngineConfig::new(cache_dir),
        }
    }
}

/// A running server: its address, engine handle and stop switch.
/// Dropping it stops the server.
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<JobEngine>,
    shutdown: CancelToken,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine, for instrumentation (execution counters, stats).
    pub fn engine(&self) -> &Arc<JobEngine> {
        &self.engine
    }

    /// Graceful stop: no new connections, accepted ones finish, running
    /// pipelines cancel at their next boundary. Blocks until every
    /// handler has returned and the listener is closed.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.cancel();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Binds and starts serving on a background acceptor thread.
///
/// # Errors
/// Propagates the bind failure.
pub fn spawn(cfg: ServerConfig) -> io::Result<ServerHandle> {
    // A service process is always subscribed: its whole point is to be
    // observed, and the per-event cost is noise next to socket IO.
    telemetry::set_metrics(true);
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let engine = Arc::new(JobEngine::new(cfg.engine));
    let shutdown = engine.shutdown_token();
    let acceptor = {
        let engine = Arc::clone(&engine);
        let shutdown = shutdown.clone();
        let http = cfg.http;
        std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || {
                let handle = |stream: TcpStream| handle_connection(stream, &engine, http);
                std::thread::scope(|s| {
                    for i in 0..HANDLERS {
                        std::thread::Builder::new()
                            .name(format!("serve-conn-{i}"))
                            .spawn_scoped(s, || serve_connections(&listener, &shutdown, &handle))
                            .expect("spawn a connection handler");
                    }
                });
                // The scope has joined every handler; the listener closes
                // as this thread returns.
            })?
    };
    Ok(ServerHandle {
        addr,
        engine,
        shutdown,
        acceptor: Some(acceptor),
    })
}

/// One handler thread: accepts a connection, serves it inline, and
/// repeats until `shutdown` fires. A panic in `handle` costs only the
/// connection it was serving; the thread goes on to the next.
fn serve_connections(
    listener: &TcpListener,
    shutdown: &CancelToken,
    handle: &(impl Fn(TcpStream) + Sync),
) {
    while !shutdown.is_cancelled() {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err()
                    || stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
                {
                    continue;
                }
                let _ = catch_unwind(AssertUnwindSafe(|| handle(stream)));
            }
            // `WouldBlock` (nothing to accept) and transient accept
            // failures alike: back off briefly, then re-check shutdown.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Request id for a connection: echo the client's `X-Request-Id` if it
/// sent a usable one (so ids correlate across proxies), otherwise mint a
/// process-unique `pid-sequence` id. No timestamps — ids must not
/// perturb determinism-sensitive code paths they get threaded through.
fn request_id(req: &Request) -> String {
    match req.header("x-request-id") {
        // Echoed ids go back out in a header and into NDJSON: cap them,
        // and take only visible ASCII, so a CR or any other control byte
        // can never start a header line of its own.
        Some(id) if (1..=128).contains(&id.len()) && id.bytes().all(|b| b.is_ascii_graphic()) => {
            id.to_string()
        }
        _ => {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            format!("{:08x}-{:08x}", std::process::id(), seq)
        }
    }
}

fn handle_connection(stream: TcpStream, engine: &Arc<JobEngine>, http: HttpLimits) {
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let request = match read_request(&mut reader, &http) {
        Ok(r) => r,
        Err(e) => {
            if telemetry::metrics_enabled() {
                telemetry::counter_with("autoax_serve_requests_total", &[("route", "malformed")])
                    .inc();
            }
            let _ = write_error(&mut writer, &e);
            return;
        }
    };
    let track = telemetry::metrics_enabled();
    let t0 = track.then(std::time::Instant::now);
    let id = request_id(&request);
    // Write failures past this point mean the client disconnected
    // mid-stream; the job itself already ran (or was joined) and its
    // slots were released by `submit` returning, so we just stop writing.
    let _ = route(&mut writer, engine, &request, &id);
    let _ = writer.flush();
    if let Some(t0) = t0 {
        let route_label = match request.path.as_str() {
            "/health" | "/healthz" | "/stats" | "/metrics" | "/jobs" => request.path.as_str(),
            _ => "other",
        };
        telemetry::counter_with("autoax_serve_requests_total", &[("route", route_label)]).inc();
        telemetry::histogram_with("autoax_serve_request_ns", &[("route", route_label)])
            .record(t0.elapsed().as_nanos() as u64);
    }
}

fn route(w: &mut impl Write, engine: &Arc<JobEngine>, req: &Request, id: &str) -> io::Result<()> {
    let rid = [("X-Request-Id", id)];
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") | ("GET", "/healthz") => {
            write_head_with(w, 200, "OK", "application/json", &rid)?;
            writeln!(w, "{}", obj([("status", Json::Str("ok".into()))]))
        }
        ("GET", "/metrics") => {
            write_head_with(w, 200, "OK", "text/plain; version=0.0.4", &rid)?;
            w.write_all(telemetry::render_prometheus().as_bytes())
        }
        ("GET", "/stats") => {
            let s = engine.stats();
            write_head_with(w, 200, "OK", "application/json", &rid)?;
            writeln!(
                w,
                "{}",
                obj([
                    ("executions", Json::Num(s.executions as f64)),
                    ("dedup_waits", Json::Num(s.dedup_waits as f64)),
                    ("result_cache_hits", Json::Num(s.result_cache_hits as f64)),
                    ("store_lru_hits", Json::Num(s.store.lru_hits as f64)),
                    ("store_disk_hits", Json::Num(s.store.disk_hits as f64)),
                    ("store_misses", Json::Num(s.store.misses as f64)),
                    ("running", Json::Num(engine.running() as f64)),
                ])
            )
        }
        ("POST", "/jobs") => match submit(engine, req, id) {
            Ok(outcome) => stream_outcome(w, &outcome, id),
            Err(e) => write_error(w, &e),
        },
        _ => write_error(w, &ProtocolError::NotFound),
    }
}

fn submit(engine: &Arc<JobEngine>, req: &Request, id: &str) -> Result<JobOutcome, ProtocolError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ProtocolError::BadJson("body is not UTF-8".to_string()))?;
    let body = Json::parse(text).map_err(|e| ProtocolError::BadJson(e.to_string()))?;
    let mut job = JobRequest::from_json(&body)?;
    if let Some(tenant) = req.header("x-tenant") {
        // The header wins over the body field: proxies set it.
        job.tenant = tenant.to_string();
    }
    let mut sp = telemetry::span("serve.job");
    sp.field("request_id", id);
    sp.field("tenant", &job.tenant);
    let outcome = engine.submit(&job);
    match &outcome {
        Ok(ok) => sp.field(
            "served",
            match ok.served {
                Served::Computed => "computed",
                Served::Deduped => "deduped",
                Served::Cached => "cached",
            },
        ),
        Err(e) => sp.field("error", e),
    }
    outcome
}

/// NDJSON job response: an `accepted` event, one line per front member,
/// a `done` trailer carrying the digest. Both lifecycle events carry the
/// request id so a multiplexed log can be re-threaded per request.
fn stream_outcome(w: &mut impl Write, outcome: &JobOutcome, id: &str) -> io::Result<()> {
    let served = match outcome.served {
        Served::Computed => "computed",
        Served::Deduped => "deduped",
        Served::Cached => "cached",
    };
    if telemetry::metrics_enabled() {
        telemetry::counter_with("autoax_serve_jobs_total", &[("served", served)]).inc();
    }
    write_head_with(
        w,
        200,
        "OK",
        "application/x-ndjson",
        &[("X-Request-Id", id)],
    )?;
    writeln!(
        w,
        "{}",
        obj([
            ("event", Json::Str("accepted".into())),
            ("request_id", Json::Str(id.into())),
            ("served", Json::Str(served.into())),
            ("members", Json::Num(outcome.result.members.len() as f64)),
        ])
    )?;
    for m in &outcome.result.members {
        writeln!(
            w,
            "{}",
            obj([
                ("qor", Json::Num(m.qor)),
                ("area", Json::Num(m.area)),
                ("energy", Json::Num(m.energy)),
                (
                    "genes",
                    Json::Arr(m.genes.iter().map(|&g| Json::Num(g as f64)).collect())
                ),
            ])
        )?;
    }
    writeln!(
        w,
        "{}",
        obj([
            ("event", Json::Str("done".into())),
            ("request_id", Json::Str(id.into())),
            (
                "front_digest",
                Json::Str(format!("{:016x}", outcome.result.front_digest))
            ),
            ("qor_metric", Json::Str(outcome.result.qor_metric.clone())),
        ])
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn a_panicking_handler_still_serves_the_next_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = CancelToken::new();
        let calls = AtomicUsize::new(0);
        let handle = |mut stream: TcpStream| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("handler panics on its first connection");
            }
            stream.write_all(b"served").unwrap();
        };
        let replies: Vec<String> = std::thread::scope(|s| {
            // One handler thread, so the two connections are served in
            // turn by the same thread.
            s.spawn(|| serve_connections(&listener, &shutdown, &handle));
            let replies = (0..2)
                .map(|_| {
                    let mut reply = String::new();
                    let mut client = TcpStream::connect(addr).unwrap();
                    // The panicking call drops its stream while
                    // unwinding, so the first read sees the close.
                    let _ = client.read_to_string(&mut reply);
                    reply
                })
                .collect();
            shutdown.cancel();
            replies
        });
        assert_eq!(replies, ["", "served"]);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }
}
