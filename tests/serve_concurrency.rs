//! Deterministic concurrency tests for the service tier: N threads
//! rendezvous on a barrier and submit the *identical* job, and the
//! engine must (a) run the pipeline exactly once — asserted through the
//! instrumented execution counter, not timing — and (b) hand every
//! waiter a byte-identical result.
//!
//! The determinism comes from the engine's structure, not from sleeps:
//! single-flight makes concurrent arrivals followers of one leader, and
//! the leader's post-leadership result-cache double-check catches the
//! arrivals that slip in after a previous leader already finished. Both
//! paths are exercised here because the barrier releases threads into an
//! arbitrary scheduler interleaving.

use autoax::JobSpec;
use autoax::SearchAlgo;
use autoax_serve::client;
use autoax_serve::{EngineConfig, HttpLimits, JobEngine, JobRequest, Json, Served, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autoax-serve-it-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deliberately tiny—but valid—budget so a cold job takes seconds.
fn tiny_spec(seed: u64) -> JobSpec {
    JobSpec {
        strategy: SearchAlgo::Hill,
        max_evals: 150,
        train_configs: 12,
        test_configs: 8,
        final_eval_cap: 6,
        seed,
    }
}

fn request(tenant: &str, seed: u64) -> JobRequest {
    JobRequest {
        tenant: tenant.to_string(),
        workload: "sobel".to_string(),
        library: "tiny".to_string(),
        spec: tiny_spec(seed),
    }
}

fn wide_open_engine(label: &str, threads: usize) -> JobEngine {
    let mut cfg = EngineConfig::new(scratch(label));
    // Admission must never be the reason a thread fails these tests.
    cfg.global_jobs = threads.max(4);
    cfg.tenant_jobs = threads.max(4);
    JobEngine::new(cfg)
}

#[test]
fn identical_concurrent_jobs_execute_exactly_once() {
    let threads = 8;
    let engine = Arc::new(wide_open_engine("dedupe", threads));
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Every thread submits the same job under its own tenant:
                // dedupe is keyed on content, not on who asks.
                let req = request(&format!("tenant-{i}"), 42);
                barrier.wait();
                engine.submit(&req).expect("identical job must succeed")
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // The hard invariant: one pipeline execution, no matter how the
    // scheduler interleaved the eight submissions.
    assert_eq!(engine.executions(), 1, "exactly one pipeline execution");
    let computed = outcomes
        .iter()
        .filter(|o| o.served == Served::Computed)
        .count();
    assert_eq!(computed, 1, "exactly one submission computed");
    for o in &outcomes {
        assert!(
            matches!(
                o.served,
                Served::Computed | Served::Deduped | Served::Cached
            ),
            "unexpected service path"
        );
    }

    // Every waiter got the byte-identical result: same digest, same
    // encoded bytes.
    let reference = outcomes[0].result.encode();
    for o in &outcomes {
        assert_eq!(o.result.front_digest, outcomes[0].result.front_digest);
        assert_eq!(o.result.encode(), reference);
    }
    assert!(
        !outcomes[0].result.members.is_empty(),
        "a successful job carries front members"
    );

    // A later identical submission is answered from the result cache
    // without a new execution.
    let again = engine.submit(&request("latecomer", 42)).unwrap();
    assert_eq!(again.served, Served::Cached);
    assert_eq!(again.result.front_digest, outcomes[0].result.front_digest);
    assert_eq!(engine.executions(), 1);
}

#[test]
fn distinct_jobs_do_not_dedupe_and_seeds_change_results() {
    let threads = 3;
    let engine = Arc::new(wide_open_engine("distinct", threads));
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let req = request("shared-tenant", 100 + i as u64);
                barrier.wait();
                engine.submit(&req).expect("distinct jobs must all run")
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(engine.executions(), 3, "three distinct jobs, three runs");
    assert!(outcomes.iter().all(|o| o.served == Served::Computed));
    // Different seeds are different jobs; byte-equal fronts would point
    // at a key collision.
    let digests: std::collections::HashSet<u64> =
        outcomes.iter().map(|o| o.result.front_digest).collect();
    assert!(digests.len() > 1, "distinct seeds should differ somewhere");
}

#[test]
fn server_round_trip_dedupes_and_serves_identical_bytes() {
    let mut cfg = ServerConfig::on_loopback(scratch("server"));
    cfg.engine.global_jobs = 8;
    cfg.engine.tenant_jobs = 8;
    let server = autoax_serve::spawn(cfg).expect("bind loopback");
    let addr = server.addr();

    let job = Json::parse(
        r#"{"workload":"sobel","strategy":"hill","max_evals":150,
            "train_configs":12,"test_configs":8,"final_eval_cap":6,"seed":7}"#,
    )
    .unwrap();
    let distinct = Json::parse(
        r#"{"workload":"sobel","strategy":"hill","max_evals":150,
            "train_configs":12,"test_configs":8,"final_eval_cap":6,"seed":8}"#,
    )
    .unwrap();

    // Two identical submissions and one distinct, concurrently.
    let mut handles = Vec::new();
    for (tenant, body) in [("a", job.clone()), ("b", job.clone()), ("c", distinct)] {
        let body = body.clone();
        handles.push(std::thread::spawn(move || {
            client::submit_job(addr, tenant, &body).expect("submit")
        }));
    }
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &responses {
        assert_eq!(r.status, 200, "error: {:?}", r.error());
        assert!(r.front_digest().is_some(), "done trailer present");
    }
    let twin_a = responses[0].front_digest().unwrap();
    let twin_b = responses[1].front_digest().unwrap();
    let other = responses[2].front_digest().unwrap();
    assert_eq!(twin_a, twin_b, "identical jobs, identical digests");
    assert_ne!(twin_a, other, "distinct seed, distinct digest");

    // The engine behind the socket ran exactly two pipelines.
    assert_eq!(server.engine().executions(), 2);

    // Health and stats endpoints answer.
    let health = client::request(addr, "GET", "/health", &[], None).unwrap();
    assert_eq!(health.status, 200);
    let stats = client::request(addr, "GET", "/stats", &[], None).unwrap();
    assert_eq!(stats.status, 200);
    assert_eq!(
        stats.lines[0].get("executions").and_then(Json::as_f64),
        Some(2.0)
    );

    // A repeat after the fact is served from cache — still the same bytes.
    let repeat = client::submit_job(addr, "d", &job).unwrap();
    assert_eq!(repeat.served(), Some("cached"));
    assert_eq!(repeat.front_digest().unwrap(), twin_a);
    assert_eq!(server.engine().executions(), 2);

    server.stop();
    // A stopped server accepts no new connections.
    assert!(client::request(addr, "GET", "/health", &[], None).is_err());
}

/// Wire-level protocol robustness (satellite to the in-crate table test):
/// truncated bodies, oversize declarations, malformed JSON and unknown
/// routes each map to their typed status, and a mid-stream client
/// disconnect neither wedges the server nor leaks a job slot.
#[test]
fn wire_protocol_errors_and_disconnects_leave_the_server_healthy() {
    let cfg = ServerConfig::on_loopback(scratch("robust"));
    let max_body = HttpLimits::default().max_body_bytes;
    let server = autoax_serve::spawn(cfg).expect("bind loopback");
    let addr = server.addr();

    let raw = |payload: &str| -> u16 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(payload.as_bytes()).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        buf.split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0)
    };

    // Truncated body: declares 50 bytes, sends 4, closes.
    assert_eq!(
        raw("POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"wo"),
        400
    );
    // Declared body over the server's limit is refused before reading.
    assert_eq!(
        raw(&format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            max_body + 1
        )),
        413
    );
    // Malformed JSON in a complete body.
    assert_eq!(
        raw("POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"x\": 1,}"),
        400
    );
    // Missing Content-Length on a POST.
    assert_eq!(raw("POST /jobs HTTP/1.1\r\n\r\n"), 400);
    // Unknown route.
    assert_eq!(raw("GET /nope HTTP/1.1\r\n\r\n"), 404);
    // Not even HTTP.
    assert_eq!(raw("garbage\r\n\r\n"), 400);

    // Mid-stream disconnect: submit a real job and hang up immediately
    // without reading the response.
    let job = Json::parse(
        r#"{"workload":"sobel","strategy":"hill","max_evals":150,
            "train_configs":12,"test_configs":8,"final_eval_cap":6,"seed":9}"#,
    )
    .unwrap();
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let body = job.to_string();
        s.write_all(
            format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        // Dropped here: the server discovers the dead socket when it
        // writes the stream, and must simply clean up.
    }

    // The same job through a well-behaved client still completes —
    // either joining the abandoned run or reading its cached result —
    // and the server remains fully responsive afterwards.
    let resp = client::submit_job(addr, "after", &job).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.front_digest().is_some());
    assert_eq!(server.engine().executions(), 1, "one run served both");
    let health = client::request(addr, "GET", "/health", &[], None).unwrap();
    assert_eq!(health.status, 200);
    // The abandoned connection's permit is released when its handler
    // returns, which can trail our response by a scheduling beat.
    let settled = (0..200).any(|_| {
        if server.engine().running() == 0 {
            true
        } else {
            std::thread::sleep(std::time::Duration::from_millis(10));
            false
        }
    });
    assert!(settled, "job slots must drain after a client disconnect");
    server.stop();
}

/// Idle clients cannot starve the server: four connections that never
/// send a byte each hold a handler only until the per-read timeout, so a
/// fifth client is served and `stop` (which joins the handlers) returns,
/// each within that timeout plus two seconds. Every wait of the test is
/// bounded, so a server without the timeout fails it instead of hanging.
#[test]
fn idle_connections_time_out_and_leave_the_server_responsive() {
    use std::time::{Duration, Instant};
    // the server's per-read timeout plus two seconds
    let bound = Duration::from_secs(4);
    let server = autoax_serve::spawn(ServerConfig::on_loopback(scratch("idle"))).expect("bind");
    let addr = server.addr();
    let idle = || -> Vec<TcpStream> {
        (0..4)
            .map(|_| {
                let s = TcpStream::connect(addr).expect("connect an idle client");
                s.set_read_timeout(Some(bound)).unwrap();
                s
            })
            .collect()
    };
    // Four idle connections queue ahead of the probe and take every
    // handler; four more queue behind it, so the handlers hold idle
    // clients again when `stop` runs.
    let first = idle();
    let t0 = Instant::now();
    let mut probe = TcpStream::connect(addr).expect("connect the probe");
    probe.set_read_timeout(Some(bound)).unwrap();
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("send the probe");
    let second = idle();
    let mut reply = String::new();
    let _ = probe.read_to_string(&mut reply);
    assert!(
        reply.starts_with("HTTP/1.1 200"),
        "the probe got {reply:?} after {:?}",
        t0.elapsed()
    );
    assert!(t0.elapsed() < bound, "probe took {:?}", t0.elapsed());
    for mut s in first {
        let mut reply = String::new();
        let _ = s.read_to_string(&mut reply);
        assert!(
            reply.starts_with("HTTP/1.1 408"),
            "an idle client got {reply:?}"
        );
    }
    let (done, stopped) = std::sync::mpsc::channel();
    let t1 = Instant::now();
    let stopper = std::thread::spawn(move || {
        server.stop();
        let _ = done.send(());
    });
    assert!(
        stopped.recv_timeout(bound).is_ok(),
        "stop did not return within {bound:?}"
    );
    assert!(t1.elapsed() < bound);
    stopper.join().expect("the stopping thread");
    drop(second);
}
