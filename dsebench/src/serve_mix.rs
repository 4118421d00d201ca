//! `serve_mix`: an in-process `autoax-serve` server on loopback over a
//! fresh sharded store, fed the seeded job schedule (see `schedule`) by
//! closed-loop clients — one per core, at most two. Set-up warms the
//! registry's library; the timed part builds no library and exercises
//! Step-2 real evaluations, store reads beside store writes, the result
//! cache, single-flight and the HTTP/JSON path under concurrency.

use crate::cold_sobel::check_library;
use crate::compose::{compose_library, compose_load_or_build, compose_pipeline, save_library};
use crate::ledger::Ledger;
use crate::report::Report;
use crate::schedule::{schedule, Job, JobKind};
use crate::{layer_metrics, machine, repeat_for, stats, tail_latency, Args, WorkDir};
use autoax::pipeline::PipelineOptions;
use autoax_circuit::charlib::LibraryConfig;
use autoax_serve::registry::{NamedWorkload, Registry, ResolvedJob};
use autoax_serve::{
    client, spawn, EngineConfig, EngineStats, JobEngine, JobRequest, Json, ProtocolError, Served,
    ServerConfig,
};
use autoax_store::{ShardedStore, Store};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Jobs per schedule pass; p90 then has 12 samples beyond it.
const JOBS: usize = 120;
/// Jobs of the serve probe the pipeline workloads' traced runs make.
const PROBE_JOBS: usize = 6;

/// How a submission came back: `(served, front digest)`, or whether it
/// was refused by admission control plus an error message.
type Outcome = Result<(&'static str, String), (bool, String)>;

/// One submission of a pass.
#[derive(Debug)]
struct JobRecord {
    /// Index into the schedule.
    job: usize,
    /// Submit-to-`done` latency.
    latency: f64,
    outcome: Outcome,
}

/// Closed-loop client threads: one per core, at most two.
fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn served_name(s: Served) -> &'static str {
    match s {
        Served::Computed => "computed",
        Served::Deduped => "deduped",
        Served::Cached => "cached",
    }
}

fn job_json(job: &Job) -> Json {
    Json::parse(&job.body()).expect("schedule bodies are valid JSON")
}

/// Runs `jobs` through `submit` from `clients` closed-loop threads (each
/// sends its next job once the previous one is done). Returns the pass
/// wall time and one record per job, in schedule order.
fn drive(
    jobs: &[Job],
    clients: usize,
    submit: &(dyn Fn(&Job, usize) -> Outcome + Sync),
) -> (f64, Vec<JobRecord>) {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(jobs.len()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for client in 0..clients {
            let (next, records) = (&next, &records);
            s.spawn(move || loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = jobs.get(job) else { break };
                let t = Instant::now();
                let outcome = submit(spec, client);
                let latency = t.elapsed().as_secs_f64();
                records.lock().expect("records lock").push(JobRecord {
                    job,
                    latency,
                    outcome,
                });
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|r| r.job);
    (wall, records)
}

/// A pass through the HTTP front end of a fresh server.
fn http_pass(work: &mut WorkDir, jobs: &[Job], clients: usize) -> (f64, Vec<JobRecord>) {
    let dir = work.fresh();
    let server = spawn(ServerConfig::on_loopback(&dir)).expect("bind a loopback server");
    let addr: SocketAddr = server.addr();
    let submit = move |job: &Job, client: usize| -> Outcome {
        match client::submit_job(addr, &format!("client-{client}"), &job_json(job)) {
            Ok(resp) if resp.status == 200 => {
                let served = match resp.served() {
                    Some("computed") => "computed",
                    Some("deduped") => "deduped",
                    Some("cached") => "cached",
                    other => return Err((false, format!("200 with served {other:?}"))),
                };
                match resp.front_digest() {
                    Some(d) => Ok((served, d.to_string())),
                    None => Err((false, "200 without a done event".to_string())),
                }
            }
            Ok(resp) => Err((
                resp.status == 429,
                format!("status {}: {}", resp.status, resp.error().unwrap_or("")),
            )),
            Err(e) => Err((false, format!("i/o: {e}"))),
        }
    };
    let out = drive(jobs, clients, &submit);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// A pass straight through `JobEngine::submit` of a fresh engine.
fn engine_pass(
    work: &mut WorkDir,
    jobs: &[Job],
    clients: usize,
) -> (f64, Vec<JobRecord>, EngineStats) {
    let dir = work.fresh();
    let engine = JobEngine::new(EngineConfig::new(&dir));
    let submit = |job: &Job, client: usize| -> Outcome {
        let mut req = JobRequest::from_json(&job_json(job)).map_err(|e| (false, e.to_string()))?;
        req.tenant = format!("client-{client}");
        match engine.submit(&req) {
            Ok(o) => Ok((
                served_name(o.served),
                format!("{:016x}", o.result.front_digest),
            )),
            Err(e) => Err((matches!(e, ProtocolError::Busy(_)), e.to_string())),
        }
    };
    let (wall, records) = drive(jobs, clients, &submit);
    let stats = engine.stats();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    (wall, records, stats)
}

/// Counts every record as one operation: it must be a 200 whose digest
/// equals the first digest seen for the same job descriptor.
fn check_pass(
    report: &mut Report,
    jobs: &[Job],
    records: &[JobRecord],
    digests: &mut HashMap<String, String>,
) {
    for r in records {
        let body = jobs[r.job].body();
        match &r.outcome {
            Ok((_, digest)) => {
                let first = digests
                    .entry(body.clone())
                    .or_insert_with(|| digest.clone());
                report.op(first == digest, || {
                    format!("job {body}: digest {digest}, first response had {first}")
                });
            }
            Err((_, e)) => report.op(false, || format!("job {body}: {e}")),
        }
    }
}

/// The engine layer of a traced engine pass: per-job latency by how the
/// job was served, the engine counters and the refusals.
fn trace_engine(
    led: &mut Ledger,
    jobs: &[Job],
    clients: usize,
    (wall, records, stats): &(f64, Vec<JobRecord>, EngineStats),
) {
    led.add_wall(*wall, clients);
    for r in records {
        let layer = match (&r.outcome, jobs[r.job].kind) {
            (Ok(("computed", _)), JobKind::Warm) => "serve.engine_warm_s",
            (Ok(("computed", _)), _) => "serve.engine_computed_s",
            (Ok(("cached", _)), _) => "serve.engine_cached_s",
            (Ok(_), _) => "serve.engine_deduped_s",
            (Err(_), _) => "serve.engine_failed_s",
        };
        led.record(layer, r.latency);
    }
    let refused = records
        .iter()
        .filter(|r| matches!(r.outcome, Err((true, _))))
        .count();
    led.count("serve.executions", stats.executions as f64);
    led.count("serve.result_cache_hits", stats.result_cache_hits as f64);
    led.count("serve.dedup_waits", stats.dedup_waits as f64);
    led.count("serve.refused", refused as f64);
}

/// The HTTP layer of a traced HTTP pass: its per-job latencies, and the
/// HTTP overhead as the median latency of result-cache hits over HTTP
/// minus the same through the engine alone.
fn trace_http(led: &mut Ledger, clients: usize, (wall, records): &(f64, Vec<JobRecord>)) {
    led.add_wall(*wall, clients);
    let mut cached = Vec::new();
    for r in records {
        led.record("serve.http_job_s", r.latency);
        if matches!(r.outcome, Ok(("cached", _))) {
            cached.push(r.latency);
        }
    }
    if let Some(engine_cached) = led.value("serve.engine_cached_s") {
        led.sample(
            "serve.http_overhead_s",
            stats::median(&cached) - engine_cached,
        );
    }
}

/// Warms the registry (library and images), as a server's first job
/// would.
fn warm_registry() -> ResolvedJob {
    Registry
        .resolve("sobel", "tiny")
        .expect("the registry knows sobel/tiny")
}

/// Runs the workload.
pub fn run(args: &Args, work: &mut WorkDir) -> Report {
    let mut report = Report::new("serve_mix", args.seed, args.trace);
    if args.trace {
        traced(args, work, &mut report);
        return report;
    }
    let t0 = Instant::now();
    warm_registry();
    let setup_s = t0.elapsed().as_secs_f64();

    let jobs = schedule(args.seed, JOBS);
    let clients = client_count();
    let mut digests = HashMap::new();
    let (mut walls, mut p50s, mut tails, mut done) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let mut what = String::new();
    repeat_for(args.seconds, 2, || {
        let (wall, records) = http_pass(work, &jobs, clients);
        check_pass(&mut report, &jobs, &records, &mut digests);
        let latencies: Vec<f64> = records.iter().map(|r| r.latency).collect();
        let tail;
        (tail, what) = tail_latency(&latencies);
        p50s.push(stats::median(&latencies));
        tails.push(tail);
        walls.push(wall);
        done += records.iter().filter(|r| r.outcome.is_ok()).count();
    });
    println!(
        "  ({} passes of {JOBS} jobs on {clients} clients, pass walls {walls:.3?} s; job_p90_s is the median over passes of {what})",
        walls.len()
    );
    report.metric("wall_s", stats::median(&walls), "s");
    report.metric("job_p50_s", stats::median(&p50s), "s");
    report.metric("job_p90_s", stats::median(&tails), "s");
    report.metric("jobs_per_s", done as f64 / walls.iter().sum::<f64>(), "1/s");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", machine::peak_rss_mb(), "MiB");
    report
}

/// The traced run. Sections, each counted into the ledger's coverage:
/// the class-by-class library (pinned against the registry's) and its
/// store round trip; untraced and traced engine passes alternating; one
/// HTTP pass; and the schedule's cold and warm jobs composed layer by
/// layer, each of which must reproduce the engine's digest.
fn traced(args: &Args, work: &mut WorkDir, report: &mut Report) {
    let reg = warm_registry();
    let cfg = LibraryConfig::tiny();
    let jobs = schedule(args.seed, JOBS);
    let clients = client_count();
    let mut digests = HashMap::new();
    let mut led = Ledger::default();

    let t0 = Instant::now();
    let lib = compose_library(&mut led, &cfg);
    let store = Store::new(work.fresh());
    save_library(&mut led, &reg.lib, &cfg, &store);
    let (loaded, hit) = compose_load_or_build(&mut led, &cfg, &store);
    led.end_section(t0);
    check_library(report, &lib, &reg.lib);
    let round_trip = crate::compose::first_library_difference(&loaded, &reg.lib);
    report.check(hit && round_trip.is_none(), || {
        format!("library store round trip: hit {hit}, first difference {round_trip:?}")
    });

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    repeat_for(args.seconds, 1, || {
        let pass = engine_pass(work, &jobs, clients);
        check_pass(report, &jobs, &pass.1, &mut digests);
        untraced.push(pass.0);
        let pass = engine_pass(work, &jobs, clients);
        check_pass(report, &jobs, &pass.1, &mut digests);
        traced.push(pass.0);
        trace_engine(&mut led, &jobs, clients, &pass);
    });
    let pass = http_pass(work, &jobs, clients);
    check_pass(report, &jobs, &pass.1, &mut digests);
    trace_http(&mut led, clients, &pass);

    let store = ShardedStore::with_defaults(work.fresh());
    let t0 = Instant::now();
    let mut composed = std::collections::HashSet::new();
    for job in jobs.iter().filter(|j| j.kind != JobKind::Repeat) {
        if !composed.insert(job.body()) {
            continue;
        }
        compose_job(&mut led, report, &reg, job, &store, &digests);
    }
    led.end_section(t0);

    let overhead = stats::median(&traced) / stats::median(&untraced) - 1.0;
    layer_metrics(report, &[&led], None, overhead);
}

/// One schedule job composed layer by layer against `store`: one
/// operation that must reproduce the engine's digest, warm exactly when
/// the job is a warm job.
fn compose_job(
    led: &mut Ledger,
    report: &mut Report,
    reg: &ResolvedJob,
    job: &Job,
    store: &ShardedStore,
    digests: &HashMap<String, String>,
) {
    let body = job.body();
    let req = JobRequest::from_json(&job_json(job)).expect("schedule jobs parse");
    let opts = req.spec.to_options(&PipelineOptions::quick());
    let resolved = Registry
        .resolve(job.workload, "tiny")
        .expect("schedule workloads are in the registry");
    let composed = match &resolved.workload {
        NamedWorkload::Sobel(w) => compose_pipeline(led, w, &reg.lib, &reg.images, &opts, store),
        NamedWorkload::Gaussian(w) => compose_pipeline(led, w, &reg.lib, &reg.images, &opts, store),
    };
    match composed {
        Ok(c) => {
            let digest = format!("{:016x}", c.digest);
            let engine = digests.get(&body);
            let warm = job.kind == JobKind::Warm;
            report.op(engine == Some(&digest) && c.warm == warm, || {
                format!(
                    "composed job {body}: digest {digest} vs engine {engine:?}, step-1/2 hit {} (expected {warm})",
                    c.warm
                )
            });
        }
        Err(e) => report.op(false, || format!("composed job {body}: {e}")),
    }
}

/// The serve layer measured for a pipeline workload's traced run, which
/// has no serving of its own: the first [`PROBE_JOBS`] jobs of this
/// seed's schedule on one client, through the engine and then over HTTP.
/// Its samples stay out of the workload's coverage.
pub fn probe(args: &Args, work: &mut WorkDir, report: &mut Report) -> Ledger {
    warm_registry();
    let jobs = schedule(args.seed, PROBE_JOBS);
    let mut digests = HashMap::new();
    let mut led = Ledger::default();
    let pass = engine_pass(work, &jobs, 1);
    check_pass(report, &jobs, &pass.1, &mut digests);
    trace_engine(&mut led, &jobs, 1, &pass);
    let pass = http_pass(work, &jobs, 1);
    check_pass(report, &jobs, &pass.1, &mut digests);
    trace_http(&mut led, 1, &pass);
    led
}
