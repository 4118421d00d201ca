//! Observability contract tests: telemetry must see everything and
//! change nothing.
//!
//! * the quickstart workload's pinned front digest must reproduce
//!   byte-identically with metrics *and* span collection fully enabled
//!   (the digest value is pinned in `workload_parity.rs`; this file
//!   re-asserts it under observation), and the search span must name
//!   each model's kernel;
//! * a traced library build records one span per class under one build
//!   span, with the class's demand-driven characterization count;
//! * a traced quickstart records one `evaluate.batch` span per batch of
//!   real evaluations, under the step that ran it;
//! * interleaved spans on multiple threads must always drain to a
//!   well-formed forest (property test);
//! * the service must expose `/healthz` and Prometheus `/metrics`, echo
//!   `X-Request-Id`, and thread the id through the NDJSON job events.

use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax_accel::sobel::SobelEd;
use autoax_circuit::charlib::{build_library, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_telemetry as telemetry;
use proptest::prelude::*;
use std::sync::Mutex;

/// Tests here toggle process-global telemetry flags and drain the global
/// span collector; serialize them.
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static M: Mutex<()> = Mutex::new(());
    M.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn quickstart_digest_is_byte_identical_with_telemetry_fully_enabled() {
    let _g = guard();
    let lib = build_library(&LibraryConfig::tiny());
    let images = benchmark_suite(4, 96, 64, 7);
    let accel = SobelEd::new();

    telemetry::set_metrics(true);
    telemetry::set_tracing(true);
    let res = run_pipeline(&accel, &lib, &images, &PipelineOptions::quick()).expect("pipeline");
    telemetry::set_tracing(false);
    telemetry::set_metrics(false);
    let spans = telemetry::take_spans();

    // Observation captured the run...
    for name in [
        "pipeline.run",
        "pipeline.step1.preprocess",
        "pipeline.step2.fit",
        "pipeline.step3.search",
        "search.hill",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "span `{name}` missing from the trace ({} spans)",
            spans.len()
        );
    }
    // ...the search span names the kernel each model ran: the quick RF
    // models bake mask32 with a neighbour table for the hill climb...
    let search = spans
        .iter()
        .find(|s| s.name == "pipeline.step3.search")
        .expect("search span");
    for (key, want) in [
        ("strategy", "hill"),
        ("qor_engine", "mask32"),
        ("hw_engine", "mask32"),
        ("qor_neighbour_table", "true"),
        ("hw_neighbour_table", "true"),
    ] {
        assert!(
            search.fields.iter().any(|(k, v)| *k == key && v == want),
            "search span lacks {key}={want}: {:?}",
            search.fields
        );
    }
    // ...and the exports of that capture are loadable.
    let json = telemetry::export_chrome_trace(&spans);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(!telemetry::export_folded(&spans).is_empty());

    // ...without perturbing a single byte of the result.
    assert_eq!(res.pseudo_front.len(), 65);
    assert_eq!(res.final_front.len(), 14);
    assert_eq!(
        res.front_digest(),
        0x252e_0c00_c843_33a4,
        "enabling telemetry changed the front digest"
    );
}

#[test]
fn traced_quickstart_records_each_real_evaluation_batch() {
    let _g = guard();
    let _ = telemetry::take_spans();
    let lib = build_library(&LibraryConfig::tiny());
    let images = benchmark_suite(4, 96, 64, 7);
    telemetry::set_tracing(true);
    let res = run_pipeline(&SobelEd::new(), &lib, &images, &PipelineOptions::quick()).unwrap();
    telemetry::set_tracing(false);
    let spans = telemetry::take_spans();

    let field = |s: &telemetry::SpanRecord, key: &str| -> usize {
        let (_, v) = s.fields.iter().find(|(k, _)| *k == key).expect("field");
        v.parse().expect("a count")
    };
    let batches_under = |parent: &str| -> Vec<(usize, usize)> {
        let parent = spans
            .iter()
            .find(|s| s.name == parent)
            .expect("parent span");
        let batches = spans.iter().filter(|s| s.name == "evaluate.batch");
        let mut under: Vec<_> = batches.filter(|s| s.parent == parent.id).collect();
        under.sort_by_key(|s| s.start_ns);
        under
            .iter()
            .map(|s| (field(s, "configs"), field(s, "compiled")))
            .collect()
    };
    let training = batches_under("pipeline.step2.training_data");
    let configs: Vec<usize> = training.iter().map(|&(n, _)| n).collect();
    assert_eq!(configs, [50, 30], "training and test batches");
    assert!(training[0].1 > 0, "the first batch compiles ops");
    let final_eval = batches_under("pipeline.step3b.final_eval");
    assert_eq!(final_eval.len(), 1);
    assert_eq!(final_eval[0].0, res.evaluated.len());
    let batches = spans.iter().filter(|s| s.name == "evaluate.batch").count();
    assert_eq!(batches, 3, "no other real-evaluation batch");

    assert_eq!(
        res.front_digest(),
        0x252e_0c00_c843_33a4,
        "tracing changed the front"
    );
}

#[test]
fn traced_library_build_records_one_span_per_class() {
    let _g = guard();
    let _ = telemetry::take_spans();
    let cfg = LibraryConfig::tiny();
    telemetry::set_tracing(true);
    let lib = build_library(&cfg);
    telemetry::set_tracing(false);
    let spans = telemetry::take_spans();

    let builds: Vec<_> = spans.iter().filter(|s| s.name == "charlib.build").collect();
    assert_eq!(builds.len(), 1, "one charlib.build span");
    let classes: Vec<_> = spans.iter().filter(|s| s.name == "charlib.class").collect();
    assert_eq!(classes.len(), 6, "one charlib.class span per paper class");
    let field = |s: &telemetry::SpanRecord, key: &str| -> String {
        let (_, v) = s.fields.iter().find(|(k, _)| *k == key).expect("field");
        v.clone()
    };
    for s in &classes {
        assert_eq!(s.parent, builds[0].id, "class span outside the build span");
        let sig = autoax_circuit::OpSignature::PAPER_CLASSES
            .into_iter()
            .find(|sig| sig.to_string() == field(s, "class"))
            .expect("class field names a paper class");
        let target = cfg.counts.for_signature(sig);
        assert_eq!(field(s, "target"), target.to_string());
        assert_eq!(field(s, "kept"), lib.class_size(sig).to_string());
        let characterized: usize = field(s, "characterized").parse().unwrap();
        assert!(characterized >= target, "{sig}: {characterized} < {target}");
        // Operand pairs simulated: every assignment of the exhaustive
        // classes (add8, add9, mul8), the fixed sample of the others.
        let per_candidate = if sig.input_bits() <= cfg.max_exhaustive_bits {
            1 << sig.input_bits()
        } else {
            cfg.char_samples
        };
        assert_eq!(
            field(s, "assignments"),
            (characterized * per_candidate).to_string(),
            "{sig}"
        );
    }
    // add9's round 0 holds 642 candidates; the class fills long before.
    let add9 = classes
        .iter()
        .find(|s| field(s, "class") == "add9")
        .unwrap();
    let characterized: usize = field(add9, "characterized").parse().unwrap();
    assert!(characterized < 642, "add9 characterized {characterized}");
}

/// Per-thread static span names, indexed `[thread][depth]`.
static NAMES: [[&str; 4]; 3] = [
    ["pt.a0", "pt.a1", "pt.a2", "pt.a3"],
    ["pt.b0", "pt.b1", "pt.b2", "pt.b3"],
    ["pt.c0", "pt.c1", "pt.c2", "pt.c3"],
];

fn open_nested(thread: usize, idx: usize, remaining: usize) {
    if remaining == 0 {
        return;
    }
    let _s = telemetry::span(NAMES[thread][idx]);
    std::thread::yield_now();
    open_nested(thread, idx + 1, remaining - 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Three threads interleave nested span open/close sequences of
    /// seed-chosen depths; the drained records must form a well-formed
    /// forest: parents exist, live on the same thread, opened before and
    /// closed after their children, and nest by the expected name chain.
    #[test]
    fn interleaved_threads_yield_a_well_formed_span_forest(seed in any::<u64>()) {
        let _g = guard();
        let _ = telemetry::take_spans(); // drop leftovers from other tests
        telemetry::set_tracing(true);
        let depths: Vec<usize> = (0..3).map(|t| 1 + ((seed >> (t * 2)) & 3) as usize).collect();
        let handles: Vec<_> = depths
            .iter()
            .enumerate()
            .map(|(t, &d)| std::thread::spawn(move || open_nested(t, 0, d)))
            .collect();
        for h in handles {
            h.join().expect("span thread");
        }
        telemetry::set_tracing(false);
        let spans: Vec<_> = telemetry::take_spans()
            .into_iter()
            .filter(|s| s.name.starts_with("pt."))
            .collect();
        prop_assert_eq!(spans.len(), depths.iter().sum::<usize>());
        for s in &spans {
            let t = NAMES.iter().position(|row| row.contains(&s.name)).unwrap();
            let d = NAMES[t].iter().position(|&n| n == s.name).unwrap();
            if d == 0 {
                prop_assert_eq!(s.parent, 0, "{} must be a thread root", s.name);
                continue;
            }
            let parent = spans
                .iter()
                .find(|p| p.id == s.parent)
                .expect("parent record present");
            prop_assert_eq!(parent.name, NAMES[t][d - 1], "wrong nesting for {}", s.name);
            prop_assert_eq!(parent.thread, s.thread, "parent crossed threads");
            prop_assert!(parent.start_ns <= s.start_ns, "parent opened after child");
            prop_assert!(
                parent.start_ns + parent.dur_ns >= s.start_ns + s.dur_ns,
                "parent closed before child"
            );
        }
    }
}

mod serve_obs {
    use super::guard;
    use autoax_serve::{client, Json, ServerConfig};
    use std::io::{Read, Write};

    fn job_body(seed: u64) -> Json {
        autoax_serve::json::obj([
            ("workload", Json::Str("sobel".into())),
            ("library", Json::Str("tiny".into())),
            ("strategy", Json::Str("hill".into())),
            ("max_evals", Json::Num(200.0)),
            ("train_configs", Json::Num(12.0)),
            ("test_configs", Json::Num(8.0)),
            ("final_eval_cap", Json::Num(6.0)),
            ("seed", Json::Num(seed as f64)),
        ])
    }

    #[test]
    fn service_exposes_healthz_metrics_and_request_ids() {
        let _g = guard();
        let dir = std::env::temp_dir().join(format!("autoax-obs-test-{}", std::process::id()));
        let server = autoax_serve::spawn(ServerConfig::on_loopback(&dir)).expect("spawn");
        let addr = server.addr();

        let health = client::request(addr, "GET", "/healthz", &[], None).expect("healthz");
        assert_eq!(health.status, 200);

        // Supplied request id: echoed in the header and both NDJSON
        // lifecycle events.
        let resp = client::request(
            addr,
            "POST",
            "/jobs",
            &[("x-tenant", "t"), ("x-request-id", "rid-1")],
            Some(&job_body(5)),
        )
        .expect("job");
        assert_eq!(resp.status, 200, "{:?}", resp.error());
        assert_eq!(resp.header("x-request-id"), Some("rid-1"));
        for event in ["accepted", "done"] {
            assert_eq!(
                resp.event(event)
                    .and_then(|e| e.get("request_id"))
                    .and_then(Json::as_str),
                Some("rid-1"),
                "`{event}` event lacks the request id"
            );
        }

        // No id supplied: the server mints a non-empty one.
        let resp2 = client::submit_job(addr, "t", &job_body(5)).expect("repeat");
        assert_eq!(resp2.served(), Some("cached"));
        let minted = resp2.header("x-request-id").expect("generated id");
        assert!(!minted.is_empty() && minted != "rid-1");

        // Prometheus exposition with the traffic above on the counters.
        let text = {
            let mut s = std::net::TcpStream::connect(addr).expect("connect");
            s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .expect("send");
            let mut buf = String::new();
            s.read_to_string(&mut buf).expect("read");
            buf
        };
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.contains("# TYPE autoax_serve_jobs_total counter"));
        assert!(text.contains("autoax_serve_jobs_total{served=\"cached\"} 1"));
        assert!(text.contains("autoax_serve_requests_total"));
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
