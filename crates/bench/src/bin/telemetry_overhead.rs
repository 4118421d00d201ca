//! Telemetry overhead on the search hot loop: the same hill-climb
//! measurement as `search_speed`, run three times under different
//! subscription states:
//!
//! * `off` — telemetry disabled; every instrumentation site pays one
//!   relaxed atomic load and nothing else (the default for library
//!   users who never call [`autoax_telemetry::init_from_env`]);
//! * `metrics` — the metrics registry subscribed: phase histograms and
//!   the estimate counter record on every search round;
//! * `traced` — metrics plus span collection (what `AUTOAX_TRACE` turns
//!   on): strategy/pipeline spans are allocated and retained.
//!
//! The run asserts the front digest is identical across all three
//! states — observing a search must never change its result — and
//! records evals/s plus overhead percentages under the
//! `telemetry_overhead` section of `bench_out/BENCH_pipeline.json`.
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin telemetry_overhead -- --scale quick
//! ```
//!
//! `--assert-overhead <pct>` turns the subscribed-state overhead into a
//! CI floor: the run fails if `metrics` costs more than `pct` percent
//! of the `off` throughput.

use autoax::evaluate::Evaluator;
use autoax::model::{fit_models, EvaluatedSet, ModelEstimator};
use autoax::preprocess::{preprocess, PreprocessOptions};
use autoax::search::{run_search, SearchTimings};
use autoax::SearchOptions;
use autoax_accel::sobel::SobelEd;
use autoax_bench::{front_digest, num_arg, sobel_image_suite, write_bench_section, Json, Scale};
use autoax_circuit::charlib::build_library;
use autoax_ml::EngineKind;
use autoax_telemetry as telemetry;
use std::time::Instant;

struct Run {
    evals_per_sec: f64,
    digest: u64,
}

fn measure(space: &autoax::ConfigSpace, est: &ModelEstimator<'_>, opts: &SearchOptions) -> Run {
    let before = SearchTimings::snapshot();
    let t0 = Instant::now();
    let front = run_search(space, est, opts);
    let wall_s = t0.elapsed().as_secs_f64();
    let phases = SearchTimings::snapshot().since(&before);
    Run {
        evals_per_sec: phases.estimates as f64 / wall_s,
        digest: front_digest(&front),
    }
}

fn main() {
    let scale = Scale::from_args();
    let max_overhead_pct: Option<f64> = num_arg("assert-overhead");
    let max_evals = match scale {
        Scale::Quick => 20_000,
        Scale::Default => 100_000,
        Scale::Paper => 400_000,
    };

    println!("building library (scale {}) ...", scale.label());
    let lib = build_library(&scale.library_config());
    let accel = SobelEd::new();
    let images = sobel_image_suite(scale);
    let pre = preprocess(&accel, &lib, &images, &PreprocessOptions::default()).expect("preprocess");
    let evaluator = Evaluator::new(&accel, &lib, &pre.space, &images);
    let train_n = scale.model_budget().0;
    println!("fitting random-forest models on {train_n} configurations ...");
    let train = EvaluatedSet::generate(&evaluator, &pre.space, train_n, 1);
    let models = fit_models(EngineKind::RandomForest, &pre.space, &lib, &train, 42).expect("fit");
    let est = ModelEstimator::new(&models, &pre.space, &lib);

    let opts = SearchOptions {
        max_evals,
        seed: 3,
        threads: 1,
        ..SearchOptions::default()
    };

    // Warm-up, then best-of-3 per state so allocator/cache noise at the
    // quick scale doesn't masquerade as telemetry cost.
    let best = |space, est: &ModelEstimator<'_>, opts: &SearchOptions| {
        let mut best: Option<Run> = None;
        for _ in 0..3 {
            let r = measure(space, est, opts);
            if best
                .as_ref()
                .is_none_or(|b| r.evals_per_sec > b.evals_per_sec)
            {
                best = Some(r);
            }
        }
        best.expect("three runs")
    };

    telemetry::set_metrics(false);
    telemetry::set_tracing(false);
    let _ = measure(&pre.space, &est, &opts); // warm-up
    let off = best(&pre.space, &est, &opts);

    telemetry::set_metrics(true);
    let metrics = best(&pre.space, &est, &opts);

    telemetry::set_tracing(true);
    let traced = best(&pre.space, &est, &opts);
    telemetry::set_tracing(false);
    telemetry::set_metrics(false);
    let _ = telemetry::take_spans(); // this process has no trace consumer

    assert_eq!(
        off.digest, metrics.digest,
        "subscribing the metrics registry changed the search result"
    );
    assert_eq!(
        off.digest, traced.digest,
        "enabling span collection changed the search result"
    );

    let pct = |state: &Run| (1.0 - state.evals_per_sec / off.evals_per_sec) * 100.0;
    let metrics_pct = pct(&metrics);
    let traced_pct = pct(&traced);

    println!(
        "\ntelemetry_overhead ({} scale, hill, threads=1)",
        scale.label()
    );
    println!("  off      {:>9.0} evals/s", off.evals_per_sec);
    println!(
        "  metrics  {:>9.0} evals/s  ({:+.1}% vs off)",
        metrics.evals_per_sec, -metrics_pct
    );
    println!(
        "  traced   {:>9.0} evals/s  ({:+.1}% vs off)",
        traced.evals_per_sec, -traced_pct
    );
    println!(
        "  front digest identical across states: {:016x}",
        off.digest
    );

    write_bench_section(
        "telemetry_overhead",
        &Json::Obj(vec![
            ("scale".into(), Json::Str(scale.label().into())),
            ("max_evals".into(), Json::int(max_evals as u64)),
            ("evals_per_sec_off".into(), Json::Num(off.evals_per_sec)),
            (
                "evals_per_sec_metrics".into(),
                Json::Num(metrics.evals_per_sec),
            ),
            (
                "evals_per_sec_traced".into(),
                Json::Num(traced.evals_per_sec),
            ),
            ("metrics_overhead_pct".into(), Json::Num(metrics_pct)),
            ("traced_overhead_pct".into(), Json::Num(traced_pct)),
            (
                "front_digest".into(),
                Json::Str(format!("{:016x}", off.digest)),
            ),
        ]),
    );

    if let Some(max) = max_overhead_pct {
        assert!(
            metrics_pct <= max,
            "metrics overhead {metrics_pct:.1}% exceeds the {max:.1}% budget"
        );
        println!("metrics overhead budget {max:.1}% satisfied");
    }
}
