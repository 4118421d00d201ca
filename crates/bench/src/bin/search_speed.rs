//! Search-layer throughput: end-to-end candidate evaluations per second
//! for the hill climb and NSGA-II driving fitted random-forest models
//! over the paper-shaped Sobel study — the full propose → estimate →
//! insert cycle, with the kernel encoding each model runs on.
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin search_speed -- --scale default
//! ```
//!
//! CI runs the quick scale with two floors:
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin search_speed -- \
//!     --scale quick --assert-evals 150000 --assert-ratio 0.7
//! ```
//!
//! * `--assert-evals <n>` — minimum hill-climb evals/s (absolute floor;
//!   calibrate per box, CI uses a conservative value);
//! * `--assert-ratio <r>` — minimum NSGA-II/hill throughput ratio. Both
//!   strategies share the same estimation kernel, so this guards the
//!   strategy-side overhead (variation + rank/crowd selection) staying a
//!   small fraction of the round.
//!
//! The run also sweeps `SearchOptions::threads` over 1/2/4/8 and asserts
//! the hill front is **bit-identical** at every width (the determinism
//! contract: the thread count is a pure throughput knob). Per-phase
//! wall-clock (propose / estimate / insert) and the thread sweep land in
//! `bench_out/BENCH_pipeline.json` under `search_throughput`.

use autoax::evaluate::Evaluator;
use autoax::model::{fit_models, EvaluatedSet, ModelEstimator};
use autoax::preprocess::{preprocess, PreprocessOptions};
use autoax::search::{run_search, SearchTimings};
use autoax::{SearchAlgo, SearchOptions};
use autoax_accel::sobel::SobelEd;
use autoax_bench::{front_digest, num_arg, sobel_image_suite, write_bench_section, Json, Scale};
use autoax_circuit::charlib::build_library;
use autoax_ml::EngineKind;
use std::time::Instant;

/// One timed search: wall clock plus the per-phase counter delta. The
/// evals/s denominator is the phase layer's estimate counter — the rows
/// actually pushed through the models.
struct Run {
    evals_per_sec: f64,
    phases: SearchTimings,
    wall_s: f64,
    front_len: usize,
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
        phases,
        wall_s,
        front_len: front.len(),
        digest: front_digest(&front),
    }
}

fn strategy_json(label: &str, r: &Run) -> (String, Json) {
    (
        label.into(),
        Json::Obj(vec![
            ("evals_per_sec".into(), Json::Num(r.evals_per_sec)),
            ("estimates".into(), Json::int(r.phases.estimates)),
            ("wall_s".into(), Json::Num(r.wall_s)),
            ("propose_s".into(), Json::Num(r.phases.propose_s())),
            ("estimate_s".into(), Json::Num(r.phases.estimate_s())),
            ("insert_s".into(), Json::Num(r.phases.insert_s())),
            ("front".into(), Json::int(r.front_len as u64)),
            (
                "front_digest".into(),
                Json::Str(format!("{:016x}", r.digest)),
            ),
        ]),
    )
}

fn main() {
    // The throughput floors must hold *with the metrics registry
    // subscribed* — a hot loop that only meets its floor when telemetry
    // is compiled out would make the no-op-by-default claim vacuous.
    autoax_telemetry::set_metrics(true);
    let scale = Scale::from_args();
    let min_evals: Option<f64> = num_arg("assert-evals");
    let min_ratio: Option<f64> = num_arg("assert-ratio");
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
    let train_n = num_arg("train").unwrap_or(scale.model_budget().0);
    println!("fitting random-forest models on {train_n} configurations ...");
    let train = EvaluatedSet::generate(&evaluator, &pre.space, train_n, 1);
    let models = fit_models(EngineKind::RandomForest, &pre.space, &lib, &train, 42).expect("fit");
    let est = ModelEstimator::new(&models, &pre.space, &lib);
    let engines = est.engines();
    println!(
        "search budget: {max_evals} estimates per strategy (engines: qor={}, hw={})",
        engines.0, engines.1
    );

    let base = SearchOptions {
        max_evals,
        seed: 3,
        threads: 1,
        ..SearchOptions::default()
    };

    // Warm-up pass faults pages and compiles the forests' working set
    // into cache before anything is timed.
    let _ = measure(&pre.space, &est, &base);

    let hill = measure(&pre.space, &est, &base);
    let nsga2 = measure(
        &pre.space,
        &est,
        &SearchOptions {
            strategy: SearchAlgo::Nsga2,
            ..base
        },
    );
    let ratio = nsga2.evals_per_sec / hill.evals_per_sec;

    println!("\nsearch_speed ({} scale, threads=1)", scale.label());
    for (label, r) in [("hill", &hill), ("nsga2", &nsga2)] {
        println!(
            "  {label:<6} {:>9.0} evals/s  (propose {:.2}ms + estimate {:.2}ms + insert {:.2}ms, front {})",
            r.evals_per_sec,
            r.phases.propose_s() * 1e3,
            r.phases.estimate_s() * 1e3,
            r.phases.insert_s() * 1e3,
            r.front_len,
        );
    }
    println!("  nsga2/hill ratio: {ratio:.2}");

    // Thread-scaling sweep. The front must not move by a single bit —
    // islands are deterministic in isolation and merge in island order.
    let mut sweep = Vec::new();
    println!("\n  hill thread scaling:");
    for threads in [1usize, 2, 4, 8] {
        let r = measure(&pre.space, &est, &SearchOptions { threads, ..base });
        assert_eq!(
            r.digest, hill.digest,
            "threads={threads} changed the hill front (digest {:016x} != {:016x})",
            r.digest, hill.digest
        );
        println!(
            "    threads={threads}: {:>9.0} evals/s (front bit-identical)",
            r.evals_per_sec
        );
        sweep.push(Json::Obj(vec![
            ("threads".into(), Json::int(threads as u64)),
            ("evals_per_sec".into(), Json::Num(r.evals_per_sec)),
        ]));
    }

    write_bench_section(
        "search_throughput",
        &Json::Obj(vec![
            ("scale".into(), Json::Str(scale.label().into())),
            ("max_evals".into(), Json::int(max_evals as u64)),
            ("train_configs".into(), Json::int(train_n as u64)),
            (
                "engines".into(),
                Json::Arr(vec![
                    Json::Str(engines.0.into()),
                    Json::Str(engines.1.into()),
                ]),
            ),
            strategy_json("hill", &hill),
            strategy_json("nsga2", &nsga2),
            ("nsga2_hill_ratio".into(), Json::Num(ratio)),
            ("threads_scaling".into(), Json::Arr(sweep)),
        ]),
    );

    if let Some(min) = min_evals {
        assert!(
            hill.evals_per_sec >= min,
            "hill throughput regressed: {:.0} evals/s < required {min:.0}",
            hill.evals_per_sec
        );
        println!("hill evals/s floor {min:.0} satisfied");
    }
    if let Some(min) = min_ratio {
        assert!(
            ratio >= min,
            "nsga2/hill ratio regressed: {ratio:.2} < required {min:.2}"
        );
        println!("nsga2/hill ratio floor {min:.2} satisfied");
    }
}
