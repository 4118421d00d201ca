//! Search-layer gates on the quick Sobel workload: the tiny library, two
//! 96×64 benchmark images, random-forest models fitted on 60 real
//! evaluations, and a 20,000-estimate search at seed 3 on one thread.
//!
//! * [`hill_front_is_bit_identical_across_threads_and_telemetry`] — the
//!   worker count and the telemetry state are pure throughput knobs: the
//!   hill front must not move by one bit at 1/2/4/8 threads, with
//!   telemetry off, with metrics subscribed or with spans collected.
//! * [`search_throughput_floors`] — `#[ignore]`d because it times
//!   things; run it in release and alone:
//!
//!   ```sh
//!   cargo test --release --test search_gates -- --include-ignored --test-threads=1
//!   ```
//!
//!   With the metrics registry subscribed, the hill climb must sustain
//!   150,000 evals/s; NSGA-II must keep 0.70 of random sampling's
//!   throughput (both run the full-row gather kernel, so this bounds
//!   NSGA-II's variation and rank/crowd overhead); the hill climb must
//!   reach 1.5× random sampling's throughput (its rounds run the
//!   neighbour tables, so a hill that falls back to the full-row kernel
//!   fails); and metrics may cost at most 5% against telemetry off. Each
//!   gate decides on the median of interleaved repeats that alternate
//!   which side of a compared pair runs first, so one noisy sample on a
//!   shared machine cannot decide it.
//!
//! Throughput itself is measured by `dsebench` (`search.evals_per_s` in
//! its per-layer ledger); these tests only gate.

use autoax::evaluate::Evaluator;
use autoax::model::{fit_models, EvaluatedSet, FittedModels, ModelEstimator};
use autoax::preprocess::{preprocess, PreprocessOptions};
use autoax::search::{run_search, SearchTimings};
use autoax::{ConfigSpace, Configuration, ParetoFront, SearchAlgo, SearchOptions};
use autoax_accel::sobel::SobelEd;
use autoax_circuit::charlib::{build_library, ComponentLibrary, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_ml::EngineKind;
use autoax_telemetry as telemetry;
use std::sync::Mutex;
use std::time::Instant;

/// Both tests toggle the process-global telemetry flags and read the
/// process-global estimate counter; serialize them.
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static M: Mutex<()> = Mutex::new(());
    M.lock().unwrap_or_else(|e| e.into_inner())
}

struct Fixture {
    lib: ComponentLibrary,
    space: ConfigSpace,
    models: FittedModels,
}

impl Fixture {
    fn build() -> Fixture {
        let lib = build_library(&LibraryConfig::tiny());
        let accel = SobelEd::new();
        let images = benchmark_suite(2, 96, 64, 2019);
        let space = preprocess(&accel, &lib, &images, &PreprocessOptions::default())
            .expect("preprocess")
            .space;
        let evaluator = Evaluator::new(&accel, &lib, &space, &images);
        let train = EvaluatedSet::generate(&evaluator, &space, 60, 1);
        let models = fit_models(EngineKind::RandomForest, &space, &lib, &train, 42).expect("fit");
        Fixture { lib, space, models }
    }

    fn estimator(&self) -> ModelEstimator<'_> {
        ModelEstimator::new(&self.models, &self.space, &self.lib)
    }
}

fn hill() -> SearchOptions {
    SearchOptions {
        max_evals: 20_000,
        seed: 3,
        threads: 1,
        ..SearchOptions::default()
    }
}

/// The front as sorted `(qor bits, cost bits, genes)` rows: two fronts
/// have equal rows iff they are bit-identical.
fn rows(front: &ParetoFront<Configuration>) -> Vec<(u64, u64, Vec<u16>)> {
    let mut rows: Vec<_> = front
        .iter()
        .map(|(p, c)| (p.qor.to_bits(), p.cost.to_bits(), c.genes().to_vec()))
        .collect();
    rows.sort();
    rows
}

#[test]
fn hill_front_is_bit_identical_across_threads_and_telemetry() {
    let _g = guard();
    let fx = Fixture::build();
    let est = fx.estimator();
    telemetry::set_metrics(false);
    telemetry::set_tracing(false);
    let reference = rows(&run_search(&fx.space, &est, &hill()));
    assert!(!reference.is_empty(), "empty hill front");

    for (state, metrics, tracing) in [
        ("off", false, false),
        ("metrics", true, false),
        ("traced", true, true),
    ] {
        telemetry::set_metrics(metrics);
        telemetry::set_tracing(tracing);
        for threads in [1, 2, 4, 8] {
            let front = run_search(&fx.space, &est, &SearchOptions { threads, ..hill() });
            assert!(
                rows(&front) == reference,
                "telemetry {state}, threads={threads} changed the hill front"
            );
        }
    }
    telemetry::set_tracing(false);
    telemetry::set_metrics(false);
    let _ = telemetry::take_spans();
}

/// Timed repeats per gate; the medians decide.
const REPEATS: usize = 15;

/// One search with the metrics registry set to `metrics`: rows estimated
/// per wall-clock second.
fn evals_per_sec(
    fx: &Fixture,
    est: &ModelEstimator<'_>,
    opts: &SearchOptions,
    metrics: bool,
) -> f64 {
    telemetry::set_metrics(metrics);
    let before = SearchTimings::snapshot();
    let t0 = Instant::now();
    let front = run_search(&fx.space, est, opts);
    let wall_s = t0.elapsed().as_secs_f64();
    drop(front);
    SearchTimings::snapshot().since(&before).estimates as f64 / wall_s
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[ignore = "timing gate: run in release with --test-threads=1"]
fn search_throughput_floors() {
    let _g = guard();
    let fx = Fixture::build();
    let est = fx.estimator();
    // 60 training configs keep every tree within the table's 64 leaves
    assert_eq!(est.neighbour_tables(), (true, true));
    let with = |strategy| SearchOptions { strategy, ..hill() };
    // [hill with telemetry off, hill with metrics, NSGA-II with metrics,
    // random sampling with metrics]
    let sides = [
        (hill(), false),
        (hill(), true),
        (with(SearchAlgo::Nsga2), true),
        (with(SearchAlgo::Random), true),
    ];
    // One untimed pass per side faults pages and warms the caches.
    for (opts, metrics) in &sides {
        evals_per_sec(&fx, &est, opts, *metrics);
    }

    let (mut hill_eps, mut overhead) = (Vec::new(), Vec::new());
    let (mut nsga2_random, mut hill_random) = (Vec::new(), Vec::new());
    for rep in 0..REPEATS {
        // Forwards on even repeats, backwards on odd ones: each compared
        // pair (off/metrics, NSGA-II/random, hill/random) alternates
        // which runs first.
        let mut order = [0, 1, 2, 3];
        if rep % 2 == 1 {
            order.reverse();
        }
        let mut eps = [0.0; 4];
        for i in order {
            eps[i] = evals_per_sec(&fx, &est, &sides[i].0, sides[i].1);
        }
        hill_eps.push(eps[1]);
        overhead.push(1.0 - eps[1] / eps[0]);
        nsga2_random.push(eps[2] / eps[3]);
        hill_random.push(eps[1] / eps[3]);
    }
    telemetry::set_metrics(false);
    let (hill_eps, overhead) = (median(hill_eps), median(overhead));
    let (nsga2_random, hill_random) = (median(nsga2_random), median(hill_random));
    println!(
        "median of {REPEATS}: hill {hill_eps:.0} evals/s, nsga2/random {nsga2_random:.3}, \
         hill/random {hill_random:.3}, metrics overhead {:+.1}%",
        overhead * 100.0
    );

    assert!(
        hill_eps >= 150_000.0,
        "hill throughput {hill_eps:.0} evals/s is below the 150,000 floor"
    );
    assert!(
        nsga2_random >= 0.70,
        "nsga2/random throughput ratio {nsga2_random:.3} is below the 0.70 floor"
    );
    assert!(
        hill_random >= 1.5,
        "hill/random throughput ratio {hill_random:.3} is below the 1.5 floor: \
         is the hill climb off its neighbour tables?"
    );
    assert!(
        overhead <= 0.05,
        "metrics overhead {:.1}% exceeds the 5% budget",
        overhead * 100.0
    );
}
