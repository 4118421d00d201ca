//! Cross-crate integration tests: the full methodology exercised end to
//! end on real (tiny-scale) substrates — library generation, profiling,
//! model fitting, Algorithm 1, real evaluation, final Pareto filtering.

use autoax::evaluate::Evaluator;
use autoax::model::{fidelity_report, fit_models, naive_models, EvaluatedSet};
use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax::preprocess::{preprocess, PreprocessOptions};
use autoax::search::{run_search, uniform_selection, ConfigSlice, Estimator};
use autoax::TradeoffPoint;
use autoax_accel::gaussian_fixed::FixedGaussian;
use autoax_accel::gaussian_generic::GenericGaussian;
use autoax_accel::sobel::SobelEd;
use autoax_accel::Accelerator;
use autoax_circuit::charlib::{build_library, ComponentLibrary, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_image::GrayImage;
use autoax_ml::forest::RandomForest;
use autoax_ml::{CompiledForest, EngineKind};
use std::sync::mpsc::{self, TryRecvError};

fn tiny_lib() -> ComponentLibrary {
    build_library(&LibraryConfig::tiny())
}

fn images() -> Vec<GrayImage> {
    benchmark_suite(2, 64, 48, 9)
}

#[test]
fn pipeline_smoke_quick_tiny() {
    // The fastest meaningful end-to-end run: quick budgets on the tiny
    // library must yield a non-empty final front and a sane fidelity
    // report (fidelity is a probability of order agreement, so in [0, 1]).
    let lib = tiny_lib();
    let imgs = images();
    let res = run_pipeline(&SobelEd::new(), &lib, &imgs, &PipelineOptions::quick())
        .expect("quick pipeline on tiny library");
    assert!(!res.final_front.is_empty(), "final Pareto front is empty");
    let f = &res.fidelity;
    for (name, v) in [
        ("qor_train", f.qor_train),
        ("qor_test", f.qor_test),
        ("hw_train", f.hw_train),
        ("hw_test", f.hw_test),
    ] {
        assert!(
            (0.0..=1.0).contains(&v),
            "fidelity {name} out of [0,1]: {v}"
        );
    }
}

#[test]
fn full_pipeline_on_all_three_accelerators() {
    let lib = tiny_lib();
    let imgs = images();
    let accels: Vec<Box<dyn Accelerator>> = vec![
        Box::new(SobelEd::new()),
        Box::new(FixedGaussian::new()),
        Box::new(GenericGaussian::with_sweep(2)),
    ];
    for accel in accels {
        let res = run_pipeline(accel.as_ref(), &lib, &imgs, &PipelineOptions::quick())
            .unwrap_or_else(|e| panic!("{}: {e}", accel.name()));
        // Table 5 shape: each stage shrinks the candidate set.
        let (full, reduced, pseudo, final_n) = res.space_sizes_log10();
        assert!(full > reduced, "{}", accel.name());
        assert!((pseudo as f64) < 10f64.powf(reduced), "{}", accel.name());
        assert!(final_n >= 1, "{}", accel.name());
        // The final front reaches SSIM 1.0 (the exact design is included).
        let best = res
            .final_front
            .iter()
            .map(|m| m.qor)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (best - 1.0).abs() < 1e-9,
            "{}: best SSIM {best}",
            accel.name()
        );
        // Trade-off sanity: the cheapest front member costs less than the
        // most accurate one.
        let cheapest = res
            .final_front
            .iter()
            .map(|m| m.area)
            .fold(f64::INFINITY, f64::min);
        let exact_area = res
            .final_front
            .iter()
            .find(|m| (m.qor - 1.0).abs() < 1e-9)
            .map(|m| m.area)
            .unwrap();
        assert!(cheapest < exact_area, "{}", accel.name());
    }
}

#[test]
fn real_evaluation_orders_aggressiveness() {
    // More approximate circuits (higher WMED members) should cost less
    // area and lose SSIM versus the exact configuration.
    let lib = tiny_lib();
    let imgs = images();
    let accel = FixedGaussian::new();
    let pre = preprocess(&accel, &lib, &imgs, &PreprocessOptions::default()).expect("preprocess");
    let ev = Evaluator::new(&accel, &lib, &pre.space, &imgs);
    let exact = ev.evaluate(&pre.space.exact());
    assert!((exact.qor - 1.0).abs() < 1e-9);
    let worst = autoax::Configuration::from_genes(
        pre.space.sizes().iter().map(|&n| (n - 1) as u16).collect(),
    );
    let w = ev.evaluate(&worst);
    assert!(w.qor < exact.qor);
    assert!(w.hw.area < exact.hw.area);
    assert!(w.hw.energy < exact.hw.energy);
}

#[test]
fn model_estimates_rank_real_evaluations() {
    let lib = tiny_lib();
    let imgs = images();
    let accel = SobelEd::new();
    let pre = preprocess(&accel, &lib, &imgs, &PreprocessOptions::default()).expect("preprocess");
    let ev = Evaluator::new(&accel, &lib, &pre.space, &imgs);
    let train = EvaluatedSet::generate(&ev, &pre.space, 60, 1);
    let test = EvaluatedSet::generate(&ev, &pre.space, 30, 2);
    let models = fit_models(EngineKind::RandomForest, &pre.space, &lib, &train, 42).unwrap();
    let rep = fidelity_report(&models, &pre.space, &lib, &train, &test).unwrap();
    assert!(rep.qor_test > 0.6, "{rep:?}");
    assert!(rep.hw_test > 0.6, "{rep:?}");
    // naive models work but are not dramatically better (Table 3 shape is
    // asserted statistically in the bench binaries; here only sanity).
    let naive = naive_models(&pre.space);
    let nrep = fidelity_report(&naive, &pre.space, &lib, &train, &test).unwrap();
    assert!(nrep.qor_test > 0.5, "{nrep:?}");
}

#[test]
fn uniform_selection_spans_quality_range() {
    let lib = tiny_lib();
    let imgs = images();
    let accel = SobelEd::new();
    let pre = preprocess(&accel, &lib, &imgs, &PreprocessOptions::default()).expect("preprocess");
    let ev = Evaluator::new(&accel, &lib, &pre.space, &imgs);
    let configs = uniform_selection(&pre.space, 6);
    assert!(configs.len() >= 2);
    let evals = ev.evaluate_batch(&configs);
    let first = &evals[0];
    let last = evals.last().unwrap();
    // level 0 = all-exact-ish, last level = most approximate
    assert!(first.qor > last.qor);
    assert!(first.hw.area > last.hw.area);
}

#[test]
fn hardware_netlists_of_configurations_are_simulable() {
    // Compose HW netlists for random configurations of every accelerator
    // and check they synthesize to positive costs.
    let lib = tiny_lib();
    let imgs = images();
    let accels: Vec<Box<dyn Accelerator>> = vec![
        Box::new(SobelEd::new()),
        Box::new(FixedGaussian::new()),
        Box::new(GenericGaussian::with_sweep(2)),
    ];
    for accel in accels {
        let pre = preprocess(accel.as_ref(), &lib, &imgs, &PreprocessOptions::default())
            .expect("preprocess");
        let ev = Evaluator::new(accel.as_ref(), &lib, &pre.space, &imgs);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..3 {
            let c = pre.space.random(&mut rng);
            let hw = ev.evaluate_hw(&c);
            assert!(hw.area > 0.0, "{}", accel.name());
            assert!(hw.delay > 0.0, "{}", accel.name());
            assert!(hw.cells > 10, "{}", accel.name());
        }
    }
}

/// Hands every row to the model estimator in its own call: the finest
/// estimation batch a strategy could use.
struct RowByRow<'a>(autoax::model::ModelEstimator<'a>);

impl Estimator for RowByRow<'_> {
    fn estimate_slice(&self, rows: ConfigSlice<'_>, out: &mut Vec<TradeoffPoint>) {
        for i in 0..rows.len() {
            let row = ConfigSlice::new(rows.row(i), rows.stride());
            self.0.estimate_slice(row, out);
        }
    }
}

#[test]
fn pipeline_search_is_thread_and_batch_invariant() {
    // The island search must produce a byte-identical pseudo-Pareto set
    // (and therefore final front) for any worker-thread count and any
    // estimation batch granularity — those are throughput knobs only.
    let lib = tiny_lib();
    let imgs = images();
    let accel = SobelEd::new();
    let quick = PipelineOptions::quick();
    let run = |threads: usize| {
        run_pipeline(
            &accel,
            &lib,
            &imgs,
            &PipelineOptions {
                search: autoax::SearchOptions {
                    threads,
                    ..quick.search
                },
                ..PipelineOptions::quick()
            },
        )
        .expect("pipeline run")
    };
    let bits = |front: &autoax::ParetoFront<autoax::Configuration>| {
        front
            .iter()
            .map(|(p, c)| (p.qor.to_bits(), p.cost.to_bits(), c.clone()))
            .collect::<Vec<_>>()
    };
    let reference = run(1);
    assert!(reference.timings.search_evals_per_sec > 0.0);
    let ref_pseudo = bits(&reference.pseudo_front);
    // The pipeline's search, one row per estimator call.
    let space = &reference.preprocessed.space;
    let estimator = autoax::model::ModelEstimator::new(&reference.models, space, &lib);
    let search = autoax::SearchOptions {
        seed: quick.seed.wrapping_add(2),
        ..quick.search
    };
    let row_by_row = run_search(space, &RowByRow(estimator), &search);
    assert_eq!(
        ref_pseudo,
        bits(&row_by_row),
        "one row per call moved the front"
    );
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(
            ref_pseudo,
            bits(&other.pseudo_front),
            "pseudo front diverged at threads={threads}"
        );
        assert_eq!(reference.final_front.len(), other.final_front.len());
        for (a, b) in reference.final_front.iter().zip(other.final_front.iter()) {
            assert_eq!(a.qor, b.qor);
            assert_eq!(a.area, b.area);
            assert_eq!(a.config, b.config);
        }
    }
}

#[test]
fn search_throughput_counts_only_its_own_estimates() {
    // Another search looping in the same process (a concurrent serve job,
    // a parallel test) must not leak into this run's estimate count:
    // rate × search time gives back exactly the budget.
    let lib = tiny_lib();
    let imgs = images();
    let accel = SobelEd::new();
    let pre = preprocess(&accel, &lib, &imgs, &PreprocessOptions::default()).expect("preprocess");
    let space = &pre.space;
    let first_gene = |c: &autoax::Configuration| TradeoffPoint::new(f64::from(c.genes()[0]), 1.0);
    let first_gene = &first_gene;
    let side_search = autoax::SearchOptions {
        max_evals: 2_000,
        ..autoax::SearchOptions::default()
    };
    let opts = PipelineOptions {
        search: autoax::SearchOptions {
            max_evals: 200_000,
            ..PipelineOptions::quick().search
        },
        ..PipelineOptions::quick()
    };
    let res = std::thread::scope(|s| {
        let (running_tx, running_rx) = mpsc::channel();
        // Dropped when this closure ends, which stops the side search.
        let (_alive_tx, alive_rx) = mpsc::channel::<()>();
        s.spawn(move || {
            while let Err(TryRecvError::Empty) = alive_rx.try_recv() {
                run_search(space, first_gene, &side_search);
                let _ = running_tx.send(());
            }
        });
        running_rx.recv().expect("side search started");
        run_pipeline(&accel, &lib, &imgs, &opts)
    })
    .expect("pipeline run");
    let t = &res.timings;
    assert_eq!(
        (t.search_evals_per_sec * t.search.as_secs_f64()).round(),
        opts.search.max_evals as f64
    );
}

#[test]
fn pipeline_is_deterministic() {
    let lib = tiny_lib();
    let imgs = images();
    let accel = SobelEd::new();
    let r1 = run_pipeline(&accel, &lib, &imgs, &PipelineOptions::quick()).unwrap();
    let r2 = run_pipeline(&accel, &lib, &imgs, &PipelineOptions::quick()).unwrap();
    assert_eq!(r1.final_front.len(), r2.final_front.len());
    for (a, b) in r1.final_front.iter().zip(r2.final_front.iter()) {
        assert_eq!(a.qor, b.qor);
        assert_eq!(a.area, b.area);
        assert_eq!(a.config, b.config);
    }
}

/// Compiled-arena digests of the QoR and hardware forests that Step 2
/// fits, exactly as `run_pipeline` fits them: profile and preprocess,
/// the training set from `EvaluatedSet::try_generate`, then
/// `fit_models` with the random forest. A changed split or leaf bit
/// moves a digest even when it leaves every front unchanged. CI runs
/// this test at one and at eight workers as well as the default count.
#[test]
fn step2_forests_are_pinned() {
    let lib = tiny_lib();
    let opts = PipelineOptions::quick();
    let digests = |accel: &dyn Accelerator, imgs: &[GrayImage]| {
        let pre = preprocess(accel, &lib, imgs, &opts.preprocess).expect("preprocess");
        let ev = Evaluator::new(accel, &lib, &pre.space, imgs);
        let train = EvaluatedSet::try_generate(&ev, &pre.space, opts.train_configs, opts.seed)
            .expect("training set");
        let models = fit_models(
            EngineKind::RandomForest,
            &pre.space,
            &lib,
            &train,
            opts.seed,
        )
        .expect("fit");
        [&models.qor, &models.hw].map(|m| {
            let forest = m
                .as_any()
                .and_then(|a| a.downcast_ref::<RandomForest>())
                .expect("a random forest");
            format!(
                "{:016x}",
                CompiledForest::from_forest(forest).unwrap().digest()
            )
        })
    };
    assert_eq!(
        digests(&SobelEd::new(), &benchmark_suite(4, 96, 64, 7)),
        ["ddb90a820eb9c259", "a7133ebfad16589c"],
        "Sobel QoR, HW"
    );
    assert_eq!(
        digests(&FixedGaussian::new(), &benchmark_suite(2, 48, 32, 5)),
        ["8205057c52ea3516", "5fb6459ae77e3679"],
        "Fixed GF QoR, HW"
    );
}
