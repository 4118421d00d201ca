//! Tests of the Step-3 search engine: golden parity of the island hill
//! climb against the original sequential implementation, the hill front
//! through the neighbour tables against the gather kernel, every
//! strategy's pinned front on the quick models, strategy selection
//! through the pipeline, the pinned NSGA-II pipeline front and the
//! NSGA-II hypervolume guarantee on the quick pipeline configuration.

use autoax::config::{ConfigSpace, SlotChoices, SlotMember};
use autoax::model::{fit_models, EvaluatedSet, ModelEstimator};
use autoax::pareto::{joint_hypervolumes, TradeoffPoint};
use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax::search::{run_search, ConfigSlice, Estimator, SearchAlgo, SearchOptions};
use autoax::Configuration;
use autoax_circuit::charlib::CircuitId;
use autoax_circuit::OpSignature;

fn toy_space(slots: usize, per_slot: usize) -> ConfigSpace {
    ConfigSpace::new(
        (0..slots)
            .map(|i| SlotChoices {
                name: format!("s{i}"),
                signature: OpSignature::ADD8,
                members: (0..per_slot)
                    .map(|k| SlotMember {
                        id: CircuitId(k as u32),
                        wmed: k as f64,
                    })
                    .collect(),
            })
            .collect(),
    )
}

/// FNV-style digest of a front, payload genes included — the fingerprint
/// the golden values below were captured with.
fn front_digest(front: &autoax::ParetoFront<Configuration>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut push = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for (p, c) in front.iter() {
        push(p.qor.to_bits());
        push(p.cost.to_bits());
        for &g in c.genes() {
            push(g as u64);
        }
    }
    h
}

#[test]
fn hill_strategy_is_byte_identical_to_pre_refactor_heuristic_pareto() {
    // Golden parity: these digests were captured from the original
    // sequential hill climb (commit 95a5961, before the columnar
    // ConfigBatch refactor) on this exact space, estimator and options.
    // The island hill climb must reproduce them bit for bit — points
    // *and* payload genomes.
    let estimator = |c: &Configuration| {
        let a: f64 = c.genes().iter().map(|&v| (v as f64 + 1.0).ln()).sum();
        let b: f64 = c
            .genes()
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 + 1.0) * v as f64)
            .sum();
        TradeoffPoint::new(-a, 100.0 - b * 0.5 + (a * 3.0).sin())
    };
    let space = toy_space(5, 7);
    for (seed, evals, members, digest) in [
        (41u64, 5000usize, 26usize, 0x876ec5b9b2eca8c4u64),
        (7, 2000, 32, 0xdd55b109c741da21),
    ] {
        let opts = SearchOptions {
            max_evals: evals,
            stagnation_limit: 50,
            seed,
            ..SearchOptions::default()
        };
        let front = run_search(&space, &estimator, &opts);
        assert_eq!(front.len(), members, "seed {seed}: front size changed");
        assert_eq!(
            front_digest(&front),
            digest,
            "seed {seed}: hill output diverged from the pre-refactor golden front"
        );
    }
}

/// Shared quick-scale model setup: tiny library, tiny images, RF models —
/// the estimator the quick pipeline searches over.
struct QuickModels {
    lib: autoax_circuit::charlib::ComponentLibrary,
    pre: autoax::preprocess::Preprocessed,
    models: autoax::model::FittedModels,
}

fn quick_models() -> QuickModels {
    use autoax::evaluate::Evaluator;
    use autoax::preprocess::{preprocess, PreprocessOptions};
    let accel = autoax_accel::sobel::SobelEd::new();
    let lib =
        autoax_circuit::charlib::build_library(&autoax_circuit::charlib::LibraryConfig::tiny());
    let images = autoax_image::synthetic::benchmark_suite(2, 48, 32, 5);
    let pre = preprocess(&accel, &lib, &images, &PreprocessOptions::default()).expect("preprocess");
    let ev = Evaluator::new(&accel, &lib, &pre.space, &images);
    let train = EvaluatedSet::generate(&ev, &pre.space, 50, 42);
    let models = fit_models(
        autoax_ml::EngineKind::RandomForest,
        &pre.space,
        &lib,
        &train,
        42,
    )
    .expect("fit quick models");
    QuickModels { lib, pre, models }
}

/// Forwards only `estimate_slice` to a model estimator, so the trait's
/// default `estimate_neighbours` sends every hill round to the gather
/// kernel instead of the neighbour tables.
struct SliceOnly<'a>(&'a ModelEstimator<'a>);

impl Estimator for SliceOnly<'_> {
    fn estimate_slice(&self, rows: ConfigSlice<'_>, out: &mut Vec<TradeoffPoint>) {
        self.0.estimate_slice(rows, out);
    }
}

/// The front in iteration order, points and payload genomes, as bits.
fn front_rows(front: &autoax::ParetoFront<Configuration>) -> Vec<(u64, u64, Vec<u16>)> {
    front
        .iter()
        .map(|(p, c)| (p.qor.to_bits(), p.cost.to_bits(), c.genes().to_vec()))
        .collect()
}

#[test]
fn hill_front_through_neighbour_tables_equals_gather_kernel_front() {
    // The hill climb hands each round's parent to the estimator; on the
    // quick RF models both baked a neighbour table, and the front must
    // not move by one bit against the gather kernel alone.
    let q = quick_models();
    let estimator = ModelEstimator::new(&q.models, &q.pre.space, &q.lib);
    assert_eq!(estimator.neighbour_tables(), (true, true));
    for threads in [1, 2] {
        let opts = SearchOptions {
            max_evals: 20_000,
            seed: 42,
            threads,
            ..SearchOptions::default()
        };
        let tables = run_search(&q.pre.space, &estimator, &opts);
        let gather = run_search(&q.pre.space, &SliceOnly(&estimator), &opts);
        assert!(!tables.is_empty());
        assert_eq!(
            front_rows(&tables),
            front_rows(&gather),
            "threads={threads}: the neighbour tables moved the hill front"
        );
    }
}

#[test]
fn nsga2_hypervolume_at_least_random_sampling_on_quick_config() {
    // Acceptance criterion: at the same eval budget (the quick pipeline's
    // 3000 estimates), NSGA-II achieves hypervolume >= the random-sampling
    // baseline, measured on jointly normalized estimated fronts.
    let q = quick_models();
    let estimator = ModelEstimator::new(&q.models, &q.pre.space, &q.lib);
    let opts = |strategy| SearchOptions {
        strategy,
        max_evals: PipelineOptions::quick().search.max_evals,
        seed: 42,
        ..SearchOptions::default()
    };
    let nsga = run_search(&q.pre.space, &estimator, &opts(SearchAlgo::Nsga2));
    let rs = run_search(&q.pre.space, &estimator, &opts(SearchAlgo::Random));
    assert!(!nsga.is_empty() && !rs.is_empty());
    let hv = joint_hypervolumes(&[&nsga.points(), &rs.points()]);
    assert!(
        hv[0] >= hv[1],
        "nsga2 hypervolume {} below random sampling {}",
        hv[0],
        hv[1]
    );
}

#[test]
fn every_strategy_produces_a_nonempty_minimal_front_on_quick_models() {
    let q = quick_models();
    let estimator = ModelEstimator::new(&q.models, &q.pre.space, &q.lib);
    // Pinned fronts: length and digest of each strategy's output.
    for (algo, len, digest) in [
        (SearchAlgo::Hill, 40, 0x4729_1b3a_5a05_db4e_u64),
        (SearchAlgo::Nsga2, 63, 0x58f7_cec9_e61a_7575),
        (SearchAlgo::Random, 27, 0x728d_926f_2cc1_9dcb),
        (SearchAlgo::Uniform, 5, 0x17a9_452c_0a15_ad89),
        (SearchAlgo::Exhaustive, 80, 0xba5c_76ce_7f60_69ab),
    ] {
        let opts = SearchOptions {
            strategy: algo,
            max_evals: 2000,
            seed: 9,
            ..SearchOptions::default()
        };
        let front = run_search(&q.pre.space, &estimator, &opts);
        assert!(!front.is_empty(), "{algo}: empty front");
        assert_eq!(front.len(), len, "{algo}: front size changed");
        assert_eq!(front_digest(&front), digest, "{algo}: front drifted");
        let pts = front.points();
        for (i, a) in pts.iter().enumerate() {
            for (j, b) in pts.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "{algo}: {a:?} dominates {b:?}");
                }
            }
        }
    }
}

#[test]
fn pipeline_runs_under_every_portable_strategy() {
    // The search_strategy axis threaded end to end: the full pipeline
    // must produce a non-empty final front under each budgeted strategy,
    // and report the strategy in its timings.
    let accel = autoax_accel::sobel::SobelEd::new();
    let lib =
        autoax_circuit::charlib::build_library(&autoax_circuit::charlib::LibraryConfig::tiny());
    let images = autoax_image::synthetic::benchmark_suite(2, 64, 48, 9);
    for algo in [SearchAlgo::Hill, SearchAlgo::Nsga2, SearchAlgo::Random] {
        let opts = PipelineOptions::quick().with_strategy(algo);
        let res =
            run_pipeline(&accel, &lib, &images, &opts).unwrap_or_else(|e| panic!("{algo}: {e}"));
        assert!(!res.pseudo_front.is_empty(), "{algo}: empty pseudo front");
        assert!(!res.final_front.is_empty(), "{algo}: empty final front");
        assert_eq!(res.timings.search_strategy, algo.name());
    }
}

#[test]
fn nsga2_pipeline_is_deterministic_and_thread_invariant() {
    let accel = autoax_accel::sobel::SobelEd::new();
    let lib =
        autoax_circuit::charlib::build_library(&autoax_circuit::charlib::LibraryConfig::tiny());
    let images = autoax_image::synthetic::benchmark_suite(2, 64, 48, 9);
    let run = |threads: usize| {
        let mut opts = PipelineOptions::quick().with_strategy(SearchAlgo::Nsga2);
        opts.search.threads = threads;
        run_pipeline(&accel, &lib, &images, &opts).expect("nsga2 pipeline")
    };
    let reference = run(1);
    // Pinned plain NSGA-II output on this setup; the loop below holds
    // every other thread count to the same fronts.
    assert_eq!(reference.pseudo_front.len(), 109, "nsga2 pseudo front size");
    assert_eq!(reference.final_front.len(), 18, "nsga2 final front size");
    assert_eq!(
        reference.front_digest(),
        0x6c83_a789_3da5_033a,
        "nsga2 final front digest drifted"
    );
    let ref_pseudo: Vec<(u64, u64, Configuration)> = reference
        .pseudo_front
        .iter()
        .map(|(p, c)| (p.qor.to_bits(), p.cost.to_bits(), c.clone()))
        .collect();
    for threads in [2, 8] {
        let other = run(threads);
        let other_pseudo: Vec<(u64, u64, Configuration)> = other
            .pseudo_front
            .iter()
            .map(|(p, c)| (p.qor.to_bits(), p.cost.to_bits(), c.clone()))
            .collect();
        assert_eq!(
            ref_pseudo, other_pseudo,
            "nsga2 pseudo front diverged at threads={threads}"
        );
        assert_eq!(reference.final_front.len(), other.final_front.len());
        for (a, b) in reference.final_front.iter().zip(other.final_front.iter()) {
            assert_eq!(a.qor, b.qor);
            assert_eq!(a.area, b.area);
            assert_eq!(a.config, b.config);
        }
    }
}
