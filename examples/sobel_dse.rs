//! The Sobel case study (paper Section 4.1) at a configurable scale:
//! library pre-processing with PMF profiling, model construction with a
//! fidelity report, Algorithm 1 versus random sampling, and the final
//! really-evaluated Pareto front.
//!
//! ```sh
//! cargo run --release --example sobel_dse                      # default scale
//! cargo run --release --example sobel_dse -- quick             # smoke test scale
//! cargo run --release --example sobel_dse -- --strategy nsga2  # swap the DSE algorithm
//! ```
//!
//! Pass `--cache-dir <path>` to persist the characterized library: the
//! most expensive step of a repeat run is then a checksummed load.

use autoax::evaluate::Evaluator;
use autoax::model::{fidelity_report, fit_models, naive_models, EvaluatedSet};
use autoax::preprocess::{preprocess, PreprocessOptions};
use autoax::search::{run_search, SearchAlgo, SearchOptions};
use autoax::Configuration;
use autoax_accel::sobel::SobelEd;
use autoax_accel::Accelerator;
use autoax_circuit::charlib::{ClassCounts, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_ml::EngineKind;
use autoax_store::{load_or_build_library, parse_cache_flags};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "quick");
    let (cache_dir, cache_mode) = parse_cache_flags(&args);
    let strategy = SearchAlgo::from_args(&args).unwrap_or(SearchAlgo::Hill);
    let (counts, n_images, train_n, evals) = if quick {
        (ClassCounts::tiny(), 2, 60, 3000)
    } else {
        (ClassCounts::default_scale(), 8, 300, 50_000)
    };

    println!("== building library ==");
    let lib_out = load_or_build_library(
        &LibraryConfig {
            counts,
            ..LibraryConfig::default()
        },
        cache_dir.as_deref(),
        cache_mode,
    );
    let lib = lib_out.lib;
    println!(
        "library: {} circuits{}",
        lib.total_size(),
        if lib_out.cache_hit {
            " (warm-started from cache)"
        } else {
            ""
        }
    );

    let accel = SobelEd::new();
    let images = benchmark_suite(n_images, 192, 128, 7);

    println!("== step 1: library pre-processing ==");
    let pre = preprocess(&accel, &lib, &images, &PreprocessOptions::default()).expect("preprocess");
    let slots = accel.dataflow().slots();
    for ((slot, choices), pmf) in slots.iter().zip(pre.space.slots()).zip(&pre.pmfs) {
        println!(
            "  |RL_{}| = {:3}   (diagonal PMF mass: {:.2})",
            slot.name,
            choices.members.len(),
            pmf.diagonal_mass(32)
        );
    }
    println!(
        "  space: 10^{:.2} -> 10^{:.2}",
        pre.full_log10_size,
        pre.space.log10_size()
    );

    println!("== step 2: model construction ==");
    let evaluator = Evaluator::new(&accel, &lib, &pre.space, &images);
    let train = EvaluatedSet::generate(&evaluator, &pre.space, train_n, 1);
    let test = EvaluatedSet::generate(&evaluator, &pre.space, train_n / 2, 2);
    let models = fit_models(EngineKind::RandomForest, &pre.space, &lib, &train, 42)?;
    let rep = fidelity_report(&models, &pre.space, &lib, &train, &test)?;
    let naive = naive_models(&pre.space);
    let nrep = fidelity_report(&naive, &pre.space, &lib, &train, &test)?;
    println!(
        "  random forest: SSIM {:.0}%/{:.0}%  area {:.0}%/{:.0}%  (train/test)",
        rep.qor_train * 100.0,
        rep.qor_test * 100.0,
        rep.hw_train * 100.0,
        rep.hw_test * 100.0
    );
    println!(
        "  naive models:  SSIM   — /{:.0}%  area   — /{:.0}%",
        nrep.qor_test * 100.0,
        nrep.hw_test * 100.0
    );

    println!("== step 3: model-based DSE ({strategy} strategy) ==");
    let estimator = autoax::model::ModelEstimator::new(&models, &pre.space, &lib);
    let opts = SearchOptions {
        strategy,
        max_evals: evals,
        stagnation_limit: 50,
        seed: 3,
        ..SearchOptions::default()
    };
    let hill = run_search(&pre.space, &estimator, &opts);
    let random = SearchOptions {
        strategy: SearchAlgo::Random,
        ..opts
    };
    let rs = run_search(&pre.space, &estimator, &random);
    println!(
        "  {strategy}: {} pseudo-Pareto members; random sampling: {}",
        hill.len(),
        rs.len()
    );

    println!("== final real evaluation of the pseudo-Pareto set ==");
    let sorted: Vec<Configuration> = hill.into_sorted().into_iter().map(|(_, c)| c).collect();
    // an even spread across the estimated front, cheap end to expensive
    let n = sorted.len();
    let take = 24.min(n);
    let members: Vec<Configuration> = (0..take)
        .map(|i| sorted[i * (n - 1) / (take - 1).max(1)].clone())
        .collect();
    let evals = evaluator.evaluate_batch(&members);
    println!("  SSIM    area(um2)");
    for r in &evals {
        println!("  {:.4}  {:9.1}", r.qor, r.hw.area);
    }
    Ok(())
}
