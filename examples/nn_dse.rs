//! DSE for the approximate DNN accelerator workload: the full three-step
//! methodology — operand profiling, WMED library pre-processing, model
//! construction, model-based search, real evaluation — on the quantized
//! MLP of `autoax-nn`, with **top-1 accuracy** as the QoR measure instead
//! of SSIM. Same pipeline code as the image studies; only the workload
//! differs.
//!
//! ```sh
//! cargo run --release --example nn_dse
//! cargo run --release --example nn_dse -- --strategy nsga2
//! ```
//!
//! Repeat runs warm-start the library characterization and the Steps-1/2
//! artifacts (reduced space, operand PMFs, fitted models) from the
//! persistent store, byte-identically:
//!
//! ```sh
//! cargo run --release --example nn_dse -- --cache-dir .axcache
//! cargo run --release --example nn_dse -- --cache-dir .axcache   # warm
//! ```

use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax::SearchAlgo;
use autoax_circuit::charlib::LibraryConfig;
use autoax_nn::NnScenario;
use autoax_store::{load_or_build_library, parse_cache_flags, Store};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let (cache_dir, cache_mode) = parse_cache_flags(&args);
    let strategy = SearchAlgo::from_args(&args).unwrap_or(SearchAlgo::Hill);

    // 1. Approximate-component library (the NN workload draws from the
    //    mul8 and add16 classes), warm-started from the store when given
    //    a cache directory.
    let lib_out = load_or_build_library(&LibraryConfig::tiny(), cache_dir.as_deref(), cache_mode);
    println!(
        "library: {} characterized circuits ({})",
        lib_out.lib.total_size(),
        if lib_out.cache_hit {
            format!("loaded from cache in {:.1?}", lib_out.load_time)
        } else {
            format!("built in {:.1?}", lib_out.build_time)
        }
    );
    let lib = lib_out.lib;

    // 2. Deterministic synthetic classification workload: seeded blob
    //    dataset + a quantized MLP fitted on it (no network access).
    let (accel, samples) = NnScenario::tiny().build();
    let mlp = accel.mlp();
    println!(
        "network: {} -> {} -> {} quantized MLP, {} samples, exact-net label accuracy {:.3}",
        mlp.input_dim(),
        mlp.layers[0].out_dim,
        mlp.class_count(),
        samples.len(),
        accel.exact_label_accuracy(&samples)
    );

    // 3. The three-step methodology, unchanged.
    let mut opts = PipelineOptions::quick().with_strategy(strategy);
    opts.cache_store = cache_dir.map(|dir| Arc::new(Store::new(dir)) as _);
    opts.cache_mode = cache_mode;
    let result = run_pipeline(&accel, &lib, &samples, &opts)?;
    println!("strategy: {}", result.timings.search_strategy);
    if result.final_front.is_empty() {
        return Err(format!("strategy {strategy} produced an empty final front").into());
    }

    let t = &result.timings;
    if t.cache_hits > 0 {
        println!(
            "cache: warm start - steps 1-2 skipped, loaded in {:.1?} (hits {}, misses {})",
            t.cache_load, t.cache_hits, t.cache_misses
        );
    } else if t.cache_misses > 0 {
        println!(
            "cache: cold - steps 1-2 computed in {:.1?} (hits {}, misses {})",
            t.step12_compute, t.cache_hits, t.cache_misses
        );
    }

    let (full, reduced, pseudo, final_n) = result.space_sizes_log10();
    println!("design space: 10^{full:.1} -> 10^{reduced:.1} after pre-processing");
    println!(
        "model fidelity ({} model): {:.0}% / area {:.0}% on held-out configs",
        result.qor_metric,
        result.fidelity.qor_test * 100.0,
        result.fidelity.hw_test * 100.0
    );
    println!("pseudo-Pareto set: {pseudo} configurations, final front: {final_n}");

    println!("\n  accuracy  area(um2)  energy(fJ)");
    for m in &result.final_front {
        println!("  {:8.4}  {:9.1}  {:10.1}", m.qor, m.area, m.energy);
    }
    let best = result
        .final_front
        .iter()
        .map(|m| m.qor)
        .fold(f64::NEG_INFINITY, f64::max);
    if !(0.0..=1.0).contains(&best) {
        return Err(format!("accuracy out of [0, 1]: {best}").into());
    }
    println!("best-accuracy: {best:.4}");

    // Cold and warm runs must agree on this digest bit for bit (CI
    // compares the two lines, as for the Sobel quickstart).
    println!("front-digest: {:016x}", result.front_digest());
    Ok(())
}
