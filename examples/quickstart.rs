//! Quickstart: run the complete autoAx methodology on the Sobel edge
//! detector with a small generated library.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Repeat runs can warm-start from the persistent store — the library
//! characterization and the Steps-1/2 artifacts (reduced space, PMFs,
//! fitted models) are loaded instead of recomputed, with byte-identical
//! results:
//!
//! ```sh
//! cargo run --release --example quickstart -- --cache-dir .axcache
//! cargo run --release --example quickstart -- --cache-dir .axcache   # warm
//! ```
//!
//! The Step-3 search strategy is selectable (default: the paper's island
//! hill climb):
//!
//! ```sh
//! cargo run --release --example quickstart -- --strategy nsga2
//! cargo run --release --example quickstart -- --strategy random
//! ```
//!
//! The run is observable without changing its result (the front digest
//! is byte-identical either way):
//!
//! ```sh
//! AUTOAX_LOG=debug AUTOAX_TRACE=trace.json cargo run --release --example quickstart
//! ```
//!
//! writes a Chrome-trace JSON (load it at `chrome://tracing` or in
//! Perfetto) plus a folded-stacks profile next to it (`trace.folded`).

use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax::SearchAlgo;
use autoax_accel::sobel::SobelEd;
use autoax_circuit::charlib::LibraryConfig;
use autoax_image::synthetic::benchmark_suite;
use autoax_store::{load_or_build_library, parse_cache_flags, Store};
use autoax_telemetry as telemetry;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    telemetry::init_from_env();
    let args: Vec<String> = std::env::args().collect();
    let (cache_dir, cache_mode) = parse_cache_flags(&args);
    let strategy = SearchAlgo::from_args(&args).unwrap_or(SearchAlgo::Hill);

    // 1. Generate and characterize a small approximate-component library
    //    (the stand-in for downloading EvoApprox8b), warm-starting from
    //    the store when a cache directory is given.
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

    // 2. Benchmark images (synthetic Berkeley-dataset substitute).
    let images = benchmark_suite(4, 96, 64, 7);

    // 3. Run the three-step methodology with small budgets.
    let accel = SobelEd::new();
    let mut opts = PipelineOptions::quick().with_strategy(strategy);
    opts.cache_store = cache_dir.map(|dir| Arc::new(Store::new(dir)) as _);
    opts.cache_mode = cache_mode;
    let result = run_pipeline(&accel, &lib, &images, &opts)?;
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
    } else {
        println!(
            "cache: cold - steps 1-2 computed in {:.1?} (hits {}, misses {})",
            t.step12_compute, t.cache_hits, t.cache_misses
        );
    }

    let (full, reduced, pseudo, final_n) = result.space_sizes_log10();
    println!("design space: 10^{full:.1} -> 10^{reduced:.1} after pre-processing");
    println!(
        "model fidelity (random forest): SSIM {:.0}% / area {:.0}% on held-out configs",
        result.fidelity.qor_test * 100.0,
        result.fidelity.hw_test * 100.0
    );
    println!("pseudo-Pareto set: {pseudo} configurations, final front: {final_n}");
    println!("\n  SSIM    area(um2)  energy(fJ)");
    for m in &result.final_front {
        println!("  {:.4}  {:9.1}  {:9.1}", m.qor, m.area, m.energy);
    }

    // A digest of the final front: cold and warm runs must agree on it
    // bit for bit (the CI cache smoke job compares the two lines).
    println!("front-digest: {:016x}", result.front_digest());

    // Export the trace if AUTOAX_TRACE named a file; the digest above is
    // printed first so observation visibly never perturbs the result.
    if let Some(path) = telemetry::trace_path_from_env() {
        let spans = telemetry::take_spans();
        std::fs::write(&path, telemetry::export_chrome_trace(&spans))?;
        let folded = std::path::Path::new(&path).with_extension("folded");
        std::fs::write(&folded, telemetry::export_folded(&spans))?;
        println!(
            "trace: {} spans -> {path} (chrome://tracing) + {} (flamegraph folded)",
            spans.len(),
            folded.display()
        );
    }
    Ok(())
}
