//! Bringing your own accelerator to the methodology: declare its dataflow
//! and implement the [`Accelerator`] trait; the software model, netlist,
//! profile and cache identity derive from it, and the whole pipeline —
//! profiling, WMED scoring, model training, Algorithm 1 — works unchanged.
//!
//! The example builds a 4-pixel box smoother:
//! `out = (center + right + below + below-right) / 4`
//! with three replaceable adders (2× add8, 1× add9).
//!
//! ```sh
//! cargo run --release --example custom_accelerator
//! ```
//!
//! The same knobs as the other examples apply: `--strategy
//! hill|nsga2|random|uniform|exhaustive` selects the Step-3 search, and
//! `--cache-dir <path>` / `--cache off|read|rw` warm-start the library
//! characterization and the Steps-1/2 artifacts from the persistent
//! store:
//!
//! ```sh
//! cargo run --release --example custom_accelerator -- --strategy nsga2
//! cargo run --release --example custom_accelerator -- --cache-dir .axcache
//! ```

use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax::SearchAlgo;
use autoax_accel::dataflow::{tap, Dataflow, DataflowBuilder, Glue};
use autoax_accel::Accelerator;
use autoax_circuit::charlib::LibraryConfig;
use autoax_circuit::OpSignature;
use autoax_image::synthetic::benchmark_suite;
use autoax_store::{load_or_build_library, parse_cache_flags, Store};
use std::sync::Arc;

/// A 2×2 box smoother with approximable adders.
struct BoxSmoother {
    dataflow: Dataflow,
}

impl BoxSmoother {
    fn new() -> Self {
        // taps are row-major: 4 = center, 5 = right, 7 = below,
        // 8 = below-right
        let mut df = DataflowBuilder::new();
        let row0 = df.op("row0", OpSignature::ADD8, tap(4), tap(5));
        let row1 = df.op("row1", OpSignature::ADD8, tap(7), tap(8));
        df.op("total", OpSignature::ADD9, row0, row1);
        // out = total >> 2: bits 2..10 of the 10-bit sum
        BoxSmoother {
            dataflow: df.finish(Glue::Bits { lo: 2 }),
        }
    }
}

impl Accelerator for BoxSmoother {
    fn name(&self) -> &str {
        "Box smoother"
    }

    fn dataflow(&self) -> &Dataflow {
        &self.dataflow
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let (cache_dir, cache_mode) = parse_cache_flags(&args);
    let strategy = SearchAlgo::from_args(&args).unwrap_or(SearchAlgo::Hill);

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
    let images = benchmark_suite(3, 96, 64, 5);
    let accel = BoxSmoother::new();
    let mut opts = PipelineOptions::quick().with_strategy(strategy);
    opts.cache_store = cache_dir.map(|dir| Arc::new(Store::new(dir)) as _);
    opts.cache_mode = cache_mode;
    let result = run_pipeline(&accel, &lib, &images, &opts)?;
    println!("strategy: {}", result.timings.search_strategy);
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
    println!(
        "{}: {} final Pareto configurations",
        accel.name(),
        result.final_front.len()
    );
    println!("  SSIM    area(um2)  energy(fJ)");
    for m in &result.final_front {
        println!("  {:.4}  {:9.1}  {:9.1}", m.qor, m.area, m.energy);
    }
    // Pinned in CI, like the quickstart's: the front must not depend on
    // the worker count or on how the dataflow is executed.
    println!("front-digest: {:016x}", result.front_digest());
    Ok(())
}
