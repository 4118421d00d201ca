//! The Gaussian-filter case studies (paper Section 4.2): approximate both
//! the fixed-coefficient filter (11 ops incl. shift-add constant
//! multipliers) and the generic filter (17 ops, evaluated across a σ
//! sweep of kernels).
//!
//! ```sh
//! cargo run --release --example gaussian_dse                      # default scale
//! cargo run --release --example gaussian_dse -- quick             # smoke scale
//! cargo run --release --example gaussian_dse -- --strategy nsga2  # swap the DSE algorithm
//! ```

use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax_accel::gaussian_fixed::FixedGaussian;
use autoax_accel::gaussian_generic::GenericGaussian;
use autoax_accel::Accelerator;
use autoax_circuit::charlib::{build_library, ClassCounts, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "quick");
    let strategy = autoax::SearchAlgo::from_args(&args).unwrap_or(autoax::SearchAlgo::Hill);
    let (counts, n_images, sweep, mut opts) = if quick {
        (ClassCounts::tiny(), 2, 2, PipelineOptions::quick())
    } else {
        let mut o = PipelineOptions::paper_gf();
        o.train_configs = 250;
        o.test_configs = 100;
        o.search.max_evals = 50_000;
        o.final_eval_cap = 60;
        (ClassCounts::default_scale(), 4, 8, o)
    };
    opts = opts.with_strategy(strategy);
    // keep the generic-GF software simulation affordable
    let (w, h) = if quick { (64, 48) } else { (128, 96) };

    let lib = build_library(&LibraryConfig {
        counts,
        ..LibraryConfig::default()
    });
    println!("library: {} circuits", lib.total_size());
    let images = benchmark_suite(n_images, w, h, 11);

    for accel in [
        Box::new(FixedGaussian::new()) as Box<dyn Accelerator>,
        Box::new(GenericGaussian::with_sweep(sweep)) as Box<dyn Accelerator>,
    ] {
        println!("\n==== {} ====", accel.name());
        if accel.name() == "Generic GF" && !quick {
            // the 17-op accelerator is the expensive one; trim budgets
            opts.train_configs = 120;
            opts.test_configs = 60;
            opts.final_eval_cap = 40;
        }
        let result = run_pipeline(accel.as_ref(), &lib, &images, &opts)?;
        let (full, reduced, pseudo, final_n) = result.space_sizes_log10();
        println!("space: 10^{full:.1} -> 10^{reduced:.1}; pseudo {pseudo} -> final {final_n}");
        println!(
            "fidelity: SSIM {:.0}%/{:.0}%  area {:.0}%/{:.0}% (train/test)",
            result.fidelity.qor_train * 100.0,
            result.fidelity.qor_test * 100.0,
            result.fidelity.hw_train * 100.0,
            result.fidelity.hw_test * 100.0
        );
        println!("  SSIM    area(um2)  energy(fJ)");
        for m in result.final_front.iter().take(12) {
            println!("  {:.4}  {:9.1}  {:9.1}", m.qor, m.area, m.energy);
        }
        println!(
            "timings: preprocess {:.1?}, training data {:.1?}, search {:.1?} ({}), final eval {:.1?}",
            result.timings.preprocess,
            result.timings.training_data,
            result.timings.search,
            result.timings.search_strategy,
            result.timings.final_eval
        );
        // Pinned in CI per accelerator (fixed GF first) at both worker
        // counts: the fronts must not depend on how the circuits run.
        println!("front-digest: {:016x}", result.front_digest());
    }
    Ok(())
}
