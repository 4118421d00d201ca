//! Regenerates **Table 5**: the size of the design space after each step
//! of the methodology (all possible → library pre-processing →
//! pseudo-Pareto → final Pareto), for all three accelerators, plus the
//! timing summary of Section 4.2.
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin table5 -- --scale default
//! ```
//!
//! Repeat runs warm-start from the persistent store — library
//! characterization and the Steps-1/2 artifacts are loaded instead of
//! recomputed:
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin table5 -- --scale default --cache-dir .axcache
//! ```

use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax_accel::gaussian_fixed::FixedGaussian;
use autoax_accel::gaussian_generic::GenericGaussian;
use autoax_accel::sobel::SobelEd;
use autoax_accel::Accelerator;
use autoax_bench::{cache_args, sobel_image_suite, timings_line, write_csv, Scale};
use autoax_image::synthetic::benchmark_suite;
use autoax_store::load_or_build_library;

fn main() {
    let scale = Scale::from_args();
    let (cache_dir, cache_mode) = cache_args();
    println!("building library (scale {}) ...", scale.label());
    let lib_out = load_or_build_library(&scale.library_config(), cache_dir.as_deref(), cache_mode);
    if lib_out.cache_hit {
        println!(
            "library: warm-started from cache in {:.1?}",
            lib_out.load_time
        );
    }
    let lib = lib_out.lib;
    let (gf_imgs, gf_w, gf_h, sweep) = scale.generic_gf_setup();
    let (train_n, test_n) = scale.model_budget();
    let opts_sobel = PipelineOptions {
        cache_dir: cache_dir.clone(),
        cache_mode,
        train_configs: train_n,
        test_configs: test_n,
        search: autoax::SearchOptions {
            max_evals: match scale {
                Scale::Quick => 5_000,
                Scale::Default => 50_000,
                Scale::Paper => 100_000,
            },
            ..autoax::SearchOptions::default()
        },
        final_eval_cap: match scale {
            Scale::Quick => 40,
            Scale::Default => 200,
            Scale::Paper => 1000,
        },
        ..PipelineOptions::paper_sobel()
    };
    // the GF studies use bigger search budgets but the same model sizes
    let opts_gf = PipelineOptions {
        search: autoax::SearchOptions {
            max_evals: opts_sobel.search.max_evals * 2,
            ..opts_sobel.search
        },
        train_configs: (train_n / 2).max(30),
        test_configs: (test_n / 2).max(20),
        final_eval_cap: opts_sobel.final_eval_cap / 2,
        ..opts_sobel.clone()
    };

    println!(
        "\nTable 5: design-space size after each methodology step\n\
         {:<12} {:>14} {:>18} {:>14} {:>13}",
        "Application", "all possible", "lib. pre-process", "pseudo Pareto", "final Pareto"
    );
    let mut rows = Vec::new();
    let runs: Vec<(
        Box<dyn Accelerator>,
        Vec<autoax_image::GrayImage>,
        PipelineOptions,
    )> = vec![
        (
            Box::new(SobelEd::new()),
            sobel_image_suite(scale),
            opts_sobel.clone(),
        ),
        (
            Box::new(FixedGaussian::new()),
            sobel_image_suite(scale),
            opts_gf.clone(),
        ),
        (
            Box::new(GenericGaussian::with_sweep(sweep)),
            benchmark_suite(gf_imgs, gf_w, gf_h, 2019),
            opts_gf,
        ),
    ];
    for (accel, images, opts) in runs {
        let res = run_pipeline(accel.as_ref(), &lib, &images, &opts).expect("pipeline");
        let (full, reduced, pseudo, final_n) = res.space_sizes_log10();
        println!(
            "{:<12} {:>13.2e} {:>17.2e} {:>14} {:>13}",
            accel.name(),
            10f64.powf(full),
            10f64.powf(reduced),
            pseudo,
            final_n
        );
        // paper shape: each step shrinks the candidate set by orders of
        // magnitude
        assert!(
            full > reduced,
            "{}: pre-processing must reduce",
            accel.name()
        );
        assert!(
            (pseudo as f64) < 10f64.powf(reduced),
            "{}: pseudo front must be far smaller than the reduced space",
            accel.name()
        );
        assert!(final_n <= pseudo);
        rows.push(vec![
            accel.name().to_string(),
            format!("{:.3e}", 10f64.powf(full)),
            format!("{:.3e}", 10f64.powf(reduced)),
            pseudo.to_string(),
            final_n.to_string(),
        ]);
        println!("    timings: {}", timings_line(&res.timings));
    }
    write_csv(
        "table5.csv",
        "application,all_possible,after_preprocessing,pseudo_pareto,final_pareto",
        &rows,
    );
}
