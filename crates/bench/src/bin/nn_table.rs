//! The NN-workload counterpart of Tables 4/5: runs the full three-step
//! pipeline on the quantized-MLP workload of `autoax-nn` under **every**
//! search strategy and reports the really-evaluated
//! **accuracy-vs-power** Pareto front per strategy, with the hypervolume
//! indicator on one shared normalization.
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin nn_table -- --scale quick
//! cargo run --release -p autoax-bench --bin nn_table -- --cache-dir .axcache
//! ```
//!
//! With a cache directory, the (strategy-independent) Steps 1–2 are
//! computed once and warm-started for every following strategy — the
//! library/profile reuse pattern the paper argues for.

use autoax::pareto::{joint_hypervolumes, ParetoFront, TradeoffPoint};
use autoax::pipeline::{run_pipeline, PipelineOptions, PipelineResult};
use autoax::search::SearchAlgo;
use autoax::Configuration;
use autoax_bench::{cache_args, timings_line, write_csv, Scale};
use autoax_nn::NnScenario;
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

    let scenario = match scale {
        Scale::Quick => NnScenario::tiny(),
        _ => NnScenario::default_scale(),
    };
    let (accel, samples) = scenario.build();
    let mlp = accel.mlp();
    println!(
        "network: {} -> {} -> {} quantized MLP, {} samples, exact-net label accuracy {:.3}",
        mlp.input_dim(),
        mlp.layers[0].out_dim,
        mlp.class_count(),
        samples.len(),
        accel.exact_label_accuracy(&samples)
    );

    let (train_n, test_n) = match scale {
        Scale::Quick => (60, 40),
        Scale::Default => (300, 150),
        Scale::Paper => (1500, 1000),
    };
    let base_opts = PipelineOptions {
        train_configs: train_n,
        test_configs: test_n,
        search: autoax::SearchOptions {
            max_evals: match scale {
                Scale::Quick => 5_000,
                Scale::Default => 50_000,
                Scale::Paper => 500_000,
            },
            ..autoax::SearchOptions::default()
        },
        final_eval_cap: match scale {
            Scale::Quick => 40,
            Scale::Default => 150,
            Scale::Paper => 1000,
        },
        cache_dir: cache_dir.clone(),
        cache_mode,
        ..PipelineOptions::paper_sobel()
    };

    // 2-D accuracy/power front over a run's real evaluations.
    let acc_power_front = |res: &PipelineResult| -> Vec<(f64, f64)> {
        let mut front: ParetoFront<Configuration> = ParetoFront::new();
        for (c, r) in &res.evaluated {
            front.try_insert(TradeoffPoint::new(r.qor, r.hw.power), c.clone());
        }
        front
            .into_sorted()
            .into_iter()
            .map(|(p, _)| (p.qor, p.cost))
            .collect()
    };

    // Accuracy-vs-power fronts per strategy (really evaluated members),
    // plus the pseudo-front size and test fidelities as CSV cells.
    type StrategyRun = (SearchAlgo, Vec<(f64, f64)>, [String; 3]);
    let mut fronts: Vec<StrategyRun> = Vec::new();
    for algo in SearchAlgo::ALL {
        let opts = base_opts.clone().with_strategy(algo);
        println!("\n[{algo}]");
        let res = match run_pipeline(&accel, &lib, &samples, &opts) {
            Ok(res) => res,
            Err(e) => {
                println!("    skipped ({e})");
                continue;
            }
        };
        let points = acc_power_front(&res);
        println!("    timings: {}", timings_line(&res.timings));
        let cells = [
            res.pseudo_front.len().to_string(),
            format!("{:.4}", res.fidelity.qor_test),
            format!("{:.4}", res.fidelity.hw_test),
        ];
        fronts.push((algo, points, cells));
    }

    // Hypervolumes on one shared normalization across every strategy.
    let point_sets: Vec<Vec<TradeoffPoint>> = fronts
        .iter()
        .map(|(_, pts, _)| pts.iter().map(|&(q, p)| TradeoffPoint::new(q, p)).collect())
        .collect();
    let refs: Vec<&[TradeoffPoint]> = point_sets.iter().map(|v| v.as_slice()).collect();
    let hv = joint_hypervolumes(&refs);

    println!(
        "\nNN DSE: accuracy-vs-power Pareto front per search strategy\n\
         {:<11} {:>7} {:>10} {:>12} {:>9}",
        "Algorithm", "#front", "best-acc", "min-pwr(uW)", "hv"
    );
    let mut rows = Vec::new();
    for ((algo, points, cells), &front_hv) in fronts.iter().zip(hv.iter()) {
        let best_acc = points.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        let min_power = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        println!(
            "{:<11} {:>7} {:>10.4} {:>12.2} {:>9.5}",
            algo.name(),
            points.len(),
            best_acc,
            min_power,
            front_hv
        );
        assert!(!points.is_empty(), "{algo}: empty accuracy/power front");
        assert!(
            (0.0..=1.0).contains(&best_acc),
            "{algo}: accuracy out of range"
        );
        let mut row = vec![
            algo.name().to_string(),
            points.len().to_string(),
            format!("{best_acc:.4}"),
            format!("{min_power:.2}"),
            format!("{front_hv:.5}"),
        ];
        row.extend_from_slice(cells);
        rows.push(row);
    }
    write_csv(
        "nn_table.csv",
        "algorithm,front,best_accuracy,min_power,hypervolume,\
         pseudo_front,qor_fidelity_test,hw_fidelity_test",
        &rows,
    );
}
