//! Regenerates **Table 4**: distances of the fronts found by every
//! budgeted search strategy (the proposed island hill climb, NSGA-II and
//! random sampling, plus the manual uniform selection) from the optimal
//! Pareto front of the reduced Sobel space, at budgets of 10³/10⁴/10⁵
//! model evaluations — extended with the hypervolume indicator so the
//! strategies are comparable on one scalar as well.
//!
//! As in the paper, the "optimal" front is computed by exhaustively
//! enumerating the reduced configuration space *under the estimation
//! models*, and all distances are measured on estimated objectives
//! normalized to `[0, 1]`. The reduced space is capped per slot so that
//! exhaustive enumeration stays tractable at every scale: 12 circuits per
//! slot (12⁵ ≈ 2.5·10⁵ configurations) at quick and default scale, 16
//! (16⁵ ≈ 1.0·10⁶) at paper scale, where the paper enumerates 4.92·10⁷
//! configurations on a cluster.
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin table4 -- --scale default
//! ```

use autoax::evaluate::Evaluator;
use autoax::model::{fit_models, EvaluatedSet, ModelEstimator};
use autoax::pareto::{front_distances, joint_hypervolumes, TradeoffPoint};
use autoax::preprocess::{preprocess, PreprocessOptions};
use autoax::search::{run_search, uniform_selection, SearchAlgo, SearchOptions};
use autoax_accel::sobel::SobelEd;
use autoax_bench::{sobel_image_suite, write_csv, Scale};
use autoax_circuit::charlib::build_library;
use autoax_ml::EngineKind;
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    let accel = SobelEd::new();
    println!("building library (scale {}) ...", scale.label());
    let lib = build_library(&scale.library_config());
    let images = sobel_image_suite(scale);
    // Cap the reduced libraries so the exhaustive "optimal" front stays
    // computable: 12^5 ≈ 2.5e5 (quick/default) or 16^5 ≈ 1.0e6 (paper).
    let slot_cap = match scale {
        Scale::Paper => 16,
        _ => 12,
    };
    let pre = preprocess(
        &accel,
        &lib,
        &images,
        &PreprocessOptions {
            slot_cap: Some(slot_cap),
            ..Default::default()
        },
    )
    .expect("preprocess");
    println!(
        "reduced space: {:?} => {:.3e} configurations",
        pre.space.sizes(),
        pre.space.size()
    );
    let (train_n, test_n) = scale.model_budget();
    let evaluator = Evaluator::new(&accel, &lib, &pre.space, &images);
    let train = EvaluatedSet::generate(&evaluator, &pre.space, train_n, 1);
    let _test = test_n; // test set not needed here
    let models =
        fit_models(EngineKind::RandomForest, &pre.space, &lib, &train, 42).expect("fit models");
    let estimator = ModelEstimator::new(&models, &pre.space, &lib);

    println!("computing the optimal front by exhaustive enumeration ...");
    let t0 = Instant::now();
    let exhaustive = SearchOptions {
        strategy: SearchAlgo::Exhaustive,
        ..SearchOptions::default()
    };
    let optimal = run_search(&pre.space, &estimator, &exhaustive);
    println!(
        "  optimal Pareto: {} members in {:.1?} ({} evaluations)",
        optimal.len(),
        t0.elapsed(),
        pre.space.size()
    );

    // Every budgeted strategy at every budget, plus the manual uniform
    // selection once (its size is set by its level grid, not the budget).
    let budgets = [1_000usize, 10_000, 100_000];
    let strategies = [SearchAlgo::Hill, SearchAlgo::Nsga2, SearchAlgo::Random];
    // (name, budget, front)
    type StrategyRun = (String, usize, autoax::ParetoFront<autoax::Configuration>);
    let mut fronts: Vec<StrategyRun> = Vec::new();
    for &budget in &budgets {
        for algo in strategies {
            let opts = SearchOptions {
                strategy: algo,
                max_evals: budget,
                stagnation_limit: 50,
                seed: 7,
                ..SearchOptions::default()
            };
            let front = run_search(&pre.space, &estimator, &opts);
            fronts.push((algo.name().to_string(), budget, front));
        }
    }
    let uniform_opts = SearchOptions {
        strategy: SearchAlgo::Uniform,
        uniform_levels: 40,
        seed: 7,
        ..SearchOptions::default()
    };
    let uniform = run_search(&pre.space, &estimator, &uniform_opts);
    // The uniform baseline's real cost is the deduplicated level-grid
    // size, not the nominal level count.
    let uniform_evals = uniform_selection(&pre.space, uniform_opts.uniform_levels).len();
    fronts.push(("uniform".to_string(), uniform_evals, uniform));

    // Hypervolumes on one shared normalization (all fronts + optimal).
    let point_sets: Vec<Vec<TradeoffPoint>> = fronts
        .iter()
        .map(|(_, _, f)| f.points())
        .chain(std::iter::once(optimal.points()))
        .collect();
    let refs: Vec<&[TradeoffPoint]> = point_sets.iter().map(|v| v.as_slice()).collect();
    let hv = joint_hypervolumes(&refs);
    let hv_optimal = *hv.last().unwrap();

    println!(
        "\nTable 4: distance to/from the optimal front (lower is better), \
         hypervolume (higher is better)\n\
         {:<10} {:>7} {:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>8}",
        "Algorithm", "#eval", "#Pareto", "to-avg", "to-max", "from-avg", "from-max", "hv"
    );
    println!(
        "{:<10} {:>7} {:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>8.5}",
        "optimal",
        format!("{:.0}", pre.space.size()),
        optimal.len(),
        "",
        "",
        "",
        "",
        hv_optimal
    );
    let mut rows = vec![vec![
        "optimal".to_string(),
        format!("{:.0}", pre.space.size()),
        optimal.len().to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        format!("{hv_optimal:.5}"),
    ]];
    let mut last: Option<(f64, f64)> = None; // (hill avg, rs avg) at max budget
    for ((name, budget, front), &front_hv) in fronts.iter().zip(hv.iter()) {
        let d = front_distances(&front.points(), &optimal.points());
        println!(
            "{:<10} {:>7} {:>8} | {:>9.5} {:>9.5} | {:>9.5} {:>9.5} | {:>8.5}",
            name,
            budget,
            front.len(),
            d.to_optimal.0,
            d.to_optimal.1,
            d.from_optimal.0,
            d.from_optimal.1,
            front_hv
        );
        rows.push(vec![
            name.clone(),
            budget.to_string(),
            front.len().to_string(),
            format!("{:.5}", d.to_optimal.0),
            format!("{:.5}", d.to_optimal.1),
            format!("{:.5}", d.from_optimal.0),
            format!("{:.5}", d.from_optimal.1),
            format!("{front_hv:.5}"),
        ]);
        if *budget == *budgets.last().unwrap() {
            if name == "hill" {
                last = Some((d.from_optimal.0, f64::NAN));
            } else if name == "random" {
                if let Some((h, _)) = last {
                    last = Some((h, d.from_optimal.0));
                }
            }
        }
    }
    write_csv(
        "table4.csv",
        "algorithm,evals,pareto,to_avg,to_max,from_avg,from_max,hypervolume",
        &rows,
    );
    if let Some((hill, rs)) = last {
        println!(
            "\nshape check: at 10^5 evaluations the proposed algorithm covers the optimal \
             front better than RS ({hill:.5} < {rs:.5}): {}",
            hill < rs
        );
    }
}
