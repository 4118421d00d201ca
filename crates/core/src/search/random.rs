//! Random-sampling Pareto construction — the "RS" baseline of Table 4 and
//! Fig. 5: sample configurations uniformly, estimate, keep the Pareto set.

use super::hill::SearchOptions;
use super::{ConfigBatch, Estimator};
use crate::config::{ConfigSpace, Configuration};
use crate::job::CancelToken;
use crate::pareto::{ParetoFront, TradeoffPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rows per round: sampled, estimated in one call, then offered to the
/// front. Sampling never depends on an estimate, so the round size does
/// not change the result.
const ROUND: usize = 32;

/// Uniform random sampling: `opts.max_evals` samples drawn sequentially
/// from one RNG stream into a reused columnar [`ConfigBatch`]. Only
/// candidates accepted onto the front materialize a [`Configuration`].
pub(crate) fn search(
    space: &ConfigSpace,
    estimator: &dyn Estimator,
    opts: &SearchOptions,
    cancel: &CancelToken,
) -> ParetoFront<Configuration> {
    let mut sp = autoax_telemetry::span("search.random");
    sp.field("max_evals", opts.max_evals);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut front = ParetoFront::new();
    let mut batch = ConfigBatch::with_capacity(space.slot_count(), ROUND);
    let mut estimates: Vec<TradeoffPoint> = Vec::with_capacity(ROUND);
    let mut remaining = opts.max_evals;
    while remaining > 0 && !cancel.is_cancelled() {
        let r = ROUND.min(remaining);
        {
            let _t = super::phase::PhaseTimer::start(super::phase::Phase::Propose);
            batch.clear();
            for _ in 0..r {
                space.random_into(batch.push_row(), &mut rng);
            }
        }
        estimates.clear();
        super::estimate_round(estimator, &batch, None, &mut estimates);
        // Batched offer — identical members and order to replaying
        // `try_insert_with` per candidate.
        let _t = super::phase::PhaseTimer::start(super::phase::Phase::Insert);
        front.insert_batch_with(&estimates, |i| batch.to_configuration(i));
        remaining -= r;
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::TradeoffPoint;
    use crate::search::testutil::{needle_estimator, toy_space};
    use crate::search::{run_search, SearchAlgo};

    #[test]
    fn finds_some_front() {
        let space = toy_space(4, 5);
        let opts = SearchOptions {
            strategy: SearchAlgo::Random,
            max_evals: 2000,
            stagnation_limit: 50,
            seed: 1,
            ..SearchOptions::default()
        };
        let front = run_search(&space, &needle_estimator, &opts);
        assert!(!front.is_empty());
    }

    #[test]
    fn hill_climbing_approaches_thin_front_better_than_random_sampling() {
        // The Table 4 shape. With two different objective weight vectors
        // the true Pareto front is the *thin* bang-bang set (every slot at
        // an extreme): interior candidates get rejected by ParetoInsert,
        // which ratchets the hill climb's parent toward the front, while
        // random sampling keeps drawing from the dominated interior.
        use crate::pareto::front_distances;
        let w: Vec<f64> = (0..6).map(|i| 1.0 + i as f64 * 0.35).collect();
        let u: Vec<f64> = (0..6).map(|i| 1.0 + ((i * 3) % 5) as f64 * 0.6).collect();
        let est = move |c: &Configuration| {
            let qor: f64 = -c
                .genes()
                .iter()
                .zip(w.iter())
                .map(|(&v, wi)| wi * v as f64)
                .sum::<f64>();
            let cost: f64 = c
                .genes()
                .iter()
                .zip(u.iter())
                .map(|(&v, ui)| ui * (4.0 - v as f64))
                .sum();
            TradeoffPoint::new(qor, cost)
        };
        let space = toy_space(6, 5); // 15625 configs: exhaustible
        let exhaustive = SearchOptions {
            strategy: SearchAlgo::Exhaustive,
            ..SearchOptions::default()
        };
        let optimal = run_search(&space, &est, &exhaustive);
        let budget = 1500;
        let dist = |front: &crate::pareto::ParetoFront<Configuration>| {
            front_distances(&front.points(), &optimal.points())
                .from_optimal
                .0
        };
        let mut hill_total = 0.0;
        let mut rs_total = 0.0;
        for seed in 0..5 {
            let opts = SearchOptions {
                max_evals: budget,
                stagnation_limit: 50,
                seed,
                ..SearchOptions::default()
            };
            hill_total += dist(&run_search(&space, &est, &opts));
            let random = SearchOptions {
                strategy: SearchAlgo::Random,
                ..opts
            };
            rs_total += dist(&run_search(&space, &est, &random));
        }
        assert!(
            hill_total < rs_total,
            "hill avg from-optimal distance {hill_total} should beat rs {rs_total}"
        );
    }

    #[test]
    fn deterministic() {
        let space = toy_space(3, 4);
        let opts = SearchOptions {
            strategy: SearchAlgo::Random,
            max_evals: 500,
            stagnation_limit: 50,
            seed: 7,
            ..SearchOptions::default()
        };
        let a = run_search(&space, &needle_estimator, &opts);
        let b = run_search(&space, &needle_estimator, &opts);
        assert_eq!(a.len(), b.len());
    }
}
