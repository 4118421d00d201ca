//! Random-sampling Pareto construction — the "RS" baseline of Table 4 and
//! Fig. 5: sample configurations uniformly, estimate, keep the Pareto set.

use super::hill::SearchOptions;
use super::{ConfigBatch, Estimator, SearchStrategy};
use crate::config::{ConfigSpace, Configuration};
use crate::job::CancelToken;
use crate::pareto::{ParetoFront, TradeoffPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Uniform random sampling as a [`SearchStrategy`].
///
/// Samples are drawn sequentially from one RNG stream into a reused
/// columnar [`ConfigBatch`] and estimated in slices of
/// [`SearchOptions::batch_size`] through [`Estimator::estimate_slice`];
/// because sampling never depends on estimates, the result is
/// byte-identical for any batch size (and to the historical
/// one-estimate-per-iteration loop). Only candidates accepted onto the
/// front materialize a [`Configuration`].
pub struct RandomSampling;

impl SearchStrategy for RandomSampling {
    fn name(&self) -> &'static str {
        "random"
    }

    fn search_cancellable(
        &self,
        space: &ConfigSpace,
        estimator: &dyn Estimator,
        opts: &SearchOptions,
        cancel: &CancelToken,
    ) -> ParetoFront<Configuration> {
        let mut sp = autoax_telemetry::span("search.random");
        sp.field("max_evals", opts.max_evals);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut front = ParetoFront::new();
        let chunk = opts.batch_size.max(1);
        let mut batch = ConfigBatch::with_capacity(space.slot_count(), chunk);
        let mut estimates: Vec<TradeoffPoint> = Vec::with_capacity(chunk);
        let mut remaining = opts.max_evals;
        while remaining > 0 && !cancel.is_cancelled() {
            let r = chunk.min(remaining);
            {
                let _t = super::phase::PhaseTimer::start(super::phase::Phase::Propose);
                batch.clear();
                for _ in 0..r {
                    space.random_into(batch.push_row(), &mut rng);
                }
            }
            estimates.clear();
            super::estimate_chunked(estimator, &batch, None, r, &mut estimates);
            debug_assert_eq!(estimates.len(), r, "estimator returned wrong batch size");
            // Batched offer — identical members and order to replaying
            // `try_insert_with` per candidate.
            let _t = super::phase::PhaseTimer::start(super::phase::Phase::Insert);
            front.insert_batch_with(&estimates, |i| batch.to_configuration(i));
            remaining -= r;
        }
        front
    }
}

/// Builds a Pareto set from `opts.max_evals` uniformly random samples —
/// the historical free-function entry point for [`RandomSampling`].
pub fn random_sampling(
    space: &ConfigSpace,
    estimator: &impl Estimator,
    opts: &SearchOptions,
) -> ParetoFront<Configuration> {
    RandomSampling.search(space, estimator, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::TradeoffPoint;
    use crate::search::heuristic_pareto;
    use crate::search::testutil::{needle_estimator, snapshot, toy_space};

    #[test]
    fn finds_some_front() {
        let space = toy_space(4, 5);
        let opts = SearchOptions {
            max_evals: 2000,
            stagnation_limit: 50,
            seed: 1,
            ..SearchOptions::default()
        };
        let front = random_sampling(&space, &needle_estimator, &opts);
        assert!(!front.is_empty());
    }

    #[test]
    fn batch_size_never_changes_the_result() {
        let space = toy_space(4, 5);
        let run = |batch_size: usize| {
            snapshot(&random_sampling(
                &space,
                &needle_estimator,
                &SearchOptions {
                    max_evals: 1000,
                    seed: 11,
                    batch_size,
                    ..SearchOptions::default()
                },
            ))
        };
        let reference = run(1);
        for batch in [7, 32, 1000] {
            assert_eq!(reference, run(batch), "batch={batch} diverged");
        }
    }

    #[test]
    fn hill_climbing_approaches_thin_front_better_than_random_sampling() {
        // The Table 4 shape. With two different objective weight vectors
        // the true Pareto front is the *thin* bang-bang set (every slot at
        // an extreme): interior candidates get rejected by ParetoInsert,
        // which ratchets the hill climb's parent toward the front, while
        // random sampling keeps drawing from the dominated interior.
        use crate::pareto::front_distances;
        use crate::search::exhaustive_front;
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
        let optimal = exhaustive_front(&space, &est);
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
            hill_total += dist(&heuristic_pareto(&space, &est, &opts));
            rs_total += dist(&random_sampling(&space, &est, &opts));
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
            max_evals: 500,
            stagnation_limit: 50,
            seed: 7,
            ..SearchOptions::default()
        };
        let a = random_sampling(&space, &needle_estimator, &opts);
        let b = random_sampling(&space, &needle_estimator, &opts);
        assert_eq!(a.len(), b.len());
    }
}
