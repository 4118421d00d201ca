//! Exhaustive Pareto construction over a (small enough) configuration
//! space — used for the "Optimal Pareto" row of Table 4, where the paper
//! enumerates all 4.92·10^7 reduced Sobel configurations.

use super::hill::SearchOptions;
use super::phase::{Phase, PhaseTimer};
use super::{ConfigBatch, Estimator};
use crate::config::{ConfigSpace, Configuration, MAX_ENUMERABLE_CONFIGS};
use crate::job::CancelToken;
use crate::pareto::{ParetoFront, TradeoffPoint};

/// Rows per enumeration slab. Enumeration has no sequential feedback
/// (the odometer never looks at an estimate), so unlike the hill climb's
/// fixed 32-candidate rounds the slab can be as large as cache economics
/// allow: big slabs amortize the per-call overhead of the fused forest
/// kernel (dispatch, scratch setup, block fill) over thousands of rows.
/// Results are bitwise invariant to the slab size — a row's estimate does
/// not depend on its slab, and insertion order is the enumeration order.
const SLAB: usize = 4096;

/// Full enumeration: every configuration of the space, in lexicographic
/// order, estimated in columnar slabs (the odometer advances in place —
/// no per-candidate allocation) and Pareto-filtered in one batched insert
/// per slab. [`SearchOptions::max_evals`] is ignored — the budget is the
/// space itself.
///
/// # Panics
/// Panics if the space exceeds [`MAX_ENUMERABLE_CONFIGS`] (see
/// [`ConfigSpace::iter_all`]).
pub(crate) fn search(
    space: &ConfigSpace,
    estimator: &dyn Estimator,
    _opts: &SearchOptions,
    cancel: &CancelToken,
) -> ParetoFront<Configuration> {
    assert!(
        space.size() <= MAX_ENUMERABLE_CONFIGS,
        "space too large for exhaustive enumeration ({:.2e})",
        space.size()
    );
    let mut sp = autoax_telemetry::span("search.exhaustive");
    sp.field("space", space.size());
    let sizes = space.sizes();
    let stride = space.slot_count();
    let mut front = ParetoFront::new();
    let mut batch = ConfigBatch::with_capacity(stride, SLAB);
    let mut estimates: Vec<TradeoffPoint> = Vec::with_capacity(SLAB);
    let mut odometer = vec![0u16; stride];
    let mut done = false;
    while !done && !cancel.is_cancelled() {
        let mut t = PhaseTimer::start(Phase::Propose);
        batch.clear();
        while batch.len() < SLAB && !done {
            batch.push_genes(&odometer);
            // advance the odometer (least-significant slot first,
            // as ConfigSpace::iter_all does)
            let mut i = 0;
            loop {
                if i == stride {
                    done = true;
                    break;
                }
                odometer[i] += 1;
                if (odometer[i] as usize) < sizes[i] {
                    break;
                }
                odometer[i] = 0;
                i += 1;
            }
        }
        estimates.clear();
        super::estimate_round(estimator, &batch, None, &mut estimates, &mut t);
        // Batched offer — identical members and order to replaying
        // `try_insert_with` per candidate in enumeration order.
        t.next(Phase::Insert);
        front.insert_batch_with(&estimates, |i| batch.to_configuration(i));
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::TradeoffPoint;
    use crate::search::testutil::toy_space;
    use crate::search::{run_search, SearchAlgo};

    fn enumerate(
        space: &ConfigSpace,
        estimator: impl Fn(&Configuration) -> TradeoffPoint + Sync,
    ) -> ParetoFront<Configuration> {
        let opts = SearchOptions {
            strategy: SearchAlgo::Exhaustive,
            ..SearchOptions::default()
        };
        run_search(space, &estimator, &opts)
    }

    fn estimator(c: &Configuration) -> TradeoffPoint {
        let t: f64 = c.genes().iter().map(|&v| v as f64 * v as f64).sum();
        let u: f64 = c.genes().iter().map(|&v| 9.0 - v as f64).sum();
        TradeoffPoint::new(-t, u)
    }

    #[test]
    fn enumeration_matches_iterator_order_and_coverage() {
        // The columnar odometer must visit exactly the configurations of
        // ConfigSpace::iter_all, and the resulting front must equal the
        // one built by inserting them one by one.
        let space = toy_space(3, 3);
        let mut reference = ParetoFront::new();
        for c in space.iter_all() {
            let est = estimator(&c);
            reference.try_insert(est, c);
        }
        let front = enumerate(&space, estimator);
        let snap = |f: &ParetoFront<Configuration>| {
            f.iter()
                .map(|(p, c)| (p.qor.to_bits(), p.cost.to_bits(), c.genes().to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(snap(&reference), snap(&front));
    }

    #[test]
    fn heuristic_front_converges_to_exhaustive_optimum() {
        let space = toy_space(4, 4); // 256 configs
        let optimal = enumerate(&space, estimator);
        // With a budget far above the space size the heuristic visits
        // everything reachable and its front matches the optimum.
        let heuristic = run_search(
            &space,
            &estimator,
            &SearchOptions {
                max_evals: 20_000,
                stagnation_limit: 30,
                seed: 1,
                ..SearchOptions::default()
            },
        );
        let d = crate::pareto::front_distances(&heuristic.points(), &optimal.points());
        assert!(d.to_optimal.1 < 1e-9, "{d:?}");
        assert!(d.from_optimal.1 < 1e-9, "{d:?}");
    }

    #[test]
    fn front_of_monotone_landscape_is_full_diagonal() {
        let space = toy_space(2, 3);
        // qor = -sum (maximize => prefer small sums), cost = 10 - sum
        // (minimize => prefer large sums): a genuine trade-off where every
        // distinct sum 0..=4 is non-dominated.
        let est = |c: &Configuration| {
            let t: f64 = c.genes().iter().map(|&v| v as f64).sum();
            TradeoffPoint::new(-t, 10.0 - t)
        };
        let front = enumerate(&space, est);
        let mut costs: Vec<f64> = front.points().iter().map(|p| p.cost).collect();
        costs.sort_by(f64::total_cmp);
        costs.dedup();
        assert_eq!(costs, vec![6.0, 7.0, 8.0, 9.0, 10.0]);
    }
}
