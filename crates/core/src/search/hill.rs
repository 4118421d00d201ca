//! Algorithm 1 of the paper: heuristic Pareto set construction by
//! stochastic hill climbing over model estimates.
//!
//! ```text
//! Parent <- PickRandomlyFrom(RL_1 x ... x RL_n)
//! P <- {}
//! while not TerminationCondition:
//!     C <- GetNeighbour(Parent)
//!     eQoR <- M_QoR(C); eHW <- M_HW(C)
//!     if ParetoInsert(P, (eQoR, eHW), C): Parent <- C
//!     else if StagnationDetected:        Parent <- PickRandomlyFrom(P)
//! return P
//! ```
//!
//! Stagnation means the parent has not changed for `stagnation_limit`
//! successive iterations (the paper uses k = 50).
//!
//! # Parallel island search
//!
//! The paper runs 10⁵ (Sobel) to 10⁶ (GF) estimates per search, which
//! makes estimation throughput the Step-3 bottleneck. The search
//! therefore runs a **multi-start island** variant: `islands` independent
//! copies of Algorithm 1, each with its own RNG stream derived from the
//! master seed, executed on scoped worker threads. Each island proposes
//! candidates in fixed-size *rounds* — every candidate of a round is a
//! neighbour of the island's current parent, generated before any of the
//! round's estimates are consumed — so the round can be estimated with one
//! batched [`Estimator::estimate_neighbours`] call, which knows the rows
//! are neighbours of that parent, and then replayed through the
//! sequential `ParetoInsert` logic above.
//!
//! The round lives in a columnar [`ConfigBatch`]: candidates are written
//! in place with [`ConfigSpace::neighbor_into`], estimated straight off
//! the slab, and only an *accepted* candidate (a successful
//! `ParetoInsert`) materializes a [`Configuration`] — the eval loop
//! performs **zero per-candidate heap allocations**.
//!
//! At fixed synchronization epochs the island fronts are merged into the
//! global front **in island order**, and the merged front is shared back,
//! so stagnation restarts in later epochs draw from the best points found
//! anywhere. Determinism guarantees:
//!
//! * results are a pure function of `(seed, max_evals, stagnation_limit,
//!   islands)`;
//! * the worker-thread count ([`SearchOptions::threads`] /
//!   `AUTOAX_THREADS`) never changes the result — islands are
//!   deterministic in isolation and merged in island order.

use super::{ConfigBatch, Estimator, SearchAlgo};
use crate::config::{ConfigSpace, Configuration};
use crate::job::CancelToken;
use crate::pareto::{ParetoFront, TradeoffPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Candidates proposed per island round (one batched estimation per
/// round). Fixed — not a tuning knob — so that search results depend only
/// on the semantic options, never on execution-layer configuration.
const ROUND: usize = 32;

/// Number of island synchronization epochs per search: after each epoch
/// the island fronts merge into the global front (in island order) and the
/// merged front is shared back for the next epoch's restarts.
const SYNC_EPOCHS: usize = 4;

/// Search budget and behaviour knobs shared by every strategy.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Which strategy [`super::run_search`] dispatches to.
    pub strategy: SearchAlgo,
    /// Number of candidate evaluations (model estimates).
    pub max_evals: usize,
    /// Parent-unchanged iterations before a restart (paper: 50; hill
    /// only).
    pub stagnation_limit: usize,
    /// RNG seed.
    pub seed: u64,
    /// Independent search islands (semantic knob: changes the trajectory,
    /// deterministically; hill only). The eval budget is split evenly
    /// across islands.
    pub islands: usize,
    /// Error levels of the manual uniform-selection baseline
    /// ([`super::uniform`] only).
    pub uniform_levels: usize,
    /// Worker threads for the island search; `0` = the execution layer's
    /// default ([`autoax_exec::thread_count`]). Pure throughput knob —
    /// any value produces identical results.
    pub threads: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            strategy: SearchAlgo::Hill,
            max_evals: 100_000,
            stagnation_limit: 50,
            seed: 0,
            islands: 8,
            uniform_levels: 25,
            threads: 0,
        }
    }
}

/// Per-island search state carried across rounds and epochs.
struct Island {
    rng: StdRng,
    /// Current parent genome (flat, no `Configuration` on the hot path).
    parent: Vec<u16>,
    stagnation: usize,
    front: ParetoFront<Configuration>,
    /// Remaining eval budget over the whole search.
    budget: usize,
    /// Evals to spend in the current epoch.
    epoch_budget: usize,
    /// Reused columnar arena for one round of candidates.
    round: ConfigBatch,
    /// Reused estimate buffer, aligned with `round`.
    estimates: Vec<TradeoffPoint>,
}

/// SplitMix64-style per-island seed derivation: decorrelates the island
/// RNG streams from each other and from the master seed.
fn island_seed(master: u64, island: u64) -> u64 {
    let mut z = master ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(island.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Island {
    fn new(space: &ConfigSpace, seed: u64, budget: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut parent = vec![0u16; space.slot_count()];
        space.random_into(&mut parent, &mut rng);
        Island {
            rng,
            parent,
            stagnation: 0,
            front: ParetoFront::new(),
            budget,
            epoch_budget: 0,
            round: ConfigBatch::with_capacity(space.slot_count(), ROUND),
            estimates: Vec::with_capacity(ROUND),
        }
    }

    /// Runs `epoch_budget` evaluations in rounds of [`ROUND`] candidates,
    /// polling `cancel` between rounds.
    fn run_epoch(
        &mut self,
        space: &ConfigSpace,
        estimator: &dyn Estimator,
        opts: &SearchOptions,
        cancel: &CancelToken,
    ) {
        let limit = opts.stagnation_limit.max(1);
        let mut remaining = self.epoch_budget;
        while remaining > 0 && !cancel.is_cancelled() {
            let r = ROUND.min(remaining);
            // Propose the whole round up front (all neighbours of the
            // current parent), written straight into the columnar arena:
            // the trajectory is fixed before estimation.
            {
                let _t = super::phase::PhaseTimer::start(super::phase::Phase::Propose);
                self.round.clear();
                for _ in 0..r {
                    space.neighbor_into(&self.parent, self.round.push_row(), &mut self.rng);
                }
            }
            // Every row is a one-slot neighbour of the parent, which
            // selects the estimator's neighbour kernel.
            self.estimates.clear();
            super::estimate_round(
                estimator,
                &self.round,
                Some(&self.parent),
                &mut self.estimates,
            );
            // Replay the round through the sequential Algorithm-1 logic;
            // only accepted candidates materialize a Configuration.
            let _t = super::phase::PhaseTimer::start(super::phase::Phase::Insert);
            for i in 0..r {
                let est = self.estimates[i];
                let genes = self.round.row(i);
                if self
                    .front
                    .try_insert_with(est, || Configuration::from_genes(genes.to_vec()))
                {
                    self.parent.copy_from_slice(genes);
                    self.stagnation = 0;
                } else {
                    self.stagnation += 1;
                    if self.stagnation >= limit && !self.front.is_empty() {
                        let pick = self.rng.gen_range(0..self.front.len());
                        let (_, cc) = self.front.iter().nth(pick).expect("front member");
                        self.parent.copy_from_slice(cc.genes());
                        self.stagnation = 0;
                    }
                }
            }
            remaining -= r;
        }
    }
}

/// The batched, multi-core island variant of Algorithm 1 — the paper's
/// search.
///
/// The result is byte-identical for a given `(seed, max_evals,
/// stagnation_limit, islands)` regardless of [`SearchOptions::threads`];
/// see the module docs for the guarantees. A golden parity test pins the
/// output bit for bit to the original sequential implementation.
pub(crate) fn search(
    space: &ConfigSpace,
    estimator: &dyn Estimator,
    opts: &SearchOptions,
    cancel: &CancelToken,
) -> ParetoFront<Configuration> {
    let mut sp = autoax_telemetry::span("search.hill");
    sp.field("max_evals", opts.max_evals);
    let islands = opts.islands.max(1);
    let threads = if opts.threads == 0 {
        autoax_exec::thread_count()
    } else {
        opts.threads
    };
    // Split the eval budget across islands: the first
    // `max_evals % islands` islands take one extra eval.
    let base = opts.max_evals / islands;
    let extra = opts.max_evals % islands;
    let mut states: Vec<Island> = (0..islands)
        .map(|i| {
            let budget = base + usize::from(i < extra);
            Island::new(space, island_seed(opts.seed, i as u64), budget)
        })
        .collect();
    let mut global: ParetoFront<Configuration> = ParetoFront::new();
    // Every trade-off point ever offered to `global`, by bit pattern.
    // Once `try_insert` has seen a point it will reject that point
    // forever (a rejecting member can only be evicted by a
    // transitively dominating one), so the merge can skip re-offers —
    // in particular the shared front cloned back to every island — in
    // O(1) instead of replaying an O(|front|) scan per member per
    // epoch.
    let mut seen: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
    for epoch in 0..SYNC_EPOCHS {
        if cancel.is_cancelled() {
            break;
        }
        for st in &mut states {
            // Spend 1/SYNC_EPOCHS of the island budget per epoch; the
            // last epoch takes the remainder.
            st.epoch_budget = if epoch + 1 == SYNC_EPOCHS {
                st.budget
            } else {
                st.budget / (SYNC_EPOCHS - epoch)
            };
            st.budget -= st.epoch_budget;
        }
        states = autoax_exec::par_map_owned_with(threads.min(islands), states, |mut st| {
            st.run_epoch(space, estimator, opts, cancel);
            st
        });
        // Deterministic merge: island order, then each island's
        // insertion order. `try_insert` rejects duplicates and evicts
        // dominated members, so the global front stays minimal.
        for st in &states {
            for (p, c) in st.front.iter() {
                if seen.insert((p.qor.to_bits(), p.cost.to_bits())) {
                    global.try_insert(*p, c.clone());
                }
            }
        }
        // Share the merged knowledge back so later-epoch stagnation
        // restarts can jump to any island's discoveries.
        for st in &mut states {
            st.front = global.clone();
        }
    }
    global
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::TradeoffPoint;
    use crate::search::run_search;
    use crate::search::testutil::{snapshot, toy_space};

    fn toy_estimator(c: &Configuration) -> TradeoffPoint {
        // qor decreases with total wmed, cost decreases with wmed
        let total: f64 = c.genes().iter().map(|&v| v as f64).sum();
        TradeoffPoint::new(-total, 100.0 - total)
    }

    #[test]
    fn finds_extreme_points() {
        let space = toy_space(4, 6);
        let opts = SearchOptions {
            max_evals: 20_000,
            seed: 3,
            ..SearchOptions::default()
        };
        let front = run_search(&space, &toy_estimator, &opts);
        // with qor = -t and cost = 100 - t, every distinct t is
        // non-dominated; the search should discover most of the 21 levels
        assert!(front.len() >= 15, "only {} levels found", front.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let space = toy_space(3, 5);
        let opts = SearchOptions {
            max_evals: 5_000,
            seed: 9,
            ..SearchOptions::default()
        };
        let f1 = run_search(&space, &toy_estimator, &opts);
        let f2 = run_search(&space, &toy_estimator, &opts);
        assert_eq!(f1.len(), f2.len());
        let p1: Vec<_> = f1.points().iter().map(|p| (p.qor, p.cost)).collect();
        let p2: Vec<_> = f2.points().iter().map(|p| (p.qor, p.cost)).collect();
        assert_eq!(p1, p2);
    }

    #[test]
    fn identical_fronts_for_thread_counts_1_2_8() {
        let space = toy_space(5, 7);
        let run = |threads: usize| {
            run_search(
                &space,
                &toy_estimator,
                &SearchOptions {
                    max_evals: 6_000,
                    seed: 17,
                    threads,
                    ..SearchOptions::default()
                },
            )
        };
        let one = snapshot(&run(1));
        for threads in [2, 8] {
            assert_eq!(one, snapshot(&run(threads)), "threads={threads} diverged");
        }
    }

    #[test]
    fn island_count_is_a_semantic_knob() {
        // Different island counts are allowed to (and generally do)
        // explore different trajectories — but each must be internally
        // deterministic.
        let space = toy_space(4, 6);
        let run = |islands: usize| {
            run_search(
                &space,
                &toy_estimator,
                &SearchOptions {
                    max_evals: 2_000,
                    seed: 5,
                    islands,
                    ..SearchOptions::default()
                },
            )
        };
        for islands in [1, 2, 8] {
            assert_eq!(
                snapshot(&run(islands)),
                snapshot(&run(islands)),
                "islands={islands} not deterministic"
            );
        }
    }

    #[test]
    fn front_members_are_mutually_nondominated() {
        let space = toy_space(3, 4);
        let estimator = |c: &Configuration| {
            // rugged landscape: xor-style interactions
            let a = c.genes()[0] as f64;
            let b = c.genes()[1] as f64;
            let d = c.genes()[2] as f64;
            TradeoffPoint::new((a - b).abs() + d, a + b + 2.0 * d)
        };
        let front = run_search(
            &space,
            &estimator,
            &SearchOptions {
                max_evals: 3000,
                stagnation_limit: 20,
                seed: 5,
                ..SearchOptions::default()
            },
        );
        let pts = front.points();
        for (i, a) in pts.iter().enumerate() {
            for (j, b) in pts.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b));
                }
            }
        }
    }

    #[test]
    fn more_evals_do_not_shrink_front_quality() {
        let space = toy_space(5, 8);
        let run = |evals: usize| {
            run_search(
                &space,
                &toy_estimator,
                &SearchOptions {
                    max_evals: evals,
                    seed: 11,
                    ..SearchOptions::default()
                },
            )
            .len()
        };
        assert!(run(20_000) >= run(500));
    }
}
