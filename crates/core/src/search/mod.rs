//! Step 3 of the methodology: model-based design space exploration.
//!
//! The paper's Step 3 is one algorithm compared against fixed baselines.
//! Each lives in its own module behind one entry point,
//! `search(space, estimator, opts, cancel)`, over one candidate
//! representation (the columnar [`ConfigBatch`] plane of [`batch`]) and
//! one option set ([`SearchOptions`]). [`run_search`] picks the module
//! named by [`SearchAlgo`] in one `match`:
//!
//! * [`hill`] — the paper's Algorithm 1 (stochastic hill climbing with
//!   `ParetoInsert` and stagnation restarts), as the parallel island
//!   search;
//! * [`nsga2`] — NSGA-II with crowding distance, the classic
//!   multi-objective evolutionary baseline the paper's algorithm is
//!   usually compared against;
//! * [`random`] — the random-sampling baseline of Table 4 / Fig. 5;
//! * [`uniform`] — the manual "uniform selection" baseline of Fig. 5;
//! * [`exhaustive`] — full enumeration, used for the optimal fronts of
//!   Table 4 and for tests.
//!
//! Strategies are compared quantitatively with the hypervolume indicator
//! ([`crate::pareto::hypervolume2`] / [`crate::pareto::joint_hypervolumes`]).
//!
//! # Adding a strategy
//!
//! Write a module with a `pub(crate) fn search(space, &dyn Estimator,
//! opts, cancel)` that generates candidates into a [`ConfigBatch`],
//! estimates each round in one [`Estimator::estimate_slice`] call and
//! keeps the non-dominated set in a [`ParetoFront`]. Then add a
//! [`SearchAlgo`] variant and its arm in [`run_search_cancellable`]:
//! `run_pipeline`, the bench binaries and the examples' `--strategy`
//! flag can then select it.

pub mod batch;
pub mod exhaustive;
pub mod hill;
pub mod nsga2;
pub mod phase;
pub mod random;
pub mod uniform;

pub use batch::{ConfigBatch, ConfigSlice};
pub use hill::SearchOptions;
pub use phase::SearchTimings;
pub use uniform::uniform_selection;

use crate::config::{ConfigSpace, Configuration};
use crate::job::CancelToken;
use crate::pareto::{ParetoFront, TradeoffPoint};
use autoax_telemetry::ax_warn;

/// An estimation oracle mapping a configuration to `(QoR, cost)` — in the
/// pipeline this is a pair of fitted models, in tests a closed form.
///
/// Estimators are immutable (`Sync`) so the island search can share one
/// instance across worker threads. Every closure
/// `Fn(&Configuration) -> TradeoffPoint` is one.
pub trait Estimator: Sync {
    /// Estimates a columnar slice of candidate genomes, appending one
    /// point per row to `out` — the hot path every strategy drives, one
    /// call per round. [`crate::model::ModelEstimator`] gathers features
    /// straight from the slab. A row's point must not depend on the other
    /// rows of the slice or on its length.
    fn estimate_slice(&self, rows: ConfigSlice<'_>, out: &mut Vec<TradeoffPoint>);

    /// [`Estimator::estimate_slice`] for rows that are mostly one-slot
    /// neighbours of `parent` — a hill-climb round. The parent only
    /// selects a cheaper kernel: results must be bitwise equal to
    /// [`Estimator::estimate_slice`] on the same rows, whatever they
    /// are. The default calls [`Estimator::estimate_slice`];
    /// [`crate::model::ModelEstimator`] overrides it to run each baked
    /// forest's leaf-bitvector neighbour table.
    fn estimate_neighbours(
        &self,
        parent: &[u16],
        rows: ConfigSlice<'_>,
        out: &mut Vec<TradeoffPoint>,
    ) {
        let _ = parent;
        self.estimate_slice(rows, out);
    }
}

impl<F> Estimator for F
where
    F: Fn(&Configuration) -> TradeoffPoint + Sync,
{
    fn estimate_slice(&self, rows: ConfigSlice<'_>, out: &mut Vec<TradeoffPoint>) {
        out.extend(
            rows.rows()
                .map(|r| self(&Configuration::from_genes(r.to_vec()))),
        );
    }
}

/// The registry of built-in strategies — the `search_strategy` scenario
/// axis threaded through `PipelineOptions`, the bench binaries and the
/// examples' `--strategy` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchAlgo {
    /// Parallel island variant of the paper's Algorithm 1 (the default).
    Hill,
    /// NSGA-II with crowding distance.
    Nsga2,
    /// Uniform random sampling.
    Random,
    /// Manual uniform WMED-level selection.
    Uniform,
    /// Full enumeration (small spaces only).
    Exhaustive,
}

impl SearchAlgo {
    /// Every built-in strategy.
    pub const ALL: [SearchAlgo; 5] = [
        SearchAlgo::Hill,
        SearchAlgo::Nsga2,
        SearchAlgo::Random,
        SearchAlgo::Uniform,
        SearchAlgo::Exhaustive,
    ];

    /// The stable lowercase name (CLI flags, bench labels, timing
    /// reports).
    pub fn name(self) -> &'static str {
        match self {
            SearchAlgo::Hill => "hill",
            SearchAlgo::Nsga2 => "nsga2",
            SearchAlgo::Random => "random",
            SearchAlgo::Uniform => "uniform",
            SearchAlgo::Exhaustive => "exhaustive",
        }
    }

    /// Parses a strategy name (the [`SearchAlgo::name`] spelling plus a
    /// few common aliases). Returns `None` for unknown names.
    pub fn parse(s: &str) -> Option<SearchAlgo> {
        match s.trim().to_ascii_lowercase().as_str() {
            "hill" | "hill-climb" | "hillclimb" | "algorithm1" => Some(SearchAlgo::Hill),
            "nsga2" | "nsga-ii" | "nsga" => Some(SearchAlgo::Nsga2),
            "random" | "rs" => Some(SearchAlgo::Random),
            "uniform" => Some(SearchAlgo::Uniform),
            "exhaustive" | "optimal" => Some(SearchAlgo::Exhaustive),
            _ => None,
        }
    }

    /// Parses `--strategy <name>` / `--strategy=<name>` from argv-style
    /// args. Unknown names and a missing value warn through the leveled
    /// logger (`AUTOAX_LOG=warn`) and fall back to `None` (caller keeps
    /// its default).
    pub fn from_args(args: &[String]) -> Option<SearchAlgo> {
        for (i, a) in args.iter().enumerate() {
            let v = if let Some(rest) = a.strip_prefix("--strategy=") {
                Some(rest.to_string())
            } else if a == "--strategy" {
                let next = args.get(i + 1).cloned();
                if next.is_none() {
                    ax_warn!("--strategy needs a value, keeping default");
                    return None;
                }
                next
            } else {
                None
            };
            if let Some(v) = v {
                match SearchAlgo::parse(&v) {
                    Some(algo) => return Some(algo),
                    None => {
                        ax_warn!(
                            "unknown search strategy `{v}` (expected one of {}), keeping default",
                            SearchAlgo::ALL.map(|a| a.name()).join("|")
                        );
                        return None;
                    }
                }
            }
        }
        None
    }
}

impl std::fmt::Display for SearchAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs the strategy selected by [`SearchOptions::strategy`] and returns
/// its pseudo-Pareto set — the single Step-3 entry point the pipeline,
/// the bench binaries and the examples share.
///
/// Every strategy is a deterministic function of `(space, estimator,
/// opts)` minus the throughput knob [`SearchOptions::threads`].
pub fn run_search(
    space: &ConfigSpace,
    estimator: &impl Estimator,
    opts: &SearchOptions,
) -> ParetoFront<Configuration> {
    run_search_cancellable(space, estimator, opts, &CancelToken::new())
}

/// [`run_search`] with cooperative cancellation — what the service tier
/// drives so a shutdown or client disconnect stops a job within one
/// search round. The strategy polls `cancel` at round/epoch boundaries
/// and returns the front accumulated so far once it fires; an
/// un-cancelled token gives exactly the [`run_search`] result.
pub fn run_search_cancellable(
    space: &ConfigSpace,
    estimator: &impl Estimator,
    opts: &SearchOptions,
    cancel: &CancelToken,
) -> ParetoFront<Configuration> {
    match opts.strategy {
        SearchAlgo::Hill => hill::search(space, estimator, opts, cancel),
        SearchAlgo::Nsga2 => nsga2::search(space, estimator, opts, cancel),
        SearchAlgo::Random => random::search(space, estimator, opts, cancel),
        SearchAlgo::Uniform => uniform::search(space, estimator, opts, cancel),
        SearchAlgo::Exhaustive => exhaustive::search(space, estimator, opts, cancel),
    }
}

/// Estimates one round — every row of `batch` — in one estimator call,
/// appending to `out`, and switches the round's `timer` to the estimate
/// phase first. With a `parent` (the hill climb's round, all neighbours
/// of it) the rows go through [`Estimator::estimate_neighbours`],
/// otherwise through [`Estimator::estimate_slice`].
pub(crate) fn estimate_round(
    estimator: &dyn Estimator,
    batch: &ConfigBatch,
    parent: Option<&[u16]>,
    out: &mut Vec<TradeoffPoint>,
    timer: &mut phase::PhaseTimer,
) {
    let before = out.len();
    timer.next(phase::Phase::Estimate);
    match parent {
        Some(parent) => estimator.estimate_neighbours(parent, batch.as_slice(), out),
        None => estimator.estimate_slice(batch.as_slice(), out),
    }
    phase::count_estimates(batch.len());
    debug_assert_eq!(
        out.len() - before,
        batch.len(),
        "estimator returned wrong count"
    );
}

/// Shared fixtures for the per-strategy test modules.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::config::{SlotChoices, SlotMember};
    use autoax_circuit::charlib::CircuitId;
    use autoax_circuit::OpSignature;

    /// A synthetic space where member index k of every slot has wmed = k.
    pub(crate) fn toy_space(slots: usize, per_slot: usize) -> ConfigSpace {
        ConfigSpace::new(
            (0..slots)
                .map(|i| SlotChoices {
                    name: format!("s{i}"),
                    signature: OpSignature::ADD8,
                    members: (0..per_slot)
                        .map(|k| SlotMember {
                            id: CircuitId(k as u32),
                            wmed: k as f64,
                        })
                        .collect(),
                })
                .collect(),
        )
    }

    /// Full result of a front, payload genomes included, for byte-identity
    /// comparisons.
    pub(crate) fn snapshot(front: &ParetoFront<Configuration>) -> Vec<(u64, u64, Vec<u16>)> {
        front
            .iter()
            .map(|(p, c)| (p.qor.to_bits(), p.cost.to_bits(), c.genes().to_vec()))
            .collect()
    }

    /// An estimator where good trade-offs are *rare*: quality comes from
    /// all-equal assignments, which random sampling seldom hits.
    pub(crate) fn needle_estimator(c: &Configuration) -> TradeoffPoint {
        let g = c.genes();
        let t: f64 = g.iter().map(|&v| v as f64).sum();
        let spread = g
            .iter()
            .map(|&v| v as f64)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
        let penalty = (spread.1 - spread.0) * 3.0;
        TradeoffPoint::new(-(t + penalty), 100.0 - t + penalty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_names_round_trip_through_parse() {
        for algo in SearchAlgo::ALL {
            assert_eq!(SearchAlgo::parse(algo.name()), Some(algo));
            assert_eq!(algo.to_string(), algo.name());
        }
        assert_eq!(SearchAlgo::parse("NSGA-II"), Some(SearchAlgo::Nsga2));
        assert_eq!(SearchAlgo::parse("no-such-algo"), None);
    }

    #[test]
    fn budgeted_marks_the_fixed_cost_strategies() {
        // Hill, NSGA-II and random sampling spend exactly `max_evals`
        // estimates; uniform estimates its level grid and exhaustive the
        // whole space, whatever the budget.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let space = testutil::toy_space(3, 4);
        for algo in SearchAlgo::ALL {
            let calls = AtomicUsize::new(0);
            let estimator = |c: &Configuration| {
                calls.fetch_add(1, Ordering::Relaxed);
                testutil::needle_estimator(c)
            };
            let opts = SearchOptions {
                strategy: algo,
                max_evals: 1_000,
                uniform_levels: 8,
                ..SearchOptions::default()
            };
            let _front = run_search(&space, &estimator, &opts);
            let expect = match algo {
                SearchAlgo::Uniform => uniform_selection(&space, 8).len(),
                SearchAlgo::Exhaustive => 64,
                _ => opts.max_evals,
            };
            assert_eq!(calls.load(Ordering::Relaxed), expect, "{algo}");
        }
    }

    #[test]
    fn pre_cancelled_token_stops_every_strategy_early() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let space = testutil::toy_space(3, 4);
        for algo in SearchAlgo::ALL {
            let calls = AtomicUsize::new(0);
            let estimator = |c: &Configuration| {
                calls.fetch_add(1, Ordering::Relaxed);
                testutil::needle_estimator(c)
            };
            let opts = SearchOptions {
                strategy: algo,
                max_evals: 10_000,
                ..SearchOptions::default()
            };
            let cancel = CancelToken::new();
            cancel.cancel();
            let _front = run_search_cancellable(&space, &estimator, &opts, &cancel);
            // A fired token must stop the run long before the budget: no
            // strategy may spend more than one round of estimates.
            let spent = calls.load(Ordering::Relaxed);
            assert!(spent < opts.max_evals / 2, "{algo}: spent {spent} evals");
        }
    }

    #[test]
    fn uncancelled_token_matches_plain_search() {
        let space = testutil::toy_space(3, 4);
        let opts = SearchOptions {
            max_evals: 2_000,
            ..SearchOptions::default()
        };
        let plain = run_search(&space, &testutil::needle_estimator, &opts);
        let via_token = run_search_cancellable(
            &space,
            &testutil::needle_estimator,
            &opts,
            &CancelToken::new(),
        );
        assert_eq!(
            testutil::snapshot(&plain),
            testutil::snapshot(&via_token),
            "an un-cancelled token must not change results"
        );
    }

    #[test]
    fn default_estimate_neighbours_is_estimate_slice() {
        // A closure estimator has no neighbour kernel: the default must
        // hand the same rows to `estimate_slice`, whatever the parent.
        let mut batch = ConfigBatch::new(3);
        for genes in [[0, 1, 2], [0, 1, 3], [0, 1, 2], [4, 0, 3]] {
            batch.push_genes(&genes);
        }
        let bits = |pts: &[TradeoffPoint]| -> Vec<(u64, u64)> {
            pts.iter()
                .map(|p| (p.qor.to_bits(), p.cost.to_bits()))
                .collect()
        };
        let est = testutil::needle_estimator;
        let mut slice = Vec::new();
        est.estimate_slice(batch.as_slice(), &mut slice);
        for parent in [[0, 1, 2], [9, 9, 9]] {
            let mut neighbours = Vec::new();
            est.estimate_neighbours(&parent, batch.as_slice(), &mut neighbours);
            assert_eq!(bits(&neighbours), bits(&slice), "parent {parent:?}");
        }
    }

    #[test]
    fn strategy_flag_parsing() {
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert_eq!(
            SearchAlgo::from_args(&args(&["prog", "--strategy", "nsga2"])),
            Some(SearchAlgo::Nsga2)
        );
        assert_eq!(
            SearchAlgo::from_args(&args(&["prog", "--strategy=random"])),
            Some(SearchAlgo::Random)
        );
        assert_eq!(SearchAlgo::from_args(&args(&["prog"])), None);
        assert_eq!(
            SearchAlgo::from_args(&args(&["prog", "--strategy", "bogus"])),
            None
        );
    }
}
