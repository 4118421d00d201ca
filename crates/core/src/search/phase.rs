//! Hot-path observability: the three phases every strategy cycles
//! through, recorded into the metrics registry —
//!
//! * **propose** — generating candidate genomes (neighbour moves, RNG
//!   sampling, odometer advance, NSGA-II variation);
//! * **estimate** — model inference over the proposed slab
//!   ([`super::Estimator::estimate_slice`] /
//!   [`super::Estimator::estimate_neighbours`]);
//! * **insert** — Pareto-front bookkeeping (`try_insert` replay,
//!   [`crate::pareto::ParetoFront::insert_batch_with`], NSGA-II
//!   rank/crowd selection).
//!
//! Each phase of each round records its duration into the
//! `autoax_search_phase_round_ns{phase}` histogram, and every estimated
//! row counts into `autoax_search_estimates_total`. Timers wrap whole
//! per-round loops, never individual candidates, and read no clock while
//! the registry is unsubscribed.
//!
//! [`SearchTimings`] keeps one process-wide count: the rows sent through
//! the estimator, the honest denominator for evals/s even for strategies
//! that ignore [`super::SearchOptions::max_evals`] (uniform's level grid,
//! exhaustive's full enumeration). Usage is snapshot-diff:
//!
//! ```
//! use autoax::search::SearchTimings;
//! let before = SearchTimings::snapshot();
//! // ... run a search ...
//! let estimated = SearchTimings::snapshot().since(&before).estimates;
//! # let _ = estimated;
//! ```

use autoax_telemetry as telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ESTIMATES: AtomicU64 = AtomicU64::new(0);

/// The registry handles: per-phase round-duration histograms plus the
/// estimated-rows counter, shared by every strategy through
/// [`PhaseTimer`] and [`count_estimates`]. While the registry is
/// unsubscribed each call site costs one relaxed load.
struct PhaseMetrics {
    round_ns: [telemetry::Histogram; 3],
    estimates: telemetry::Counter,
}

fn phase_metrics() -> &'static PhaseMetrics {
    static M: OnceLock<PhaseMetrics> = OnceLock::new();
    M.get_or_init(|| PhaseMetrics {
        round_ns: [
            telemetry::histogram_with("autoax_search_phase_round_ns", &[("phase", "propose")]),
            telemetry::histogram_with("autoax_search_phase_round_ns", &[("phase", "estimate")]),
            telemetry::histogram_with("autoax_search_phase_round_ns", &[("phase", "insert")]),
        ],
        estimates: telemetry::counter("autoax_search_estimates_total"),
    })
}

/// A monotonic snapshot of the estimated-rows count (cumulative since
/// process start). Subtract two snapshots with [`SearchTimings::since`] to
/// attribute estimates to a region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchTimings {
    /// Candidate rows estimated (one per genome row, every strategy).
    pub estimates: u64,
}

impl SearchTimings {
    /// Reads the current cumulative count.
    pub fn snapshot() -> SearchTimings {
        SearchTimings {
            estimates: ESTIMATES.load(Ordering::Relaxed),
        }
    }

    /// The count accumulated since `earlier` was taken.
    pub fn since(&self, earlier: &SearchTimings) -> SearchTimings {
        SearchTimings {
            estimates: self.estimates.wrapping_sub(earlier.estimates),
        }
    }
}

/// Which phase a [`PhaseTimer`] charges.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    Propose = 0,
    Estimate = 1,
    Insert = 2,
}

/// Scope guard recording its lifetime into one phase's histogram.
/// Created at the top of a per-round loop; the `Drop` records the
/// elapsed nanoseconds. Started while the registry is unsubscribed, it
/// reads no clock and records nothing.
pub(crate) struct PhaseTimer {
    t0: Option<Instant>,
    phase: Phase,
}

impl PhaseTimer {
    pub(crate) fn start(phase: Phase) -> Self {
        PhaseTimer {
            t0: telemetry::metrics_enabled().then(Instant::now),
            phase,
        }
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some(t0) = self.t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            phase_metrics().round_ns[self.phase as usize].record(ns);
        }
    }
}

/// Records `n` candidate rows as estimated (the evals/s numerator).
pub(crate) fn count_estimates(n: usize) {
    ESTIMATES.fetch_add(n as u64, Ordering::Relaxed);
    if telemetry::metrics_enabled() {
        phase_metrics().estimates.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::testutil::{needle_estimator, toy_space};
    use crate::search::{run_search, SearchAlgo, SearchOptions};

    #[test]
    fn timers_accumulate_into_their_phase() {
        // With the registry subscribed, every strategy records all three
        // phases and counts each estimated row, in the registry and in
        // `SearchTimings`. Nothing else in this binary unsubscribes it,
        // and concurrent tests only add, so the deltas are lower bounds.
        use std::sync::atomic::AtomicUsize;
        let was = telemetry::metrics_enabled();
        telemetry::set_metrics(true);
        let space = toy_space(3, 4);
        let m = phase_metrics();
        for algo in SearchAlgo::ALL {
            let rounds = m.round_ns.each_ref().map(|h| h.count());
            let (counted, before) = (m.estimates.get(), SearchTimings::snapshot());
            let calls = AtomicUsize::new(0);
            let estimator = |c: &crate::config::Configuration| {
                calls.fetch_add(1, Ordering::Relaxed);
                needle_estimator(c)
            };
            let opts = SearchOptions {
                strategy: algo,
                max_evals: 500,
                ..SearchOptions::default()
            };
            let _front = run_search(&space, &estimator, &opts);
            let calls = calls.into_inner() as u64;
            assert!(calls > 0, "{algo}");
            let spent = SearchTimings::snapshot().since(&before).estimates;
            assert!(spent >= calls, "{algo}: {spent} of {calls} estimates");
            assert!(m.estimates.get() - counted >= calls, "{algo}");
            for (phase, (h, n)) in m.round_ns.iter().zip(rounds).enumerate() {
                assert!(h.count() > n, "{algo}: phase {phase} recorded nothing");
            }
        }
        telemetry::set_metrics(was);
    }

    #[test]
    fn since_is_componentwise_difference() {
        let a = SearchTimings { estimates: 40 };
        let b = SearchTimings { estimates: 4 };
        assert_eq!(a.since(&b).estimates, 36);
    }
}
