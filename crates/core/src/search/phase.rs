//! Hot-path observability: process-wide per-phase counters for the three
//! phases every [`super::SearchStrategy`] cycles through —
//!
//! * **propose** — generating candidate genomes (neighbour moves, RNG
//!   sampling, odometer advance, NSGA-II variation);
//! * **estimate** — model inference over the proposed slab
//!   ([`super::estimate_chunked`] / [`super::Estimator::estimate_slice`] /
//!   [`super::Estimator::estimate_neighbours`]);
//! * **insert** — Pareto-front bookkeeping (`try_insert` replay,
//!   [`crate::pareto::ParetoFront::insert_batch_with`], NSGA-II
//!   rank/crowd selection).
//!
//! The counters are relaxed atomics accumulated from every worker thread,
//! so a snapshot taken around a search measures *summed* thread time (on
//! one worker it equals wall time; with N workers it can exceed wall time
//! by up to N×). Timers wrap whole per-round loops, never individual
//! candidates: at the hill climb's fixed 32-candidate round size the
//! bookkeeping adds two `Instant` reads per phase per round — well under
//! 1% of the round's work.
//!
//! Usage is snapshot-diff:
//!
//! ```
//! use autoax::search::SearchTimings;
//! let before = SearchTimings::snapshot();
//! // ... run a search ...
//! let spent = SearchTimings::snapshot().since(&before);
//! let per_phase = (spent.propose_s(), spent.estimate_s(), spent.insert_s());
//! # let _ = per_phase;
//! ```
//!
//! `estimates` counts the rows actually sent through the estimator — the
//! honest denominator for evals/s even for strategies that ignore
//! [`super::SearchOptions::max_evals`] (uniform's level grid, exhaustive's
//! full enumeration).

use autoax_telemetry as telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static PROPOSE_NS: AtomicU64 = AtomicU64::new(0);
static ESTIMATE_NS: AtomicU64 = AtomicU64::new(0);
static INSERT_NS: AtomicU64 = AtomicU64::new(0);
static ESTIMATES: AtomicU64 = AtomicU64::new(0);

/// Registry-side mirror of the phase counters: per-phase round-duration
/// histograms plus the estimated-rows counter. Bridged from the same
/// [`PhaseTimer`] drops that feed [`SearchTimings`], so every strategy is
/// covered without extra call sites; when the registry is unsubscribed
/// the bridge costs one relaxed load per phase per round.
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

/// A monotonic snapshot of the per-phase counters (cumulative since
/// process start). Subtract two snapshots with [`SearchTimings::since`] to
/// attribute time to a region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchTimings {
    /// Nanoseconds spent generating candidates.
    pub propose_ns: u64,
    /// Nanoseconds spent in batched model estimation.
    pub estimate_ns: u64,
    /// Nanoseconds spent in Pareto-front / selection bookkeeping.
    pub insert_ns: u64,
    /// Candidate rows estimated (one per genome row, every strategy).
    pub estimates: u64,
}

impl SearchTimings {
    /// Reads the current cumulative counters.
    pub fn snapshot() -> SearchTimings {
        SearchTimings {
            propose_ns: PROPOSE_NS.load(Ordering::Relaxed),
            estimate_ns: ESTIMATE_NS.load(Ordering::Relaxed),
            insert_ns: INSERT_NS.load(Ordering::Relaxed),
            estimates: ESTIMATES.load(Ordering::Relaxed),
        }
    }

    /// The counter deltas accumulated since `earlier` was taken.
    pub fn since(&self, earlier: &SearchTimings) -> SearchTimings {
        SearchTimings {
            propose_ns: self.propose_ns.wrapping_sub(earlier.propose_ns),
            estimate_ns: self.estimate_ns.wrapping_sub(earlier.estimate_ns),
            insert_ns: self.insert_ns.wrapping_sub(earlier.insert_ns),
            estimates: self.estimates.wrapping_sub(earlier.estimates),
        }
    }

    /// Propose time in seconds.
    pub fn propose_s(&self) -> f64 {
        self.propose_ns as f64 * 1e-9
    }

    /// Estimate time in seconds.
    pub fn estimate_s(&self) -> f64 {
        self.estimate_ns as f64 * 1e-9
    }

    /// Insert/selection time in seconds.
    pub fn insert_s(&self) -> f64 {
        self.insert_ns as f64 * 1e-9
    }
}

/// Which phase a [`PhaseTimer`] charges.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    Propose,
    Estimate,
    Insert,
}

impl Phase {
    fn sink(self) -> &'static AtomicU64 {
        match self {
            Phase::Propose => &PROPOSE_NS,
            Phase::Estimate => &ESTIMATE_NS,
            Phase::Insert => &INSERT_NS,
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Propose => 0,
            Phase::Estimate => 1,
            Phase::Insert => 2,
        }
    }
}

/// Scope guard charging its lifetime to one phase counter. Created at the
/// top of a per-round loop; the `Drop` adds the elapsed nanoseconds.
pub(crate) struct PhaseTimer {
    t0: Instant,
    phase: Phase,
}

impl PhaseTimer {
    pub(crate) fn start(phase: Phase) -> Self {
        PhaseTimer {
            t0: Instant::now(),
            phase,
        }
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        let ns = self.t0.elapsed().as_nanos() as u64;
        self.phase.sink().fetch_add(ns, Ordering::Relaxed);
        if telemetry::metrics_enabled() {
            phase_metrics().round_ns[self.phase.index()].record(ns);
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

    #[test]
    fn timers_accumulate_into_their_phase() {
        let before = SearchTimings::snapshot();
        {
            let _t = PhaseTimer::start(Phase::Propose);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _t = PhaseTimer::start(Phase::Insert);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        count_estimates(17);
        let d = SearchTimings::snapshot().since(&before);
        assert!(d.propose_ns >= 1_000_000, "propose {:?}", d);
        assert!(d.insert_ns >= 500_000, "insert {:?}", d);
        assert!(d.estimates >= 17, "estimates {:?}", d);
    }

    #[test]
    fn since_is_componentwise_difference() {
        let a = SearchTimings {
            propose_ns: 10,
            estimate_ns: 20,
            insert_ns: 30,
            estimates: 40,
        };
        let b = SearchTimings {
            propose_ns: 1,
            estimate_ns: 2,
            insert_ns: 3,
            estimates: 4,
        };
        let d = a.since(&b);
        assert_eq!(
            (d.propose_ns, d.estimate_ns, d.insert_ns, d.estimates),
            (9, 18, 27, 36)
        );
    }
}
