//! The per-layer ledger of a traced run.
//!
//! The traced run composes a workload's computation out of the layers'
//! public functions and times every layer call from outside; nothing is
//! instrumented inside the program. The ledger keeps one sample per call
//! (reported as the median over calls) plus the sum of all layer time and
//! the wall time of the traced sections, whose ratio proves that the
//! layers account for the whole run.

use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer samples, counters and coverage of one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    samples: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, f64>,
    covered_s: f64,
    wall_s: f64,
}

impl Ledger {
    /// Runs `f` as one call of `layer` and records its wall time.
    pub fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(layer, t0.elapsed().as_secs_f64());
        out
    }

    /// Records one call of `layer` that took `secs`; the time counts as
    /// covered.
    pub fn record(&mut self, layer: &str, secs: f64) {
        self.covered_s += secs;
        self.sample(layer, secs);
    }

    /// Records a derived sample (a per-run total, a rate) that is not
    /// itself layer time, so it does not count towards coverage.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Sets a counter.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_string(), value);
    }

    /// Adds the wall time of a traced section: `secs` of wall on `lanes`
    /// concurrent client threads.
    pub fn add_wall(&mut self, secs: f64, lanes: usize) {
        self.wall_s += secs * lanes as f64;
    }

    /// Closes a single-lane traced section started at `t0`, returning its
    /// wall time.
    pub fn end_section(&mut self, t0: Instant) -> f64 {
        let secs = t0.elapsed().as_secs_f64();
        self.add_wall(secs, 1);
        secs
    }

    /// Median over the recorded samples of `name`, then the counter of
    /// that name.
    pub fn value(&self, name: &str) -> Option<f64> {
        match self.samples.get(name) {
            Some(v) if !v.is_empty() => Some(median(v)),
            _ => self.counts.get(name).copied(),
        }
    }

    /// Share of the traced wall time of all `ledgers` that their layer
    /// calls account for.
    pub fn combined_coverage(ledgers: &[&Ledger]) -> f64 {
        let covered: f64 = ledgers.iter().map(|l| l.covered_s).sum();
        let wall: f64 = ledgers.iter().map(|l| l.wall_s).sum();
        covered / wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_counts_and_coverage() {
        let mut led = Ledger::default();
        led.record("a", 1.0);
        led.record("a", 3.0);
        led.record("a", 2.0);
        led.count("n", 5.0);
        led.add_wall(2.0, 1);
        led.add_wall(2.0, 2);
        assert_eq!(led.value("a"), Some(2.0));
        assert_eq!(led.value("n"), Some(5.0));
        assert_eq!(led.value("missing"), None);
        // 6 s of layer calls over 2 s on one lane plus 2 s on two lanes
        assert_eq!(Ledger::combined_coverage(&[&led]), 1.0);
        let mut other = Ledger::default();
        other.add_wall(6.0, 1);
        assert_eq!(Ledger::combined_coverage(&[&led, &other]), 0.5);
        let v = led.time("b", || 42);
        assert_eq!(v, 42);
        assert!(led.value("b").unwrap() >= 0.0);
    }
}
