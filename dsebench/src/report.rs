//! Result records: the checks a run made, its metrics, and how both are
//! printed (a human-readable table, a machine-tagged record line and,
//! last, the one-line JSON result).

use crate::machine::Machine;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    name: String,
    /// Value as measured.
    value: f64,
    /// Unit.
    unit: &'static str,
}

/// Checks and metrics of one workload run.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    workload: &'static str,
    /// Workload seed.
    seed: u64,
    /// Traced (per-layer) run or untraced (end-to-end) run.
    trace: bool,
    /// Operations attempted (pipeline runs, jobs).
    attempted: u64,
    /// Operations that failed: an error, a non-200 response, a refused
    /// job or a wrong digest.
    failed: u64,
    /// What went wrong, for the log; invariant violations land here too.
    problems: Vec<String>,
    /// Metrics in print order.
    metrics: Vec<Metric>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Counts one operation; a failed one counts into the error rate.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Checks an invariant of the run (not an operation): a violation
    /// makes the run incorrect without changing the error rate.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when every operation and every invariant check passed and
    /// every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.problems.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; they also make the run
                // incorrect (see `correct`).
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    r#""{}": {{"value": {v}, "unit": "{}"}}"#,
                    escape(&m.name),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Prints the table, the machine-tagged record and, as the last line
    /// of standard output, the JSON result.
    pub fn print(&self, machine: &Machine) {
        println!(
            "== {} (seed {}, {})",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" }
        );
        for m in &self.metrics {
            println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  {:<28} {:>16.6} frac ({} of {} operations failed)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for p in &self.problems {
            println!("  FAILED: {p}");
        }
        println!(
            r#"record: {{"workload": "{}", "seed": {}, "trace": {}, "machine": {{"cores": {}, "avx2": {}, "rustc": "{}", "git_rev": "{}"}}, "correct": {}, "attempted": {}, "failed": {}, "error_rate": {}, "metrics": {}}}"#,
            self.workload,
            self.seed,
            self.trace,
            machine.cores,
            machine.avx2,
            escape(&machine.rustc),
            escape(&machine.git_rev),
            self.correct(),
            self.attempted,
            self.failed,
            self.error_rate(),
            self.metrics_json()
        );
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        );
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_and_checks_decide_correctness() {
        let mut r = Report::new("w", 1, false);
        assert!(!r.correct(), "a run that attempted nothing is not correct");
        r.op(true, || unreachable!());
        r.metric("wall_s", 1.25, "s");
        assert!(r.correct());
        assert_eq!(
            r.metrics_json(),
            r#"{"wall_s": {"value": 1.25, "unit": "s"}}"#
        );
        r.op(false, || "bad digest".into());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.error_rate(), 0.5);
        assert!(!r.correct());
        let mut r = Report::new("w", 1, false);
        r.op(true, || unreachable!());
        r.check(false, || "coverage".into());
        assert!(!r.correct());
        assert_eq!(r.error_rate(), 0.0);
        let mut r = Report::new("w", 1, false);
        r.op(true, || unreachable!());
        r.metric("x", f64::NAN, "s");
        assert!(!r.correct());
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
    }
}
