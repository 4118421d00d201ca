//! End-to-end design-space-exploration benchmark with a per-layer ledger.
//!
//! ```sh
//! cargo run --release --manifest-path dsebench/Cargo.toml -- \
//!     --workload cold_sobel --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Workloads (`--workload all` runs each in turn):
//!
//! * `cold_sobel` — the cold quickstart: the tiny library is built and
//!   characterized into an empty store, then Sobel ED runs with the quick
//!   profile and hill search;
//! * `warm_gf_dse` — Generic GF with the library and the Step-1/2
//!   artifacts loaded from a store that set-up filled, then Step 3 at
//!   10^6 estimates and Step 3b over a fixed number of members;
//! * `serve_mix` — an in-process `autoax-serve` server fed a seeded
//!   schedule of cold, warm and repeated jobs by closed-loop clients.
//!
//! `--trace 0` times the real public-API runs and prints the end-to-end
//! metrics; `--trace 1` runs the traced composition of the same
//! computation (see `compose`) and prints the per-layer metrics. Every
//! run checks its outputs (pinned digests, cache hits, digest agreement)
//! and exits non-zero when a check fails. The last line of standard
//! output is a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod cold_sobel;
mod compose;
mod ledger;
mod machine;
mod report;
mod schedule;
mod serve_mix;
mod stats;
mod warm_gf;

use ledger::Ledger;
use report::Report;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in print order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("charlib.build_s", "s"),
    ("charlib.add8_s", "s"),
    ("charlib.add9_s", "s"),
    ("charlib.add16_s", "s"),
    ("charlib.sub10_s", "s"),
    ("charlib.sub16_s", "s"),
    ("charlib.mul8_s", "s"),
    ("charlib.circuits", "count"),
    ("store.library_save_s", "s"),
    ("store.library_load_s", "s"),
    ("store.step12_save_s", "s"),
    ("store.step12_load_s", "s"),
    ("store.library_bytes", "bytes"),
    ("step1.profile_s", "s"),
    ("step1.preprocess_s", "s"),
    ("step1.kept_circuits", "count"),
    ("step2.golden_s", "s"),
    ("step2.training_data_s", "s"),
    ("step2.real_evals", "count"),
    ("step2.fit_s", "s"),
    ("search.s", "s"),
    ("search.estimates", "count"),
    ("search.evals_per_s", "1/s"),
    ("search.pseudo_front", "count"),
    ("step3b.final_eval_s", "s"),
    ("step3b.real_evals", "count"),
    ("step3b.real_evals_per_s", "1/s"),
    ("serve.engine_computed_s", "s"),
    ("serve.engine_warm_s", "s"),
    ("serve.engine_cached_s", "s"),
    ("serve.http_overhead_s", "s"),
    ("serve.executions", "count"),
    ("serve.result_cache_hits", "count"),
    ("serve.dedup_waits", "count"),
    ("serve.refused", "count"),
    ("ledger.covered_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The workloads, in `--workload all` order.
const WORKLOADS: [&str; 3] = ["cold_sobel", "warm_gf_dse", "serve_mix"];

/// Minimum share of the traced wall time the layer calls must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name or `all`.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time per run.
    pub seconds: f64,
    /// Traced per-layer run instead of the untraced end-to-end run.
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: "all".to_string(),
            seed: 42,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace must be 0 or 1, got {v}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "unknown workload {} (expected all|{})",
                args.workload,
                WORKLOADS.join("|")
            ));
        }
        Ok(args)
    }
}

/// Scratch directories of one run under `.bench_work/` in the working
/// directory, removed when the run ends.
pub struct WorkDir {
    base: PathBuf,
    next: usize,
}

impl WorkDir {
    fn new(workload: &str) -> WorkDir {
        let base = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        WorkDir { base, next: 0 }
    }

    /// A new, empty directory path (created lazily by the store).
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.base.join(format!("store-{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.base);
        let _ = std::fs::remove_dir(".bench_work"); // only when empty
    }
}

/// Runs `op` until it has run `min` times and `seconds` have passed.
pub fn repeat_for(seconds: f64, min: usize, mut op: impl FnMut()) {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min || t0.elapsed().as_secs_f64() < seconds {
        op();
        n += 1;
    }
}

/// Adds every per-layer metric to `report`, each from the first ledger
/// that has it (`probe` last), and checks the coverage of the traced
/// sections in `ledgers` (set-up ledgers included). `probe` holds layers
/// measured outside the workload's own computation and does not count
/// towards coverage.
pub fn layer_metrics(
    report: &mut Report,
    ledgers: &[&Ledger],
    probe: Option<&Ledger>,
    overhead_frac: f64,
) {
    let covered = Ledger::combined_coverage(ledgers);
    report.check(covered >= MIN_COVERAGE, || {
        format!("ledger covers {covered:.4} of the traced wall time, below {MIN_COVERAGE}")
    });
    for (name, unit) in PER_LAYER {
        let value = match name {
            "ledger.covered_frac" => Some(covered),
            "trace.overhead_frac" => Some(overhead_frac),
            _ => ledgers.iter().chain(&probe).find_map(|l| l.value(name)),
        };
        report.check(value.is_some(), || {
            format!("layer metric {name} was not measured")
        });
        report.metric(name, value.unwrap_or(f64::NAN), unit);
    }
}

/// The `job_p90_s` of job latencies `xs`: the highest percentile with at
/// least ten samples beyond it, or the median when there are too few jobs
/// for any tail. Returns the value and a label of what it is.
pub fn tail_latency(xs: &[f64]) -> (f64, String) {
    match stats::tail_percentile(xs.len()) {
        Some(p) => (stats::percentile(xs, p), format!("p{p}")),
        None => (stats::median(xs), "the median (too few for a tail)".into()),
    }
}

/// Adds the end-to-end metrics of a pipeline workload, whose jobs are
/// its pipeline runs with per-run times `ops_s`, plus `setup_s` and peak
/// memory.
pub fn pipeline_metrics(report: &mut Report, ops_s: &[f64], setup_s: f64) {
    let wall = stats::median(ops_s);
    let (tail, what) = tail_latency(ops_s);
    let spread = stats::relative_spread(ops_s).unwrap_or(f64::NAN);
    println!(
        "  ({} runs, spread {spread:.4} of the median; job_p90_s is {what} of the runs)",
        ops_s.len()
    );
    report.metric("wall_s", wall, "s");
    report.metric("job_p50_s", wall, "s");
    report.metric("job_p90_s", tail, "s");
    report.metric(
        "jobs_per_s",
        ops_s.len() as f64 / ops_s.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", machine::peak_rss_mb(), "MiB");
}

fn run(workload: &'static str, args: &Args) -> Report {
    let mut work = WorkDir::new(workload);
    match workload {
        "cold_sobel" => cold_sobel::run(args, &mut work),
        "warm_gf_dse" => warm_gf::run(args, &mut work),
        _ => serve_mix::run(args, &mut work),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let machine = machine::Machine::probe();
    println!(
        "machine: {} cores, avx2 {}, {}, git {}",
        machine.cores, machine.avx2, machine.rustc, machine.git_rev
    );
    let mut all_correct = true;
    for workload in WORKLOADS {
        if args.workload == "all" || args.workload == workload {
            let report = run(workload, &args);
            report.print(&machine);
            all_correct &= report.correct();
        }
    }
    if !all_correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoax_serve::Json;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let spec = Json::parse(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(&END_TO_END));
        assert_eq!(list("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn parses_the_command_line() {
        let argv: Vec<String> = "--workload serve_mix --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = Args::parse(&argv).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mix", 7, 12.0, true)
        );
        assert!(Args::parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(Args::parse(&["--trace".into(), "2".into()]).is_err());
        assert!(Args::parse(&["--seed".into()]).is_err());
    }
}
