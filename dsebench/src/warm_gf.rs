//! `warm_gf_dse`: Generic GF (17 operations) warm-started from a store.
//! Set-up runs the workload cold, which fills the store with the library
//! and the Step-1/2 entry; every timed run loads both back and runs
//! Step 3 at the paper's GF budget of 10^6 estimates and Step 3b over a
//! fixed number of pseudo-Pareto members. Library characterization does no work
//! in the timed part.

use crate::cold_sobel::check_library;
use crate::compose::{compose_load_or_build, compose_pipeline, result_digest};
use crate::ledger::Ledger;
use crate::report::Report;
use crate::schedule::SplitMix64;
use crate::{layer_metrics, pipeline_metrics, repeat_for, serve_mix, stats, Args, WorkDir};
use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax::{CacheMode, SearchAlgo};
use autoax_accel::gaussian_generic::GenericGaussian;
use autoax_circuit::charlib::{ComponentLibrary, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_image::GrayImage;
use autoax_store::{load_or_build_library, Store};
use std::path::Path;
use std::time::Instant;

/// Pipeline seeds one run rotates through, derived from the workload
/// seed. Step-3b work differs by a few percent from seed to seed (the
/// members' netlists differ), so a run times several inputs; set-up runs
/// once per seed, and `setup_s` is the median of those set-ups.
const SEEDS_PER_RUN: usize = 3;

/// Pseudo-Pareto members that get the real evaluation. Below the
/// pseudo-front size of every seed tried (350 to 550 members), so each seed
/// does the same Step-3b work; with a cap above it the front size would
/// set the wall time, which then spreads by a fifth across seeds.
const FINAL_EVAL_CAP: usize = 200;

/// Quick-profile Step 1–2 budgets, the paper's GF search budget and a
/// Step-3b cap of [`FINAL_EVAL_CAP`] members; master seed from the
/// workload seed.
fn options(seed: u64, store: &Path) -> PipelineOptions {
    let mut opts = PipelineOptions::quick()
        .with_strategy(SearchAlgo::Hill)
        .with_cache(store, CacheMode::ReadWrite);
    opts.search.max_evals = 1_000_000;
    opts.final_eval_cap = FINAL_EVAL_CAP;
    opts.seed = seed;
    opts
}

fn images() -> Vec<GrayImage> {
    benchmark_suite(2, 64, 48, 11)
}

/// The pipeline master seeds of a run with workload seed `seed`.
fn pipeline_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..SEEDS_PER_RUN)
        .map(|_| rng.next_u64() % 1_000_000)
        .collect()
}

/// One run through the public API against the store at `dir`: library
/// load-or-build, then the pipeline. Returns the wall time, the library,
/// the front digest and whether both the library and Steps 1–2 came
/// from the store.
fn gf_run(
    dir: &Path,
    images: &[GrayImage],
    seed: u64,
) -> (f64, Result<(ComponentLibrary, u64, bool), String>) {
    let t0 = Instant::now();
    let lib = load_or_build_library(&LibraryConfig::tiny(), Some(dir), CacheMode::ReadWrite);
    let res = run_pipeline(
        &GenericGaussian::with_sweep(4),
        &lib.lib,
        images,
        &options(seed, dir),
    );
    let secs = t0.elapsed().as_secs_f64();
    let out = res
        .map(|r| {
            let warm = lib.cache_hit && r.timings.cache_hits == 1;
            (lib.lib, result_digest(&r), warm)
        })
        .map_err(|e| format!("pipeline error: {e}"));
    (secs, out)
}

/// A cold set-up run into the empty store at `dir`: one operation whose
/// digest must match `cold` (set on the first run). Returns its wall time
/// and library.
fn cold_setup(
    report: &mut Report,
    cold: &mut Option<u64>,
    dir: &Path,
    images: &[GrayImage],
    seed: u64,
) -> (f64, Option<ComponentLibrary>) {
    let (secs, out) = gf_run(dir, images, seed);
    match out {
        Ok((lib, digest, warm)) => {
            let want = *cold.get_or_insert(digest);
            report.op(!warm && digest == want, || {
                format!("cold set-up: digest {digest:016x} vs {want:016x}, warm {warm}")
            });
            (secs, Some(lib))
        }
        Err(e) => {
            report.op(false, || e);
            (secs, None)
        }
    }
}

/// A timed warm run from `dir`: must hit both caches and reproduce the
/// cold digest.
fn warm_run(
    report: &mut Report,
    cold: Option<u64>,
    dir: &Path,
    images: &[GrayImage],
    seed: u64,
) -> f64 {
    let (secs, out) = gf_run(dir, images, seed);
    match out {
        Ok((_, digest, warm)) => report.op(warm && Some(digest) == cold, || {
            format!("warm run: digest {digest:016x} vs cold {cold:016x?}, cache hits {warm}")
        }),
        Err(e) => report.op(false, || e),
    }
    secs
}

/// Runs the workload.
pub fn run(args: &Args, work: &mut WorkDir) -> Report {
    let mut report = Report::new("warm_gf_dse", args.seed, args.trace);
    if args.trace {
        traced(args, work, &mut report);
        return report;
    }
    let seeds = pipeline_seeds(args.seed);
    let mut colds = vec![None; seeds.len()];
    let (mut setup, mut dirs, mut imgs) = (Vec::new(), Vec::new(), Vec::new());
    for (&seed, cold) in seeds.iter().zip(&mut colds) {
        let t0 = Instant::now();
        let dir = work.fresh();
        imgs = images();
        cold_setup(&mut report, cold, &dir, &imgs, seed);
        setup.push(t0.elapsed().as_secs_f64());
        dirs.push(dir);
    }
    let mut ops = Vec::new();
    repeat_for(args.seconds, seeds.len(), || {
        let k = ops.len() % seeds.len();
        ops.push(warm_run(&mut report, colds[k], &dirs[k], &imgs, seeds[k]));
    });
    pipeline_metrics(&mut report, &ops, stats::median(&setup));
    report
}

/// The traced run, on the run's first pipeline seed: an untraced cold
/// set-up and a traced composed cold set-up (class-by-class library,
/// Steps 1–3b) each fill their own store; then untraced and traced
/// composed warm runs alternate. Every composed run must reproduce the
/// cold digest.
fn traced(args: &Args, work: &mut WorkDir, report: &mut Report) {
    let seed = pipeline_seeds(args.seed)[0];
    let cold = &mut None;
    let imgs = images();
    let cfg = LibraryConfig::tiny();
    let plain_dir = work.fresh();
    let (_, lib_ref) = cold_setup(report, cold, &plain_dir, &imgs, seed);

    let mut setup_led = Ledger::default();
    let traced_dir = work.fresh();
    let store = Store::new(&traced_dir);
    let opts = options(seed, &traced_dir);
    let work_gf = GenericGaussian::with_sweep(4);
    let t0 = Instant::now();
    let (lib, hit) = compose_load_or_build(&mut setup_led, &cfg, &store);
    let composed = compose_pipeline(&mut setup_led, &work_gf, &lib, &imgs, &opts, &store);
    setup_led.end_section(t0);
    composed_op(report, composed, !hit, false, *cold);
    if let Some(lib_ref) = &lib_ref {
        check_library(report, &lib, lib_ref);
    }

    let mut led = Ledger::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    repeat_for(args.seconds, 1, || {
        untraced.push(warm_run(report, *cold, &plain_dir, &imgs, seed));
        let t0 = Instant::now();
        let (lib, hit) = compose_load_or_build(&mut led, &cfg, &store);
        let composed = compose_pipeline(&mut led, &work_gf, &lib, &imgs, &opts, &store);
        traced.push(led.end_section(t0));
        composed_op(report, composed, hit, true, *cold);
    });
    let probe = serve_mix::probe(args, work, report);
    let overhead = stats::median(&traced) / stats::median(&untraced) - 1.0;
    layer_metrics(report, &[&led, &setup_led], Some(&probe), overhead);
}

/// Counts a composed run as one operation: it must reproduce the cold
/// digest, with the library from the store exactly when `lib_hit` and
/// Steps 1–2 from the store exactly when `warm`.
fn composed_op(
    report: &mut Report,
    composed: Result<crate::compose::Composed, autoax::AutoAxError>,
    lib_ok: bool,
    warm: bool,
    cold: Option<u64>,
) {
    match composed {
        Ok(c) => report.op(lib_ok && c.warm == warm && Some(c.digest) == cold, || {
            format!(
                "composed run: digest {:016x} vs cold {cold:016x?}, library as expected {lib_ok}, step-1/2 hit {} (expected {warm})",
                c.digest, c.warm
            )
        }),
        Err(e) => report.op(false, || format!("composed pipeline error: {e}")),
    }
}
