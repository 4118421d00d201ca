//! `cold_sobel`: the cold quickstart against an empty store — the tiny
//! library is built, characterized and written to the store, then Sobel
//! ED runs with the quick profile, hill search and a read-write cache.
//! The only workload whose timed part characterizes a library.

use crate::compose::{
    compose_load_or_build, compose_pipeline, first_library_difference, library_digest,
    result_digest,
};
use crate::ledger::Ledger;
use crate::report::Report;
use crate::{layer_metrics, pipeline_metrics, repeat_for, serve_mix, stats, Args, WorkDir};
use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax::{CacheMode, SearchAlgo};
use autoax_accel::sobel::SobelEd;
use autoax_circuit::charlib::{ComponentLibrary, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_image::GrayImage;
use autoax_store::{load_or_build_library, Store};
use std::path::Path;
use std::time::Instant;

/// The seed at which the quickstart's front digest is pinned.
pub const PINNED_SEED: u64 = 42;
/// The quickstart's pinned front digest (at [`PINNED_SEED`]).
pub const PINNED_DIGEST: u64 = 0x252e_0c00_c843_33a4;
/// Pinned content digest of `build_library(&LibraryConfig::tiny())`
/// (see [`library_digest`]).
pub const TINY_LIBRARY_DIGEST: u64 = 0x24cb_c46a_8a1a_606a;

/// Set-up repetitions whose median is `setup_s` (set-up takes a few
/// milliseconds, so many repetitions keep the median steady).
const SETUP_REPS: usize = 25;

/// Pipeline options of the workload: the quickstart's, with the master
/// seed taken from the workload seed.
fn options(seed: u64, store: &Path) -> PipelineOptions {
    let mut opts = PipelineOptions::quick()
        .with_strategy(SearchAlgo::Hill)
        .with_cache(store, CacheMode::ReadWrite);
    opts.seed = seed;
    opts
}

fn images() -> Vec<GrayImage> {
    benchmark_suite(4, 96, 64, 7)
}

/// What one cold run produced: the library and the front digest.
type ColdOut = Result<(ComponentLibrary, u64), String>;

/// One cold run: library build into the empty store at `dir`, then the
/// pipeline. Counts one operation, checked against `expected` (the
/// pinned digest, else the run's first digest). Returns the wall time
/// and the output.
fn cold_run(
    report: &mut Report,
    expected: &mut Option<u64>,
    dir: &Path,
    images: &[GrayImage],
    seed: u64,
) -> (f64, ColdOut) {
    let t0 = Instant::now();
    let lib = load_or_build_library(&LibraryConfig::tiny(), Some(dir), CacheMode::ReadWrite);
    let res = run_pipeline(&SobelEd::new(), &lib.lib, images, &options(seed, dir));
    let secs = t0.elapsed().as_secs_f64();
    let out = match res {
        Ok(res) => {
            let digest = result_digest(&res);
            let want = *expected.get_or_insert(digest);
            let cold = !lib.cache_hit && res.timings.cache_misses == 1;
            if digest != want {
                Err(format!("front digest {digest:016x}, expected {want:016x}"))
            } else if !cold {
                Err("cold run hit a cache in an empty store".to_string())
            } else {
                Ok((lib.lib, digest))
            }
        }
        Err(e) => Err(format!("pipeline error: {e}")),
    };
    report.op(out.is_ok(), || {
        out.as_ref().err().cloned().unwrap_or_default()
    });
    (secs, out)
}

/// Runs the workload.
pub fn run(args: &Args, work: &mut WorkDir) -> Report {
    let mut report = Report::new("cold_sobel", args.seed, args.trace);
    let mut expected = (args.seed == PINNED_SEED).then_some(PINNED_DIGEST);
    if args.trace {
        traced(args, work, &mut report, &mut expected);
        return report;
    }
    let mut setup = Vec::new();
    let mut imgs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        imgs = images();
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut ops = Vec::new();
    repeat_for(args.seconds, 3, || {
        let dir = work.fresh();
        let (secs, _) = cold_run(&mut report, &mut expected, &dir, &imgs, args.seed);
        ops.push(secs);
        let _ = std::fs::remove_dir_all(&dir);
    });
    pipeline_metrics(&mut report, &ops, stats::median(&setup));
    report
}

/// The traced run: untraced and traced composed cold runs alternate;
/// each composed run must reproduce the untraced digest, and its
/// class-by-class library must equal `build_library`'s entry by entry.
fn traced(args: &Args, work: &mut WorkDir, report: &mut Report, expected: &mut Option<u64>) {
    let imgs = images();
    let mut led = Ledger::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    repeat_for(args.seconds, 1, || {
        let dir = work.fresh();
        let (secs, out) = cold_run(report, expected, &dir, &imgs, args.seed);
        untraced.push(secs);
        let Ok((lib_ref, digest)) = out else {
            return;
        };

        let dir = work.fresh();
        let store = Store::new(&dir);
        let t0 = Instant::now();
        let (lib, hit) = compose_load_or_build(&mut led, &LibraryConfig::tiny(), &store);
        let composed = compose_pipeline(
            &mut led,
            &SobelEd::new(),
            &lib,
            &imgs,
            &options(args.seed, &dir),
            &store,
        );
        traced.push(led.end_section(t0));
        match composed {
            Ok(c) => report.op(!hit && !c.warm && c.digest == digest, || {
                format!(
                    "composed run: digest {:016x} vs untraced {digest:016x}, library hit {hit}, step-1/2 hit {}",
                    c.digest, c.warm
                )
            }),
            Err(e) => report.op(false, || format!("composed pipeline error: {e}")),
        }
        check_library(report, &lib, &lib_ref);
    });
    let probe = serve_mix::probe(args, work, report);
    let overhead = stats::median(&traced) / stats::median(&untraced) - 1.0;
    layer_metrics(report, &[&led], Some(&probe), overhead);
}

/// The library-content pin: a class-by-class library must equal the
/// reference entry by entry and carry the pinned digest.
pub fn check_library(report: &mut Report, lib: &ComponentLibrary, reference: &ComponentLibrary) {
    let diff = first_library_difference(lib, reference);
    report.check(diff.is_none(), || {
        format!("class-by-class library differs from build_library at {diff:?}")
    });
    let digest = library_digest(lib);
    println!("  library-content digest {digest:016x}");
    report.check(digest == TINY_LIBRARY_DIGEST, || {
        format!("library-content digest {digest:016x}, pinned {TINY_LIBRARY_DIGEST:016x}")
    });
}
