//! The end-to-end autoAx pipeline (paper Fig. 1): pre-processing → model
//! construction → model-based DSE → real evaluation of the pseudo-Pareto
//! set → final Pareto front over real QoR, area and energy.
//!
//! The pipeline is generic over the QoR domain: it drives any
//! [`Workload`] — the paper's image accelerators (mean-SSIM QoR, via the
//! blanket `Accelerator → Workload` impl) and the quantized-NN workload
//! of `autoax-nn` (top-1-accuracy QoR) run through identical code.

use crate::cache::{
    decode_step12, encode_step12, pipeline_cache_key, step12_matches_library, STEP12_KIND,
    STEP12_TAG,
};
use crate::config::Configuration;
use crate::error::AutoAxError;
use crate::evaluate::{Evaluator, RealEval};
use crate::job::CancelToken;
use crate::model::{
    fidelity_report, fit_models, EvaluatedSet, FidelityReport, FittedModels, ModelEstimator,
};
use crate::pareto::{ParetoFront, ParetoFront3, TradeoffPoint};
use crate::preprocess::{preprocess_with_pmfs, PreprocessOptions, Preprocessed};
use crate::search::{run_search_cancellable, SearchAlgo, SearchOptions};
use autoax_accel::Workload;
use autoax_circuit::charlib::ComponentLibrary;
use autoax_ml::EngineKind;
use autoax_store::cache::{BlobStore, CacheMode, Loaded, Store};
use autoax_telemetry as telemetry;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// All pipeline knobs, preset-constructible for the paper's scenarios.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Library pre-processing options.
    pub preprocess: PreprocessOptions,
    /// Learning engine for both estimation models (paper: random forest).
    pub engine: EngineKind,
    /// Fully evaluated configurations for training (paper: 1500 Sobel,
    /// 4000 GF).
    pub train_configs: usize,
    /// Held-out configurations for the fidelity report (paper: 1500/1000).
    pub test_configs: usize,
    /// The complete Step-3 search configuration: strategy
    /// ([`SearchOptions::strategy`]), estimate budget
    /// ([`SearchOptions::max_evals`]; paper: 10^5 Sobel, 10^6 GF),
    /// stagnation limit, islands, batch size and worker threads — one
    /// embedded [`SearchOptions`] instead of field-by-field re-declared
    /// knobs. [`SearchOptions::seed`] is ignored: the pipeline derives
    /// the search seed from [`PipelineOptions::seed`].
    pub search: SearchOptions,
    /// Cap on the number of pseudo-Pareto members that get the full real
    /// evaluation (the paper evaluates ~1000 in 3 h).
    pub final_eval_cap: usize,
    /// Master seed.
    pub seed: u64,
    /// Directory of the content-addressed artifact cache. `None` disables
    /// caching regardless of [`PipelineOptions::cache_mode`].
    pub cache_dir: Option<PathBuf>,
    /// A shared [`BlobStore`] to cache through instead of a fresh
    /// [`Store`] over [`PipelineOptions::cache_dir`] — how the service
    /// tier routes every job through one LRU-fronted
    /// [`autoax_store::ShardedStore`]. Takes precedence over
    /// `cache_dir`; [`PipelineOptions::cache_mode`] still gates reads
    /// and writes.
    pub cache_store: Option<Arc<dyn BlobStore>>,
    /// How the pipeline interacts with the cache: warm-start Steps 1–2
    /// from disk ([`CacheMode::Read`]/[`CacheMode::ReadWrite`]) and
    /// persist them after a cold run ([`CacheMode::ReadWrite`]).
    pub cache_mode: CacheMode,
    /// Cooperative cancellation: checked between pipeline stages and at
    /// search-round boundaries; a fired token makes the run return
    /// [`AutoAxError::Cancelled`]. The default token never fires.
    pub cancel: CancelToken,
}

impl PipelineOptions {
    /// Paper-faithful parameters for the Sobel case study.
    pub fn paper_sobel() -> Self {
        PipelineOptions {
            preprocess: PreprocessOptions::default(),
            engine: EngineKind::RandomForest,
            train_configs: 1500,
            test_configs: 1500,
            search: SearchOptions {
                max_evals: 100_000,
                ..SearchOptions::default()
            },
            final_eval_cap: 1000,
            seed: 42,
            cache_dir: None,
            cache_store: None,
            cache_mode: CacheMode::Off,
            cancel: CancelToken::new(),
        }
    }

    /// Paper-faithful parameters for the Gaussian-filter case studies.
    pub fn paper_gf() -> Self {
        PipelineOptions {
            train_configs: 4000,
            test_configs: 1000,
            search: SearchOptions {
                max_evals: 1_000_000,
                ..SearchOptions::default()
            },
            ..Self::paper_sobel()
        }
    }

    /// Small budgets for tests and smoke runs.
    pub fn quick() -> Self {
        PipelineOptions {
            preprocess: PreprocessOptions::default(),
            engine: EngineKind::RandomForest,
            train_configs: 50,
            test_configs: 30,
            search: SearchOptions {
                max_evals: 3000,
                islands: 4,
                ..SearchOptions::default()
            },
            final_eval_cap: 40,
            seed: 42,
            cache_dir: None,
            cache_store: None,
            cache_mode: CacheMode::Off,
            cancel: CancelToken::new(),
        }
    }

    /// Enables the on-disk cache (builder style).
    pub fn with_cache(mut self, dir: impl Into<PathBuf>, mode: CacheMode) -> Self {
        self.cache_dir = Some(dir.into());
        self.cache_mode = mode;
        self
    }

    /// Selects the Step-3 search strategy (builder style).
    pub fn with_strategy(mut self, strategy: SearchAlgo) -> Self {
        self.search.strategy = strategy;
        self
    }

    /// Caches through a shared [`BlobStore`] (builder style) — see
    /// [`PipelineOptions::cache_store`].
    pub fn with_store(mut self, store: Arc<dyn BlobStore>, mode: CacheMode) -> Self {
        self.cache_store = Some(store);
        self.cache_mode = mode;
        self
    }
}

/// Wall-clock timings of the pipeline stages, including the per-step
/// breakdown of Steps 1–2 and the cache ledger that makes warm-start
/// savings visible in bench output.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTimings {
    /// Step 1a: operand-PMF profiling on the benchmark images (zero on a
    /// warm run).
    pub profiling: Duration,
    /// Step 1 total: profiling + WMED characterization scoring + Pareto
    /// filtering (zero on a warm run).
    pub preprocess: Duration,
    /// Step 2a: training/test-set generation (real evaluations; zero on a
    /// warm run).
    pub training_data: Duration,
    /// Step 2b: model fitting + fidelity evaluation (zero on a warm run).
    pub model_fit: Duration,
    /// Combined compute time of Steps 1–2 (`preprocess + training_data +
    /// model_fit`); the number a cache hit saves.
    pub step12_compute: Duration,
    /// Time spent loading + decoding the Step-1/2 cache entry (the
    /// load-side counterpart of [`PipelineTimings::step12_compute`]).
    pub cache_load: Duration,
    /// Cache lookups that produced a usable warm start.
    pub cache_hits: u32,
    /// Cache lookups that missed (no entry, corrupt, stale version or
    /// undecodable) and fell back to recompute.
    pub cache_misses: u32,
    /// Step-3 model-based search.
    pub search: Duration,
    /// Name of the [`SearchAlgo`] that produced the pseudo front.
    pub search_strategy: &'static str,
    /// Search estimate throughput: model evaluations per second of wall
    /// clock, with the numerator counted at the estimator
    /// ([`crate::search::SearchTimings::estimates`]): the
    /// [`SearchOptions::max_evals`] budget for the budgeted strategies,
    /// and the real row count for the ones that ignore it (`uniform`
    /// estimates its level grid, `exhaustive` the whole space).
    pub search_evals_per_sec: f64,
    /// Real evaluation of the pseudo-Pareto set.
    pub final_eval: Duration,
}

/// A member of the final, really-evaluated Pareto front.
#[derive(Debug, Clone)]
pub struct FinalMember {
    /// The configuration.
    pub config: Configuration,
    /// Real QoR (mean SSIM for the image workloads, top-1 accuracy for
    /// the NN workload).
    pub qor: f64,
    /// Real post-synthesis area (µm²).
    pub area: f64,
    /// Real energy per operation (fJ).
    pub energy: f64,
}

/// Everything the pipeline produces (feeds Tables 3–5 and Fig. 5).
pub struct PipelineResult {
    /// Pre-processing outcome (reduced space + PMFs).
    pub preprocessed: Preprocessed,
    /// Fidelity of the chosen engine's models.
    pub fidelity: FidelityReport,
    /// The fitted models (for further estimation).
    pub models: FittedModels,
    /// The pseudo-Pareto set from Algorithm 1 (estimated objectives).
    pub pseudo_front: ParetoFront<Configuration>,
    /// Real evaluations of the (capped) pseudo-Pareto members.
    pub evaluated: Vec<(Configuration, RealEval)>,
    /// Final Pareto front over real (QoR, area, energy).
    pub final_front: Vec<FinalMember>,
    /// Human-readable name of the workload's QoR measure (`"SSIM"`,
    /// `"top-1 accuracy"`), for report headers.
    pub qor_metric: &'static str,
    /// Stage timings.
    pub timings: PipelineTimings,
}

impl PipelineResult {
    /// FNV-style digest of the final front: the bit patterns of every
    /// member's QoR, area and energy, in front order.
    ///
    /// This is the byte-identity fingerprint the examples print as
    /// `front-digest:` and the CI cache-smoke jobs and the golden-parity
    /// test (`tests/workload_parity.rs`) compare — one shared
    /// implementation so the pinned values can never drift apart from
    /// what the examples report.
    pub fn front_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut push = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for m in &self.final_front {
            push(m.qor.to_bits());
            push(m.area.to_bits());
            push(m.energy.to_bits());
        }
        h
    }

    /// Table 5 row: `log10` sizes after each reduction step.
    pub fn space_sizes_log10(&self) -> (f64, f64, usize, usize) {
        (
            self.preprocessed.full_log10_size,
            self.preprocessed.space.log10_size(),
            self.pseudo_front.len(),
            self.final_front.len(),
        )
    }
}

/// Runs the complete three-step methodology.
///
/// With a populated cache ([`PipelineOptions::cache_dir`] +
/// [`PipelineOptions::cache_mode`]), Steps 1–2 are warm-started from disk
/// and skipped entirely; the result is byte-identical to the cold run
/// because every persisted float survives as its exact bit pattern.
/// Corrupt, stale or undecodable cache entries count as misses and fall
/// back to recompute (read-write mode then replaces them).
///
/// # Errors
/// Returns an error when the models cannot be fitted (degenerate training
/// data) or the inputs are inconsistent.
pub fn run_pipeline<W: Workload + ?Sized>(
    work: &W,
    lib: &ComponentLibrary,
    samples: &[W::Sample],
    opts: &PipelineOptions,
) -> Result<PipelineResult, AutoAxError> {
    if samples.is_empty() {
        return Err(AutoAxError::Invalid("no benchmark samples".into()));
    }
    if opts.cancel.is_cancelled() {
        return Err(AutoAxError::Cancelled);
    }
    // Root span: covers the whole run (cache, Steps 1-3b). The stage
    // spans below *feed* the `PipelineTimings` fields via their measured
    // durations instead of keeping a parallel set of `Instant` pairs.
    let mut sp_run = telemetry::span("pipeline.run");
    sp_run.field("strategy", opts.search.strategy.name());
    // Cache lookup: Steps 1–2 are a pure function of the key's inputs.
    // A shared store (service tier) takes precedence over the per-run
    // directory store.
    let cache: Option<(Arc<dyn BlobStore>, _)> =
        if opts.cache_mode.reads() || opts.cache_mode.writes() {
            opts.cache_store
                .clone()
                .or_else(|| {
                    opts.cache_dir
                        .as_ref()
                        .map(|dir| Arc::new(Store::new(dir)) as Arc<dyn BlobStore>)
                })
                .map(|store| {
                    let key = pipeline_cache_key(work, lib, samples, opts);
                    (store, key)
                })
        } else {
            None
        };
    let mut t_cache_load = Duration::ZERO;
    let mut warm: Option<(Preprocessed, FidelityReport, FittedModels)> = None;
    if let Some((store, key)) = &cache {
        if opts.cache_mode.reads() {
            let sp = telemetry::span("pipeline.cache.load_step12");
            if let Loaded::Hit(payload) = store.load_blob(STEP12_KIND, *key, STEP12_TAG) {
                warm = decode_step12(&payload)
                    .ok()
                    .filter(|(pre, _, _)| step12_matches_library(pre, lib));
            }
            t_cache_load = sp.finish();
        }
    }
    let cache_enabled = cache.is_some() && opts.cache_mode.reads();
    let (cache_hits, cache_misses) = match (&warm, cache_enabled) {
        (Some(_), _) => (1u32, 0u32),
        (None, true) => (0, 1),
        (None, false) => (0, 0),
    };

    // An exhaustive Step 3 over an unenumerable (reduced) space is
    // doomed; fail right after pre-processing, before the expensive
    // training evaluations, not after them.
    let exhaustive_guard = |size: f64| {
        if opts.search.strategy == SearchAlgo::Exhaustive
            && size > crate::config::MAX_ENUMERABLE_CONFIGS
        {
            Err(AutoAxError::Invalid(format!(
                "exhaustive search is infeasible for this space ({size:.2e} configurations); \
                 pick a budgeted strategy"
            )))
        } else {
            Ok(())
        }
    };

    let (pre, fidelity, models, t_profile, t_pre, t_train_data, t_fit);
    // The Step-2 evaluator (golden outputs + compiled-op cache) is reused
    // by the final real evaluation of Step 3b when it exists.
    let mut step2_evaluator: Option<Evaluator<'_, W>> = None;
    match warm {
        Some((p, f, m)) => {
            // Warm start: Steps 1–2 skipped entirely.
            pre = p;
            fidelity = f;
            models = m;
            t_profile = Duration::ZERO;
            t_pre = Duration::ZERO;
            t_train_data = Duration::ZERO;
            t_fit = Duration::ZERO;
        }
        None => {
            // Step 1: library pre-processing (profiling timed separately,
            // nested inside the step span).
            let sp_step1 = telemetry::span("pipeline.step1.preprocess");
            let sp_profile = telemetry::span("pipeline.step1.profile");
            let pmfs = work.profile(samples);
            t_profile = sp_profile.finish();
            pre = preprocess_with_pmfs(work, lib, pmfs, &opts.preprocess)?;
            t_pre = sp_step1.finish();
            // Fail fast before the expensive training evaluations.
            exhaustive_guard(pre.space.size())?;

            if opts.cancel.is_cancelled() {
                return Err(AutoAxError::Cancelled);
            }

            // Step 2: model construction.
            let _sp_step2 = telemetry::span("pipeline.step2");
            let sp_td = telemetry::span("pipeline.step2.training_data");
            let evaluator = step2_evaluator.insert(Evaluator::new(work, lib, &pre.space, samples));
            let train =
                EvaluatedSet::try_generate(evaluator, &pre.space, opts.train_configs, opts.seed)?;
            let test = EvaluatedSet::try_generate(
                evaluator,
                &pre.space,
                opts.test_configs,
                opts.seed.wrapping_add(1),
            )?;
            t_train_data = sp_td.finish();
            let sp_fit = telemetry::span("pipeline.step2.fit");
            models = fit_models(opts.engine, &pre.space, lib, &train, opts.seed)?;
            fidelity = fidelity_report(&models, &pre.space, lib, &train, &test)?;
            t_fit = sp_fit.finish();

            // Persist for the next run (best-effort: an unsupported engine
            // or a failed write degrades to "no cache", never to an error).
            if let Some((store, key)) = &cache {
                if opts.cache_mode.writes() {
                    if let Ok(payload) = encode_step12(&pre, &fidelity, &models) {
                        let _ = store.save_blob(STEP12_KIND, *key, STEP12_TAG, payload);
                    }
                }
            }
        }
    }

    // Step 3a: model-based Pareto construction — the selected strategy
    // over the batched columnar model estimator. (The
    // guard re-runs here for the warm-start path, where Steps 1–2 were
    // loaded in milliseconds.)
    exhaustive_guard(pre.space.size())?;
    if opts.cancel.is_cancelled() {
        return Err(AutoAxError::Cancelled);
    }
    let mut sp_search = telemetry::span("pipeline.step3.search");
    sp_search.field("strategy", opts.search.strategy.name());
    let estimates_at_t3 = crate::search::SearchTimings::snapshot();
    let search_opts = SearchOptions {
        seed: opts.seed.wrapping_add(2),
        ..opts.search
    };
    let pseudo_front = {
        let estimator = ModelEstimator::new(&models, &pre.space, lib);
        // Which kernel each model runs: its node encoding (or the matrix
        // path) and whether the hill climb gets a neighbour table.
        let (qor_engine, hw_engine) = estimator.engines();
        let (qor_table, hw_table) = estimator.neighbour_tables();
        sp_search.field("qor_engine", qor_engine);
        sp_search.field("hw_engine", hw_engine);
        sp_search.field("qor_neighbour_table", qor_table);
        sp_search.field("hw_neighbour_table", hw_table);
        run_search_cancellable(&pre.space, &estimator, &search_opts, &opts.cancel)
    };
    let t_search = sp_search.finish();
    let estimates = crate::search::SearchTimings::snapshot()
        .since(&estimates_at_t3)
        .estimates;
    // A mid-search cancellation leaves a truncated front; refuse to pass
    // it off as a result.
    if opts.cancel.is_cancelled() {
        return Err(AutoAxError::Cancelled);
    }
    // Throughput over the rows the estimator actually saw — for budgeted
    // strategies this equals max_evals; uniform and exhaustive get their
    // real denominators (level grid / space size) instead of the
    // historical hardcoded 0.
    let search_evals_per_sec = estimates as f64 / t_search.as_secs_f64().max(1e-12);

    // Step 3b: real evaluation of the pseudo-Pareto set (capped), final
    // Pareto filtering on real SSIM, area and energy. A warm run builds
    // its evaluator here (the cold run reuses the Step-2 one).
    let sp_final = telemetry::span("pipeline.step3b.final_eval");
    let evaluator = match step2_evaluator {
        Some(ev) => ev,
        None => Evaluator::new(work, lib, &pre.space, samples),
    };
    let mut members: Vec<(TradeoffPoint, Configuration)> = pseudo_front.clone().into_sorted();
    if members.len() > opts.final_eval_cap {
        // keep an even spread across the estimated front
        let n = members.len();
        let cap = opts.final_eval_cap;
        members = (0..cap)
            .map(|i| members[i * (n - 1) / (cap - 1).max(1)].clone())
            .collect();
    }
    let mut configs: Vec<Configuration> = members.into_iter().map(|(_, c)| c).collect();
    // The accurate design is always part of the comparison set: the final
    // front must reach the maximum QoR at the exact-configuration cost.
    let exact = pre.space.exact();
    if !configs.contains(&exact) {
        configs.push(exact);
    }
    let evals = evaluator.evaluate_batch(&configs);
    let evaluated: Vec<(Configuration, RealEval)> = configs.into_iter().zip(evals).collect();
    let mut front3: ParetoFront3<Configuration> = ParetoFront3::new();
    let mut seen_points: std::collections::HashSet<(u64, u64, u64)> =
        std::collections::HashSet::new();
    for (c, r) in &evaluated {
        // skip exact duplicates of an already-inserted objective triple
        let key = (r.qor.to_bits(), r.hw.area.to_bits(), r.hw.energy.to_bits());
        if seen_points.insert(key) {
            front3.try_insert(r.qor, r.hw.area, r.hw.energy, c.clone());
        }
    }
    let final_front: Vec<FinalMember> = front3
        .into_sorted()
        .into_iter()
        .map(|([qor, area, energy], config)| FinalMember {
            config,
            qor,
            area,
            energy,
        })
        .collect();
    let t_final = sp_final.finish();

    // Registry-side run accounting (one relaxed load when unsubscribed).
    if telemetry::metrics_enabled() {
        telemetry::counter("autoax_pipeline_runs_total").inc();
        telemetry::counter("autoax_pipeline_cache_hits_total").add(cache_hits as u64);
        telemetry::counter("autoax_pipeline_cache_misses_total").add(cache_misses as u64);
        telemetry::histogram("autoax_pipeline_search_ns").record(t_search.as_nanos() as u64);
        telemetry::histogram("autoax_pipeline_run_ns").record(sp_run.elapsed().as_nanos() as u64);
    }

    Ok(PipelineResult {
        preprocessed: pre,
        fidelity,
        models,
        pseudo_front,
        evaluated,
        final_front,
        qor_metric: work.qor_metric(),
        timings: PipelineTimings {
            profiling: t_profile,
            preprocess: t_pre,
            training_data: t_train_data,
            model_fit: t_fit,
            step12_compute: t_pre + t_train_data + t_fit,
            cache_load: t_cache_load,
            cache_hits,
            cache_misses,
            search: t_search,
            search_strategy: opts.search.strategy.name(),
            search_evals_per_sec,
            final_eval: t_final,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoax_accel::sobel::SobelEd;
    use autoax_circuit::charlib::{build_library, LibraryConfig};
    use autoax_image::synthetic::benchmark_suite;

    #[test]
    fn quick_pipeline_on_sobel_produces_a_front() {
        let accel = SobelEd::new();
        let lib = build_library(&LibraryConfig::tiny());
        let images = benchmark_suite(2, 48, 32, 5);
        let res = run_pipeline(&accel, &lib, &images, &PipelineOptions::quick()).unwrap();
        assert!(!res.final_front.is_empty());
        assert!(res.fidelity.qor_test > 0.5, "{:?}", res.fidelity);
        // front sorted by area and mutually non-dominated in 2D projection
        for w in res.final_front.windows(2) {
            assert!(w[0].area <= w[1].area);
        }
        // the largest-area member should be the best-ssim member
        let best_ssim = res
            .final_front
            .iter()
            .map(|m| m.qor)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best_ssim > 0.9, "front should reach high SSIM: {best_ssim}");
        let (full, reduced, pseudo, finaln) = res.space_sizes_log10();
        assert!(full >= reduced);
        assert!(pseudo >= finaln);
    }

    #[test]
    fn empty_images_is_an_error() {
        let accel = SobelEd::new();
        let lib = build_library(&LibraryConfig::tiny());
        let err = run_pipeline(&accel, &lib, &[], &PipelineOptions::quick());
        assert!(err.is_err());
    }

    #[test]
    fn pre_cancelled_pipeline_returns_cancelled() {
        let accel = SobelEd::new();
        let lib = build_library(&LibraryConfig::tiny());
        let images = benchmark_suite(2, 48, 32, 5);
        let opts = PipelineOptions::quick();
        opts.cancel.cancel();
        match run_pipeline(&accel, &lib, &images, &opts) {
            Err(AutoAxError::Cancelled) => {}
            other => panic!("expected Cancelled, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn shared_blob_store_warm_starts_like_a_cache_dir() {
        let accel = SobelEd::new();
        let lib = build_library(&LibraryConfig::tiny());
        let images = benchmark_suite(2, 48, 32, 5);
        let dir = std::env::temp_dir().join(format!("autoax-pipe-store-{}", std::process::id()));
        let store: Arc<dyn BlobStore> = Arc::new(autoax_store::ShardedStore::with_defaults(&dir));
        let opts = PipelineOptions::quick().with_store(Arc::clone(&store), CacheMode::ReadWrite);
        let cold = run_pipeline(&accel, &lib, &images, &opts).unwrap();
        assert_eq!(cold.timings.cache_misses, 1);
        let warm = run_pipeline(&accel, &lib, &images, &opts).unwrap();
        assert_eq!(warm.timings.cache_hits, 1);
        assert_eq!(
            cold.front_digest(),
            warm.front_digest(),
            "warm start through a shared store must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
