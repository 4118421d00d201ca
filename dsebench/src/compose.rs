//! The traced composition: the same computation as
//! `load_or_build_library` + `run_pipeline`, built from the layers'
//! public functions with every layer call timed into a [`Ledger`].
//!
//! It mirrors `run_pipeline` for the plain (refinement-off) path step by
//! step, so its front digest must equal the untraced run's; a mismatch
//! means the composition (and with it the ledger) no longer describes
//! what the program does.

use crate::ledger::Ledger;
use autoax::cache::{
    decode_step12, encode_step12, pipeline_cache_key, step12_matches_library, STEP12_KIND,
    STEP12_TAG,
};
use autoax::evaluate::{Evaluator, RealEval};
use autoax::model::{fidelity_report, fit_models, EvaluatedSet, ModelEstimator};
use autoax::pareto::ParetoFront3;
use autoax::pipeline::{PipelineOptions, PipelineResult};
use autoax::preprocess::preprocess_with_pmfs;
use autoax::search::{run_search_cancellable, SearchOptions, SearchTimings};
use autoax::{AutoAxError, CancelToken, Configuration};
use autoax_accel::Workload;
use autoax_circuit::charlib::{build_class, CircuitEntry, ComponentLibrary, LibraryConfig};
use autoax_circuit::OpSignature;
use autoax_store::cache::{BlobStore, Loaded};
use autoax_store::library::{decode_library, encode_library, library_key, LIBRARY_TAG};
use std::collections::HashSet;

/// FNV-1a style fold of 64-bit words (the digest scheme of
/// [`PipelineResult::front_digest`]).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn push(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    /// Folds a string in, byte by byte, then its length.
    pub fn push_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.push(b as u64);
        }
        self.push(s.len() as u64);
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Front digest of `(qor, area, energy)` triples, bit for bit — equal to
/// [`PipelineResult::front_digest`] of the same front.
pub fn front_digest(front: impl IntoIterator<Item = [f64; 3]>) -> u64 {
    let mut h = Fnv::default();
    for m in front {
        for v in m {
            h.push(v.to_bits());
        }
    }
    h.finish()
}

/// [`front_digest`] of a pipeline result.
pub fn result_digest(res: &PipelineResult) -> u64 {
    front_digest(res.final_front.iter().map(|m| [m.qor, m.area, m.energy]))
}

fn entry_words(e: &CircuitEntry) -> [u64; 12] {
    [
        e.id.0 as u64,
        e.hw.area.to_bits(),
        e.hw.delay.to_bits(),
        e.hw.power.to_bits(),
        e.hw.energy.to_bits(),
        e.hw.cells as u64,
        e.err.mae.to_bits(),
        e.err.wce,
        e.err.er.to_bits(),
        e.err.mse.to_bits(),
        e.err.var_ed.to_bits(),
        e.err.mre.to_bits() ^ e.err.samples.rotate_left(32),
    ]
}

/// Library-content digest: per class its signature and size, per entry
/// its id, label and every characterization number bit for bit — the
/// same content the Step-1/2 cache key fingerprints.
pub fn library_digest(lib: &ComponentLibrary) -> u64 {
    let mut h = Fnv::default();
    for sig in lib.signatures() {
        h.push_str(&sig.to_string());
        h.push(lib.class_size(sig) as u64);
        for e in lib.class(sig) {
            h.push_str(&e.label);
            for w in entry_words(e) {
                h.push(w);
            }
        }
    }
    h.finish()
}

/// The first entry where two libraries differ (behaviour, label or any
/// characterization number), as `class/index`; `None` when they are
/// equal entry by entry.
pub fn first_library_difference(a: &ComponentLibrary, b: &ComponentLibrary) -> Option<String> {
    let sigs: Vec<OpSignature> = a.signatures().collect();
    if sigs != b.signatures().collect::<Vec<_>>() {
        return Some("class list".to_string());
    }
    for sig in sigs {
        let (ca, cb) = (a.class(sig), b.class(sig));
        if ca.len() != cb.len() {
            return Some(format!("{sig} size {} vs {}", ca.len(), cb.len()));
        }
        for (i, (x, y)) in ca.iter().zip(cb).enumerate() {
            if x.behavior != y.behavior || x.label != y.label || entry_words(x) != entry_words(y) {
                return Some(format!("{sig}/{i}"));
            }
        }
    }
    None
}

/// Builds the library class by class with the public `build_class`,
/// with the per-class seeds `build_library` uses; each class is one
/// `charlib.<class>_s` call, their sum one `charlib.build_s` sample.
pub fn compose_library(led: &mut Ledger, cfg: &LibraryConfig) -> ComponentLibrary {
    let mut lib = ComponentLibrary::default();
    let mut total = 0.0;
    for (i, sig) in OpSignature::PAPER_CLASSES.into_iter().enumerate() {
        let count = cfg.counts.for_signature(sig);
        if count == 0 {
            continue;
        }
        let seed = cfg.seed.wrapping_add(i as u64 * 0x9E37);
        let t0 = std::time::Instant::now();
        let entries = build_class(sig, count, cfg, seed);
        let secs = t0.elapsed().as_secs_f64();
        led.record(&format!("charlib.{sig}_s"), secs);
        total += secs;
        lib.insert_class(sig, entries);
    }
    led.sample("charlib.build_s", total);
    led.count("charlib.circuits", lib.total_size() as f64);
    lib
}

/// The traced `load_or_build_library` in read-write mode: a store lookup,
/// and on a miss the class-by-class build plus a store write.
pub fn compose_load_or_build(
    led: &mut Ledger,
    cfg: &LibraryConfig,
    store: &dyn BlobStore,
) -> (ComponentLibrary, bool) {
    let key = library_key(cfg);
    let loaded = led.time("store.library_load_s", || {
        match store.load_blob("library", key, LIBRARY_TAG) {
            Loaded::Hit(payload) => decode_library(&payload).ok(),
            _ => None,
        }
    });
    if let Some(lib) = loaded {
        return (lib, true);
    }
    let lib = compose_library(led, cfg);
    save_library(led, &lib, cfg, store);
    (lib, false)
}

/// One traced library write (encode + seal + store).
pub fn save_library(
    led: &mut Ledger,
    lib: &ComponentLibrary,
    cfg: &LibraryConfig,
    store: &dyn BlobStore,
) {
    let bytes = led.time("store.library_save_s", || {
        let payload = encode_library(lib);
        let n = payload.len();
        store
            .save_blob("library", library_key(cfg), LIBRARY_TAG, payload)
            .map(|_| n)
    });
    if let Ok(n) = bytes {
        led.count("store.library_bytes", n as f64);
    }
}

/// What a composed pipeline run produced.
#[derive(Debug, Clone, Copy)]
pub struct Composed {
    /// Front digest of the final Pareto front.
    pub digest: u64,
    /// True when Steps 1–2 were loaded from the store.
    pub warm: bool,
}

/// The traced `run_pipeline` for the plain path (refinement off) with a
/// read-write cache in `store`.
///
/// # Errors
/// As `run_pipeline`: model fitting or training-set generation failures.
pub fn compose_pipeline<W: Workload + ?Sized>(
    led: &mut Ledger,
    work: &W,
    lib: &ComponentLibrary,
    samples: &[W::Sample],
    opts: &PipelineOptions,
    store: &dyn BlobStore,
) -> Result<Composed, AutoAxError> {
    let warm = led.time("store.step12_load_s", || {
        let key = pipeline_cache_key(work, lib, samples, opts);
        match store.load_blob(STEP12_KIND, key, STEP12_TAG) {
            Loaded::Hit(payload) => decode_step12(&payload)
                .ok()
                .filter(|(pre, _, _)| step12_matches_library(pre, lib)),
            _ => None,
        }
    });
    let was_warm = warm.is_some();
    let (pre, fitted) = match warm {
        Some((pre, _fidelity, models)) => (pre, Some(models)),
        None => {
            let pmfs = led.time("step1.profile_s", || work.profile(samples));
            let pre = led.time("step1.preprocess_s", || {
                preprocess_with_pmfs(work, lib, pmfs, &opts.preprocess)
            })?;
            led.count(
                "step1.kept_circuits",
                pre.space
                    .slots()
                    .iter()
                    .map(|s| s.members.len())
                    .sum::<usize>() as f64,
            );
            (pre, None)
        }
    };
    // A cold run keeps its Step-2 evaluator (golden outputs, compiled-op
    // cache) for Step 3b, as `run_pipeline` does.
    let mut step2_evaluator = None;
    let models = match fitted {
        Some(models) => models,
        None => {
            let evaluator = step2_evaluator.insert(led.time("step2.golden_s", || {
                Evaluator::new(work, lib, &pre.space, samples)
            }));
            let (train, test) = led.time("step2.training_data_s", || {
                let train = EvaluatedSet::try_generate(
                    evaluator,
                    &pre.space,
                    opts.train_configs,
                    opts.seed,
                )?;
                let test = EvaluatedSet::try_generate(
                    evaluator,
                    &pre.space,
                    opts.test_configs,
                    opts.seed.wrapping_add(1),
                )?;
                Ok::<_, AutoAxError>((train, test))
            })?;
            led.count(
                "step2.real_evals",
                (train.configs.len() + test.configs.len()) as f64,
            );
            let (models, fidelity) = led.time("step2.fit_s", || {
                let models = fit_models(opts.engine, &pre.space, lib, &train, opts.seed)?;
                let fidelity = fidelity_report(&models, &pre.space, lib, &train, &test)?;
                Ok::<_, AutoAxError>((models, fidelity))
            })?;
            led.time("store.step12_save_s", || {
                if let Ok(payload) = encode_step12(&pre, &fidelity, &models) {
                    let key = pipeline_cache_key(work, lib, samples, opts);
                    let _ = store.save_blob(STEP12_KIND, key, STEP12_TAG, payload);
                }
            });
            models
        }
    };

    let search_opts = SearchOptions {
        seed: opts.seed.wrapping_add(2),
        ..opts.search
    };
    let before = SearchTimings::snapshot();
    let (pseudo_front, search_s) = {
        let t0 = std::time::Instant::now();
        let estimator = ModelEstimator::new(&models, &pre.space, lib);
        let front =
            run_search_cancellable(&pre.space, &estimator, &search_opts, &CancelToken::new());
        (front, t0.elapsed().as_secs_f64())
    };
    led.record("search.s", search_s);
    let estimates = SearchTimings::snapshot().since(&before).estimates;
    led.count("search.estimates", estimates as f64);
    led.sample("search.evals_per_s", estimates as f64 / search_s);
    led.count("search.pseudo_front", pseudo_front.len() as f64);

    let t0 = std::time::Instant::now();
    let evaluator = match step2_evaluator {
        Some(ev) => ev,
        None => Evaluator::new(work, lib, &pre.space, samples),
    };
    let mut members: Vec<Configuration> = pseudo_front
        .into_sorted()
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    if members.len() > opts.final_eval_cap {
        let (n, cap) = (members.len(), opts.final_eval_cap);
        members = (0..cap)
            .map(|i| members[i * (n - 1) / (cap - 1).max(1)].clone())
            .collect();
    }
    let exact = pre.space.exact();
    if !members.contains(&exact) {
        members.push(exact);
    }
    let evals: Vec<RealEval> = evaluator.evaluate_batch(&members);
    let mut front3: ParetoFront3<Configuration> = ParetoFront3::new();
    let mut seen: HashSet<(u64, u64, u64)> = HashSet::new();
    for (c, r) in members.iter().zip(&evals) {
        if seen.insert((r.qor.to_bits(), r.hw.area.to_bits(), r.hw.energy.to_bits())) {
            front3.try_insert(r.qor, r.hw.area, r.hw.energy, c.clone());
        }
    }
    let digest = front_digest(front3.into_sorted().into_iter().map(|(p, _)| p));
    let final_s = t0.elapsed().as_secs_f64();
    led.record("step3b.final_eval_s", final_s);
    led.count("step3b.real_evals", members.len() as f64);
    led.sample("step3b.real_evals_per_s", members.len() as f64 / final_s);
    Ok(Composed {
        digest,
        warm: was_warm,
    })
}
