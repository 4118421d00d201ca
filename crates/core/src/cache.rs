//! Cache-aware warm start for the pipeline's Steps 1–2.
//!
//! Library pre-processing (Step 1) and model construction (Step 2) are
//! deterministic functions of the workload, the characterized library,
//! the benchmark samples and the pipeline options — and they dominate
//! wall-clock on repeat runs now that Step 3 is batched and parallel.
//! This module content-addresses their combined result (the reduced
//! configuration space with its PMFs, the fidelity report, and the two
//! fitted models) through `autoax-store`:
//!
//! * [`pipeline_cache_key`] digests every input that affects Steps 1–2 —
//!   including a *content* fingerprint of the library and the benchmark
//!   samples (image bytes, NN feature vectors, … via
//!   [`Workload::digest_samples`]), so a regenerated library or a changed
//!   benchmark suite can never alias a stale entry — plus the store
//!   format-version salt;
//! * [`encode_step12`] / [`decode_step12`] round-trip the artifacts with
//!   bitwise-exact floats, so a warm [`crate::pipeline::run_pipeline`]
//!   produces a byte-identical result to the cold run;
//! * corrupt or version-mismatched entries fail validation in the store
//!   layer and are transparently recomputed.
//!
//! Search-stage options (the embedded `SearchOptions`: strategy, budget,
//! islands, batch, threads — and the final-eval cap) are deliberately
//! *not* part of the key: Step 3 always runs live, so one warm-started
//! library/model pair serves any search strategy and budget — the reuse
//! pattern the paper itself argues for.

use crate::model::{FidelityReport, FittedModels};
use crate::pipeline::PipelineOptions;
use crate::preprocess::Preprocessed;
use autoax_accel::{Pmf, Workload};
use autoax_circuit::charlib::{CircuitId, ComponentLibrary};
use autoax_store::cache::{CacheKey, KeyHasher};
use autoax_store::circuit_codec::{put_signature, take_signature};
use autoax_store::codec::{Decoder, Encoder};
use autoax_store::ml_codec::{put_regressor, take_regressor};
use autoax_store::StoreError;

/// Container tag of Step-1/2 warm-start blobs.
pub const STEP12_TAG: [u8; 4] = *b"AST2";

/// Cache entry kind (file-name prefix) of Step-1/2 blobs.
pub const STEP12_KIND: &str = "pipeline-step12";

/// True when every slot of a decoded space resolves inside the live
/// library — the invariant `ConfigSpace::entries` indexes by.
///
/// The cache key already fingerprints the library content, so a mismatch
/// here means a pathological collision or a hand-edited entry; callers
/// treat it as a miss rather than risking a wrong lookup or a panic.
pub fn step12_matches_library(pre: &Preprocessed, lib: &ComponentLibrary) -> bool {
    pre.space.slots().iter().all(|s| {
        let class_size = lib.class_size(s.signature) as u32;
        class_size > 0 && s.members.iter().all(|m| m.id.0 < class_size)
    })
}

/// Digest of everything that determines the outcome of Steps 1–2.
pub fn pipeline_cache_key<W: Workload + ?Sized>(
    work: &W,
    lib: &ComponentLibrary,
    samples: &[W::Sample],
    opts: &PipelineOptions,
) -> CacheKey {
    let mut h = KeyHasher::new("pipeline-step12");

    // workload identity: name, slot list, plus whatever extra identity
    // the domain declares (mode counts, network weights, …)
    h.write_str(work.name());
    h.write_u64(work.slots().len() as u64);
    for slot in work.slots() {
        h.write_str(&slot.name);
        h.write_str(&slot.signature.to_string());
    }
    {
        let mut sink = |bytes: &[u8]| h.write_bytes(bytes);
        work.digest_identity(&mut sink);
    }

    // library *content* fingerprint: per entry, the id (cached spaces
    // index circuits by it), the functional label and the full
    // characterization tables (bit-exact). Raw mutants share the
    // "mutant" label but are separated by their exhaustive/sampled error
    // statistics and hardware numbers.
    for sig in lib.signatures() {
        h.write_str(&sig.to_string());
        let class = lib.class(sig);
        h.write_u64(class.len() as u64);
        for e in class {
            h.write_u64(e.id.0 as u64);
            h.write_str(&e.label);
            h.write_f64(e.hw.area);
            h.write_f64(e.hw.delay);
            h.write_f64(e.hw.power);
            h.write_f64(e.hw.energy);
            h.write_u64(e.hw.cells as u64);
            h.write_f64(e.err.mae);
            h.write_u64(e.err.wce);
            h.write_f64(e.err.er);
            h.write_f64(e.err.mse);
            h.write_f64(e.err.var_ed);
            h.write_f64(e.err.mre);
            h.write_u64(e.err.samples);
        }
    }

    // benchmark sample content (domain-typed: image bytes, feature
    // vectors, … — whatever the workload declares as sample identity)
    h.write_u64(samples.len() as u64);
    {
        let mut sink = |bytes: &[u8]| h.write_bytes(bytes);
        work.digest_samples(samples, &mut sink);
    }

    // the options that flow into Steps 1–2
    h.write_f64(opts.preprocess.mass_frac);
    h.write_opt_u64(opts.preprocess.slot_cap.map(|c| c as u64));
    // the engine's stable display name, not its position in
    // EngineKind::ALL — reordering that list must not alias cache keys
    h.write_str(opts.engine.name());
    h.write_u64(opts.train_configs as u64);
    h.write_u64(opts.test_configs as u64);
    h.write_u64(opts.seed);

    h.finish()
}

fn put_pmf(e: &mut Encoder, pmf: &Pmf) {
    let counts = pmf.sorted_counts();
    e.put_len(counts.len());
    for ((a, b), c) in counts {
        e.put_u32(a);
        e.put_u32(b);
        e.put_u64(c);
    }
}

fn take_pmf(d: &mut Decoder<'_>) -> Result<Pmf, StoreError> {
    let n = d.take_len()?;
    let mut counts = Vec::new();
    for _ in 0..n {
        let a = d.take_u32()?;
        let b = d.take_u32()?;
        let c = d.take_u64()?;
        counts.push(((a, b), c));
    }
    Ok(Pmf::from_counts(counts))
}

fn put_preprocessed(e: &mut Encoder, pre: &Preprocessed) {
    let slots = pre.space.slots();
    e.put_len(slots.len());
    for s in slots {
        e.put_str(&s.name);
        put_signature(e, s.signature);
        e.put_len(s.members.len());
        for m in &s.members {
            e.put_u32(m.id.0);
            e.put_f64(m.wmed);
        }
    }
    e.put_len(pre.pmfs.len());
    for pmf in &pre.pmfs {
        put_pmf(e, pmf);
    }
    e.put_f64(pre.full_log10_size);
}

fn take_preprocessed(d: &mut Decoder<'_>) -> Result<Preprocessed, StoreError> {
    use crate::config::{ConfigSpace, SlotChoices, SlotMember};
    let n_slots = d.take_len()?;
    let mut slots = Vec::new();
    for _ in 0..n_slots {
        let name = d.take_str()?;
        let signature = take_signature(d)?;
        let n_members = d.take_len()?;
        if n_members == 0 {
            return Err(StoreError::Invalid(format!("slot {name} has no members")));
        }
        let mut members = Vec::new();
        for _ in 0..n_members {
            members.push(SlotMember {
                id: CircuitId(d.take_u32()?),
                wmed: d.take_f64()?,
            });
        }
        slots.push(SlotChoices {
            name,
            signature,
            members,
        });
    }
    let n_pmfs = d.take_len()?;
    let mut pmfs = Vec::new();
    for _ in 0..n_pmfs {
        pmfs.push(take_pmf(d)?);
    }
    let full_log10_size = d.take_f64()?;
    Ok(Preprocessed {
        space: ConfigSpace::new(slots),
        pmfs,
        full_log10_size,
    })
}

fn put_fidelity(e: &mut Encoder, f: &FidelityReport) {
    e.put_f64(f.qor_train);
    e.put_f64(f.qor_test);
    e.put_f64(f.hw_train);
    e.put_f64(f.hw_test);
}

fn take_fidelity(d: &mut Decoder<'_>) -> Result<FidelityReport, StoreError> {
    Ok(FidelityReport {
        qor_train: d.take_f64()?,
        qor_test: d.take_f64()?,
        hw_train: d.take_f64()?,
        hw_test: d.take_f64()?,
    })
}

/// Encodes the Step-1/2 artifacts into an unsealed payload.
///
/// # Errors
/// [`StoreError::Unsupported`] when the engine's fitted models have no
/// serialization support — the caller simply skips caching.
pub fn encode_step12(
    pre: &Preprocessed,
    fidelity: &FidelityReport,
    models: &FittedModels,
) -> Result<Vec<u8>, StoreError> {
    let mut e = Encoder::new();
    put_preprocessed(&mut e, pre);
    put_fidelity(&mut e, fidelity);
    put_regressor(&mut e, models.qor.as_ref())?;
    put_regressor(&mut e, models.hw.as_ref())?;
    Ok(e.into_bytes())
}

/// Decodes a Step-1/2 payload written by [`encode_step12`].
pub fn decode_step12(
    payload: &[u8],
) -> Result<(Preprocessed, FidelityReport, FittedModels), StoreError> {
    let mut d = Decoder::new(payload);
    let pre = take_preprocessed(&mut d)?;
    let fidelity = take_fidelity(&mut d)?;
    let qor = take_regressor(&mut d)?;
    let hw = take_regressor(&mut d)?;
    d.finish()?;
    // The decoded space must also reference circuits the live library
    // actually has; the caller checks that with
    // [`step12_matches_library`] before trusting the warm start.
    Ok((pre, fidelity, FittedModels { qor, hw }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::Evaluator;
    use crate::model::{fidelity_report, fit_models, EvaluatedSet};
    use crate::preprocess::{preprocess, PreprocessOptions};
    use autoax_accel::sobel::SobelEd;
    use autoax_circuit::charlib::{build_library, LibraryConfig};
    use autoax_image::synthetic::benchmark_suite;
    use autoax_ml::EngineKind;

    #[test]
    fn step12_bundle_round_trips_bitwise() {
        let accel = SobelEd::new();
        let lib = build_library(&LibraryConfig::tiny());
        let images = benchmark_suite(2, 48, 32, 5);
        let pre = preprocess(&accel, &lib, &images, &PreprocessOptions::default()).unwrap();
        let ev = Evaluator::new(&accel, &lib, &pre.space, &images);
        let train = EvaluatedSet::generate(&ev, &pre.space, 40, 1);
        let test = EvaluatedSet::generate(&ev, &pre.space, 20, 2);
        let models = fit_models(EngineKind::RandomForest, &pre.space, &lib, &train, 7).unwrap();
        let fid = fidelity_report(&models, &pre.space, &lib, &train, &test).unwrap();

        let payload = encode_step12(&pre, &fid, &models).unwrap();
        let (pre2, fid2, models2) = decode_step12(&payload).unwrap();

        assert_eq!(fid2.qor_test.to_bits(), fid.qor_test.to_bits());
        assert_eq!(
            pre2.full_log10_size.to_bits(),
            pre.full_log10_size.to_bits()
        );
        assert_eq!(pre2.space.slot_count(), pre.space.slot_count());
        for (a, b) in pre.space.slots().iter().zip(pre2.space.slots()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.signature, b.signature);
            assert_eq!(a.members.len(), b.members.len());
            for (ma, mb) in a.members.iter().zip(&b.members) {
                assert_eq!(ma.id, mb.id);
                assert_eq!(ma.wmed.to_bits(), mb.wmed.to_bits());
            }
        }
        for (pa, pb) in pre.pmfs.iter().zip(&pre2.pmfs) {
            assert_eq!(pa.sorted_counts(), pb.sorted_counts());
            assert_eq!(pa.total(), pb.total());
        }
        // model predictions bitwise identical on live features
        let c = pre.space.exact();
        let (q1, h1) = models.estimate(&pre.space, &lib, &c);
        let (q2, h2) = models2.estimate(&pre2.space, &lib, &c);
        assert_eq!(q1.to_bits(), q2.to_bits());
        assert_eq!(h1.to_bits(), h2.to_bits());
    }

    #[test]
    fn cache_key_tracks_every_step12_input() {
        let accel = SobelEd::new();
        let lib = build_library(&LibraryConfig::tiny());
        let images = benchmark_suite(2, 48, 32, 5);
        let opts = PipelineOptions::quick();
        let base = pipeline_cache_key(&accel, &lib, &images, &opts);
        assert_eq!(base.hex(), "5854a71cb0e7ce042d9ca81e9b5cc33f");

        // same inputs -> same key
        assert_eq!(base, pipeline_cache_key(&accel, &lib, &images, &opts));

        // seed change
        let k = pipeline_cache_key(
            &accel,
            &lib,
            &images,
            &PipelineOptions {
                seed: 43,
                ..opts.clone()
            },
        );
        assert_ne!(base, k);

        // engine change
        let k = pipeline_cache_key(
            &accel,
            &lib,
            &images,
            &PipelineOptions {
                engine: EngineKind::DecisionTree,
                ..opts.clone()
            },
        );
        assert_ne!(base, k);

        // image content change
        let other = benchmark_suite(2, 48, 32, 6);
        assert_ne!(base, pipeline_cache_key(&accel, &lib, &other, &opts));

        // library content change (note: the key is *content*-addressed —
        // a generator-seed change that produces the same circuits, as it
        // does at tiny scale where structured families fill every class,
        // legitimately keeps the key; shrinking a class changes content)
        let lib2 = build_library(&LibraryConfig {
            counts: autoax_circuit::charlib::ClassCounts {
                add8: 50,
                ..LibraryConfig::tiny().counts
            },
            ..LibraryConfig::tiny()
        });
        assert_ne!(base, pipeline_cache_key(&accel, &lib2, &images, &opts));

        // search-stage knobs must NOT change the key (Step 3 is live):
        // neither the budget/islands nor the strategy choice
        let k = pipeline_cache_key(
            &accel,
            &lib,
            &images,
            &PipelineOptions {
                search: crate::search::SearchOptions {
                    max_evals: opts.search.max_evals * 10,
                    islands: 2,
                    strategy: crate::search::SearchAlgo::Nsga2,
                    ..opts.search
                },
                final_eval_cap: 7,
                ..opts.clone()
            },
        );
        assert_eq!(base, k);
    }

    #[test]
    fn truncated_bundle_is_an_error() {
        let accel = SobelEd::new();
        let lib = build_library(&LibraryConfig::tiny());
        let images = benchmark_suite(1, 32, 32, 5);
        let pre = preprocess(&accel, &lib, &images, &PreprocessOptions::default()).unwrap();
        let ev = Evaluator::new(&accel, &lib, &pre.space, &images);
        let train = EvaluatedSet::generate(&ev, &pre.space, 30, 1);
        let models = fit_models(EngineKind::RandomForest, &pre.space, &lib, &train, 7).unwrap();
        let fid = fidelity_report(&models, &pre.space, &lib, &train, &train).unwrap();
        let payload = encode_step12(&pre, &fid, &models).unwrap();
        assert!(decode_step12(&payload[..payload.len() / 2]).is_err());
    }
}
