//! Integration tests of the cache-aware pipeline warm start: a warm run
//! with a populated cache must skip Steps 1–2 entirely and produce a
//! **byte-identical** `PipelineResult` to the cold run, and corrupt or
//! tampered cache files must fall back to recompute — never to a wrong
//! result.

use autoax::cache::pipeline_cache_key;
use autoax::pipeline::{run_pipeline, PipelineOptions, PipelineResult};
use autoax::CacheMode;
use autoax_accel::gaussian_generic::GenericGaussian;
use autoax_accel::kernels::gaussian_kernel_256;
use autoax_accel::sobel::SobelEd;
use autoax_circuit::charlib::{build_library, ComponentLibrary, LibraryConfig};
use autoax_image::GrayImage;
use autoax_store::cache::{BlobStore, Store};
use autoax_store::ShardedStore;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "autoax-pipeline-cache-test-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn setup() -> (SobelEd, ComponentLibrary, Vec<GrayImage>) {
    (
        SobelEd::new(),
        build_library(&LibraryConfig::tiny()),
        autoax_image::synthetic::benchmark_suite(2, 48, 32, 5),
    )
}

/// Asserts two pipeline results are byte-identical in every
/// deterministic field (timings are wall-clock and excluded).
fn assert_results_byte_identical(cold: &PipelineResult, warm: &PipelineResult) {
    // fidelity report, bit for bit
    for (a, b) in [
        (cold.fidelity.qor_train, warm.fidelity.qor_train),
        (cold.fidelity.qor_test, warm.fidelity.qor_test),
        (cold.fidelity.hw_train, warm.fidelity.hw_train),
        (cold.fidelity.hw_test, warm.fidelity.hw_test),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "fidelity diverged");
    }
    // preprocessed space: slot structure and WMED bits
    assert_eq!(
        cold.preprocessed.full_log10_size.to_bits(),
        warm.preprocessed.full_log10_size.to_bits()
    );
    assert_eq!(
        cold.preprocessed.space.slot_count(),
        warm.preprocessed.space.slot_count()
    );
    for (a, b) in cold
        .preprocessed
        .space
        .slots()
        .iter()
        .zip(warm.preprocessed.space.slots())
    {
        assert_eq!(a.name, b.name);
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.members.len(), b.members.len());
        for (ma, mb) in a.members.iter().zip(&b.members) {
            assert_eq!(ma.id, mb.id);
            assert_eq!(ma.wmed.to_bits(), mb.wmed.to_bits());
        }
    }
    // profiled PMFs (lossless count tables)
    assert_eq!(cold.preprocessed.pmfs.len(), warm.preprocessed.pmfs.len());
    for (a, b) in cold.preprocessed.pmfs.iter().zip(&warm.preprocessed.pmfs) {
        assert_eq!(a.sorted_counts(), b.sorted_counts());
    }
    // pseudo-Pareto front: configurations and estimated objectives
    let cold_front = cold.pseudo_front.clone().into_sorted();
    let warm_front = warm.pseudo_front.clone().into_sorted();
    assert_eq!(cold_front.len(), warm_front.len(), "pseudo front size");
    for ((pa, ca), (pb, cb)) in cold_front.iter().zip(warm_front.iter()) {
        assert_eq!(ca, cb, "pseudo front configuration diverged");
        assert_eq!(pa.qor.to_bits(), pb.qor.to_bits());
        assert_eq!(pa.cost.to_bits(), pb.cost.to_bits());
    }
    // real evaluations
    assert_eq!(cold.evaluated.len(), warm.evaluated.len());
    for ((ca, ra), (cb, rb)) in cold.evaluated.iter().zip(&warm.evaluated) {
        assert_eq!(ca, cb);
        assert_eq!(ra.qor.to_bits(), rb.qor.to_bits());
        assert_eq!(ra.hw.area.to_bits(), rb.hw.area.to_bits());
        assert_eq!(ra.hw.energy.to_bits(), rb.hw.energy.to_bits());
    }
    // final front
    assert_eq!(cold.final_front.len(), warm.final_front.len());
    for (a, b) in cold.final_front.iter().zip(&warm.final_front) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.qor.to_bits(), b.qor.to_bits());
        assert_eq!(a.area.to_bits(), b.area.to_bits());
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
    }
}

#[test]
fn warm_run_skips_steps_1_2_and_is_byte_identical() {
    let dir = temp_cache_dir("warm");
    let (accel, lib, images) = setup();
    let opts = PipelineOptions::quick().with_cache(&dir, CacheMode::ReadWrite);

    let cold = run_pipeline(&accel, &lib, &images, &opts).unwrap();
    assert_eq!(cold.timings.cache_hits, 0);
    assert_eq!(cold.timings.cache_misses, 1);
    assert!(cold.timings.step12_compute > std::time::Duration::ZERO);

    let warm = run_pipeline(&accel, &lib, &images, &opts).unwrap();
    assert_eq!(warm.timings.cache_hits, 1, "second run must warm-start");
    assert_eq!(warm.timings.cache_misses, 0);
    // Steps 1–2 skipped entirely: their stage timers never started.
    assert_eq!(warm.timings.profiling, std::time::Duration::ZERO);
    assert_eq!(warm.timings.preprocess, std::time::Duration::ZERO);
    assert_eq!(warm.timings.training_data, std::time::Duration::ZERO);
    assert_eq!(warm.timings.model_fit, std::time::Duration::ZERO);
    assert_eq!(warm.timings.step12_compute, std::time::Duration::ZERO);
    assert!(warm.timings.cache_load > std::time::Duration::ZERO);

    assert_results_byte_identical(&cold, &warm);
}

#[test]
fn corrupt_cache_entry_falls_back_to_recompute() {
    let dir = temp_cache_dir("corrupt");
    let (accel, lib, images) = setup();
    let opts = PipelineOptions::quick().with_cache(&dir, CacheMode::ReadWrite);

    let cold = run_pipeline(&accel, &lib, &images, &opts).unwrap();

    // flip one byte in the middle of the single cache entry
    let store = Store::new(&dir);
    let entries: Vec<PathBuf> = std::fs::read_dir(store.dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "axbin"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one cache entry");
    let mut bytes = std::fs::read(&entries[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&entries[0], &bytes).unwrap();

    let recovered = run_pipeline(&accel, &lib, &images, &opts).unwrap();
    assert_eq!(recovered.timings.cache_hits, 0, "corrupt entry must miss");
    assert_eq!(recovered.timings.cache_misses, 1);
    assert!(recovered.timings.step12_compute > std::time::Duration::ZERO);
    assert_results_byte_identical(&cold, &recovered);

    // read-write mode replaced the corrupt entry: next run hits again
    let warm = run_pipeline(&accel, &lib, &images, &opts).unwrap();
    assert_eq!(warm.timings.cache_hits, 1);
    assert_results_byte_identical(&cold, &warm);
}

#[test]
fn read_mode_never_writes_and_off_mode_never_reads() {
    let dir = temp_cache_dir("modes");
    let (accel, lib, images) = setup();

    // read mode on an empty cache: miss, and no entry is written
    let read_opts = PipelineOptions::quick().with_cache(&dir, CacheMode::Read);
    let r = run_pipeline(&accel, &lib, &images, &read_opts).unwrap();
    assert_eq!(r.timings.cache_misses, 1);
    assert!(
        !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
        "read mode must not write entries"
    );

    // populate, then verify off mode ignores the populated cache
    let rw_opts = PipelineOptions::quick().with_cache(&dir, CacheMode::ReadWrite);
    let _ = run_pipeline(&accel, &lib, &images, &rw_opts).unwrap();
    let off_opts = PipelineOptions::quick().with_cache(&dir, CacheMode::Off);
    let off = run_pipeline(&accel, &lib, &images, &off_opts).unwrap();
    assert_eq!(off.timings.cache_hits, 0);
    assert_eq!(off.timings.cache_misses, 0);
    assert!(off.timings.step12_compute > std::time::Duration::ZERO);
}

#[test]
fn different_search_budgets_share_one_step12_entry() {
    // The reuse the paper argues for: one characterized/modelled artifact
    // serves many search configurations.
    let dir = temp_cache_dir("budgets");
    let (accel, lib, images) = setup();
    let base = PipelineOptions::quick().with_cache(&dir, CacheMode::ReadWrite);
    let _ = run_pipeline(&accel, &lib, &images, &base).unwrap();

    let other_budget = PipelineOptions {
        search: autoax::SearchOptions {
            max_evals: base.search.max_evals / 2,
            ..base.search
        },
        final_eval_cap: 20,
        ..base.clone()
    };
    let warm = run_pipeline(&accel, &lib, &images, &other_budget).unwrap();
    assert_eq!(
        warm.timings.cache_hits, 1,
        "a different search budget must reuse the Step-1/2 entry"
    );
    assert!(!warm.final_front.is_empty());

    // A different search *strategy* reuses it too.
    let other_strategy = base.clone().with_strategy(autoax::SearchAlgo::Nsga2);
    let warm2 = run_pipeline(&accel, &lib, &images, &other_strategy).unwrap();
    assert_eq!(
        warm2.timings.cache_hits, 1,
        "a different search strategy must reuse the Step-1/2 entry"
    );
    assert_eq!(warm2.timings.search_strategy, "nsga2");
    assert!(!warm2.final_front.is_empty());
}

#[test]
fn nn_workload_warm_start_is_byte_identical_too() {
    // the cache layer is domain-generic: the NN workload's Steps 1–2
    // (operand profiling over the MAC slots, accuracy/area models) must
    // warm-start byte-identically through the same store
    let dir = temp_cache_dir("nn-warm");
    let lib = build_library(&LibraryConfig::tiny());
    let (accel, samples) = autoax_nn::NnScenario::tiny().build();
    let opts = PipelineOptions::quick().with_cache(&dir, CacheMode::ReadWrite);

    let cold = run_pipeline(&accel, &lib, &samples, &opts).unwrap();
    assert_eq!(cold.timings.cache_hits, 0);
    assert_eq!(cold.timings.cache_misses, 1);

    let warm = run_pipeline(&accel, &lib, &samples, &opts).unwrap();
    assert_eq!(warm.timings.cache_hits, 1);
    assert_eq!(warm.timings.cache_misses, 0);
    assert_eq!(warm.timings.profiling, std::time::Duration::ZERO);
    assert_results_byte_identical(&cold, &warm);

    // a different network (one weight flipped) must miss: the workload
    // identity digest covers the weights
    let mut other_mlp = accel.mlp().clone();
    other_mlp.layers[0].weights[0] ^= 1;
    let other = autoax_nn::NnAccelerator::new("Quantized MLP", other_mlp);
    let res = run_pipeline(&other, &lib, &samples, &opts).unwrap();
    assert_eq!(res.timings.cache_hits, 0, "weight flip must not alias");
    assert_eq!(res.timings.cache_misses, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kernel_sweeps_of_equal_length_do_not_alias() {
    // Same name, slots and mode count: only the coefficients the
    // dataflow feeds its multipliers differ, so Steps 1–2 differ too.
    let lib = build_library(&LibraryConfig::tiny());
    let images = autoax_image::synthetic::benchmark_suite(2, 32, 24, 5);
    let sweep = |sigmas: [f64; 2]| {
        GenericGaussian::new(sigmas.iter().map(|&s| gaussian_kernel_256(s)).collect())
    };
    let (first, second) = (sweep([0.4, 0.7]), sweep([0.5, 0.8]));
    let quick = PipelineOptions::quick();
    assert_ne!(
        pipeline_cache_key(&first, &lib, &images, &quick),
        pipeline_cache_key(&second, &lib, &images, &quick),
        "kernel sweeps of equal length must key apart"
    );

    let dir = temp_cache_dir("gf-sweeps");
    let store: Arc<dyn BlobStore> = Arc::new(ShardedStore::with_defaults(&dir));
    let opts = quick.with_store(store, CacheMode::ReadWrite);
    let a = run_pipeline(&first, &lib, &images, &opts).unwrap();
    assert_eq!(a.timings.cache_misses, 1);
    let b = run_pipeline(&second, &lib, &images, &opts).unwrap();
    assert_eq!(
        b.timings.cache_misses, 1,
        "the second sweep must not warm-start from the first's PMFs and models"
    );
    assert_eq!(b.timings.cache_hits, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
