//! Golden-digest parity for the application-layer generalization, plus
//! the NN workload's end-to-end pipeline contract.
//!
//! The `Workload` refactor (generic `run_pipeline` over any QoR domain)
//! must leave the image path **byte-identical**: the quickstart example's
//! Sobel front digest, pseudo-Pareto size and final-front size are pinned
//! here to the values captured before the refactor (commit 95e7ccb). If
//! this test fails, the generalization changed numeric behaviour — that
//! is a bug, not a baseline to re-pin.

use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax_accel::sobel::SobelEd;
use autoax_circuit::charlib::{build_library, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_nn::NnScenario;

#[test]
fn sobel_quickstart_front_is_bit_identical_to_pre_workload_refactor() {
    // exactly the quickstart example's setup: tiny library, 4 synthetic
    // 96×64 images (seed 7), quick pipeline budgets, hill search
    let lib = build_library(&LibraryConfig::tiny());
    let images = benchmark_suite(4, 96, 64, 7);
    let accel = SobelEd::new();
    let res = run_pipeline(&accel, &lib, &images, &PipelineOptions::quick()).expect("pipeline");
    assert_eq!(
        res.pseudo_front.len(),
        65,
        "pseudo-Pareto size drifted from the pre-refactor baseline"
    );
    assert_eq!(
        res.final_front.len(),
        14,
        "final front size drifted from the pre-refactor baseline"
    );
    assert_eq!(
        res.front_digest(),
        0x252e_0c00_c843_33a4,
        "front digest drifted: the application-layer generalization must \
         leave Sobel results byte-identical"
    );
    assert_eq!(res.qor_metric, "SSIM");
}

#[test]
fn pinned_quickstart_digest_is_stable_across_worker_pool_widths() {
    // The persistent worker pool, the fused forest kernels and the
    // batched Pareto insertion are pure throughput machinery: the pinned
    // quickstart pins above must not move at any pool width. Widths are
    // set through `SearchOptions::threads` (not the env var) so the runs
    // cannot race each other's configuration.
    let lib = build_library(&LibraryConfig::tiny());
    let images = benchmark_suite(4, 96, 64, 7);
    let accel = SobelEd::new();
    for threads in [1usize, 2, 8] {
        let mut opts = PipelineOptions::quick();
        opts.search.threads = threads;
        let res = run_pipeline(&accel, &lib, &images, &opts).expect("pipeline");
        assert_eq!(
            (res.pseudo_front.len(), res.final_front.len()),
            (65, 14),
            "front sizes drifted at threads={threads}"
        );
        assert_eq!(
            res.front_digest(),
            0x252e_0c00_c843_33a4,
            "quickstart digest moved at threads={threads}"
        );
    }
}

#[test]
fn nn_pipeline_runs_all_three_steps_end_to_end() {
    // the same generic pipeline on the NN workload: profiling → models
    // with reported fidelity → search → non-empty accuracy/area/energy
    // front with accuracy in [0, 1] and the exact design reaching 1.0
    let lib = build_library(&LibraryConfig::tiny());
    let (accel, samples) = NnScenario::tiny().build();
    let res = run_pipeline(&accel, &lib, &samples, &PipelineOptions::quick()).expect("nn pipeline");
    assert_eq!(res.qor_metric, "top-1 accuracy");
    assert!(!res.final_front.is_empty(), "empty NN front");
    for m in &res.final_front {
        assert!(
            (0.0..=1.0).contains(&m.qor),
            "accuracy out of range: {}",
            m.qor
        );
    }
    let best = res
        .final_front
        .iter()
        .map(|m| m.qor)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(best, 1.0, "the exact configuration must reach accuracy 1.0");
    for (name, v) in [
        ("qor_train", res.fidelity.qor_train),
        ("qor_test", res.fidelity.qor_test),
        ("hw_train", res.fidelity.hw_train),
        ("hw_test", res.fidelity.hw_test),
    ] {
        assert!(
            (0.0..=1.0).contains(&v),
            "fidelity {name} out of [0,1]: {v}"
        );
    }
    // PMFs profiled for every MAC slot
    assert_eq!(res.preprocessed.pmfs.len(), 4);
    for pmf in &res.preprocessed.pmfs {
        assert!(pmf.total() > 0);
    }
}

#[test]
fn nn_pipeline_is_deterministic() {
    let lib = build_library(&LibraryConfig::tiny());
    let (accel, samples) = NnScenario::tiny().build();
    let opts = PipelineOptions::quick();
    let a = run_pipeline(&accel, &lib, &samples, &opts).expect("run a");
    let b = run_pipeline(&accel, &lib, &samples, &opts).expect("run b");
    assert_eq!(a.front_digest(), b.front_digest());
    assert_eq!(a.pseudo_front.len(), b.pseudo_front.len());
}
