//! Pins the real QoR of the three image accelerators bit for bit.
//!
//! Real evaluation (full simulation plus mean SSIM against the exact
//! run) feeds the Step-2 training sets and the Step-3b final front, so
//! any change to the software models, the compiled ops or the SSIM
//! arithmetic shows up here first. Each digest is the store's FNV-1a 64
//! over the little-endian `f64::to_bits()` of the QoR of the exact
//! configuration followed by 16 seeded random configurations of the
//! tiny library's preprocessed space. The generic GF pin covers the
//! multi-mode path (four kernels averaged per image).
//!
//! Every configuration is evaluated twice, through the parallel
//! `evaluate_batch` and the sequential `evaluate_qor`, and the two must
//! agree bit for bit; CI runs this file with the default worker count
//! and with `AUTOAX_THREADS=1`.

use autoax::evaluate::Evaluator;
use autoax::preprocess::{preprocess, PreprocessOptions};
use autoax_accel::gaussian_fixed::FixedGaussian;
use autoax_accel::gaussian_generic::GenericGaussian;
use autoax_accel::sobel::SobelEd;
use autoax_accel::Accelerator;
use autoax_circuit::charlib::{build_library, ComponentLibrary, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_image::GrayImage;
use autoax_store::container::fnv1a64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// The tiny library, built once for all three pins.
fn tiny_library() -> &'static ComponentLibrary {
    static LIB: OnceLock<ComponentLibrary> = OnceLock::new();
    LIB.get_or_init(|| build_library(&LibraryConfig::tiny()))
}

/// FNV-1a 64 over the QoR bits of the exact and 16 random configurations.
fn qor_digest(accel: &dyn Accelerator, images: &[GrayImage]) -> u64 {
    let lib = tiny_library();
    let pre = preprocess(accel, lib, images, &PreprocessOptions::default()).expect("preprocess");
    let ev = Evaluator::new(accel, lib, &pre.space, images);
    let mut rng = StdRng::seed_from_u64(16);
    let mut configs = vec![pre.space.exact()];
    configs.extend((0..16).map(|_| pre.space.random(&mut rng)));
    let batch = ev.evaluate_batch(&configs);
    let mut bits = Vec::with_capacity(8 * configs.len());
    for (c, r) in configs.iter().zip(&batch) {
        let single = ev.evaluate_qor(c);
        assert_eq!(
            single.to_bits(),
            r.qor.to_bits(),
            "{}: batch QoR {} != single QoR {single} for {:?}",
            accel.name(),
            r.qor,
            c.genes()
        );
        bits.extend_from_slice(&single.to_bits().to_le_bytes());
    }
    assert_eq!(batch[0].qor, 1.0, "the exact configuration must score 1");
    fnv1a64(&bits)
}

#[test]
fn sobel_qor_is_pinned() {
    let images = benchmark_suite(4, 96, 64, 7);
    assert_eq!(
        qor_digest(&SobelEd::new(), &images),
        0xb567_f216_72f2_22eb,
        "Sobel ED real QoR changed"
    );
}

#[test]
fn fixed_gaussian_qor_is_pinned() {
    let images = benchmark_suite(4, 96, 64, 7);
    assert_eq!(
        qor_digest(&FixedGaussian::new(), &images),
        0x47d3_9b0a_644c_e844,
        "fixed Gaussian real QoR changed"
    );
}

#[test]
fn generic_gaussian_qor_is_pinned() {
    let images = benchmark_suite(2, 64, 48, 11);
    assert_eq!(
        qor_digest(&GenericGaussian::with_sweep(4), &images),
        0x9ed7_a930_9565_721f,
        "generic Gaussian (4 kernels) real QoR changed"
    );
}
