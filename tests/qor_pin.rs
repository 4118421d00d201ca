//! Pins the real QoR, the hardware cost and the operand profiles of the
//! three image accelerators bit for bit.
//!
//! Real evaluation (full simulation plus mean SSIM against the exact
//! run) feeds the Step-2 training sets and the Step-3b final front, so
//! any change to the software models, the compiled ops or the SSIM
//! arithmetic shows up here first. Each QoR digest is the store's FNV-1a
//! 64 over the little-endian `f64::to_bits()` of the QoR of the exact
//! configuration followed by 16 seeded random configurations of the
//! tiny library's preprocessed space. The generic GF pin covers the
//! multi-mode path (four kernels averaged per image).
//!
//! The hardware digests cover the composed netlists of the same 17
//! configurations: FNV-1a 64 over the little-endian bits of each
//! `evaluate_hw` report's area, delay, power and energy, then its cell
//! count. The profile digests cover Step 1: FNV-1a 64 over every slot's
//! `Pmf::sorted_counts()` (entry count, then each operand pair and its
//! count).
//!
//! Every configuration's QoR is evaluated twice, through the parallel
//! `evaluate_batch` and the sequential `evaluate_qor`, and the two must
//! agree bit for bit; CI runs this file with the default worker count
//! and with `AUTOAX_THREADS=1`.

use autoax::config::Configuration;
use autoax::evaluate::Evaluator;
use autoax::preprocess::{preprocess, PreprocessOptions};
use autoax_accel::gaussian_fixed::FixedGaussian;
use autoax_accel::gaussian_generic::GenericGaussian;
use autoax_accel::sobel::SobelEd;
use autoax_accel::{Accelerator, Workload};
use autoax_circuit::charlib::{build_library, ComponentLibrary, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_image::GrayImage;
use autoax_store::container::fnv1a64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// The tiny library, built once for all pins.
fn tiny_library() -> &'static ComponentLibrary {
    static LIB: OnceLock<ComponentLibrary> = OnceLock::new();
    LIB.get_or_init(|| build_library(&LibraryConfig::tiny()))
}

/// Runs `f` on an evaluator over `images` and the exact plus 16 seeded
/// random configurations of the tiny library's preprocessed space.
fn with_pinned_configs<'a, R>(
    accel: &'a dyn Accelerator,
    images: &'a [GrayImage],
    f: impl FnOnce(&Evaluator<'_, dyn Accelerator + 'a>, &[Configuration]) -> R,
) -> R {
    let lib = tiny_library();
    let pre = preprocess(accel, lib, images, &PreprocessOptions::default()).expect("preprocess");
    let ev = Evaluator::new(accel, lib, &pre.space, images);
    let mut rng = StdRng::seed_from_u64(16);
    let mut configs = vec![pre.space.exact()];
    configs.extend((0..16).map(|_| pre.space.random(&mut rng)));
    f(&ev, &configs)
}

/// FNV-1a 64 over the QoR bits of the exact and 16 random configurations.
fn qor_digest(accel: &dyn Accelerator, images: &[GrayImage]) -> u64 {
    with_pinned_configs(accel, images, |ev, configs| {
        let batch = ev.evaluate_batch(configs);
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
    })
}

/// FNV-1a 64 over the hardware reports of the same configurations.
fn hw_digest(accel: &dyn Accelerator, images: &[GrayImage]) -> u64 {
    with_pinned_configs(accel, images, |ev, configs| {
        let mut bytes = Vec::with_capacity(40 * configs.len());
        for c in configs {
            let hw = ev.evaluate_hw(c);
            for x in [hw.area, hw.delay, hw.power, hw.energy] {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            bytes.extend_from_slice(&(hw.cells as u64).to_le_bytes());
        }
        fnv1a64(&bytes)
    })
}

/// FNV-1a 64 over every slot's operand-pair counts from Step 1.
fn profile_digest(accel: &dyn Accelerator, images: &[GrayImage]) -> u64 {
    let mut bytes = Vec::new();
    for pmf in Workload::profile(accel, images) {
        let counts = pmf.sorted_counts();
        bytes.extend_from_slice(&(counts.len() as u64).to_le_bytes());
        for ((a, b), c) in counts {
            bytes.extend_from_slice(&a.to_le_bytes());
            bytes.extend_from_slice(&b.to_le_bytes());
            bytes.extend_from_slice(&c.to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

fn sobel() -> (SobelEd, Vec<GrayImage>) {
    (SobelEd::new(), benchmark_suite(4, 96, 64, 7))
}

fn fixed_gaussian() -> (FixedGaussian, Vec<GrayImage>) {
    (FixedGaussian::new(), benchmark_suite(4, 96, 64, 7))
}

fn generic_gaussian() -> (GenericGaussian, Vec<GrayImage>) {
    (
        GenericGaussian::with_sweep(4),
        benchmark_suite(2, 64, 48, 11),
    )
}

#[test]
fn sobel_qor_is_pinned() {
    let (accel, images) = sobel();
    assert_eq!(
        qor_digest(&accel, &images),
        0xb567_f216_72f2_22eb,
        "Sobel ED real QoR changed"
    );
}

#[test]
fn fixed_gaussian_qor_is_pinned() {
    let (accel, images) = fixed_gaussian();
    assert_eq!(
        qor_digest(&accel, &images),
        0x47d3_9b0a_644c_e844,
        "fixed Gaussian real QoR changed"
    );
}

#[test]
fn generic_gaussian_qor_is_pinned() {
    let (accel, images) = generic_gaussian();
    assert_eq!(
        qor_digest(&accel, &images),
        0x9ed7_a930_9565_721f,
        "generic Gaussian (4 kernels) real QoR changed"
    );
}

#[test]
fn sobel_hw_is_pinned() {
    let (accel, images) = sobel();
    assert_eq!(
        hw_digest(&accel, &images),
        0x34d1_4190_a69a_5614,
        "Sobel ED hardware changed"
    );
}

#[test]
fn fixed_gaussian_hw_is_pinned() {
    let (accel, images) = fixed_gaussian();
    assert_eq!(
        hw_digest(&accel, &images),
        0x39f7_6f16_9d71_2361,
        "fixed Gaussian hardware changed"
    );
}

#[test]
fn generic_gaussian_hw_is_pinned() {
    let (accel, images) = generic_gaussian();
    assert_eq!(
        hw_digest(&accel, &images),
        0xa712_4161_65dd_d9c1,
        "generic Gaussian (4 kernels) hardware changed"
    );
}

#[test]
fn sobel_profile_is_pinned() {
    let (accel, images) = sobel();
    assert_eq!(
        profile_digest(&accel, &images),
        0x7a0c_7030_34e9_41b1,
        "Sobel ED operand profile changed"
    );
}

#[test]
fn fixed_gaussian_profile_is_pinned() {
    let (accel, images) = fixed_gaussian();
    assert_eq!(
        profile_digest(&accel, &images),
        0x9bcc_d1c4_45c8_e63f,
        "fixed Gaussian operand profile changed"
    );
}

#[test]
fn generic_gaussian_profile_is_pinned() {
    let (accel, images) = generic_gaussian();
    assert_eq!(
        profile_digest(&accel, &images),
        0x5c72_83b2_1eec_06c6,
        "generic Gaussian (4 kernels) operand profile changed"
    );
}
