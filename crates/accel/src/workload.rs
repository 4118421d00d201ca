//! The domain-generic application layer: the [`Workload`] trait.
//!
//! The autoAx methodology is application-agnostic — Steps 1–3 only need
//! four things from the application: a slot inventory, an operand
//! profiler, a QoR measure against an exact golden run, and a hardware
//! netlist composer. [`Workload`] captures exactly that contract, with an
//! associated sample type so the benchmark data is domain-typed (grayscale
//! images for the paper's filters, feature vectors for the NN workload of
//! `autoax-nn`, …).
//!
//! Every [`Accelerator`] — the paper's image-filter contract over 3×3
//! pixel neighbourhoods — is a `Workload` through the blanket
//! implementation below, with `Sample = GrayImage`, a per-mode SSIM
//! reference of the golden outputs and mean-SSIM QoR. The generic pipeline
//! (`autoax::pipeline::run_pipeline`) is written against `Workload` only,
//! so the image path and any new domain run through identical code.

use crate::accelerator::{Accelerator, OpSet, OpSlot};
use crate::profile::Pmf;
use autoax_circuit::Netlist;
use autoax_image::ssim::SsimReference;
use autoax_image::GrayImage;

/// An application workload: benchmark data, a software model over
/// replaceable operation slots, a QoR measure and a hardware netlist
/// composer — everything Steps 1–3 of the methodology consume.
///
/// Implementations must be deterministic: `profile`, `golden` and `qor`
/// are pure functions of `(self, samples, ops)`, which is what makes the
/// content-addressed Step-1/2 cache and the golden-parity tests sound.
pub trait Workload: Send + Sync {
    /// One unit of benchmark input (an image, a feature vector, …).
    type Sample: Send + Sync;

    /// The precomputed exact-run result of one sample that
    /// [`Workload::qor`] compares approximate runs against (an SSIM
    /// reference of the rendered image per mode, a predicted class
    /// label, …).
    type Golden: Send + Sync;

    /// Workload name (reports, cache keys).
    fn name(&self) -> &str;

    /// The replaceable operation slots, in evaluation order.
    fn slots(&self) -> &[OpSlot];

    /// Human-readable name of the QoR measure (`"SSIM"`, `"accuracy"`).
    fn qor_metric(&self) -> &'static str {
        "QoR"
    }

    /// Step 1a: runs the exact software model over the samples and
    /// returns one operand [`Pmf`] per slot.
    fn profile(&self, samples: &[Self::Sample]) -> Vec<Pmf>;

    /// Precomputes the exact-run golden result of every sample (one
    /// [`Workload::Golden`] per sample, in order).
    fn golden(&self, samples: &[Self::Sample]) -> Vec<Self::Golden>;

    /// Quality of result of an approximate configuration against the
    /// golden results, in `[0, 1]`-ish units where **higher is better**
    /// and the all-exact configuration scores the maximum.
    ///
    /// Deliberately sequential: on the hot path this runs *under* the
    /// parallel `evaluate_batch` (one task per configuration), so nesting
    /// another fan-out here would oversubscribe the workers.
    fn qor(&self, samples: &[Self::Sample], golden: &[Self::Golden], ops: &OpSet) -> f64;

    /// Builds the flat hardware netlist with the given component netlists
    /// (one per slot, in slot order).
    fn build_netlist(&self, impls: &[Netlist]) -> Netlist;

    /// Feeds the byte content of the samples to `sink` — the
    /// domain-specific part of the Step-1/2 cache key. Two sample sets
    /// must digest equal iff Steps 1–2 would produce identical results
    /// on them.
    fn digest_samples(&self, samples: &[Self::Sample], sink: &mut dyn FnMut(&[u8]));

    /// Feeds any workload identity *beyond* name and slot list that
    /// affects Steps 1–2 to `sink` (an image accelerator's dataflow with
    /// its per-mode constants, network weights, …). Defaults to nothing.
    fn digest_identity(&self, _sink: &mut dyn FnMut(&[u8])) {}
}

/// Every image-filter [`Accelerator`] is a [`Workload`] over grayscale
/// images, derived from its [`crate::Dataflow`]: golden results are SSIM
/// references of the exact outputs of every behavioural mode, QoR is the
/// paper's mean SSIM, and the identity is the dataflow's digest.
impl<A: Accelerator + ?Sized> Workload for A {
    type Sample = GrayImage;
    type Golden = Vec<SsimReference>;

    fn name(&self) -> &str {
        Accelerator::name(self)
    }

    fn slots(&self) -> &[OpSlot] {
        self.dataflow().slots()
    }

    fn qor_metric(&self) -> &'static str {
        "SSIM"
    }

    fn profile(&self, samples: &[GrayImage]) -> Vec<Pmf> {
        self.dataflow().profile(samples)
    }

    /// One parallel task per image (coarse-grained: a task renders every
    /// mode of a whole image).
    fn golden(&self, samples: &[GrayImage]) -> Vec<Vec<SsimReference>> {
        let df = self.dataflow();
        let exact = OpSet::exact_slots(df.slots());
        autoax_exec::par_map_coarse(samples, |img| {
            df.run(img, &exact).iter().map(SsimReference::new).collect()
        })
    }

    /// The mean SSIM over all images and modes (for the generic GF, the
    /// paper's "average SSIM" over its kernels).
    fn qor(&self, samples: &[GrayImage], golden: &[Vec<SsimReference>], ops: &OpSet) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (img, gold) in samples.iter().zip(golden) {
            for (out, g) in self.dataflow().run(img, ops).iter().zip(gold) {
                sum += g.ssim(out);
                n += 1;
            }
        }
        assert!(n > 0, "qor needs at least one image and mode");
        sum / n as f64
    }

    fn build_netlist(&self, impls: &[Netlist]) -> Netlist {
        self.dataflow().build_netlist(impls)
    }

    fn digest_samples(&self, samples: &[GrayImage], sink: &mut dyn FnMut(&[u8])) {
        for img in samples {
            sink(&(img.width() as u64).to_le_bytes());
            sink(&(img.height() as u64).to_le_bytes());
            sink(img.data());
        }
    }

    fn digest_identity(&self, sink: &mut dyn FnMut(&[u8])) {
        self.dataflow().digest(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian_generic::GenericGaussian;
    use crate::kernels::gaussian_kernel_256;
    use crate::sobel::SobelEd;
    use autoax_image::synthetic::benchmark_suite;

    /// Collects everything a digest hook writes into one byte vector.
    fn collect(f: impl FnOnce(&mut dyn FnMut(&[u8]))) -> Vec<u8> {
        let mut out = Vec::new();
        let mut sink = |b: &[u8]| out.extend_from_slice(b);
        f(&mut sink);
        out
    }

    #[test]
    fn accelerators_are_workloads_with_ssim_qor() {
        let sobel = SobelEd::new();
        assert_eq!(Workload::slots(&sobel).len(), 5);
        assert_eq!(sobel.qor_metric(), "SSIM");
        assert_eq!(Workload::name(&sobel), "Sobel ED");
    }

    #[test]
    fn workload_qor_matches_accelerator_qor() {
        let sobel = SobelEd::new();
        let imgs = benchmark_suite(2, 32, 24, 3);
        let golden = Workload::golden(&sobel, &imgs);
        let exact = OpSet::exact(&sobel);
        let q = Workload::qor(&sobel, &imgs, &golden, &exact);
        assert!((q - 1.0).abs() < 1e-12, "exact config must score 1.0: {q}");
    }

    #[test]
    fn sample_digest_tracks_image_content() {
        let sobel = SobelEd::new();
        let a = benchmark_suite(2, 32, 24, 3);
        let b = benchmark_suite(2, 32, 24, 4);
        let da = collect(|s| sobel.digest_samples(&a, s));
        let db = collect(|s| sobel.digest_samples(&b, s));
        assert_ne!(da, db, "different images must digest differently");
        let da2 = collect(|s| sobel.digest_samples(&a, s));
        assert_eq!(da, da2, "digest must be deterministic");
    }

    #[test]
    fn identity_digest_separates_kernel_sweeps() {
        // Same name, same slots — only the kernels differ, in number or
        // in coefficients; the identity digest must keep their cache keys
        // apart.
        let digest = |g: GenericGaussian| collect(|s| g.digest_identity(s));
        let sweep = |sigmas: &[f64]| {
            GenericGaussian::new(sigmas.iter().map(|&s| gaussian_kernel_256(s)).collect())
        };
        let d2 = digest(GenericGaussian::with_sweep(2));
        assert_ne!(d2, digest(GenericGaussian::with_sweep(5)));
        assert_ne!(digest(sweep(&[0.4, 0.7])), digest(sweep(&[0.5, 0.8])));
        assert_eq!(d2, digest(GenericGaussian::with_sweep(2)));
    }
}
