//! The generic Gaussian filter: a 3×3 convolution with *runtime* kernel
//! coefficients — nine 8-bit multipliers whose products are summed by
//! eight 16-bit adders (17 operations, the paper's hardest case study).
//!
//! QoR is the average SSIM over a sweep of Gaussian kernels (paper: 50
//! kernels, σ ∈ [0.3, 0.8], × 4 images = 200 simulations); each kernel is
//! one behavioural *mode* of the same hardware, its nine coefficients the
//! mode's constants. The dataflow is declared in [`GenericGaussian::new`].

use crate::accelerator::Accelerator;
use crate::dataflow::{coeff, tap, Dataflow, DataflowBuilder, Glue, Operand};
use crate::kernels::{sigma_sweep_kernels, SymKernel};
use autoax_circuit::OpSignature;

/// The generic Gaussian filter accelerator.
#[derive(Debug, Clone)]
pub struct GenericGaussian {
    dataflow: Dataflow,
}

impl GenericGaussian {
    /// Creates the accelerator with an explicit kernel sweep.
    ///
    /// # Panics
    /// Panics if `kernels` is empty.
    pub fn new(kernels: Vec<SymKernel>) -> Self {
        let modes = kernels.into_iter().map(|k| k.to_array().to_vec()).collect();
        let mut df = DataflowBuilder::with_modes(modes);
        let p: Vec<Operand> = (0..9)
            .map(|i| df.op(format!("mul{i}"), OpSignature::MUL8, tap(i), coeff(i)))
            .collect();
        let mut sum = |i: usize, a, b| df.op(format!("sum{i}"), OpSignature::ADD16, a, b);
        let s0 = sum(0, p[0], p[1]);
        let s1 = sum(1, p[2], p[3]);
        let s2 = sum(2, p[4], p[5]);
        let s3 = sum(3, p[6], p[7]);
        let s4 = sum(4, s0, s1);
        let s5 = sum(5, s2, s3);
        let s6 = sum(6, s4, s5);
        sum(7, s6, p[8]);
        GenericGaussian {
            dataflow: df.finish(Glue::Bits { lo: 8 }),
        }
    }

    /// The paper's configuration: 50 kernels, σ ∈ [0.3, 0.8].
    pub fn paper() -> Self {
        Self::new(sigma_sweep_kernels(50))
    }

    /// A reduced sweep for fast runs (`n` kernels over the same σ range).
    pub fn with_sweep(n: usize) -> Self {
        Self::new(sigma_sweep_kernels(n))
    }
}

impl Accelerator for GenericGaussian {
    fn name(&self) -> &str {
        "Generic GF"
    }

    fn dataflow(&self) -> &Dataflow {
        &self.dataflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::OpSet;
    use crate::Workload;
    use autoax_circuit::util::splitmix64;
    use autoax_image::synthetic::benchmark_suite;
    use autoax_image::GrayImage;

    #[test]
    fn slot_inventory_matches_table1() {
        let g = GenericGaussian::with_sweep(3);
        let slots = g.dataflow().slots();
        let count = |sig: OpSignature| slots.iter().filter(|s| s.signature == sig).count();
        assert_eq!(slots.len(), 17);
        assert_eq!(count(OpSignature::MUL8), 9);
        assert_eq!(count(OpSignature::ADD16), 8);
    }

    #[test]
    fn paper_config_has_50_modes() {
        assert_eq!(GenericGaussian::paper().dataflow().mode_count(), 50);
    }

    #[test]
    fn exact_model_matches_integer_reference() {
        let kernels = sigma_sweep_kernels(4);
        let g = GenericGaussian::new(kernels.clone());
        let mut st = 5u64;
        let img = GrayImage::from_fn(20, 15, |_, _| splitmix64(&mut st) as u8);
        let outs = g.dataflow().run(&img, &OpSet::exact(&g));
        assert_eq!(outs.len(), 4);
        for (out, k) in outs.iter().zip(&kernels) {
            for (p, &got) in out.data().iter().enumerate() {
                let (x, y) = ((p % 20) as isize, (p / 20) as isize);
                let want: u32 = k
                    .to_array()
                    .iter()
                    .enumerate()
                    .map(|(t, &c)| {
                        let t = t as isize;
                        img.get_clamped(x + t % 3 - 1, y + t / 3 - 1) as u32 * c as u32
                    })
                    .sum::<u32>()
                    >> 8;
                assert_eq!(got as u32, want, "{k:?} at pixel {p}");
            }
        }
    }

    #[test]
    fn sigma_small_mode_is_nearly_identity() {
        let g = GenericGaussian::with_sweep(10);
        let img = benchmark_suite(1, 32, 24, 7).remove(0);
        let outs = g.dataflow().run(&img, &OpSet::exact(&g));
        // mode 0 has sigma=0.3: output ~ input (center coefficient ~252)
        let ssim = autoax_image::ssim::ssim(&outs[0], &img);
        assert!(ssim > 0.95, "sigma=0.3 should barely blur: {ssim}");
        // last mode (sigma=0.8) blurs much more
        let ssim8 = autoax_image::ssim::ssim(&outs[9], &img);
        assert!(ssim8 < ssim, "sigma=0.8 must blur more");
    }

    #[test]
    fn qor_of_exact_configuration_is_one() {
        let g = GenericGaussian::with_sweep(2);
        let imgs = benchmark_suite(2, 32, 24, 9);
        let golden = g.golden(&imgs);
        let q = g.qor(&imgs, &golden, &OpSet::exact(&g));
        assert!((q - 1.0).abs() < 1e-12);
    }

    #[test]
    fn netlist_matches_software_model() {
        let g = GenericGaussian::with_sweep(2);
        crate::dataflow::tests::assert_netlist_matches_executor(&g, false);
        crate::dataflow::tests::assert_netlist_matches_executor(&g, true);
    }
}
