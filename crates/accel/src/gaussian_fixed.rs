//! The fixed-coefficient Gaussian filter (paper Fig. 2b).
//!
//! The σ = 2 kernel is quantized to `{corner: 26, edge: 30, center: 32}`
//! with coefficient sum 256 ([`crate::kernels::fixed_gf_kernel`]); the
//! constant multiplications are realized as shift-add networks
//! ([`crate::mcm::fixed_gf_plans`]). Eleven replaceable operations
//! (Table 1): four 8-bit adders (symmetric pixel pairs), two 9-bit adders
//! (corner/edge sums), four 16-bit adders and one 16-bit subtractor (MCM +
//! product summing). The dataflow is declared in [`FixedGaussian::new`].

use crate::accelerator::Accelerator;
use crate::dataflow::{tap, Dataflow, DataflowBuilder, Glue};
use autoax_circuit::OpSignature;

/// The fixed Gaussian filter accelerator.
#[derive(Debug, Clone)]
pub struct FixedGaussian {
    dataflow: Dataflow,
}

impl FixedGaussian {
    /// Creates the accelerator with the paper's slot inventory.
    pub fn new() -> Self {
        use OpSignature as S;
        let mut df = DataflowBuilder::new();
        let s1 = df.op("s1", S::ADD8, tap(0), tap(2));
        let s2 = df.op("s2", S::ADD8, tap(6), tap(8));
        let c = df.op("corners", S::ADD9, s1, s2);
        let s3 = df.op("s3", S::ADD8, tap(1), tap(7));
        let s4 = df.op("s4", S::ADD8, tap(3), tap(5));
        let e = df.op("edges", S::ADD9, s3, s4);
        let t1 = df.op("t1", S::ADD16, c << 4, c << 3); // 24c
        let t2 = df.op("t2", S::ADD16, t1, c << 1); // 26c
        let t3 = df.op("t3", S::SUB16, e << 5, e << 1); // 30e
        let t4 = df.op("t4", S::ADD16, t2, t3); // 26c + 30e
        df.op("t5", S::ADD16, t4, tap(4) << 5); // + 32·center
        FixedGaussian {
            dataflow: df.finish(Glue::Bits { lo: 8 }),
        }
    }

    /// Golden integer reference: `(26·corners + 30·edges + 32·center) >> 8`.
    pub fn reference_pixel(n: &[u8; 9]) -> u8 {
        let corners = n[0] as u32 + n[2] as u32 + n[6] as u32 + n[8] as u32;
        let edges = n[1] as u32 + n[3] as u32 + n[5] as u32 + n[7] as u32;
        let center = n[4] as u32;
        ((26 * corners + 30 * edges + 32 * center) >> 8) as u8
    }
}

impl Default for FixedGaussian {
    fn default() -> Self {
        Self::new()
    }
}

impl Accelerator for FixedGaussian {
    fn name(&self) -> &str {
        "Fixed GF"
    }

    fn dataflow(&self) -> &Dataflow {
        &self.dataflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::tests::{assert_netlist_matches_executor, run_exact};
    use autoax_circuit::util::splitmix64;
    use autoax_image::synthetic::benchmark_suite;
    use autoax_image::GrayImage;

    #[test]
    fn slot_inventory_matches_table1() {
        let g = FixedGaussian::new();
        let slots = g.dataflow().slots();
        let count = |sig: OpSignature| slots.iter().filter(|s| s.signature == sig).count();
        assert_eq!(slots.len(), 11);
        assert_eq!(count(OpSignature::ADD8), 4);
        assert_eq!(count(OpSignature::ADD9), 2);
        assert_eq!(count(OpSignature::ADD16), 4);
        assert_eq!(count(OpSignature::SUB16), 1);
    }

    #[test]
    fn exact_model_matches_integer_reference() {
        let g = FixedGaussian::new();
        let mut st = 3u64;
        let img = GrayImage::from_fn(25, 20, |_, _| splitmix64(&mut st) as u8);
        let out = run_exact(&g, &img);
        for (p, &got) in out.data().iter().enumerate() {
            let (x, y) = ((p % 25) as isize, (p / 25) as isize);
            let n: [u8; 9] = std::array::from_fn(|t| {
                let t = t as isize;
                img.get_clamped(x + t % 3 - 1, y + t / 3 - 1)
            });
            assert_eq!(got, FixedGaussian::reference_pixel(&n), "{n:?}");
        }
    }

    #[test]
    fn output_is_gaussian_blur() {
        // Against the float reference with the same quantized kernel the
        // exact model can only differ by the floor-vs-round of the >> 8.
        let g = FixedGaussian::new();
        let img = benchmark_suite(1, 48, 32, 11).remove(0);
        let out = run_exact(&g, &img);
        let k = 1.0 / 256.0;
        let kernel = [
            [26.0 * k, 30.0 * k, 26.0 * k],
            [30.0 * k, 32.0 * k, 30.0 * k],
            [26.0 * k, 30.0 * k, 26.0 * k],
        ];
        let reference = autoax_image::convolve::convolve3x3(&img, &kernel, 1.0);
        for (a, b) in out.data().iter().zip(reference.data().iter()) {
            assert!((*a as i32 - *b as i32).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn flat_image_is_preserved() {
        let g = FixedGaussian::new();
        let img = GrayImage::from_fn(16, 16, |_, _| 200);
        let out = run_exact(&g, &img);
        // sum = 200 * 256 >> 8 = 200 exactly
        assert!(out.data().iter().all(|&p| p == 200));
    }

    #[test]
    fn netlist_matches_software_model_exact() {
        assert_netlist_matches_executor(&FixedGaussian::new(), false);
    }

    #[test]
    fn netlist_matches_software_model_approximate() {
        assert_netlist_matches_executor(&FixedGaussian::new(), true);
    }
}
