//! The Sobel edge detector (vertical edges) — paper Fig. 2a.
//!
//! Five replaceable operations (Table 1): two 8-bit adders, two 9-bit
//! adders and one 10-bit subtractor; the two ×2 factors are wired shifts
//! and the final `|·|`/clamp glue is exact logic, exactly as in the paper
//! where only the listed arithmetic operations are approximated. The
//! dataflow is declared in [`SobelEd::new`]: the left column
//! `p00 + 2·p10 + p20` is subtracted from the right one.

use crate::accelerator::Accelerator;
use crate::dataflow::{tap, Dataflow, DataflowBuilder, Glue};
use autoax_circuit::OpSignature;

/// The Sobel edge detector accelerator.
#[derive(Debug, Clone)]
pub struct SobelEd {
    dataflow: Dataflow,
}

impl SobelEd {
    /// Creates the accelerator with the paper's slot inventory.
    pub fn new() -> Self {
        let mut df = DataflowBuilder::new();
        let add1 = df.op("add1", OpSignature::ADD8, tap(0), tap(6));
        let add2 = df.op("add2", OpSignature::ADD9, add1, tap(3) << 1);
        let add3 = df.op("add3", OpSignature::ADD8, tap(2), tap(8));
        let add4 = df.op("add4", OpSignature::ADD9, add3, tap(5) << 1);
        df.op("sub", OpSignature::SUB10, add4, add2);
        SobelEd {
            dataflow: df.finish(Glue::AbsClamp),
        }
    }
}

impl Default for SobelEd {
    fn default() -> Self {
        Self::new()
    }
}

impl Accelerator for SobelEd {
    fn name(&self) -> &str {
        "Sobel ED"
    }

    fn dataflow(&self) -> &Dataflow {
        &self.dataflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::tests::{assert_netlist_matches_executor, run_exact};
    use autoax_image::convolve::convolve3x3_abs;
    use autoax_image::synthetic::benchmark_suite;
    use autoax_image::GrayImage;

    #[test]
    fn slot_inventory_matches_table1() {
        let s = SobelEd::new();
        let slots = s.dataflow().slots();
        let count = |sig: OpSignature| slots.iter().filter(|x| x.signature == sig).count();
        assert_eq!(slots.len(), 5);
        assert_eq!(count(OpSignature::ADD8), 2);
        assert_eq!(count(OpSignature::ADD9), 2);
        assert_eq!(count(OpSignature::SUB10), 1);
    }

    #[test]
    fn exact_model_matches_reference_convolution() {
        let s = SobelEd::new();
        let img = benchmark_suite(1, 64, 48, 5).remove(0);
        let sobel_x = [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]];
        let want = convolve3x3_abs(&img, &sobel_x, 1.0);
        assert_eq!(run_exact(&s, &img), want);
    }

    #[test]
    fn flat_image_has_no_edges() {
        let s = SobelEd::new();
        let img = GrayImage::from_fn(16, 16, |_, _| 77);
        let out = run_exact(&s, &img);
        assert!(out.data().iter().all(|&p| p == 0));
    }

    #[test]
    fn vertical_step_detected_horizontal_ignored() {
        let s = SobelEd::new();
        let vstep = GrayImage::from_fn(16, 16, |x, _| if x < 8 { 0 } else { 200 });
        let hstep = GrayImage::from_fn(16, 16, |_, y| if y < 8 { 0 } else { 200 });
        let vout = run_exact(&s, &vstep);
        let hout = run_exact(&s, &hstep);
        assert!(vout.get(7, 8) > 100, "vertical edge missed");
        assert!(
            hout.data().iter().all(|&p| p == 0),
            "horizontal edge should be invisible to a vertical detector"
        );
    }

    #[test]
    fn netlist_matches_software_model_exact() {
        assert_netlist_matches_executor(&SobelEd::new(), false);
    }

    #[test]
    fn netlist_matches_software_model_approximate() {
        assert_netlist_matches_executor(&SobelEd::new(), true);
    }
}
