//! # autoax-accel
//!
//! The three benchmark accelerators of the autoAx paper (Table 1). Each
//! declares one [`Dataflow`] ([`dataflow`]): an ordered list of
//! replaceable operations over a 3×3 pixel neighbourhood, ending in exact
//! glue. The software model (for QoR analysis), the hardware netlist (for
//! synthesis-lite cost analysis), the operand profile (the probability
//! mass functions of Fig. 3) and the Step-1/2 cache identity are all
//! derived from it:
//!
//! | Accelerator | Ops | Inventory |
//! |-------------|-----|-----------|
//! | [`sobel::SobelEd`] | 5 | 2× add8, 2× add9, 1× sub10 |
//! | [`gaussian_fixed::FixedGaussian`] | 11 | 4× add8, 2× add9, 4× add16, 1× sub16 |
//! | [`gaussian_generic::GenericGaussian`] | 17 | 9× mul8, 8× add16 |
//!
//! The fixed Gaussian filter realizes its constant coefficients with
//! shift-add networks ([`mcm`], standing in for the paper's SPIRAL flow);
//! the generic filter evaluates 50 σ ∈ [0.3, 0.8] kernels ([`kernels`]),
//! one behavioural mode each.
//!
//! The crate also hosts the domain-generic application layer: the
//! [`Workload`] trait ([`workload`]) that the pipeline is written
//! against. Every [`Accelerator`] is a `Workload` over grayscale images
//! with mean-SSIM QoR through a blanket implementation; other domains
//! (e.g. the quantized-NN workload of `autoax-nn`) implement `Workload`
//! directly with their own sample type and QoR measure.
//!
//! # Example
//!
//! ```
//! use autoax_accel::accelerator::{Accelerator, OpSet};
//! use autoax_accel::sobel::SobelEd;
//! use autoax_image::synthetic::benchmark_suite;
//!
//! let sobel = SobelEd::new();
//! let imgs = benchmark_suite(1, 64, 48, 3);
//! let exact = OpSet::exact(&sobel);
//! let out = sobel.dataflow().run(&imgs[0], &exact).remove(0);
//! assert_eq!(out.width(), 64);
//! ```

pub mod accelerator;
pub mod dataflow;
pub mod gaussian_fixed;
pub mod gaussian_generic;
pub mod kernels;
pub mod mcm;
pub mod profile;
pub mod sobel;
pub mod workload;

pub use accelerator::{Accelerator, CompiledOp, OpSet, OpSlot};
pub use dataflow::Dataflow;
pub use profile::{absorb_slots, Pmf, PmfRecorder};
pub use workload::Workload;
