//! # autoax-image
//!
//! Grayscale images, a deterministic synthetic benchmark suite, and the
//! quality-of-result metric used by the autoAx (DAC 2019) reproduction.
//!
//! The paper profiles and evaluates its accelerators on 384×256 grayscale
//! images from the Berkeley Segmentation Dataset. That dataset is not
//! available offline, so [`synthetic`] generates a deterministic suite of
//! natural-image proxies (multi-octave value noise, gradients, blobs and
//! edges) with the property that matters for the methodology: neighbouring
//! pixels are strongly correlated, which produces the diagonal-concentrated
//! operand distributions of the paper's Fig. 3.
//!
//! QoR is measured with the structural similarity index ([`ssim::ssim`],
//! Wang et al. 2004), exactly as in the paper.
//!
//! # Example
//!
//! ```
//! use autoax_image::synthetic::benchmark_suite;
//! use autoax_image::ssim::ssim;
//!
//! let imgs = benchmark_suite(2, 64, 48, 7);
//! assert_eq!(imgs.len(), 2);
//! let s = ssim(&imgs[0], &imgs[0]);
//! assert!((s - 1.0).abs() < 1e-12);
//! ```

pub mod convolve;
pub mod image;
pub mod ssim;
pub mod synthetic;

pub use image::GrayImage;
