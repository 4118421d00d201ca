//! Umbrella crate for the autoAx (DAC 2019) reproduction workspace.
//!
//! This package exists so that the repository-level integration tests
//! (`tests/`) and runnable walkthroughs (`examples/`) have a Cargo home;
//! the actual functionality lives in the member crates, re-exported here
//! for convenience:
//!
//! * [`autoax`] — the three-step methodology (pre-processing, model
//!   construction, model-based DSE) and the pipeline driver;
//! * [`autoax_circuit`] — netlists, simulation, synthesis-lite and the
//!   generated approximate-component library;
//! * [`autoax_ml`] — from-scratch regression engines and fidelity;
//! * [`autoax_image`] — images, synthetic benchmark suite, SSIM;
//! * [`autoax_accel`] — the three benchmark accelerators;
//! * [`autoax_store`] — versioned binary codec and the content-addressed
//!   cache behind library/pipeline warm starts.
//!
//! See `docs/ARCHITECTURE.md` for how the paper's three-step methodology
//! maps onto the crates and how data flows between them.

pub use autoax;
pub use autoax_accel;
pub use autoax_circuit;
pub use autoax_image;
pub use autoax_ml;
pub use autoax_store;
