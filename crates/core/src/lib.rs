//! # autoax
//!
//! A full reproduction of **autoAx** (Mrazek, Hanif, Vasicek, Sekanina,
//! Shafique — *"autoAx: An Automatic Design Space Exploration and Circuit
//! Building Methodology utilizing Libraries of Approximate Components"*,
//! DAC 2019): automatic selection and combination of approximate circuits
//! from a characterized component library into approximate accelerators
//! on the QoR/hardware-cost Pareto frontier.
//!
//! The methodology's three steps (paper Fig. 1) map to:
//!
//! 1. **Library pre-processing** — [`preprocess`]: profile operand PMFs,
//!    score every library circuit with the weighted mean error distance
//!    ([`wmed`]), keep only the per-slot WMED/area Pareto-optimal circuits.
//! 2. **Model construction** — [`model`]: train QoR and hardware-cost
//!    estimators (any [`autoax_ml::EngineKind`]) on a few hundred fully
//!    evaluated random configurations; quality criterion is *fidelity*.
//! 3. **Model-based design space exploration** — [`search`]: the paper's
//!    Algorithm 1 (island hill climbing), NSGA-II, the random-sampling /
//!    uniform-selection baselines and exhaustive enumeration, selected by
//!    [`search::SearchAlgo`] in one [`search::run_search`] over an
//!    allocation-free columnar candidate plane ([`search::ConfigBatch`])
//!    — followed by real evaluation of the pseudo-Pareto set
//!    ([`evaluate`]) and final Pareto filtering ([`pareto`]).
//!
//! [`pipeline::run_pipeline`] chains all three steps, producing the data
//! behind every table and figure of the paper (regenerated by the
//! `autoax-bench` binaries). Every step is generic over the QoR domain
//! through the [`autoax_accel::Workload`] trait: the paper's image
//! accelerators (SSIM QoR) and the quantized-NN workload of `autoax-nn`
//! (top-1-accuracy QoR) run through identical pipeline code.
//!
//! # Example
//!
//! ```no_run
//! use autoax::pipeline::{run_pipeline, PipelineOptions};
//! use autoax_accel::sobel::SobelEd;
//! use autoax_circuit::charlib::{build_library, LibraryConfig};
//! use autoax_image::synthetic::benchmark_suite;
//!
//! let lib = build_library(&LibraryConfig::tiny());
//! let images = benchmark_suite(4, 96, 64, 7);
//! let result = run_pipeline(&SobelEd::new(), &lib, &images, &PipelineOptions::quick())?;
//! println!("final Pareto front: {} configurations", result.final_front.len());
//! # Ok::<(), autoax::error::AutoAxError>(())
//! ```
//!
//! A fast, runnable taste — the Pareto-front container every search
//! variant fills:
//!
//! ```
//! use autoax::pareto::{ParetoFront, TradeoffPoint};
//!
//! let mut front: ParetoFront<&str> = ParetoFront::new();
//! assert!(front.try_insert(TradeoffPoint::new(0.90, 120.0), "balanced"));
//! assert!(front.try_insert(TradeoffPoint::new(0.70, 60.0), "cheap"));
//! // dominated: worse QoR at a higher cost than "balanced"
//! assert!(!front.try_insert(TradeoffPoint::new(0.85, 150.0), "bad deal"));
//! assert_eq!(front.len(), 2);
//! ```
//!
//! ## Warm starts
//!
//! With [`pipeline::PipelineOptions::cache_store`] set, the deterministic
//! Steps 1–2 are persisted through `autoax-store` and skipped on repeat
//! runs with byte-identical results (see [`cache`]).

pub mod cache;
pub mod config;
pub mod error;
pub mod evaluate;
pub mod job;
pub mod model;
pub mod pareto;
pub mod pipeline;
pub mod preprocess;
pub mod search;
pub mod wmed;

pub use autoax_store::cache::CacheMode;
pub use config::{ConfigSpace, Configuration};
pub use error::AutoAxError;
pub use job::{CancelToken, JobLimits, JobSpec};
pub use pareto::{ParetoFront, TradeoffPoint};
pub use search::{SearchAlgo, SearchOptions};
