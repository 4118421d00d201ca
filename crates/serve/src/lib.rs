//! `autoax-serve` — DSE-as-a-service over the autoAx pipeline.
//!
//! A dependency-free HTTP/1.1 + JSON front end that turns the library's
//! model-based design-space exploration into a concurrent job service:
//! a request names a workload and component library from the server's
//! catalogue plus a search budget and strategy, and the response streams
//! the accepted Pareto-front members back as NDJSON.
//!
//! The interesting part is what happens *between* identical requests:
//!
//! - a **sharded, LRU-fronted store** ([`autoax_store::ShardedStore`])
//!   persists both pipeline-stage artifacts and whole-job results, so
//!   repeats are answered from memory without touching the pipeline;
//! - **single-flight deduplication** ([`singleflight::SingleFlight`])
//!   collapses concurrent identical jobs onto one execution whose
//!   result fans out to every waiter — with a post-leadership cache
//!   double-check that makes "exactly one execution" an invariant
//!   rather than a likelihood;
//! - a **per-tenant-fair admission gate** ([`gate::AdmissionGate`])
//!   sheds load with `429` instead of queueing unboundedly, and
//!   shutdown is graceful end-to-end (connection handlers →
//!   cancellation-aware search rounds).
//!
//! Module map: [`json`] (parser/printer), [`http`] (wire format +
//! typed protocol errors), [`singleflight`], [`gate`], [`registry`]
//! (name → artifact catalogue), [`engine`] (the dedupe/cache/run
//! logic), [`server`] (connection handlers + routes), [`client`] (blocking
//! test/demo client).

#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod gate;
pub mod http;
pub mod json;
pub mod registry;
pub mod server;
pub mod singleflight;

pub use engine::{EngineConfig, EngineStats, JobEngine, JobOutcome, JobRequest, JobResult, Served};
pub use http::{HttpLimits, ProtocolError};
pub use json::Json;
pub use server::{spawn, ServerConfig, ServerHandle};
