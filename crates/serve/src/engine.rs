//! The job engine: validates a tenant's job descriptor, content-addresses
//! the whole job, and runs it **at most once** no matter how many
//! identical requests arrive concurrently or sequentially.
//!
//! The layering per submission:
//!
//! 1. **validate** — [`autoax::JobSpec::validate`] against the server's
//!    [`autoax::JobLimits`], names resolved through the
//!    [`crate::registry::Registry`];
//! 2. **result cache** — a finished identical job is served straight
//!    from the [`ShardedStore`] (LRU-fronted, so repeats don't touch
//!    disk);
//! 3. **single-flight** — a *running* identical job absorbs the request
//!    as a follower; only a leader proceeds;
//! 4. **admission** — the leader takes a per-tenant-fair
//!    [`crate::gate::AdmissionGate`] slot and runs the pipeline with the
//!    shared store (Step-1/2 artifacts dedupe across *different* specs
//!    of the same workload) and the server's cancellation token.
//!
//! Between 2 and 3 there is a classic race: a leader can finish and
//! retire its flight after another thread missed the cache but before it
//! called `begin`. The second thread then becomes a fresh leader — so it
//! **re-checks the result cache after winning leadership**. That
//! double-check is what makes "N concurrent identical submissions,
//! exactly one execution" a hard invariant rather than a likelihood,
//! and the concurrency tests assert it through the
//! [`JobEngine::executions`] counter.

use crate::gate::AdmissionGate;
use crate::http::ProtocolError;
use crate::json::Json;
use crate::registry::{NamedWorkload, Registry, ResolvedJob};
use crate::singleflight::{Role, SingleFlight};
use autoax::pipeline::{run_pipeline, PipelineOptions, PipelineResult};
use autoax::{AutoAxError, CancelToken, JobLimits, JobSpec, SearchAlgo};
use autoax_store::cache::{BlobStore, CacheKey, CacheMode, KeyHasher, Loaded};
use autoax_store::codec::{Decoder, Encoder};
use autoax_store::{ShardedStore, StoreError, StoreStats};
use autoax_telemetry as telemetry;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Blob kind of persisted whole-job results in the store.
const RESULT_KIND: &str = "serve-result";
/// Format tag of the result codec (bump on layout change).
const RESULT_TAG: [u8; 4] = *b"SRV2";

/// One tenant request: names into the registry plus the tenant-choosable
/// pipeline knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Fairness bucket for admission control (not part of job identity:
    /// identical jobs dedupe across tenants).
    pub tenant: String,
    /// Catalogue workload name.
    pub workload: String,
    /// Catalogue library name.
    pub library: String,
    /// The tenant-choosable pipeline knobs.
    pub spec: JobSpec,
}

impl JobRequest {
    /// Parses the `POST /jobs` body. Absent optional fields fall back to
    /// [`JobSpec::default`]; present-but-mistyped fields are errors.
    ///
    /// # Errors
    /// [`ProtocolError::BadField`] naming the offending field.
    pub fn from_json(v: &Json) -> Result<JobRequest, ProtocolError> {
        let bad = |m: &str| ProtocolError::BadField(m.to_string());
        if !matches!(v, Json::Obj(_)) {
            return Err(bad("request body must be a JSON object"));
        }
        let str_field = |key: &str| -> Result<Option<String>, ProtocolError> {
            match v.get(key) {
                None => Ok(None),
                Some(j) => j
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| bad(&format!("{key}: must be a string"))),
            }
        };
        let count_field = |key: &str| -> Result<Option<usize>, ProtocolError> {
            match v.get(key) {
                None => Ok(None),
                Some(j) => j
                    .as_usize()
                    .map(Some)
                    .ok_or_else(|| bad(&format!("{key}: must be a non-negative integer"))),
            }
        };
        let workload = str_field("workload")?.ok_or_else(|| bad("workload: required"))?;
        let library = str_field("library")?.unwrap_or_else(|| "tiny".to_string());
        let tenant = str_field("tenant")?.unwrap_or_else(|| "anonymous".to_string());
        let mut spec = JobSpec::default();
        if let Some(name) = str_field("strategy")? {
            spec.strategy = SearchAlgo::parse(&name)
                .ok_or_else(|| bad(&format!("strategy: unknown strategy `{name}`")))?;
        }
        if let Some(n) = count_field("max_evals")? {
            spec.max_evals = n;
        }
        if let Some(n) = count_field("train_configs")? {
            spec.train_configs = n;
        }
        if let Some(n) = count_field("test_configs")? {
            spec.test_configs = n;
        }
        if let Some(n) = count_field("final_eval_cap")? {
            spec.final_eval_cap = n;
        }
        if let Some(n) = count_field("seed")? {
            spec.seed = n as u64;
        }
        Ok(JobRequest {
            tenant,
            workload,
            library,
            spec,
        })
    }
}

/// One accepted Pareto-front member, as streamed to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontMember {
    /// Real QoR.
    pub qor: f64,
    /// Real area (µm²).
    pub area: f64,
    /// Real energy per op (fJ).
    pub energy: f64,
    /// The configuration's genome.
    pub genes: Vec<u16>,
}

/// The finished job: what fans out to waiters, persists in the result
/// cache and streams to clients.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Name of the QoR measure (`"SSIM"`, …).
    pub qor_metric: String,
    /// The accepted front, sorted as the pipeline emits it.
    pub members: Vec<FrontMember>,
    /// [`PipelineResult::front_digest`] of the run — the byte-identity
    /// fingerprint every waiter of a deduped job must agree on.
    pub front_digest: u64,
}

impl JobResult {
    fn from_pipeline(res: &PipelineResult) -> JobResult {
        JobResult {
            qor_metric: res.qor_metric.to_string(),
            members: res
                .final_front
                .iter()
                .map(|m| FrontMember {
                    qor: m.qor,
                    area: m.area,
                    energy: m.energy,
                    genes: m.config.genes().to_vec(),
                })
                .collect(),
            front_digest: res.front_digest(),
        }
    }

    /// The result-cache payload, in the store's codec: every float as
    /// its IEEE-754 bit pattern, so a cached result is bit-identical to
    /// the computed one.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str(&self.qor_metric);
        e.put_u64(self.front_digest);
        e.put_len(self.members.len());
        for m in &self.members {
            e.put_f64(m.qor);
            e.put_f64(m.area);
            e.put_f64(m.energy);
            e.put_len(m.genes.len());
            for &g in &m.genes {
                e.put_u16(g);
            }
        }
        e.into_bytes()
    }

    /// Inverse of [`JobResult::encode`]; `None` for a truncated or
    /// malformed payload (a corrupt cache entry degrades to a miss, never
    /// to a panic).
    pub fn decode(bytes: &[u8]) -> Option<JobResult> {
        let mut d = Decoder::new(bytes);
        let result = Self::take(&mut d).ok()?;
        d.finish().ok()?;
        Some(result)
    }

    fn take(d: &mut Decoder<'_>) -> Result<JobResult, StoreError> {
        let qor_metric = d.take_str()?;
        let front_digest = d.take_u64()?;
        let mut members = Vec::new();
        for _ in 0..d.take_len()? {
            let (qor, area, energy) = (d.take_f64()?, d.take_f64()?, d.take_f64()?);
            let genes = (0..d.take_len()?)
                .map(|_| d.take_u16())
                .collect::<Result<_, _>>()?;
            members.push(FrontMember {
                qor,
                area,
                energy,
                genes,
            });
        }
        Ok(JobResult {
            qor_metric,
            members,
            front_digest,
        })
    }
}

/// How a submission was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// This submission ran the pipeline (it was the leader).
    Computed,
    /// Absorbed into a concurrently running identical job.
    Deduped,
    /// Answered from the persisted result cache.
    Cached,
}

/// A satisfied submission.
pub struct JobOutcome {
    /// The result (shared, not copied, across waiters).
    pub result: Arc<JobResult>,
    /// How it was satisfied.
    pub served: Served,
}

/// Engine construction knobs.
pub struct EngineConfig {
    /// Root directory of the sharded store.
    pub cache_dir: PathBuf,
    /// Per-job ceilings tenant specs are validated against.
    pub limits: JobLimits,
    /// Global concurrent-job cap (admission gate).
    pub global_jobs: usize,
    /// Per-tenant concurrent-job cap (admission gate).
    pub tenant_jobs: usize,
    /// Server-side template options: everything a [`JobSpec`] does not
    /// carry (preprocessing, engine, throughput knobs) comes from here.
    pub base: PipelineOptions,
}

impl EngineConfig {
    /// Defaults over a cache directory: quick-profile template, default
    /// limits, 4 concurrent jobs (2 per tenant).
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        EngineConfig {
            cache_dir: cache_dir.into(),
            limits: JobLimits::default(),
            global_jobs: 4,
            tenant_jobs: 2,
            base: PipelineOptions::quick(),
        }
    }
}

/// Cumulative engine counters (monotonic; read with `Relaxed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Pipeline executions actually performed.
    pub executions: u64,
    /// Submissions absorbed as single-flight followers.
    pub dedup_waits: u64,
    /// Submissions answered from the persisted result cache.
    pub result_cache_hits: u64,
    /// The underlying store's tier counters.
    pub store: StoreStats,
}

/// The engine. Shared across connection workers via `Arc`.
pub struct JobEngine {
    registry: Registry,
    store: Arc<ShardedStore>,
    flight: SingleFlight<CacheKey, Arc<JobResult>>,
    gate: Arc<AdmissionGate>,
    limits: JobLimits,
    base: PipelineOptions,
    shutdown: CancelToken,
    executions: AtomicU64,
    dedup_waits: AtomicU64,
    result_cache_hits: AtomicU64,
}

impl JobEngine {
    /// Builds an engine over its sharded store.
    pub fn new(cfg: EngineConfig) -> Self {
        JobEngine {
            registry: Registry,
            store: Arc::new(ShardedStore::with_defaults(cfg.cache_dir)),
            flight: SingleFlight::new(),
            gate: Arc::new(AdmissionGate::new(cfg.global_jobs, cfg.tenant_jobs)),
            limits: cfg.limits,
            base: cfg.base,
            shutdown: CancelToken::new(),
            executions: AtomicU64::new(0),
            dedup_waits: AtomicU64::new(0),
            result_cache_hits: AtomicU64::new(0),
        }
    }

    /// The token a graceful server shutdown fires; running jobs stop at
    /// the next stage/round boundary.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// Pipeline executions performed so far — the "exactly one
    /// computation" instrument of the concurrency tests.
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            executions: self.executions.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            result_cache_hits: self.result_cache_hits.load(Ordering::Relaxed),
            store: self.store.stats(),
        }
    }

    /// Jobs currently past admission (running a pipeline).
    pub fn running(&self) -> usize {
        self.gate.running()
    }

    /// Identical-job content address: catalogue names + the full spec.
    /// The registry owns what the names mean, so within one server the
    /// address pins the exact computation. The tenant is deliberately
    /// not part of it.
    pub fn job_key(req: &JobRequest) -> CacheKey {
        let mut h = KeyHasher::new("serve-job");
        h.write_str(&req.workload);
        h.write_str(&req.library);
        req.spec.digest(&mut h);
        h.finish()
    }

    fn load_cached(&self, key: CacheKey) -> Option<Arc<JobResult>> {
        match self.store.load_blob(RESULT_KIND, key, RESULT_TAG) {
            Loaded::Hit(bytes) => JobResult::decode(&bytes).map(Arc::new),
            _ => None,
        }
    }

    /// Runs (or joins, or recalls) one job.
    ///
    /// # Errors
    /// [`ProtocolError::BadField`] for invalid specs or unknown names,
    /// [`ProtocolError::Busy`] when admission is refused,
    /// [`ProtocolError::JobFailed`] when the pipeline errors (including
    /// shutdown cancellation).
    pub fn submit(&self, req: &JobRequest) -> Result<JobOutcome, ProtocolError> {
        req.spec
            .validate(&self.limits)
            .map_err(|e| ProtocolError::BadField(e.to_string()))?;
        let resolved = self
            .registry
            .resolve(&req.workload, &req.library)
            .map_err(|e| ProtocolError::BadField(e.to_string()))?;
        let key = Self::job_key(req);

        if let Some(result) = self.load_cached(key) {
            self.result_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(JobOutcome {
                result,
                served: Served::Cached,
            });
        }
        match self.flight.begin(key) {
            Role::Follower(f) => {
                self.dedup_waits.fetch_add(1, Ordering::Relaxed);
                match f.wait() {
                    Ok(result) => Ok(JobOutcome {
                        result,
                        served: Served::Deduped,
                    }),
                    Err(e) => Err(ProtocolError::JobFailed(e)),
                }
            }
            Role::Leader(leader) => {
                // Double-check the result cache *after* winning
                // leadership: an earlier leader may have completed
                // between our miss above and begin(). This closes the
                // window in which an identical job could execute twice.
                if let Some(result) = self.load_cached(key) {
                    self.result_cache_hits.fetch_add(1, Ordering::Relaxed);
                    leader.complete(Arc::clone(&result));
                    return Ok(JobOutcome {
                        result,
                        served: Served::Cached,
                    });
                }
                let _permit = match self.gate.try_acquire(&req.tenant) {
                    Ok(p) => p,
                    Err(refused) => {
                        if telemetry::metrics_enabled() {
                            telemetry::counter_with(
                                "autoax_serve_rejections_total",
                                &[("reason", refused.label())],
                            )
                            .inc();
                        }
                        leader.fail(refused.to_string());
                        return Err(ProtocolError::Busy(refused.to_string()));
                    }
                };
                self.executions.fetch_add(1, Ordering::Relaxed);
                match self.run(&resolved, &req.spec) {
                    Ok(result) => {
                        let result = Arc::new(result);
                        // Persist before publishing so late arrivals that
                        // miss the flight find the cache instead.
                        let payload = result.encode();
                        let _ = self.store.save_blob(RESULT_KIND, key, RESULT_TAG, payload);
                        leader.complete(Arc::clone(&result));
                        Ok(JobOutcome {
                            result,
                            served: Served::Computed,
                        })
                    }
                    Err(e) => {
                        let msg = e.to_string();
                        leader.fail(msg.clone());
                        Err(ProtocolError::JobFailed(msg))
                    }
                }
            }
        }
    }

    fn run(&self, resolved: &ResolvedJob, spec: &JobSpec) -> Result<JobResult, AutoAxError> {
        let mut opts = spec.to_options(&self.base);
        opts.cache_store = Some(Arc::clone(&self.store) as Arc<dyn BlobStore>);
        opts.cache_mode = CacheMode::ReadWrite;
        opts.cancel = self.shutdown.clone();
        let res = match &resolved.workload {
            NamedWorkload::Sobel(w) => run_pipeline(w, &resolved.lib, &resolved.images, &opts)?,
            NamedWorkload::Gaussian(w) => run_pipeline(w, &resolved.lib, &resolved.images, &opts)?,
        };
        Ok(JobResult::from_pipeline(&res))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(seed: u64) -> JobRequest {
        JobRequest {
            tenant: "t".into(),
            workload: "sobel".into(),
            library: "tiny".into(),
            spec: JobSpec {
                seed,
                ..JobSpec::default()
            },
        }
    }

    #[test]
    fn job_key_separates_names_and_specs_but_not_tenants() {
        let base = req(1);
        let other_tenant = JobRequest {
            tenant: "someone-else".into(),
            ..base.clone()
        };
        assert_eq!(JobEngine::job_key(&base), JobEngine::job_key(&other_tenant));
        let other_workload = JobRequest {
            workload: "gaussian".into(),
            ..base.clone()
        };
        assert_ne!(
            JobEngine::job_key(&base),
            JobEngine::job_key(&other_workload)
        );
        assert_ne!(JobEngine::job_key(&base), JobEngine::job_key(&req(2)));
    }

    #[test]
    fn request_parsing_defaults_and_typed_failures() {
        let body = Json::parse(
            r#"{"workload":"sobel","strategy":"nsga2","max_evals":500,"seed":9,"tenant":"alice"}"#,
        )
        .unwrap();
        let parsed = JobRequest::from_json(&body).unwrap();
        assert_eq!(parsed.workload, "sobel");
        assert_eq!(parsed.library, "tiny", "library defaults");
        assert_eq!(parsed.tenant, "alice");
        assert_eq!(parsed.spec.strategy, SearchAlgo::Nsga2);
        assert_eq!(parsed.spec.max_evals, 500);
        assert_eq!(parsed.spec.seed, 9);
        assert_eq!(
            parsed.spec.train_configs,
            JobSpec::default().train_configs,
            "absent knobs default"
        );

        for (label, body) in [
            ("non-object", "[1,2]"),
            ("missing workload", r#"{"seed":1}"#),
            ("mistyped workload", r#"{"workload":7}"#),
            (
                "unknown strategy",
                r#"{"workload":"sobel","strategy":"sa"}"#,
            ),
            ("negative count", r#"{"workload":"sobel","max_evals":-5}"#),
            ("fractional count", r#"{"workload":"sobel","seed":1.5}"#),
        ] {
            let v = Json::parse(body).unwrap();
            match JobRequest::from_json(&v) {
                Err(ProtocolError::BadField(_)) => {}
                other => panic!("case `{label}`: expected BadField, got {other:?}"),
            }
        }
    }

    #[test]
    fn submit_rejects_before_touching_the_gate() {
        let dir = std::env::temp_dir().join(format!("autoax-serve-rej-{}", std::process::id()));
        let engine = JobEngine::new(EngineConfig::new(&dir));
        let over = JobRequest {
            spec: JobSpec {
                max_evals: usize::MAX,
                ..JobSpec::default()
            },
            ..req(1)
        };
        assert!(matches!(
            engine.submit(&over),
            Err(ProtocolError::BadField(_))
        ));
        let unknown = JobRequest {
            workload: "fft".into(),
            ..req(1)
        };
        assert!(matches!(
            engine.submit(&unknown),
            Err(ProtocolError::BadField(_))
        ));
        assert_eq!(engine.executions(), 0);
        assert_eq!(engine.running(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_codec_round_trips_bit_exactly() {
        let result = JobResult {
            qor_metric: "SSIM".into(),
            members: vec![
                FrontMember {
                    qor: 0.123_456_789_123_456_78,
                    area: 1.0 / 3.0,
                    energy: 6.02e-23,
                    genes: vec![0, 3, 65535],
                },
                FrontMember {
                    qor: -0.0,
                    area: f64::MIN_POSITIVE,
                    energy: 1e300,
                    genes: vec![],
                },
            ],
            front_digest: 0xDEAD_BEEF_0123_4567,
        };
        let bytes = result.encode();
        let back = JobResult::decode(&bytes).unwrap();
        assert_eq!(back.front_digest, result.front_digest);
        for (b, r) in back.members.iter().zip(&result.members) {
            assert_eq!(
                [b.qor, b.area, b.energy].map(f64::to_bits),
                [r.qor, r.area, r.energy].map(f64::to_bits)
            );
        }
        assert_eq!(back, result);
        // Truncated, padded or garbage payloads degrade to None, not
        // panics.
        for cut in 0..bytes.len() {
            assert!(JobResult::decode(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(JobResult::decode(&padded).is_none());
        assert!(JobResult::decode(b"{\"qor_metric\":\"SSIM\"}").is_none());
        assert!(JobResult::decode(&[0xFF; 64]).is_none());
    }
}
