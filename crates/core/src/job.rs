//! Job descriptors and cooperative cancellation — the vocabulary the
//! service tier (`autoax-serve`) speaks to the pipeline.
//!
//! A [`JobSpec`] is the serializable subset of [`PipelineOptions`] a
//! remote tenant is allowed to choose: search strategy, eval budget,
//! model-training sizes, final-eval cap and seed. Everything else
//! (cache wiring, thread counts, preprocessing) stays under the
//! server's control. [`JobSpec::to_options`] maps a descriptor onto a
//! base option set and [`JobSpec::from_options`] extracts one back, so
//! the mapping round-trips.
//!
//! A [`CancelToken`] is a shared flag the search strategies poll at
//! round/epoch boundaries (see
//! [`crate::search::run_search_cancellable`]) and
//! [`crate::pipeline::run_pipeline`] checks between stages — a server
//! shutting down stops multi-second jobs within one round instead of
//! after the full eval budget.

use crate::error::AutoAxError;
use crate::pipeline::PipelineOptions;
use crate::search::{SearchAlgo, SearchOptions};
use autoax_store::KeyHasher;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cooperative-cancellation flag (cheap to clone; all clones
/// observe one underlying bit).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Irrevocable; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The tenant-choosable subset of [`PipelineOptions`]: what one DSE job
/// request may specify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Step-3 search strategy.
    pub strategy: SearchAlgo,
    /// Step-3 model-estimate budget.
    pub max_evals: usize,
    /// Fully evaluated configurations for model training (Step 2).
    pub train_configs: usize,
    /// Held-out configurations for the fidelity report (Step 2).
    pub test_configs: usize,
    /// Cap on really-evaluated pseudo-Pareto members (Step 3b).
    pub final_eval_cap: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec::from_options(&PipelineOptions::quick())
    }
}

/// Hard per-job ceilings a server imposes on tenant-supplied specs.
#[derive(Debug, Clone, Copy)]
pub struct JobLimits {
    /// Maximum Step-3 eval budget.
    pub max_evals: usize,
    /// Maximum training + test configurations combined.
    pub max_model_configs: usize,
    /// Maximum final-eval cap.
    pub max_final_eval_cap: usize,
}

impl Default for JobLimits {
    fn default() -> Self {
        JobLimits {
            max_evals: 1_000_000,
            max_model_configs: 10_000,
            max_final_eval_cap: 2_000,
        }
    }
}

impl JobSpec {
    /// Extracts the tenant-choosable fields from a full option set.
    pub fn from_options(opts: &PipelineOptions) -> Self {
        JobSpec {
            strategy: opts.search.strategy,
            max_evals: opts.search.max_evals,
            train_configs: opts.train_configs,
            test_configs: opts.test_configs,
            final_eval_cap: opts.final_eval_cap,
            seed: opts.seed,
        }
    }

    /// Maps the descriptor onto `base` (the server's template — cache
    /// wiring, preprocessing and throughput knobs come from there; the
    /// job decides everything a [`JobSpec`] carries).
    pub fn to_options(&self, base: &PipelineOptions) -> PipelineOptions {
        PipelineOptions {
            train_configs: self.train_configs,
            test_configs: self.test_configs,
            final_eval_cap: self.final_eval_cap,
            seed: self.seed,
            search: SearchOptions {
                strategy: self.strategy,
                max_evals: self.max_evals,
                ..base.search
            },
            ..base.clone()
        }
    }

    /// Rejects inconsistent or over-limit specs with a typed error.
    ///
    /// # Errors
    /// [`AutoAxError::Invalid`] naming the offending field.
    pub fn validate(&self, limits: &JobLimits) -> Result<(), AutoAxError> {
        let fail = |m: String| Err(AutoAxError::Invalid(m));
        if self.max_evals == 0 {
            return fail("job budget: max_evals must be positive".into());
        }
        if self.max_evals > limits.max_evals {
            return fail(format!(
                "job budget: max_evals {} exceeds the server limit {}",
                self.max_evals, limits.max_evals
            ));
        }
        if self.train_configs < 2 || self.test_configs < 2 {
            return fail("job budget: train/test configs must each be at least 2".into());
        }
        if self.train_configs + self.test_configs > limits.max_model_configs {
            return fail(format!(
                "job budget: {} model configurations exceed the server limit {}",
                self.train_configs + self.test_configs,
                limits.max_model_configs
            ));
        }
        if self.final_eval_cap == 0 || self.final_eval_cap > limits.max_final_eval_cap {
            return fail(format!(
                "job budget: final_eval_cap {} outside 1..={}",
                self.final_eval_cap, limits.max_final_eval_cap
            ));
        }
        Ok(())
    }

    /// Feeds every field into a cache-key hasher — combined with the
    /// Step-1/2 content key this makes the *full job* content-address
    /// the single-flight table and the result cache dedupe on.
    pub fn digest(&self, h: &mut KeyHasher) {
        h.write_str(self.strategy.name());
        h.write_u64(self.max_evals as u64);
        h.write_u64(self.train_configs as u64);
        h.write_u64(self.test_configs as u64);
        h.write_u64(self.final_eval_cap as u64);
        h.write_u64(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled() && !u.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled() && u.is_cancelled());
        u.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn spec_round_trips_through_options() {
        let spec = JobSpec {
            strategy: SearchAlgo::Nsga2,
            max_evals: 7_777,
            train_configs: 64,
            test_configs: 32,
            final_eval_cap: 25,
            seed: 99,
        };
        let opts = spec.to_options(&PipelineOptions::quick());
        assert_eq!(JobSpec::from_options(&opts), spec);
        // server-side template fields survive the mapping
        assert_eq!(opts.search.islands, PipelineOptions::quick().search.islands);
        assert_eq!(opts.engine, PipelineOptions::quick().engine);
    }

    #[test]
    fn validate_enforces_limits_with_named_fields() {
        let limits = JobLimits::default();
        assert!(JobSpec::default().validate(&limits).is_ok());
        let over = JobSpec {
            max_evals: limits.max_evals + 1,
            ..JobSpec::default()
        };
        let msg = over.validate(&limits).unwrap_err().to_string();
        assert!(msg.contains("max_evals"), "{msg}");
        let zero = JobSpec {
            max_evals: 0,
            ..JobSpec::default()
        };
        assert!(zero.validate(&limits).is_err());
        let fat_models = JobSpec {
            train_configs: 9_000,
            test_configs: 9_000,
            ..JobSpec::default()
        };
        assert!(fat_models.validate(&limits).is_err());
        let bad_cap = JobSpec {
            final_eval_cap: 0,
            ..JobSpec::default()
        };
        assert!(bad_cap.validate(&limits).is_err());
    }

    #[test]
    fn digest_separates_every_field() {
        let base = JobSpec::default();
        let digest = |s: &JobSpec| {
            let mut h = KeyHasher::new("job-test");
            s.digest(&mut h);
            h.finish()
        };
        let d0 = digest(&base);
        assert_eq!(d0, digest(&base.clone()), "digest must be deterministic");
        for variant in [
            JobSpec {
                strategy: SearchAlgo::Random,
                ..base.clone()
            },
            JobSpec {
                max_evals: base.max_evals + 1,
                ..base.clone()
            },
            JobSpec {
                train_configs: base.train_configs + 1,
                ..base.clone()
            },
            JobSpec {
                test_configs: base.test_configs + 1,
                ..base.clone()
            },
            JobSpec {
                final_eval_cap: base.final_eval_cap + 1,
                ..base.clone()
            },
            JobSpec {
                seed: base.seed + 1,
                ..base.clone()
            },
        ] {
            assert_ne!(d0, digest(&variant), "{variant:?}");
        }
    }
}
