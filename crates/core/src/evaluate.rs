//! Real (non-estimated) evaluation of configurations: full software
//! simulation for QoR and synthesis-lite for hardware cost — the "detailed
//! analysis" that takes ~10 s per configuration in the paper's flow and
//! that the estimation models exist to avoid.
//!
//! The evaluator is generic over the QoR domain: it drives any
//! [`Workload`] (image accelerators via the blanket impl, the quantized
//! NN workload, …) against its own sample type and golden results.

use crate::config::{ConfigSpace, Configuration};
use autoax_accel::{CompiledOp, OpSet, Workload};
use autoax_circuit::charlib::{CircuitId, ComponentLibrary};
use autoax_circuit::synth::{analyze, optimize, AnalyzeOptions};
use autoax_circuit::{HwReport, Netlist, OpSignature};
use autoax_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// The outcome of fully analyzing one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealEval {
    /// Real QoR versus the exact run on the benchmark samples (mean SSIM
    /// for the image workloads, top-1 accuracy for the NN workload).
    pub qor: f64,
    /// Hardware report of the synthesized accelerator netlist.
    pub hw: HwReport,
}

/// Evaluator with cached golden results and compiled-op cache.
pub struct Evaluator<'a, W: Workload + ?Sized> {
    work: &'a W,
    lib: &'a ComponentLibrary,
    space: &'a ConfigSpace,
    samples: &'a [W::Sample],
    golden: Vec<W::Golden>,
    op_cache: Mutex<HashMap<(OpSignature, CircuitId), CompiledOp>>,
}

impl<'a, W: Workload + ?Sized> Evaluator<'a, W> {
    /// Creates an evaluator, precomputing the golden (exact) results.
    pub fn new(
        work: &'a W,
        lib: &'a ComponentLibrary,
        space: &'a ConfigSpace,
        samples: &'a [W::Sample],
    ) -> Self {
        Evaluator {
            work,
            lib,
            space,
            samples,
            golden: work.golden(samples),
            op_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The workload under evaluation.
    pub fn workload(&self) -> &W {
        self.work
    }

    /// Compiles (with caching) the op set of a configuration.
    ///
    /// A missing op is compiled outside the cache lock, so parallel
    /// evaluations never wait on another worker's compile, and inserted
    /// first-writer-wins; compilation is deterministic, so a lost race
    /// costs time, never a different result. The lock only guards single
    /// lookups and inserts of whole ops, which leave the map valid, so a
    /// cache poisoned by a panic elsewhere is still used.
    pub fn opset(&self, c: &Configuration) -> OpSet {
        let cache = || self.op_cache.lock().unwrap_or_else(PoisonError::into_inner);
        let entries = self.space.entries(self.lib, c);
        let ops = entries
            .iter()
            .zip(self.space.slots().iter())
            .map(|(e, s)| {
                let key = (s.signature, e.id);
                if let Some(op) = cache().get(&key) {
                    return op.clone();
                }
                let op = CompiledOp::compile(e);
                cache().entry(key).or_insert(op).clone()
            })
            .collect();
        OpSet::new(ops)
    }

    /// Composes the flat accelerator netlist of a configuration.
    pub fn netlist(&self, c: &Configuration) -> Netlist {
        let impls: Vec<Netlist> = self
            .space
            .entries(self.lib, c)
            .iter()
            .map(|e| e.build_netlist())
            .collect();
        self.work.build_netlist(&impls)
    }

    /// Full software QoR analysis against the golden results.
    pub fn evaluate_qor(&self, c: &Configuration) -> f64 {
        let ops = self.opset(c);
        self.work.qor(self.samples, &self.golden, &ops)
    }

    /// Full hardware analysis: compose, optimize, report.
    pub fn evaluate_hw(&self, c: &Configuration) -> HwReport {
        let net = self.netlist(c);
        let opt = optimize(&net);
        analyze(&opt, &AnalyzeOptions::default())
    }

    /// Full analysis (both objectives).
    pub fn evaluate(&self, c: &Configuration) -> RealEval {
        RealEval {
            qor: self.evaluate_qor(c),
            hw: self.evaluate_hw(c),
        }
    }

    /// Evaluates a batch of configurations in parallel (coarse-grained:
    /// each task is a full simulation + synthesis, so fan-out pays from
    /// two configurations up).
    ///
    /// Traced as an `evaluate.batch` span with the batch size (`configs`)
    /// and the number of ops it added to the op cache (`compiled`).
    pub fn evaluate_batch(&self, configs: &[Configuration]) -> Vec<RealEval> {
        let cached = || {
            self.op_cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len()
        };
        let mut span = telemetry::span("evaluate.batch");
        let before = cached();
        let evals = autoax_exec::par_map(configs, |c| self.evaluate(c));
        span.field("configs", configs.len());
        span.field("compiled", cached() - before);
        evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, PreprocessOptions};
    use autoax_accel::sobel::SobelEd;
    use autoax_circuit::charlib::{build_library, LibraryConfig};
    use autoax_image::synthetic::benchmark_suite;
    use autoax_image::GrayImage;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (
        SobelEd,
        ComponentLibrary,
        Vec<GrayImage>,
        crate::preprocess::Preprocessed,
    ) {
        let accel = SobelEd::new();
        let lib = build_library(&LibraryConfig::tiny());
        let images = benchmark_suite(2, 48, 32, 5);
        let pre = preprocess(&accel, &lib, &images, &PreprocessOptions::default()).unwrap();
        (accel, lib, images, pre)
    }

    #[test]
    fn exact_configuration_scores_perfect_ssim() {
        let (accel, lib, images, pre) = setup();
        let ev = Evaluator::new(&accel, &lib, &pre.space, &images);
        let exact = pre.space.exact();
        let r = ev.evaluate(&exact);
        assert!((r.qor - 1.0).abs() < 1e-12, "ssim {}", r.qor);
        assert!(r.hw.area > 0.0);
    }

    #[test]
    fn approximate_configurations_trade_quality_for_area() {
        let (accel, lib, images, pre) = setup();
        let ev = Evaluator::new(&accel, &lib, &pre.space, &images);
        let exact = pre.space.exact();
        let r_exact = ev.evaluate(&exact);
        // most aggressive configuration: last member of every slot
        // (highest WMED after the sort in preprocess)
        let aggressive =
            Configuration::from_genes(pre.space.sizes().iter().map(|&n| (n - 1) as u16).collect());
        let r_aggr = ev.evaluate(&aggressive);
        assert!(r_aggr.qor < r_exact.qor, "approximation must hurt SSIM");
        assert!(
            r_aggr.hw.area < r_exact.hw.area,
            "approximation must save area ({} !< {})",
            r_aggr.hw.area,
            r_exact.hw.area
        );
    }

    #[test]
    fn batch_matches_single_evaluation() {
        let (accel, lib, images, pre) = setup();
        let ev = Evaluator::new(&accel, &lib, &pre.space, &images);
        let mut rng = StdRng::seed_from_u64(4);
        let configs: Vec<Configuration> = (0..4).map(|_| pre.space.random(&mut rng)).collect();
        let batch = ev.evaluate_batch(&configs);
        for (c, b) in configs.iter().zip(batch.iter()) {
            let single = ev.evaluate(c);
            assert_eq!(single.qor, b.qor);
            assert_eq!(single.hw.area, b.hw.area);
        }
    }

    #[test]
    fn evaluation_survives_a_poisoned_op_cache() {
        let (accel, lib, images, pre) = setup();
        let ev = Evaluator::new(&accel, &lib, &pre.space, &images);
        let exact = pre.space.exact();
        let before = ev.evaluate(&exact);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = ev.op_cache.lock().unwrap();
            panic!("deliberate panic while holding the op cache");
        }));
        assert!(poison.is_err() && ev.op_cache.is_poisoned());
        let cached = |ev: &Evaluator<'_, SobelEd>| {
            ev.op_cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len()
        };
        let n_exact = cached(&ev);
        // Cached ops are still served...
        assert_eq!(ev.evaluate(&exact), before);
        // ...and missing ones still compile and are inserted.
        let aggressive =
            Configuration::from_genes(pre.space.sizes().iter().map(|&n| (n - 1) as u16).collect());
        let fresh = Evaluator::new(&accel, &lib, &pre.space, &images);
        assert_eq!(ev.evaluate(&aggressive), fresh.evaluate(&aggressive));
        assert!(
            cached(&ev) > n_exact,
            "no op was compiled after the poisoning"
        );
    }

    #[test]
    fn netlist_composition_has_expected_interface() {
        let (accel, lib, images, pre) = setup();
        let ev = Evaluator::new(&accel, &lib, &pre.space, &images);
        let net = ev.netlist(&pre.space.exact());
        assert_eq!(net.input_count(), 72);
        assert_eq!(net.outputs().len(), 8);
        let _ = accel;
    }
}
