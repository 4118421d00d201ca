//! Step 2 of the methodology: construction of the QoR and hardware-cost
//! estimation models (paper Section 2.3).
//!
//! * QoR model input: the WMED of every employed circuit (one feature per
//!   slot).
//! * Hardware model input: the isolated area, power and delay of every
//!   employed circuit (three features per slot) — the paper found that
//!   omitting power and delay costs ~2 % fidelity.
//! * Targets: real QoR (SSIM, accuracy, … per the workload's domain) and
//!   real post-synthesis area of the composed accelerator.
//!
//! Model quality is measured by *fidelity*, not accuracy, because the DSE
//! only compares configurations. The paper's naïve baselines are exposed
//! as fixed-weight linear predictors: `M_a(C) = Σ area(c)` and
//! `M_SSIM(C) = −Σ WMED_k(c)`.

use crate::config::{ConfigSpace, Configuration};
use crate::error::AutoAxError;
use crate::evaluate::{Evaluator, RealEval};
use autoax_circuit::charlib::ComponentLibrary;
use autoax_ml::engine::{EngineKind, Regressor};
use autoax_ml::linalg::Matrix;
use autoax_ml::linear::LinearFixed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// QoR model features of a configuration: per-slot WMED.
pub fn qor_features(space: &ConfigSpace, c: &Configuration) -> Vec<f64> {
    space.wmeds(c)
}

/// Hardware model features: per-slot `(area, power, delay)` of the
/// isolated circuits.
pub fn hw_features(space: &ConfigSpace, lib: &ComponentLibrary, c: &Configuration) -> Vec<f64> {
    space
        .entries(lib, c)
        .iter()
        .flat_map(|e| [e.hw.area, e.hw.power, e.hw.delay])
        .collect()
}

/// A labelled dataset of fully evaluated configurations.
#[derive(Debug, Clone)]
pub struct EvaluatedSet {
    /// The configurations.
    pub configs: Vec<Configuration>,
    /// Real evaluations, aligned with `configs`.
    pub evals: Vec<RealEval>,
}

impl EvaluatedSet {
    /// Generates `n` random configurations and fully evaluates them.
    ///
    /// Prefers distinct configurations; duplicates are accepted when the
    /// space is small relative to `n` (fewer than `2n` configurations) or
    /// after an attempt cap, so a run of unlucky rejections can never spin
    /// the sampling loop forever.
    pub fn generate<W: autoax_accel::Workload + ?Sized>(
        evaluator: &Evaluator<'_, W>,
        space: &ConfigSpace,
        n: usize,
        seed: u64,
    ) -> Self {
        Self::generate_impl(evaluator, space, n, seed, false)
            .expect("permissive generation is infallible")
    }

    /// [`EvaluatedSet::generate`], but the attempt cap is an error instead
    /// of a silent fall-back to duplicates: when the cap fires before `n`
    /// distinct configurations exist, the returned
    /// [`AutoAxError::SamplingExhausted`] carries both the requested and
    /// the achieved count. Genuinely small spaces (fewer than `2n`
    /// configurations) still accept duplicates without an error — only
    /// the pathological can't-find-uniques-in-a-big-space case fails.
    ///
    /// # Errors
    /// [`AutoAxError::SamplingExhausted`] as described above.
    pub fn try_generate<W: autoax_accel::Workload + ?Sized>(
        evaluator: &Evaluator<'_, W>,
        space: &ConfigSpace,
        n: usize,
        seed: u64,
    ) -> Result<Self, AutoAxError> {
        Self::generate_impl(evaluator, space, n, seed, true)
    }

    fn generate_impl<W: autoax_accel::Workload + ?Sized>(
        evaluator: &Evaluator<'_, W>,
        space: &ConfigSpace,
        n: usize,
        seed: u64,
        strict: bool,
    ) -> Result<Self, AutoAxError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut configs = Vec::with_capacity(n);
        let mut seen = std::collections::HashSet::new();
        let small_space = space.size() < (2 * n) as f64;
        let max_attempts = n.saturating_mul(64).saturating_add(1024);
        let mut attempts = 0usize;
        while configs.len() < n {
            let c = space.random(&mut rng);
            attempts += 1;
            if seen.insert(c.clone()) || small_space {
                configs.push(c);
            } else if attempts > max_attempts {
                if strict {
                    return Err(AutoAxError::SamplingExhausted {
                        requested: n,
                        achieved: configs.len(),
                    });
                }
                configs.push(c);
            }
        }
        let evals = evaluator.evaluate_batch(&configs);
        Ok(EvaluatedSet { configs, evals })
    }

    /// QoR targets (real SSIM / accuracy, per the workload's domain).
    pub fn qor_targets(&self) -> Vec<f64> {
        self.evals.iter().map(|e| e.qor).collect()
    }

    /// Area targets.
    pub fn area_targets(&self) -> Vec<f64> {
        self.evals.iter().map(|e| e.hw.area).collect()
    }

    /// QoR feature matrix.
    pub fn qor_matrix(&self, space: &ConfigSpace) -> Matrix {
        let rows: Vec<Vec<f64>> = self
            .configs
            .iter()
            .map(|c| qor_features(space, c))
            .collect();
        Matrix::from_rows(&rows)
    }

    /// Hardware feature matrix.
    pub fn hw_matrix(&self, space: &ConfigSpace, lib: &ComponentLibrary) -> Matrix {
        let rows: Vec<Vec<f64>> = self
            .configs
            .iter()
            .map(|c| hw_features(space, lib, c))
            .collect();
        Matrix::from_rows(&rows)
    }
}

/// The fitted estimation models of one engine.
pub struct FittedModels {
    /// QoR estimator.
    pub qor: Box<dyn Regressor>,
    /// Hardware-cost estimator.
    pub hw: Box<dyn Regressor>,
}

impl FittedModels {
    /// Estimates the trade-off point of a configuration.
    pub fn estimate(
        &self,
        space: &ConfigSpace,
        lib: &ComponentLibrary,
        c: &Configuration,
    ) -> (f64, f64) {
        (
            self.qor.predict_row(&qor_features(space, c)),
            self.hw.predict_row(&hw_features(space, lib, c)),
        )
    }
}

/// [`crate::search::Estimator`] adapter over fitted models: the glue
/// between Step 2 (model construction) and Step 3 (model-based DSE).
///
/// Construction precomputes per-slot feature tables (WMED per candidate
/// for the QoR model; `(area, power, delay)` per candidate for the
/// hardware model), so the columnar hot path —
/// [`crate::search::Estimator::estimate_slice`] — never builds features
/// per candidate on the heap.
///
/// For forest/tree models (detected through [`Regressor::as_any`]) the
/// adapter goes further: each model is compiled into a
/// structure-of-arrays [`autoax_ml::CompiledForest`] arena and the
/// per-slot feature tables are baked *into* the arena's feature indices
/// ([`autoax_ml::GatherForest`]), so `estimate_slice` runs one fused
/// gather+traverse kernel straight off the `u16` genome slab — the
/// feature [`Matrix`] is never materialized — and
/// `estimate_neighbours` runs the forest's leaf-bitvector neighbour
/// table where the bake built one. Other engines keep the
/// matrix path: features are gathered into reused scratch and predicted
/// with one batched [`Regressor::predict`] per model. Every path is
/// bitwise identical to the scalar [`qor_features`]/[`hw_features`]
/// estimation.
///
/// The adapter counts the rows it estimates ([`ModelEstimator::estimates`]),
/// so a run's search throughput counts that run's estimates alone.
pub struct ModelEstimator<'a> {
    /// The fitted QoR and hardware models.
    pub models: &'a FittedModels,
    /// The (reduced) configuration space being searched.
    pub space: &'a ConfigSpace,
    /// The component library backing hardware features.
    pub lib: &'a ComponentLibrary,
    /// `qor_table[slot][member]` = WMED (the QoR feature).
    qor_table: Vec<Vec<f64>>,
    /// `hw_table[slot][member]` = `[area, power, delay]`.
    hw_table: Vec<Vec<[f64; 3]>>,
    /// Fused QoR kernel (compiled forest with baked WMED tables).
    qor_fused: Option<autoax_ml::GatherForest>,
    /// Fused hardware kernel (compiled forest with baked hw tables).
    hw_fused: Option<autoax_ml::GatherForest>,
    /// Rows estimated so far, by every thread.
    estimates: AtomicU64,
}

impl<'a> ModelEstimator<'a> {
    /// Creates the adapter, precomputing the per-slot feature tables and
    /// compiling forest/tree models into their fused kernels.
    pub fn new(
        models: &'a FittedModels,
        space: &'a ConfigSpace,
        lib: &'a ComponentLibrary,
    ) -> Self {
        let qor_table: Vec<Vec<f64>> = space
            .slots()
            .iter()
            .map(|s| s.members.iter().map(|m| m.wmed).collect())
            .collect();
        let hw_table: Vec<Vec<[f64; 3]>> = space
            .slots()
            .iter()
            .map(|s| {
                s.members
                    .iter()
                    .map(|m| {
                        let e = &lib.class(s.signature)[m.id.0 as usize];
                        [e.hw.area, e.hw.power, e.hw.delay]
                    })
                    .collect()
            })
            .collect();
        let slots = space.slot_count();
        // Bake the gather tables into compiled arenas: QoR feature f is
        // slot f's WMED; hardware feature f is lane f%3 of slot f/3 —
        // exactly the columns qor_features/hw_features emit. A layout no
        // node encoding fits keeps the model on the matrix path.
        let qor_layout = autoax_ml::GatherLayout {
            stride: slots,
            slot_of: (0..slots as u32).collect(),
            values: qor_table.clone(),
        };
        let hw_layout = autoax_ml::GatherLayout {
            stride: slots,
            slot_of: (0..3 * slots as u32).map(|f| f / 3).collect(),
            values: (0..3 * slots)
                .map(|f| hw_table[f / 3].iter().map(|hw| hw[f % 3]).collect())
                .collect(),
        };
        let qor_fused =
            compile_tree_model(models.qor.as_ref()).and_then(|cf| cf.bake_gather(&qor_layout).ok());
        let hw_fused =
            compile_tree_model(models.hw.as_ref()).and_then(|cf| cf.bake_gather(&hw_layout).ok());
        ModelEstimator {
            models,
            space,
            lib,
            qor_table,
            hw_table,
            qor_fused,
            hw_fused,
            estimates: AtomicU64::new(0),
        }
    }

    /// Rows estimated so far through this adapter, by every thread: the
    /// numerator of the pipeline's search throughput.
    pub fn estimates(&self) -> u64 {
        self.estimates.load(Ordering::Relaxed)
    }

    /// Node encoding each model runs on: `"mask32"` or `"quant"` when it
    /// is fused, `"matrix"` when it is not — hot-path observability for
    /// benches and the pipeline record.
    pub fn engines(&self) -> (&'static str, &'static str) {
        let name =
            |g: &Option<autoax_ml::GatherForest>| g.as_ref().map_or("matrix", |g| g.engine());
        (name(&self.qor_fused), name(&self.hw_fused))
    }

    /// Whether the `(qor, hw)` models baked a leaf-bitvector neighbour
    /// table ([`autoax_ml::GatherForest::has_neighbour_table`]), the
    /// kernel [`crate::search::Estimator::estimate_neighbours`] runs for
    /// the hill climb; `false` for a model on the matrix path.
    pub fn neighbour_tables(&self) -> (bool, bool) {
        let baked = |g: &Option<autoax_ml::GatherForest>| {
            g.as_ref().is_some_and(|g| g.has_neighbour_table())
        };
        (baked(&self.qor_fused), baked(&self.hw_fused))
    }
}

/// Compiles a regressor into a [`autoax_ml::CompiledForest`] when its
/// concrete type is a forest or a single CART tree (the only engines with
/// an arena representation); `None` sends the model down the matrix path.
fn compile_tree_model(r: &dyn Regressor) -> Option<autoax_ml::CompiledForest> {
    let any = r.as_any()?;
    if let Some(f) = any.downcast_ref::<autoax_ml::forest::RandomForest>() {
        autoax_ml::CompiledForest::from_forest(f).ok()
    } else if let Some(t) = any.downcast_ref::<autoax_ml::tree::DecisionTree>() {
        autoax_ml::CompiledForest::from_tree(t).ok()
    } else {
        None
    }
}

impl crate::search::Estimator for ModelEstimator<'_> {
    fn estimate_slice(
        &self,
        rows: crate::search::ConfigSlice<'_>,
        out: &mut Vec<crate::pareto::TradeoffPoint>,
    ) {
        self.estimate_rows(None, rows, out);
    }

    fn estimate_neighbours(
        &self,
        parent: &[u16],
        rows: crate::search::ConfigSlice<'_>,
        out: &mut Vec<crate::pareto::TradeoffPoint>,
    ) {
        self.estimate_rows(Some(parent), rows, out);
    }
}

impl ModelEstimator<'_> {
    /// The rows path behind both slab methods of the trait, per model: a
    /// fused model with a `parent` runs its neighbour kernel
    /// ([`autoax_ml::GatherForest::predict_neighbours_into`], the gather
    /// kernel when it baked no table), a fused model without one the
    /// gather kernel, and a model on the matrix path ignores the parent.
    fn estimate_rows(
        &self,
        parent: Option<&[u16]>,
        rows: crate::search::ConfigSlice<'_>,
        out: &mut Vec<crate::pareto::TradeoffPoint>,
    ) {
        let n = rows.len();
        if n == 0 {
            return;
        }
        self.estimates.fetch_add(n as u64, Ordering::Relaxed);
        let slots = rows.stride();
        debug_assert_eq!(slots, self.space.slot_count(), "genome shape mismatch");
        // Per-thread scratch reused across calls (a search makes tens of
        // thousands of slice calls; neither the feature gather nor the
        // fused kernels' output may allocate per round): feature slabs for
        // the matrix path, prediction vectors for the fused kernels.
        thread_local! {
            #[allow(clippy::type_complexity)]
            static SCRATCH: std::cell::RefCell<(Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>)> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new(), Vec::new())) };
        }
        SCRATCH.with(|scratch| {
            let (mut qdata, mut hdata, mut qpred, mut hpred) = scratch.take();
            match &self.qor_fused {
                // Fused path: the neighbour or gather kernel straight off
                // the u16 slab — no feature matrix exists.
                Some(g) => predict_fused(g, parent, rows.genes(), &mut qpred),
                // Matrix path: gather the same values qor_features would
                // produce, in the same order, into reused scratch.
                None => {
                    qdata.clear();
                    qdata.reserve(n * slots);
                    for genome in rows.rows() {
                        for (slot, &g) in genome.iter().enumerate() {
                            qdata.push(self.qor_table[slot][g as usize]);
                        }
                    }
                    let qm = Matrix::from_vec(n, slots, std::mem::take(&mut qdata));
                    qpred = self.models.qor.predict(&qm);
                    qdata = qm.into_vec();
                }
            }
            match &self.hw_fused {
                Some(g) => predict_fused(g, parent, rows.genes(), &mut hpred),
                None => {
                    hdata.clear();
                    hdata.reserve(n * slots * 3);
                    for genome in rows.rows() {
                        for (slot, &g) in genome.iter().enumerate() {
                            hdata.extend_from_slice(&self.hw_table[slot][g as usize]);
                        }
                    }
                    let hm = Matrix::from_vec(n, slots * 3, std::mem::take(&mut hdata));
                    hpred = self.models.hw.predict(&hm);
                    hdata = hm.into_vec();
                }
            }
            out.extend(
                qpred
                    .iter()
                    .zip(&hpred)
                    .map(|(&q, &hw)| crate::pareto::TradeoffPoint::new(q, hw)),
            );
            scratch.replace((qdata, hdata, qpred, hpred));
        });
    }
}

/// One fused model's predictions: the neighbour kernel when the rows
/// come with their `parent`, the gather kernel otherwise.
fn predict_fused(
    g: &autoax_ml::GatherForest,
    parent: Option<&[u16]>,
    genes: &[u16],
    out: &mut Vec<f64>,
) {
    match parent {
        Some(parent) => g.predict_neighbours_into(parent, genes, out),
        None => g.predict_genomes_into(genes, out),
    }
}

/// Train/test fidelities of a fitted model pair (one Table 3 row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityReport {
    /// QoR model fidelity on the training set.
    pub qor_train: f64,
    /// QoR model fidelity on the held-out set.
    pub qor_test: f64,
    /// Hardware model fidelity on the training set.
    pub hw_train: f64,
    /// Hardware model fidelity on the held-out set.
    pub hw_test: f64,
}

/// Fits the QoR and hardware models of `engine` on a training set.
///
/// # Errors
/// Propagates [`AutoAxError::Train`] when an engine cannot fit.
pub fn fit_models(
    engine: EngineKind,
    space: &ConfigSpace,
    lib: &ComponentLibrary,
    train: &EvaluatedSet,
    seed: u64,
) -> Result<FittedModels, AutoAxError> {
    let mut qor = engine.make(seed);
    qor.fit(&train.qor_matrix(space), &train.qor_targets())?;
    let mut hw = engine.make(seed.wrapping_add(1));
    hw.fit(&train.hw_matrix(space, lib), &train.area_targets())?;
    Ok(FittedModels { qor, hw })
}

/// The paper's naïve models: `M_SSIM = −Σ WMED`, `M_a = Σ area`.
///
/// No training is involved; fidelity is invariant to monotone transforms,
/// so the raw sums are directly comparable to learned models.
pub fn naive_models(space: &ConfigSpace) -> FittedModels {
    let n = space.slot_count();
    FittedModels {
        qor: Box::new(LinearFixed::new(vec![-1.0; n])),
        hw: Box::new(LinearFixed::new(
            (0..n).flat_map(|_| [1.0, 0.0, 0.0]).collect(),
        )),
    }
}

/// Measures the fidelity of fitted models on train and test sets.
///
/// # Errors
/// Propagates [`AutoAxError::Fidelity`] when a set's prediction and
/// target vectors disagree in length (a malformed [`EvaluatedSet`]).
pub fn fidelity_report(
    models: &FittedModels,
    space: &ConfigSpace,
    lib: &ComponentLibrary,
    train: &EvaluatedSet,
    test: &EvaluatedSet,
) -> Result<FidelityReport, AutoAxError> {
    let f = |set: &EvaluatedSet, which_qor: bool| -> Result<f64, AutoAxError> {
        let preds: Vec<f64> = set
            .configs
            .iter()
            .map(|c| {
                if which_qor {
                    models.qor.predict_row(&qor_features(space, c))
                } else {
                    models.hw.predict_row(&hw_features(space, lib, c))
                }
            })
            .collect();
        let real: Vec<f64> = if which_qor {
            set.qor_targets()
        } else {
            set.area_targets()
        };
        Ok(autoax_ml::fidelity(&preds, &real)?)
    };
    Ok(FidelityReport {
        qor_train: f(train, true)?,
        qor_test: f(test, true)?,
        hw_train: f(train, false)?,
        hw_test: f(test, false)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, PreprocessOptions};
    use autoax_accel::sobel::SobelEd;
    use autoax_circuit::charlib::{build_library, LibraryConfig};
    use autoax_image::synthetic::benchmark_suite;

    struct Setup {
        lib: ComponentLibrary,
        images: Vec<autoax_image::GrayImage>,
        pre: crate::preprocess::Preprocessed,
        accel: SobelEd,
    }

    fn setup() -> Setup {
        let accel = SobelEd::new();
        let lib = build_library(&LibraryConfig::tiny());
        let images = benchmark_suite(2, 48, 32, 5);
        let pre = preprocess(&accel, &lib, &images, &PreprocessOptions::default()).unwrap();
        Setup {
            lib,
            images,
            pre,
            accel,
        }
    }

    #[test]
    fn feature_shapes() {
        let s = setup();
        let c = s.pre.space.exact();
        assert_eq!(qor_features(&s.pre.space, &c).len(), 5);
        assert_eq!(hw_features(&s.pre.space, &s.lib, &c).len(), 15);
    }

    #[test]
    fn random_forest_models_beat_naive_on_test_fidelity() {
        let s = setup();
        let ev = Evaluator::new(&s.accel, &s.lib, &s.pre.space, &s.images);
        let train = EvaluatedSet::generate(&ev, &s.pre.space, 60, 1);
        let test = EvaluatedSet::generate(&ev, &s.pre.space, 40, 2);
        let rf = fit_models(EngineKind::RandomForest, &s.pre.space, &s.lib, &train, 7).unwrap();
        let rf_rep = fidelity_report(&rf, &s.pre.space, &s.lib, &train, &test).unwrap();
        let naive = naive_models(&s.pre.space);
        let nv_rep = fidelity_report(&naive, &s.pre.space, &s.lib, &train, &test).unwrap();
        assert!(rf_rep.qor_test > 0.7, "rf qor fidelity {:?}", rf_rep);
        assert!(rf_rep.hw_test > 0.7, "rf hw fidelity {:?}", rf_rep);
        // Table 3 shape: learned hardware model beats the naive
        // sum-of-areas (synthesis removes logic the naive model counts).
        assert!(
            rf_rep.hw_test >= nv_rep.hw_test - 0.02,
            "rf {:?} vs naive {:?}",
            rf_rep,
            nv_rep
        );
    }

    #[test]
    fn naive_qor_model_is_negated_wmed_sum() {
        let s = setup();
        let naive = naive_models(&s.pre.space);
        let c = s.pre.space.exact();
        let expect: f64 = -qor_features(&s.pre.space, &c).iter().sum::<f64>();
        let (q, _) = naive.estimate(&s.pre.space, &s.lib, &c);
        assert_eq!(q, expect);
    }

    #[test]
    fn fused_kernel_engages_for_tree_models_and_matches_matrix_path() {
        // The scalar `FittedModels::estimate` (one `predict_row` per
        // model) is the oracle of the fused kernels, the neighbour tables
        // and the matrix path, for every engine and the naive models.
        use crate::search::Estimator;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = setup();
        let ev = Evaluator::new(&s.accel, &s.lib, &s.pre.space, &s.images);
        let train = EvaluatedSet::generate(&ev, &s.pre.space, 50, 4);
        let mut rng = StdRng::seed_from_u64(21);
        let mut configs: Vec<Configuration> =
            (0..61).map(|_| s.pre.space.random(&mut rng)).collect();
        // one-slot neighbours of the first row, the parent below
        let parent = configs[0].genes().to_vec();
        for _ in 0..39 {
            let mut genes = parent.clone();
            s.pre.space.neighbor_into(&parent, &mut genes, &mut rng);
            configs.push(Configuration::from_genes(genes));
        }
        let slab = crate::search::ConfigBatch::from_configs(&configs);
        let mut all_models: Vec<(String, FittedModels, bool)> =
            vec![("Naive".into(), naive_models(&s.pre.space), false)];
        for kind in EngineKind::ALL {
            let models = fit_models(kind, &s.pre.space, &s.lib, &train, 9)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let tree_like = matches!(kind, EngineKind::RandomForest | EngineKind::DecisionTree);
            all_models.push((kind.name().into(), models, tree_like));
        }
        for (kind, models, tree_like) in &all_models {
            let est = ModelEstimator::new(models, &s.pre.space, &s.lib);
            let tree_like = *tree_like;
            let (qor_engine, hw_engine) = est.engines();
            assert_eq!(
                (qor_engine != "matrix", hw_engine != "matrix"),
                (tree_like, tree_like),
                "{kind}: fusion must engage exactly for forest/tree models"
            );
            // ≤ 50 training rows keep every tree within the 64-leaf limit
            assert_eq!(est.neighbour_tables(), (tree_like, tree_like), "{kind}");
            // identical bits at search-realistic slice granularity, with
            // and without the parent
            for chunk in [1, 7, 32, 61] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let mut start = 0;
                while start < slab.len() {
                    let end = (start + chunk).min(slab.len());
                    est.estimate_slice(slab.slice(start..end), &mut a);
                    est.estimate_neighbours(&parent, slab.slice(start..end), &mut b);
                    start = end;
                }
                assert_eq!(a.len(), configs.len());
                assert_eq!(b.len(), configs.len());
                for ((c, fa), fb) in configs.iter().zip(&a).zip(&b) {
                    let (q, hw) = models.estimate(&s.pre.space, &s.lib, c);
                    for (path, f) in [("slice", fa), ("neighbours", fb)] {
                        assert_eq!(q.to_bits(), f.qor.to_bits(), "{kind} {path} chunk {chunk}");
                        assert_eq!(
                            hw.to_bits(),
                            f.cost.to_bits(),
                            "{kind} {path} chunk {chunk}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generate_terminates_when_uniques_are_scarce() {
        // A space truncated to 2 members per slot has exactly 2^5 = 32
        // configurations; asking for n = 16 keeps the duplicate-rejection
        // path active (size >= 2n) while uniques are scarce. The attempt
        // cap guarantees termination regardless of sampling luck.
        let s = setup();
        let tiny = ConfigSpace::new(
            s.pre
                .space
                .slots()
                .iter()
                .map(|sl| crate::config::SlotChoices {
                    name: sl.name.clone(),
                    signature: sl.signature,
                    members: sl.members.iter().take(2).copied().collect(),
                })
                .collect(),
        );
        let ev = Evaluator::new(&s.accel, &s.lib, &tiny, &s.images);
        let n = (tiny.size() / 2.0) as usize;
        let set = EvaluatedSet::generate(&ev, &tiny, n, 11);
        assert_eq!(set.configs.len(), n);
        assert_eq!(set.evals.len(), n);
        // distinct configurations preferred while they last
        let mut dedup = set.configs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), n, "cap must not kick in on an easy space");
    }

    #[test]
    fn try_generate_matches_generate_when_feasible() {
        // On a feasible budget the strict variant must be byte-identical
        // to the permissive one, and the small-space carve-out (size <
        // 2n) must keep accepting duplicates without an error. The
        // infeasible path — cap fires in a large space — is a sampling
        // pathology that can't be provoked with the uniform sampler, so
        // the error payload itself is pinned in `error.rs`.
        let s = setup();
        let tiny = ConfigSpace::new(
            s.pre
                .space
                .slots()
                .iter()
                .map(|sl| crate::config::SlotChoices {
                    name: sl.name.clone(),
                    signature: sl.signature,
                    members: sl.members.iter().take(2).copied().collect(),
                })
                .collect(),
        );
        let ev = Evaluator::new(&s.accel, &s.lib, &tiny, &s.images);
        let n = (tiny.size() / 2.0) as usize;
        let strict = EvaluatedSet::try_generate(&ev, &tiny, n, 11).expect("feasible budget");
        let permissive = EvaluatedSet::generate(&ev, &tiny, n, 11);
        assert_eq!(strict.configs, permissive.configs);
        // Small-space carve-out: asking for more configs than the space
        // holds accepts duplicates without erroring in both variants.
        let over = tiny.size() as usize + 3;
        let strict_over = EvaluatedSet::try_generate(&ev, &tiny, over, 11).expect("small space");
        assert_eq!(strict_over.configs.len(), over);
    }

    #[test]
    fn generated_sets_are_deterministic() {
        let s = setup();
        let ev = Evaluator::new(&s.accel, &s.lib, &s.pre.space, &s.images);
        let a = EvaluatedSet::generate(&ev, &s.pre.space, 10, 3);
        let b = EvaluatedSet::generate(&ev, &s.pre.space, 10, 3);
        assert_eq!(a.configs, b.configs);
        assert_eq!(a.qor_targets(), b.qor_targets());
    }
}
