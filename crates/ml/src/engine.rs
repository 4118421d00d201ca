//! The common [`Regressor`] trait and the [`EngineKind`] registry covering
//! every learning engine of the paper's Table 3.

use crate::linalg::Matrix;

/// Error returned when a model cannot be fitted.
#[derive(Debug, Clone)]
pub struct TrainError {
    message: String,
}

impl TrainError {
    /// Creates an error with a short lowercase description.
    pub fn new(message: impl Into<String>) -> Self {
        TrainError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model training failed: {}", self.message)
    }
}

impl std::error::Error for TrainError {}

/// A supervised regression model.
///
/// All engines are deterministic functions of their inputs and their
/// construction seed. Fitted models are immutable at prediction time
/// (`Sync`), so batch prediction can fan out across worker threads.
pub trait Regressor: Send + Sync {
    /// Fits the model on rows of `x` with targets `y`.
    ///
    /// # Errors
    /// Returns [`TrainError`] when the input is empty, shapes mismatch, or
    /// an internal solver fails on degenerate data.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError>;

    /// Predicts the target for one feature row.
    fn predict_row(&self, row: &[f64]) -> f64;

    /// Predicts targets for every row of `x`: [`Regressor::predict_row`]
    /// mapped over the rows with [`autoax_exec::par_map`], so every value
    /// is bitwise identical to the per-row call at any thread count.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let rows: Vec<&[f64]> = x.rows_iter().collect();
        autoax_exec::par_map(&rows, |r| self.predict_row(r))
    }

    /// Concrete-type view for serialization (`autoax-store` downcasts
    /// through this to encode fitted models). Engines that do not support
    /// persistence keep the default `None`, which the store reports as
    /// [`TrainError`]-free but unsupported — callers then fall back to
    /// refitting instead of caching.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// The engines compared in the paper's Table 3 (naïve models are built
/// separately from fixed weights; see `autoax::model`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EngineKind {
    /// Random forest (100 trees) — the paper's winner.
    RandomForest,
    /// Single CART decision tree.
    DecisionTree,
    /// k-nearest neighbours (k = 5).
    KNeighbors,
    /// Bayesian ridge regression.
    BayesianRidge,
    /// Partial least squares (2 components).
    PartialLeastSquares,
    /// Lasso (coordinate descent).
    Lasso,
    /// AdaBoost.R2 with shallow trees.
    AdaBoost,
    /// Least-angle regression.
    LeastAngle,
    /// Gradient boosting (100 stages).
    GradientBoosting,
    /// Multi-layer perceptron.
    MlpNeuralNetwork,
    /// Gaussian-process regression (overfits by construction).
    GaussianProcess,
    /// Kernel ridge on raw features (degenerate by construction).
    KernelRidge,
    /// Plain SGD linear regression on raw features (the paper's worst).
    StochasticGradientDescent,
}

impl EngineKind {
    /// All engines, in the row order of Table 3 (best-first as printed).
    pub const ALL: [EngineKind; 13] = [
        EngineKind::RandomForest,
        EngineKind::DecisionTree,
        EngineKind::KNeighbors,
        EngineKind::BayesianRidge,
        EngineKind::PartialLeastSquares,
        EngineKind::Lasso,
        EngineKind::AdaBoost,
        EngineKind::LeastAngle,
        EngineKind::GradientBoosting,
        EngineKind::MlpNeuralNetwork,
        EngineKind::GaussianProcess,
        EngineKind::KernelRidge,
        EngineKind::StochasticGradientDescent,
    ];

    /// The display name used by the paper.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::RandomForest => "Random Forest",
            EngineKind::DecisionTree => "Decision Tree",
            EngineKind::KNeighbors => "K-Neighbors",
            EngineKind::BayesianRidge => "Bayesian Ridge",
            EngineKind::PartialLeastSquares => "Partial least squares",
            EngineKind::Lasso => "Lasso",
            EngineKind::AdaBoost => "Ada Boost",
            EngineKind::LeastAngle => "Least-angle",
            EngineKind::GradientBoosting => "Gradient Boosting",
            EngineKind::MlpNeuralNetwork => "MLP neural network",
            EngineKind::GaussianProcess => "Gaussian process",
            EngineKind::KernelRidge => "Kernel ridge",
            EngineKind::StochasticGradientDescent => "Stochastic Gradient Descent",
        }
    }

    /// Instantiates an unfitted model with this crate's default
    /// hyper-parameters (documented per engine module).
    pub fn make(&self, seed: u64) -> Box<dyn Regressor> {
        match self {
            EngineKind::RandomForest => Box::new(crate::forest::RandomForest::new(seed)),
            EngineKind::DecisionTree => Box::new(crate::tree::DecisionTree::new(
                crate::tree::TreeConfig::default(),
            )),
            EngineKind::KNeighbors => Box::new(crate::knn::KNeighbors::new()),
            EngineKind::BayesianRidge => Box::new(crate::linear::BayesianRidge::new()),
            EngineKind::PartialLeastSquares => Box::new(crate::pls::PartialLeastSquares::new()),
            EngineKind::Lasso => Box::new(crate::lasso::Lasso::new(1e-3)),
            EngineKind::AdaBoost => Box::new(crate::adaboost::AdaBoost::new(seed)),
            EngineKind::LeastAngle => Box::new(crate::lars::LeastAngle::new()),
            EngineKind::GradientBoosting => Box::new(crate::gbt::GradientBoosting::new(seed)),
            EngineKind::MlpNeuralNetwork => Box::new(crate::mlp::Mlp::new(seed)),
            EngineKind::GaussianProcess => Box::new(crate::gp::GaussianProcess::new()),
            EngineKind::KernelRidge => Box::new(crate::kernel_ridge::KernelRidge::new()),
            EngineKind::StochasticGradientDescent => Box::new(crate::linear::SgdLinear::new(seed)),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::fidelity;

    /// Mildly nonlinear data with train/test halves.
    fn split_data() -> (Matrix, Vec<f64>, Matrix, Vec<f64>) {
        let make = |offset: usize, n: usize| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let i = i + offset;
                    vec![
                        ((i * 7) % 23) as f64 / 22.0,
                        ((i * 13) % 17) as f64 / 16.0,
                        ((i * 3) % 11) as f64 / 10.0,
                    ]
                })
                .collect();
            let y: Vec<f64> = rows
                .iter()
                .map(|r| 2.0 * r[0] + r[1] * r[1] * 3.0 - r[2] + 0.5 * (r[0] * 4.0).sin())
                .collect();
            (Matrix::from_rows(&rows), y)
        };
        let (xt, yt) = make(0, 300);
        let (xv, yv) = make(1000, 150);
        (xt, yt, xv, yv)
    }

    #[test]
    fn all_engines_fit_and_predict() {
        let (xt, yt, xv, _) = split_data();
        for kind in EngineKind::ALL {
            let mut m = kind.make(7);
            m.fit(&xt, &yt).unwrap_or_else(|e| panic!("{kind}: {e}"));
            for row in xv.rows_iter().take(5) {
                assert!(m.predict_row(row).is_finite(), "{kind} produced non-finite");
            }
        }
    }

    #[test]
    fn tree_ensembles_beat_degenerate_engines_on_test_fidelity() {
        let (xt, yt, xv, yv) = split_data();
        let test_fidelity = |kind: EngineKind| {
            let mut m = kind.make(3);
            m.fit(&xt, &yt).unwrap();
            fidelity(&m.predict(&xv), &yv).unwrap()
        };
        let rf = test_fidelity(EngineKind::RandomForest);
        let sgd = test_fidelity(EngineKind::StochasticGradientDescent);
        assert!(rf > 0.85, "random forest too weak: {rf}");
        assert!(rf > sgd, "rf {rf} must beat sgd {sgd}");
    }

    #[test]
    fn gaussian_process_overfits() {
        let (xt, mut yt, xv, yv) = split_data();
        // add noise so interpolation hurts generalization
        let mut st = 3u64;
        for v in yt.iter_mut() {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v += ((st >> 33) as f64 / 2.0_f64.powi(31) - 0.5) * 0.6;
        }
        let mut gp = EngineKind::GaussianProcess.make(0);
        gp.fit(&xt, &yt).unwrap();
        let train_f = fidelity(&gp.predict(&xt), &yt).unwrap();
        let test_f = fidelity(&gp.predict(&xv), &yv).unwrap();
        assert!(train_f > 0.97, "GP must interpolate: {train_f}");
        assert!(
            test_f < train_f,
            "GP should generalize worse than it trains"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EngineKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EngineKind::ALL.len());
    }

    #[test]
    fn default_predict_maps_rows() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let y = [0.0, 2.0, 4.0];
        let mut m = EngineKind::DecisionTree.make(0);
        m.fit(&x, &y).unwrap();
        let p = m.predict(&x);
        assert_eq!(p.len(), 3);
    }
}
