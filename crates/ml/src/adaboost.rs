//! AdaBoost.R2 (Drucker 1997) with shallow CART trees — the "Ada Boost"
//! row of the paper's Table 3.

use crate::engine::{Regressor, TrainError};
use crate::linalg::Matrix;
use crate::tree::{DecisionTree, FeatureRanks, TreeConfig};
use autoax_exec::hash::splitmix64;

/// AdaBoost.R2 regressor with linear loss.
#[derive(Debug, Clone)]
pub struct AdaBoost {
    /// Maximum number of boosting rounds.
    pub n_estimators: usize,
    /// Depth of each weak learner.
    pub max_depth: usize,
    /// Seed for weighted resampling.
    pub seed: u64,
    models: Vec<(DecisionTree, f64)>, // (tree, log(1/beta))
}

impl AdaBoost {
    /// scikit-learn-like defaults: 50 estimators of depth 3.
    pub fn new(seed: u64) -> Self {
        AdaBoost {
            n_estimators: 50,
            max_depth: 3,
            seed,
            models: Vec::new(),
        }
    }

    /// Weighted-median prediction over the ensemble.
    fn weighted_median(&self, preds: &[(f64, f64)]) -> f64 {
        // preds: (prediction, weight) sorted by prediction
        let total: f64 = preds.iter().map(|p| p.1).sum();
        let mut acc = 0.0;
        for &(p, w) in preds {
            acc += w;
            if acc >= total / 2.0 {
                return p;
            }
        }
        preds.last().map(|p| p.0).unwrap_or(0.0)
    }
}

impl Regressor for AdaBoost {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        let n = x.nrows();
        if n == 0 || n != y.len() {
            return Err(TrainError::new("invalid training set"));
        }
        self.models.clear();
        let data = FeatureRanks::new(x)?;
        let mut weights = vec![1.0 / n as f64; n];
        let mut st = self.seed ^ 0xADA_B005_7000_0001;
        let next = |st: &mut u64| splitmix64(st) as f64 / u64::MAX as f64;
        for round in 0..self.n_estimators {
            // weighted bootstrap resample
            let cdf: Vec<f64> = weights
                .iter()
                .scan(0.0, |acc, &w| {
                    *acc += w;
                    Some(*acc)
                })
                .collect();
            let total = *cdf.last().unwrap();
            let idx: Vec<usize> = (0..n)
                .map(|_| {
                    let r = next(&mut st) * total;
                    cdf.partition_point(|&c| c < r).min(n - 1)
                })
                .collect();
            let mut tree = DecisionTree::new(TreeConfig {
                max_depth: self.max_depth,
                seed: self.seed.wrapping_add(round as u64),
                ..Default::default()
            });
            tree.fit_subset(&data, y, &idx, None)?;
            // linear loss per sample
            let errs: Vec<f64> = (0..n)
                .map(|i| (tree.predict_row(x.row(i)) - y[i]).abs())
                .collect();
            let emax = errs.iter().cloned().fold(0.0f64, f64::max);
            if emax <= 1e-12 {
                // perfect learner: give it a large weight and stop
                self.models.push((tree, 10.0));
                break;
            }
            let losses: Vec<f64> = errs.iter().map(|e| e / emax).collect();
            let avg_loss: f64 = losses
                .iter()
                .zip(weights.iter())
                .map(|(l, w)| l * w)
                .sum::<f64>()
                / weights.iter().sum::<f64>();
            if avg_loss >= 0.5 {
                // learner no better than chance; stop as in AdaBoost.R2
                break;
            }
            let beta = avg_loss / (1.0 - avg_loss);
            for (w, l) in weights.iter_mut().zip(losses.iter()) {
                *w *= beta.powf(1.0 - l);
            }
            let wsum: f64 = weights.iter().sum();
            for w in weights.iter_mut() {
                *w /= wsum;
            }
            self.models.push((tree, (1.0 / beta).ln()));
        }
        if self.models.is_empty() {
            // fall back to one unweighted tree so predictions are defined
            let idx: Vec<usize> = (0..n).collect();
            let mut tree = DecisionTree::new(TreeConfig {
                max_depth: self.max_depth,
                ..Default::default()
            });
            tree.fit_subset(&data, y, &idx, None)?;
            self.models.push((tree, 1.0));
        }
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut preds: Vec<(f64, f64)> = self
            .models
            .iter()
            .map(|(t, w)| (t.predict_row(row), *w))
            .collect();
        preds.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        self.weighted_median(&preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_smooth_function() {
        let rows: Vec<Vec<f64>> = (0..150).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sqrt() * 3.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut a = AdaBoost::new(0);
        a.fit(&x, &y).unwrap();
        let preds = a.predict(&x);
        let mse: f64 = preds
            .iter()
            .zip(y.iter())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.5, "mse {mse}");
    }

    #[test]
    fn deterministic() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut a1 = AdaBoost::new(3);
        let mut a2 = AdaBoost::new(3);
        a1.fit(&x, &y).unwrap();
        a2.fit(&x, &y).unwrap();
        assert_eq!(a1.predict_row(&[30.5]), a2.predict_row(&[30.5]));
    }

    #[test]
    fn handles_constant_target() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![4.0; 20];
        let x = Matrix::from_rows(&rows);
        let mut a = AdaBoost::new(0);
        a.fit(&x, &y).unwrap();
        assert!((a.predict_row(&[7.0]) - 4.0).abs() < 1e-9);
    }
}
