//! Gradient-boosted regression trees (least-squares boosting).

use crate::engine::{Regressor, TrainError};
use crate::linalg::Matrix;
use crate::tree::{DecisionTree, FeatureRanks, TreeConfig};

/// Gradient boosting regressor: shallow trees fitted to residuals.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    /// Number of boosting stages.
    pub n_stages: usize,
    /// Learning rate (shrinkage).
    pub learning_rate: f64,
    /// Depth of each stage's tree.
    pub max_depth: usize,
    /// Seed (reserved for subsampling variants).
    pub seed: u64,
    base: f64,
    stages: Vec<DecisionTree>,
}

impl GradientBoosting {
    /// scikit-learn-like defaults: 100 stages, depth 3, learning rate 0.1.
    pub fn new(seed: u64) -> Self {
        GradientBoosting {
            n_stages: 100,
            learning_rate: 0.1,
            max_depth: 3,
            seed,
            base: 0.0,
            stages: Vec::new(),
        }
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        if x.nrows() == 0 || x.nrows() != y.len() {
            return Err(TrainError::new("invalid training set"));
        }
        self.stages.clear();
        let data = FeatureRanks::new(x)?;
        self.base = y.iter().sum::<f64>() / y.len() as f64;
        let mut residual: Vec<f64> = y.iter().map(|&v| v - self.base).collect();
        let idx: Vec<usize> = (0..x.nrows()).collect();
        for s in 0..self.n_stages {
            let mut tree = DecisionTree::new(TreeConfig {
                max_depth: self.max_depth,
                seed: self.seed.wrapping_add(s as u64),
                ..Default::default()
            });
            tree.fit_subset(&data, &residual, &idx, None)?;
            for (i, r) in residual.iter_mut().enumerate() {
                *r -= self.learning_rate * tree.predict_row(x.row(i));
            }
            self.stages.push(tree);
        }
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.base + self.learning_rate * self.stages.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_linear_function() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 20) as f64, (i / 20) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 5.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut g = GradientBoosting::new(0);
        g.fit(&x, &y).unwrap();
        let preds = g.predict(&x);
        let mse: f64 = preds
            .iter()
            .zip(y.iter())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 1.0, "mse {mse}");
    }

    #[test]
    fn residual_shrinks_with_stages() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] / 10.0).sin() * 4.0).collect();
        let x = Matrix::from_rows(&rows);
        let mse_for = |stages: usize| {
            let mut g = GradientBoosting::new(0);
            g.n_stages = stages;
            g.fit(&x, &y).unwrap();
            g.predict(&x)
                .iter()
                .zip(y.iter())
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f64>()
        };
        assert!(mse_for(50) < mse_for(5));
    }

    #[test]
    fn zero_stages_predicts_mean() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let y = [2.0, 4.0];
        let mut g = GradientBoosting::new(0);
        g.n_stages = 0;
        g.fit(&x, &y).unwrap();
        assert_eq!(g.predict_row(&[9.0]), 3.0);
    }
}
