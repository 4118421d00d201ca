//! Random forest regression: bagged CART trees (the paper's best engine,
//! "random forest consisting of 100 different trees").
//!
//! A fit ranks the features once ([`FeatureRanks`]) and draws every
//! tree's bootstrap up front, in tree order, from one SplitMix64 stream.
//! The trees are then independent: `autoax_exec::par_map` fits them on
//! the worker pool and returns them in tree order, so the forest is the
//! same at any worker count, bit for bit.

use crate::engine::{Regressor, TrainError};
use crate::linalg::Matrix;
use crate::tree::{DecisionTree, FeatureRanks, TreeConfig};
use autoax_exec::hash::splitmix64;

/// Random forest regressor.
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Number of trees (paper: 100).
    pub n_trees: usize,
    /// Per-tree configuration.
    pub tree_config: TreeConfig,
    /// Bootstrap seed.
    pub seed: u64,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// A 100-tree forest with full-depth trees and bootstrap sampling.
    pub fn new(seed: u64) -> Self {
        RandomForest {
            n_trees: 100,
            tree_config: TreeConfig {
                min_samples_leaf: 1,
                ..Default::default()
            },
            seed,
            trees: Vec::new(),
        }
    }

    /// Sets the number of trees (builder style).
    pub fn with_trees(mut self, n: usize) -> Self {
        self.n_trees = n;
        self
    }

    /// The fitted trees (empty before [`Regressor::fit`]).
    pub fn fitted_trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Rebuilds a fitted forest from its parts (the serialization path:
    /// prediction over the restored forest is bitwise identical to the
    /// original because only the trees participate in prediction).
    pub fn from_fitted_parts(seed: u64, tree_config: TreeConfig, trees: Vec<DecisionTree>) -> Self {
        RandomForest {
            n_trees: trees.len(),
            tree_config,
            seed,
            trees,
        }
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        if x.nrows() == 0 {
            return Err(TrainError::new("empty training set"));
        }
        if x.nrows() != y.len() {
            return Err(TrainError::new("row/target count mismatch"));
        }
        self.trees.clear();
        let data = FeatureRanks::new(x)?;
        let n = x.nrows();
        let mut st = self.seed ^ 0xF0E5_7000_0000_0001;
        // (tree seed, bootstrap resample) per tree, in tree order
        let bootstraps: Vec<(u64, Vec<usize>)> = (0..self.n_trees)
            .map(|t| {
                let idx = (0..n)
                    .map(|_| (splitmix64(&mut st) % n as u64) as usize)
                    .collect();
                (self.seed.wrapping_add(t as u64), idx)
            })
            .collect();
        let config = self.tree_config;
        self.trees = autoax_exec::par_map(&bootstraps, |(seed, idx)| {
            let mut tree = DecisionTree::new(TreeConfig {
                seed: *seed,
                ..config
            });
            tree.fit_subset(&data, y, idx, None).map(|()| tree)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() / self.trees.len() as f64
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nonlinear_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i % 17) as f64 / 16.0;
                let b = ((i * 7) % 13) as f64 / 12.0;
                vec![a, b]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (r[0] * 6.0).sin() + r[1] * r[1] * 3.0)
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_nonlinear_function() {
        let (x, y) = nonlinear_data(300);
        let mut f = RandomForest::new(1).with_trees(30);
        f.fit(&x, &y).unwrap();
        let preds = f.predict(&x);
        let mse: f64 = preds
            .iter()
            .zip(y.iter())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.05, "training mse too high: {mse}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = nonlinear_data(100);
        let mut f1 = RandomForest::new(7).with_trees(10);
        let mut f2 = RandomForest::new(7).with_trees(10);
        f1.fit(&x, &y).unwrap();
        f2.fit(&x, &y).unwrap();
        assert_eq!(f1.predict_row(&[0.4, 0.9]), f2.predict_row(&[0.4, 0.9]));
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = nonlinear_data(100);
        let mut f1 = RandomForest::new(1).with_trees(5);
        let mut f2 = RandomForest::new(2).with_trees(5);
        f1.fit(&x, &y).unwrap();
        f2.fit(&x, &y).unwrap();
        assert_ne!(f1.predict_row(&[0.35, 0.71]), f2.predict_row(&[0.35, 0.71]));
    }

    #[test]
    fn batched_predict_is_bitwise_identical_to_per_row() {
        let (x, y) = nonlinear_data(150);
        let mut f = RandomForest::new(5).with_trees(20);
        f.fit(&x, &y).unwrap();
        let batch = f.predict(&x);
        assert_eq!(batch.len(), x.nrows());
        for (i, row) in x.rows_iter().enumerate() {
            assert_eq!(
                batch[i].to_bits(),
                f.predict_row(row).to_bits(),
                "row {i} diverged"
            );
        }
    }

    /// `fit` equals the trees that the comparator-sort oracle fits one
    /// by one, in order, from the same bootstrap stream, on data with
    /// long ties and repeated targets.
    #[test]
    fn forest_equals_serial_oracle_trees() {
        use crate::tree::tests::{node_bits, oracle_fit};
        for (seed, rows, cols, max_features) in [
            (3u64, 50, 5, None),
            (42, 150, 11, Some(4)),
            (1009, 400, 3, None),
        ] {
            let levels = [1usize, 2, 3, 5, 20];
            let x = Matrix::from_vec(
                rows,
                cols,
                (0..rows * cols)
                    .map(|k| ((k / cols * 7 + k * 3) % levels[k % cols % 5]) as f64 * 0.5)
                    .collect(),
            );
            let y: Vec<f64> = (0..rows)
                .map(|r| ((r * 37) % 11) as f64 * 0.3 - 1.1)
                .collect();
            let mut forest = RandomForest::new(seed).with_trees(30);
            forest.tree_config.max_features = max_features;
            forest.fit(&x, &y).unwrap();
            assert_eq!(forest.fitted_trees().len(), 30);
            let mut st = seed ^ 0xF0E5_7000_0000_0001;
            for (t, tree) in forest.fitted_trees().iter().enumerate() {
                let idx: Vec<usize> = (0..rows)
                    .map(|_| (splitmix64(&mut st) % rows as u64) as usize)
                    .collect();
                let config = TreeConfig {
                    seed: seed.wrapping_add(t as u64),
                    ..forest.tree_config
                };
                let oracle = oracle_fit(config, &x, &y, &idx, None);
                assert_eq!(node_bits(tree), node_bits(&oracle), "seed {seed}, tree {t}");
            }
        }
    }

    #[test]
    fn empty_input_is_error() {
        let x = Matrix::from_rows(&[vec![1.0]]);
        let mut f = RandomForest::new(0);
        assert!(f.fit(&x, &[]).is_err());
    }

    #[test]
    fn generalizes_better_than_single_overfit_tree_on_noise() {
        // Smoothing property: forest averages reduce prediction variance on
        // noisy targets relative to a single deep tree.
        let (x, mut y) = nonlinear_data(200);
        let mut st = 9u64;
        for v in y.iter_mut() {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v += ((st >> 33) as f64 / 2.0_f64.powi(31) - 0.5) * 0.8;
        }
        let (xt, yt) = nonlinear_data(200); // clean targets as "truth"
        let mut forest = RandomForest::new(3).with_trees(40);
        forest.fit(&x, &y).unwrap();
        let mut tree = DecisionTree::new(TreeConfig::default());
        tree.fit(&x, &y).unwrap();
        let err = |preds: Vec<f64>| -> f64 {
            preds
                .iter()
                .zip(yt.iter())
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f64>()
        };
        let fe = err(forest.predict(&xt));
        let te = err(tree.predict(&xt));
        assert!(fe < te, "forest {fe} should beat single tree {te}");
    }
}
