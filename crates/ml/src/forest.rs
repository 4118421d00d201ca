//! Random forest regression: bagged CART trees (the paper's best engine,
//! "random forest consisting of 100 different trees").

use crate::engine::{Regressor, TrainError};
use crate::linalg::Matrix;
use crate::tree::{DecisionTree, TreeConfig};

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
        let n = x.nrows();
        self.trees.clear();
        let mut st = self.seed ^ 0xF0E5_7000_0000_0001;
        for t in 0..self.n_trees {
            // bootstrap resample
            let idx: Vec<usize> = (0..n)
                .map(|_| {
                    st = st.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = st;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    ((z ^ (z >> 31)) % n as u64) as usize
                })
                .collect();
            let mut tree = DecisionTree::new(TreeConfig {
                seed: self.seed.wrapping_add(t as u64),
                ..self.tree_config
            });
            tree.fit_subset(x, y, &idx, None)?;
            self.trees.push(tree);
        }
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Batched prediction tuned for the estimation hot path: rows are
    /// processed in fixed blocks (scheduled through
    /// [`autoax_exec::par_map_range`]) and trees walk each block in the
    /// outer loop, so one tree's nodes stay cache-hot across the whole
    /// block. The per-row additions happen in tree order, exactly as in
    /// [`RandomForest::predict_row`], so results are bitwise identical at
    /// any thread count.
    ///
    /// The matrix is indexed directly and each block accumulates into a
    /// stack array — no per-call row/block index vectors, no per-block
    /// heap scratch.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::with_capacity(x.nrows());
        self.predict_into(x, &mut out);
        out
    }

    /// [`RandomForest::predict`] into a reused output vector.
    fn predict_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        out.clear();
        if self.trees.is_empty() {
            out.resize(x.nrows(), 0.0);
            return;
        }
        // Fixed block size: keeps results independent of the worker count
        // and matches the search layer's estimation round granularity.
        const BLOCK: usize = 32;
        let n_trees = self.trees.len() as f64;
        let parts = autoax_exec::par_map_range(x.nrows(), BLOCK, |range| {
            let mut acc = [0.0f64; BLOCK];
            let len = range.len();
            for tree in &self.trees {
                for (a, r) in acc[..len].iter_mut().zip(range.clone()) {
                    *a += tree.predict_row(x.row(r));
                }
            }
            for a in &mut acc[..len] {
                *a /= n_trees;
            }
            (acc, len)
        });
        for (acc, len) in parts {
            out.extend_from_slice(&acc[..len]);
        }
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

    #[test]
    fn predict_into_reuses_the_output_allocation() {
        let (x, y) = nonlinear_data(90);
        let mut f = RandomForest::new(2).with_trees(10);
        f.fit(&x, &y).unwrap();
        let mut out = vec![99.0; 7]; // stale content must be cleared
        f.predict_into(&x, &mut out);
        assert_eq!(out, f.predict(&x));
        let cap = out.capacity();
        let ptr = out.as_ptr();
        f.predict_into(&x, &mut out);
        assert_eq!(out.capacity(), cap, "refill must not reallocate");
        assert_eq!(out.as_ptr(), ptr);
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
