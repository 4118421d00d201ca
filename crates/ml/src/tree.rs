//! CART regression tree: the base learner for the decision-tree engine,
//! random forests, AdaBoost.R2 and gradient boosting.
//!
//! Splits minimize weighted variance (equivalently, maximize variance
//! reduction); supports sample weights, row subsets (bootstrap) and
//! per-split feature subsampling.

use crate::engine::{Regressor, TrainError};
use crate::linalg::Matrix;

/// Hyper-parameters of a [`DecisionTree`].
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum number of samples in each leaf.
    pub min_samples_leaf: usize,
    /// Number of features considered per split (`None` = all).
    pub max_features: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 30,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Flat, public view of one fitted tree node — the serialization surface
/// used by `autoax-store` to round-trip trees without exposing the
/// internal arena. Node indices are positions in the exported vector;
/// node 0 is the root.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeRepr {
    /// A leaf predicting `value`.
    Leaf {
        /// Predicted target.
        value: f64,
    },
    /// An internal split: `row[feature] <= threshold` goes left.
    Split {
        /// Feature column index.
        feature: u32,
        /// Split threshold.
        threshold: f64,
        /// Index of the left child.
        left: u32,
        /// Index of the right child.
        right: u32,
    },
}

/// A CART regression tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    config: TreeConfig,
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Creates an unfitted tree with the given configuration.
    pub fn new(config: TreeConfig) -> Self {
        DecisionTree {
            config,
            nodes: Vec::new(),
        }
    }

    /// Fits on a row subset with optional per-sample weights.
    ///
    /// `indices` selects (with multiplicity) the training rows — this is
    /// how bootstrap resampling is expressed. Weights default to 1.
    ///
    /// # Errors
    /// Returns an error if the subset is empty or dimensions mismatch.
    pub fn fit_subset(
        &mut self,
        x: &Matrix,
        y: &[f64],
        indices: &[usize],
        weights: Option<&[f64]>,
    ) -> Result<(), TrainError> {
        if indices.is_empty() {
            return Err(TrainError::new("empty training subset"));
        }
        if x.nrows() != y.len() {
            return Err(TrainError::new("row/target count mismatch"));
        }
        if let Some(w) = weights {
            if w.len() != y.len() {
                return Err(TrainError::new("weight count mismatch"));
            }
        }
        self.nodes.clear();
        let mut idx = indices.to_vec();
        let mut rng = self.config.seed ^ 0xD1CE_0000_7EE0_0001;
        let n = idx.len();
        self.build(x, y, weights, &mut idx, 0, n, 0, &mut rng);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        x: &Matrix,
        y: &[f64],
        weights: Option<&[f64]>,
        idx: &mut Vec<usize>,
        lo: usize,
        hi: usize,
        depth: usize,
        rng: &mut u64,
    ) -> usize {
        let wsum: f64 = idx[lo..hi]
            .iter()
            .map(|&i| weights.map_or(1.0, |w| w[i]))
            .sum();
        let mean: f64 = idx[lo..hi]
            .iter()
            .map(|&i| weights.map_or(1.0, |w| w[i]) * y[i])
            .sum::<f64>()
            / wsum;
        let count = hi - lo;
        if depth >= self.config.max_depth || count < self.config.min_samples_split {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }
        let Some((feature, threshold)) = self.best_split(x, y, weights, &idx[lo..hi], rng) else {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        };
        // Partition idx[lo..hi] in place.
        let mut mid = lo;
        for i in lo..hi {
            if x.get(idx[i], feature) <= threshold {
                idx.swap(i, mid);
                mid += 1;
            }
        }
        if mid == lo || mid == hi {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf(0.0)); // placeholder
        let left = self.build(x, y, weights, idx, lo, mid, depth + 1, rng);
        let right = self.build(x, y, weights, idx, mid, hi, depth + 1, rng);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// Finds the (feature, threshold) with the best weighted-variance
    /// reduction, or `None` if no valid split exists.
    fn best_split(
        &self,
        x: &Matrix,
        y: &[f64],
        weights: Option<&[f64]>,
        idx: &[usize],
        rng: &mut u64,
    ) -> Option<(usize, f64)> {
        let d = x.ncols();
        let n_feats = self.config.max_features.unwrap_or(d).min(d).max(1);
        let mut features: Vec<usize> = (0..d).collect();
        if n_feats < d {
            // partial Fisher-Yates; the mix is a truncated SplitMix64, not
            // `autoax_exec::hash::splitmix64`, and every fit depends on its bits
            for i in 0..n_feats {
                *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 27;
                let j = i + (z % (d - i) as u64) as usize;
                features.swap(i, j);
            }
            features.truncate(n_feats);
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feat, thr, score)
        let mut order: Vec<usize> = idx.to_vec();
        for &f in &features {
            order.sort_unstable_by(|&a, &b| {
                x.get(a, f)
                    .partial_cmp(&x.get(b, f))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            // prefix scans of weighted sums
            let total_w: f64 = order.iter().map(|&i| weights.map_or(1.0, |w| w[i])).sum();
            let total_wy: f64 = order
                .iter()
                .map(|&i| weights.map_or(1.0, |w| w[i]) * y[i])
                .sum();
            let mut wl = 0.0;
            let mut wyl = 0.0;
            for pos in 0..order.len() - 1 {
                let i = order[pos];
                let w = weights.map_or(1.0, |wt| wt[i]);
                wl += w;
                wyl += w * y[i];
                let left_count = pos + 1;
                let right_count = order.len() - left_count;
                if left_count < self.config.min_samples_leaf
                    || right_count < self.config.min_samples_leaf
                {
                    continue;
                }
                let xv = x.get(i, f);
                let xn = x.get(order[pos + 1], f);
                if xn <= xv {
                    continue; // no threshold separates equal values
                }
                let wr = total_w - wl;
                if wl <= 0.0 || wr <= 0.0 {
                    continue;
                }
                let wyr = total_wy - wyl;
                // score = between-group sum of squares (higher is better)
                let score = wyl * wyl / wl + wyr * wyr / wr;
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((f, (xv + xn) * 0.5, score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The tree's hyper-parameters.
    pub fn config(&self) -> TreeConfig {
        self.config
    }

    /// Exports the fitted nodes as their flat serializable view.
    pub fn export_nodes(&self) -> Vec<NodeRepr> {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Leaf(v) => NodeRepr::Leaf { value: *v },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => NodeRepr::Split {
                    feature: *feature as u32,
                    threshold: *threshold,
                    left: *left as u32,
                    right: *right as u32,
                },
            })
            .collect()
    }

    /// Rebuilds a fitted tree from exported nodes.
    ///
    /// # Errors
    /// Returns [`TrainError`] when a split references a child index
    /// outside the node vector (prediction would panic otherwise).
    pub fn from_nodes(config: TreeConfig, nodes: &[NodeRepr]) -> Result<Self, TrainError> {
        let n = nodes.len();
        let nodes: Vec<Node> = nodes
            .iter()
            .map(|r| match *r {
                NodeRepr::Leaf { value } => Ok(Node::Leaf(value)),
                NodeRepr::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if left as usize >= n || right as usize >= n {
                        return Err(TrainError::new("tree node child out of range"));
                    }
                    Ok(Node::Split {
                        feature: feature as usize,
                        threshold,
                        left: left as usize,
                        right: right as usize,
                    })
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(DecisionTree { config, nodes })
    }
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        let idx: Vec<usize> = (0..x.nrows()).collect();
        self.fit_subset(x, y, &idx, None)
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy_step() -> (Matrix, Vec<f64>) {
        // y = 10 if x0 > 0.5 else 2
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0, 0.0]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 10.0 } else { 2.0 })
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_step_function() {
        let (x, y) = xy_step();
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict_row(&[0.1, 0.0]), 2.0);
        assert_eq!(t.predict_row(&[0.9, 0.0]), 10.0);
    }

    #[test]
    fn depth_zero_is_mean() {
        let (x, y) = xy_step();
        let mut t = DecisionTree::new(TreeConfig {
            max_depth: 0,
            ..Default::default()
        });
        t.fit(&x, &y).unwrap();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((t.predict_row(&[0.3, 0.0]) - mean).abs() < 1e-12);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn weighted_fit_biases_leaf_means() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![0.0]]);
        let y = [0.0, 0.0, 9.0];
        let idx = [0usize, 1, 2];
        let mut t = DecisionTree::new(TreeConfig {
            max_depth: 0,
            ..Default::default()
        });
        t.fit_subset(&x, &y, &idx, Some(&[1.0, 1.0, 1.0])).unwrap();
        assert!((t.predict_row(&[0.0]) - 3.0).abs() < 1e-12);
        t.fit_subset(&x, &y, &idx, Some(&[0.0, 0.0, 1.0])).unwrap();
        assert!((t.predict_row(&[0.0]) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_fit_on_training_data_at_full_depth() {
        // Distinct x values: a deep tree must memorize the target.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| ((i * 37) % 11) as f64).collect();
        let x = Matrix::from_rows(&rows);
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y).unwrap();
        for (r, &target) in rows.iter().zip(y.iter()) {
            assert_eq!(t.predict_row(r), target);
        }
    }

    #[test]
    fn empty_subset_is_error() {
        let x = Matrix::from_rows(&[vec![1.0]]);
        let mut t = DecisionTree::new(TreeConfig::default());
        assert!(t.fit_subset(&x, &[1.0], &[], None).is_err());
    }

    #[test]
    fn two_feature_interaction() {
        // y = x0 XOR x1 (as 0/1) — needs depth 2.
        let rows = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let y = [0.0, 1.0, 1.0, 0.0];
        let x = Matrix::from_rows(&rows);
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y).unwrap();
        for (r, &target) in rows.iter().zip(y.iter()) {
            assert_eq!(t.predict_row(r), target, "row {r:?}");
        }
    }
}
