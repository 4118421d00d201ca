//! CART regression tree: the base learner for the decision-tree engine,
//! random forests, AdaBoost.R2 and gradient boosting.
//!
//! Splits minimize weighted variance (equivalently, maximize variance
//! reduction); supports sample weights, row subsets (bootstrap) and
//! per-split feature subsampling.
//!
//! # Rank keys
//!
//! A fit reads its features through [`FeatureRanks`]: each column's
//! values replaced by dense `u32` ranks, so that equal values (`-0.0`
//! and `+0.0` included) share a rank and a smaller value has a smaller
//! rank. The ranks depend only on `x`, so an ensemble computes them once
//! and every tree of the fit shares them. A split search keeps one
//! reused `Vec<u64>` of keys `(rank << 32) | row` for the node's rows.
//! For each feature it rewrites the keys' high halves in place, sorts
//! the keys on the high halves alone and scans them in sorted order. The
//! scan sums `total_w`, `total_wy`, `wl` and `wyl` in sorted order,
//! tells two values apart by their ranks, and reads the two `x` values
//! of a threshold only when a candidate becomes the best.
//!
//! # Why every fitted bit is the comparator sort's
//!
//! The reference is the comparator-sort CART (`tests::oracle_fit`): it
//! sorts a `Vec<usize>` of rows with `partial_cmp` on the feature values.
//! - The leaf means, the Lomuto partition, the feature order and the
//!   feature-subsampling RNG are the oracle's.
//! - Inside the split search the only implementation-dependent thing is
//!   the permutation that the unstable sort leaves within runs of equal
//!   values: the `wyl` sums at run boundaries depend on that order.
//! - `sort_unstable_by` and `sort_unstable_by_key` run one std unstable
//!   sort, which asks only `is_less` and picks its path from the length
//!   and from the element type's size and its `Copy` and `Freeze`
//!   properties. On a 64-bit target `usize` and `u64` agree on all of
//!   them. Rank order answers every `is_less` exactly as `partial_cmp` on
//!   the values does, and the keys enter every feature's sort in the
//!   order the previous sort left them, as the oracle's rows do. So each
//!   call returns the same permutation: insertion sort up to 20
//!   elements, ipnsort above.
//! - NaN has no rank. The oracle's comparator treats it as equal to
//!   everything, which is not an order, so a NaN feature is a
//!   [`TrainError`].

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

/// A feature matrix with the dense per-column ranks of its values, the
/// input of every tree fit (see the module docs).
#[derive(Debug)]
pub struct FeatureRanks<'a> {
    x: &'a Matrix,
    /// Column-major: `ranks[f * nrows + row]` is the rank of `x[row][f]`.
    ranks: Vec<u32>,
}

impl<'a> FeatureRanks<'a> {
    /// Ranks every column of `x`.
    ///
    /// # Errors
    /// [`TrainError`] on a NaN feature value, which has no rank, or on
    /// more rows than a `u32` indexes.
    pub fn new(x: &'a Matrix) -> Result<Self, TrainError> {
        let (n, d) = (x.nrows(), x.ncols());
        if u32::try_from(n).is_err() {
            return Err(TrainError::new("too many rows for a tree fit"));
        }
        let mut ranks = vec![0u32; n * d];
        let mut order: Vec<usize> = (0..n).collect();
        for f in 0..d {
            let value = |row: usize| x.get(row, f);
            if order.iter().any(|&row| value(row).is_nan()) {
                return Err(TrainError::new("NaN feature value"));
            }
            order.sort_unstable_by(|&a, &b| value(a).total_cmp(&value(b)));
            let column = &mut ranks[f * n..(f + 1) * n];
            let mut rank = 0u32;
            for (k, &row) in order.iter().enumerate() {
                if k > 0 && value(row) != value(order[k - 1]) {
                    rank += 1;
                }
                column[row] = rank;
            }
        }
        Ok(FeatureRanks { x, ranks })
    }

    fn column(&self, f: usize) -> &[u32] {
        let n = self.x.nrows();
        &self.ranks[f * n..(f + 1) * n]
    }
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

    /// Fits on a row subset of the ranked matrix `data`, with optional
    /// per-sample weights.
    ///
    /// `indices` selects (with multiplicity) the training rows — this is
    /// how bootstrap resampling is expressed. Weights default to 1.
    ///
    /// # Errors
    /// Returns an error if the subset is empty or dimensions mismatch.
    pub fn fit_subset(
        &mut self,
        data: &FeatureRanks<'_>,
        y: &[f64],
        indices: &[usize],
        weights: Option<&[f64]>,
    ) -> Result<(), TrainError> {
        if indices.is_empty() {
            return Err(TrainError::new("empty training subset"));
        }
        if data.x.nrows() != y.len() {
            return Err(TrainError::new("row/target count mismatch"));
        }
        if let Some(w) = weights {
            if w.len() != y.len() {
                return Err(TrainError::new("weight count mismatch"));
            }
        }
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.clear();
        let mut grower = Grower {
            config: self.config,
            data,
            y,
            weights,
            idx: indices.to_vec(),
            keys: Vec::with_capacity(indices.len()),
            features: Vec::with_capacity(data.x.ncols()),
            rng: self.config.seed ^ 0xD1CE_0000_7EE0_0001,
            nodes,
        };
        grower.build(0, indices.len(), 0);
        self.nodes = grower.nodes;
        Ok(())
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
    /// outside the node vector, or when the nodes reachable from the
    /// root do not form a tree (a shared or cyclic child): prediction
    /// would panic or loop forever otherwise.
    pub fn from_nodes(config: TreeConfig, nodes: &[NodeRepr]) -> Result<Self, TrainError> {
        let n = nodes.len();
        let tree_nodes: Vec<Node> = nodes
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
        if n > 0 {
            tree_depth(nodes)?;
        }
        Ok(DecisionTree {
            config,
            nodes: tree_nodes,
        })
    }
}

/// The deepest leaf of the tree that `nodes` encode (node 0 is the root;
/// every child index must be in range), from one walk over the nodes
/// reachable from the root. [`DecisionTree::from_nodes`] checks the
/// shape with it, and the compiled traversal takes it as its fixed trip
/// count.
///
/// # Errors
/// [`TrainError`] when the walk reaches a node twice: a shared or cyclic
/// child makes the node graph no tree.
pub(crate) fn tree_depth(nodes: &[NodeRepr]) -> Result<u32, TrainError> {
    let mut visited = vec![false; nodes.len()];
    let mut stack = vec![(0u32, 0u32)];
    let mut max = 0u32;
    while let Some((at, d)) = stack.pop() {
        let slot = &mut visited[at as usize];
        if *slot {
            return Err(TrainError::new("node graph is not a tree"));
        }
        *slot = true;
        match nodes[at as usize] {
            NodeRepr::Leaf { .. } => max = max.max(d),
            NodeRepr::Split { left, right, .. } => {
                stack.push((left, d + 1));
                stack.push((right, d + 1));
            }
        }
    }
    Ok(max)
}

/// The row of a split key `(rank << 32) | row`.
#[inline]
fn row_of(key: u64) -> usize {
    key as u32 as usize
}

/// One tree fit: its inputs, the scratch that every node reuses, and the
/// nodes grown so far.
struct Grower<'a> {
    config: TreeConfig,
    data: &'a FeatureRanks<'a>,
    y: &'a [f64],
    weights: Option<&'a [f64]>,
    /// The fit's rows; each node owns a contiguous range of them.
    idx: Vec<usize>,
    /// Split keys `(rank << 32) | row` of the node being split.
    keys: Vec<u64>,
    /// The features the node's split considers.
    features: Vec<usize>,
    /// Feature-subsampling state.
    rng: u64,
    nodes: Vec<Node>,
}

impl Grower<'_> {
    fn weight(&self, row: usize) -> f64 {
        self.weights.map_or(1.0, |w| w[row])
    }

    /// Grows the subtree over `idx[lo..hi]` and returns its root.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let wsum: f64 = self.idx[lo..hi].iter().map(|&i| self.weight(i)).sum();
        let mean: f64 = self.idx[lo..hi]
            .iter()
            .map(|&i| self.weight(i) * self.y[i])
            .sum::<f64>()
            / wsum;
        let count = hi - lo;
        if depth >= self.config.max_depth || count < self.config.min_samples_split {
            return self.leaf(mean);
        }
        let Some((feature, threshold)) = self.best_split(lo, hi) else {
            return self.leaf(mean);
        };
        // Partition idx[lo..hi] in place.
        let x = self.data.x;
        let mut mid = lo;
        for i in lo..hi {
            if x.get(self.idx[i], feature) <= threshold {
                self.idx.swap(i, mid);
                mid += 1;
            }
        }
        if mid == lo || mid == hi {
            return self.leaf(mean);
        }
        let me = self.leaf(0.0); // placeholder
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    fn leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf(value));
        self.nodes.len() - 1
    }

    /// Finds the (feature, threshold) with the best weighted-variance
    /// reduction over `idx[lo..hi]`, or `None` if no valid split exists.
    fn best_split(&mut self, lo: usize, hi: usize) -> Option<(usize, f64)> {
        let x = self.data.x;
        let d = x.ncols();
        let n_feats = self.config.max_features.unwrap_or(d).min(d).max(1);
        self.features.clear();
        self.features.extend(0..d);
        if n_feats < d {
            // partial Fisher-Yates; the mix is a truncated SplitMix64, not
            // `autoax_exec::hash::splitmix64`, and every fit depends on its bits
            for i in 0..n_feats {
                self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 27;
                let j = i + (z % (d - i) as u64) as usize;
                self.features.swap(i, j);
            }
            self.features.truncate(n_feats);
        }

        let (y, min_leaf) = (self.y, self.config.min_samples_leaf);
        self.keys.clear();
        self.keys
            .extend(self.idx[lo..hi].iter().map(|&row| row as u64));
        let n = self.keys.len();
        let mut best: Option<(usize, f64, f64)> = None; // (feat, thr, score)
        for &f in &self.features {
            let ranks = self.data.column(f);
            for key in self.keys.iter_mut() {
                let row = row_of(*key);
                *key = u64::from(ranks[row]) << 32 | row as u64;
            }
            self.keys.sort_unstable_by_key(|&key| key >> 32);
            // prefix scans of weighted sums
            let keys = &self.keys;
            let total_w: f64 = keys.iter().map(|&k| self.weight(row_of(k))).sum();
            let total_wy: f64 = keys
                .iter()
                .map(|&k| self.weight(row_of(k)) * y[row_of(k)])
                .sum();
            let mut wl = 0.0;
            let mut wyl = 0.0;
            for pos in 0..n - 1 {
                let (key, next) = (keys[pos], keys[pos + 1]);
                let i = row_of(key);
                let w = self.weight(i);
                wl += w;
                wyl += w * y[i];
                let left_count = pos + 1;
                let right_count = n - left_count;
                if left_count < min_leaf || right_count < min_leaf {
                    continue;
                }
                if next >> 32 == key >> 32 {
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
                    let threshold = (x.get(i, f) + x.get(row_of(next), f)) * 0.5;
                    best = Some((f, threshold, score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        let idx: Vec<usize> = (0..x.nrows()).collect();
        self.fit_subset(&FeatureRanks::new(x)?, y, &idx, None)
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
pub(crate) mod tests {
    use super::*;
    use autoax_exec::hash::splitmix64;
    use proptest::prelude::*;

    /// The comparator-sort CART, the oracle for bit identity: every
    /// split sorts the node's rows by `partial_cmp` on the feature
    /// values.
    pub(crate) fn oracle_fit(
        config: TreeConfig,
        x: &Matrix,
        y: &[f64],
        indices: &[usize],
        weights: Option<&[f64]>,
    ) -> DecisionTree {
        let mut tree = DecisionTree::new(config);
        let mut idx = indices.to_vec();
        let mut rng = config.seed ^ 0xD1CE_0000_7EE0_0001;
        let n = idx.len();
        oracle_build(&mut tree, x, y, weights, &mut idx, 0, n, 0, &mut rng);
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn oracle_build(
        tree: &mut DecisionTree,
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
        if depth >= tree.config.max_depth || count < tree.config.min_samples_split {
            tree.nodes.push(Node::Leaf(mean));
            return tree.nodes.len() - 1;
        }
        let Some((feature, threshold)) =
            oracle_best_split(&tree.config, x, y, weights, &idx[lo..hi], rng)
        else {
            tree.nodes.push(Node::Leaf(mean));
            return tree.nodes.len() - 1;
        };
        let mut mid = lo;
        for i in lo..hi {
            if x.get(idx[i], feature) <= threshold {
                idx.swap(i, mid);
                mid += 1;
            }
        }
        if mid == lo || mid == hi {
            tree.nodes.push(Node::Leaf(mean));
            return tree.nodes.len() - 1;
        }
        let me = tree.nodes.len();
        tree.nodes.push(Node::Leaf(0.0));
        let left = oracle_build(tree, x, y, weights, idx, lo, mid, depth + 1, rng);
        let right = oracle_build(tree, x, y, weights, idx, mid, hi, depth + 1, rng);
        tree.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    fn oracle_best_split(
        config: &TreeConfig,
        x: &Matrix,
        y: &[f64],
        weights: Option<&[f64]>,
        idx: &[usize],
        rng: &mut u64,
    ) -> Option<(usize, f64)> {
        let d = x.ncols();
        let n_feats = config.max_features.unwrap_or(d).min(d).max(1);
        let mut features: Vec<usize> = (0..d).collect();
        if n_feats < d {
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
        let mut best: Option<(usize, f64, f64)> = None;
        let mut order: Vec<usize> = idx.to_vec();
        for &f in &features {
            order.sort_unstable_by(|&a, &b| {
                x.get(a, f)
                    .partial_cmp(&x.get(b, f))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
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
                if left_count < config.min_samples_leaf || right_count < config.min_samples_leaf {
                    continue;
                }
                let xv = x.get(i, f);
                let xn = x.get(order[pos + 1], f);
                if xn <= xv {
                    continue;
                }
                let wr = total_w - wl;
                if wl <= 0.0 || wr <= 0.0 {
                    continue;
                }
                let wyr = total_wy - wyl;
                let score = wyl * wyl / wl + wyr * wyr / wr;
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((f, (xv + xn) * 0.5, score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }

    /// Every node of a fitted tree as bits: `(feature, threshold bits,
    /// left, right)` for a split, `(u32::MAX, value bits, 0, 0)` for a
    /// leaf.
    pub(crate) fn node_bits(t: &DecisionTree) -> Vec<(u32, u64, u32, u32)> {
        t.export_nodes()
            .into_iter()
            .map(|n| match n {
                NodeRepr::Leaf { value } => (u32::MAX, value.to_bits(), 0, 0),
                NodeRepr::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => (feature, threshold.to_bits(), left, right),
            })
            .collect()
    }

    /// A value from `distinct` evenly spread levels around zero; a zero
    /// level comes out as `-0.0` or `+0.0` at random.
    fn tied_value(distinct: u64, st: &mut u64) -> f64 {
        let level = splitmix64(st) % distinct;
        let v = (level as f64 - (distinct / 2) as f64) * 0.75;
        if v == 0.0 && splitmix64(st) & 1 == 1 {
            -0.0
        } else {
            v
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The fit is bit for bit the comparator-sort oracle's on data
        /// with long ties and mixed zero signs: 1–20 rows (insertion
        /// sort), 21–64 and 65–300 (ipnsort, its pseudo-median pivot
        /// from 64), bootstrap duplicates or the identity, unit or
        /// positive weights, feature subsampling and leaf minimums.
        #[test]
        fn ranked_fit_matches_the_comparator_oracle(
            seed in any::<u64>(),
            rows in prop_oneof![1usize..=20, 21usize..=64, 65usize..=300],
            cols in 1usize..=8,
            (bootstrap, weighted, subsample) in (any::<bool>(), any::<bool>(), any::<bool>()),
            min_samples_leaf in 1usize..=3,
        ) {
            let mut st = seed;
            let levels: Vec<u64> = (0..cols)
                .map(|_| [1, 2, 3, 5, 20][(splitmix64(&mut st) % 5) as usize])
                .collect();
            let x = Matrix::from_vec(
                rows,
                cols,
                (0..rows * cols)
                    .map(|k| tied_value(levels[k % cols], &mut st))
                    .collect(),
            );
            let y: Vec<f64> = (0..rows)
                .map(|_| (splitmix64(&mut st) % 9) as f64 * 0.3 - 1.1)
                .collect();
            let indices: Vec<usize> = if bootstrap {
                (0..rows)
                    .map(|_| (splitmix64(&mut st) % rows as u64) as usize)
                    .collect()
            } else {
                (0..rows).collect()
            };
            let weights: Option<Vec<f64>> = weighted.then(|| {
                (0..rows)
                    .map(|_| 0.25 * (1 + splitmix64(&mut st) % 8) as f64)
                    .collect()
            });
            let max_features = (subsample && cols > 1)
                .then(|| 1 + (splitmix64(&mut st) % (cols as u64 - 1)) as usize);
            let config = TreeConfig {
                min_samples_leaf,
                max_features,
                seed: splitmix64(&mut st),
                ..TreeConfig::default()
            };
            let mut fitted = DecisionTree::new(config);
            let data = FeatureRanks::new(&x).unwrap();
            fitted
                .fit_subset(&data, &y, &indices, weights.as_deref())
                .unwrap();
            let oracle = oracle_fit(config, &x, &y, &indices, weights.as_deref());
            prop_assert_eq!(node_bits(&fitted), node_bits(&oracle));
        }
    }

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
        let data = FeatureRanks::new(&x).unwrap();
        t.fit_subset(&data, &y, &idx, Some(&[1.0, 1.0, 1.0]))
            .unwrap();
        assert!((t.predict_row(&[0.0]) - 3.0).abs() < 1e-12);
        t.fit_subset(&data, &y, &idx, Some(&[0.0, 0.0, 1.0]))
            .unwrap();
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
        let data = FeatureRanks::new(&x).unwrap();
        assert!(t.fit_subset(&data, &[1.0], &[], None).is_err());
    }

    #[test]
    fn nan_feature_is_a_train_error() {
        let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![f64::NAN, 2.0], vec![1.0, 3.0]]);
        let y = [1.0, 2.0, 3.0];
        assert!(FeatureRanks::new(&x).is_err());
        assert!(DecisionTree::new(TreeConfig::default())
            .fit(&x, &y)
            .is_err());
        assert!(crate::forest::RandomForest::new(0).fit(&x, &y).is_err());
    }

    #[test]
    fn ranks_are_dense_and_zero_signs_share_one() {
        let x = Matrix::from_rows(&[
            vec![2.5, 7.0],
            vec![-0.0, 7.0],
            vec![-1.0, 7.0],
            vec![0.0, 7.0],
            vec![2.5, 7.0],
        ]);
        let r = FeatureRanks::new(&x).unwrap();
        assert_eq!(r.column(0), &[2, 1, 0, 1, 2]);
        assert_eq!(r.column(1), &[0; 5]);
    }

    #[test]
    fn from_nodes_rejects_a_self_loop_and_a_shared_child() {
        let split = |left, right| NodeRepr::Split {
            feature: 0,
            threshold: 0.5,
            left,
            right,
        };
        let leaf = NodeRepr::Leaf { value: 1.0 };
        let config = TreeConfig::default();
        assert!(DecisionTree::from_nodes(config, &[split(1, 2), leaf, leaf]).is_ok());
        // the root's left child is the root itself
        assert!(DecisionTree::from_nodes(config, &[split(0, 1), leaf]).is_err());
        // a split below the root points back at itself
        assert!(DecisionTree::from_nodes(config, &[split(1, 2), split(1, 3), leaf, leaf]).is_err());
        // both children of the root are one node
        assert!(DecisionTree::from_nodes(config, &[split(1, 1), leaf]).is_err());
        // an unfitted tree still round-trips
        assert!(DecisionTree::from_nodes(config, &[]).is_ok());
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
