//! Feature standardization and train/test utilities shared by the engines.

use crate::linalg::Matrix;
use autoax_exec::hash::splitmix64;

/// Per-column standardization (zero mean, unit variance) fitted on
/// training data and applied to new rows.
#[derive(Debug, Clone)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits on the columns of `x`. Constant columns get `std = 1` so they
    /// map to zero instead of NaN.
    pub fn fit(x: &Matrix) -> Self {
        let n = x.nrows() as f64;
        let d = x.ncols();
        let mut means = vec![0.0; d];
        for row in x.rows_iter() {
            for (m, &v) in means.iter_mut().zip(row.iter()) {
                *m += v;
            }
        }
        for m in means.iter_mut() {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for row in x.rows_iter() {
            for ((s, &v), m) in vars.iter_mut().zip(row.iter()).zip(means.iter()) {
                let dlt = v - m;
                *s += dlt * dlt;
            }
        }
        let stds: Vec<f64> = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Standardizer { means, stds }
    }

    /// Standardizes one row.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(self.means.iter())
            .zip(self.stds.iter())
            .map(|((&v, m), s)| (v - m) / s)
            .collect()
    }

    /// Standardizes a whole matrix.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        let rows: Vec<Vec<f64>> = x.rows_iter().map(|r| self.transform_row(r)).collect();
        Matrix::from_rows(&rows)
    }

    /// Per-column means (serialization hook).
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column standard deviations (serialization hook).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Rebuilds a standardizer from stored parts.
    pub fn from_parts(means: Vec<f64>, stds: Vec<f64>) -> Self {
        assert_eq!(means.len(), stds.len(), "mean/std length mismatch");
        Standardizer { means, stds }
    }
}

/// Scalar standardization for targets.
#[derive(Debug, Clone, Copy)]
pub struct TargetScaler {
    mean: f64,
    std: f64,
}

impl TargetScaler {
    /// Fits mean/std of `y` (constant targets get `std = 1`).
    pub fn fit(y: &[f64]) -> Self {
        let n = y.len() as f64;
        let mean = y.iter().sum::<f64>() / n;
        let var = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let std = var.sqrt();
        TargetScaler {
            mean,
            std: if std < 1e-12 { 1.0 } else { std },
        }
    }

    /// Maps a raw target into standardized space.
    pub fn scale(&self, v: f64) -> f64 {
        (v - self.mean) / self.std
    }

    /// Maps a standardized prediction back to the raw scale.
    pub fn unscale(&self, v: f64) -> f64 {
        v * self.std + self.mean
    }

    /// The fitted `(mean, std)` pair (serialization hook).
    pub fn parts(&self) -> (f64, f64) {
        (self.mean, self.std)
    }

    /// Rebuilds a scaler from stored parts.
    pub fn from_parts(mean: f64, std: f64) -> Self {
        TargetScaler { mean, std }
    }
}

/// Deterministic index shuffle (Fisher–Yates with a SplitMix64 stream).
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut st = seed ^ 0x517C_C1B7_2722_0A95;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut st) % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizer_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]]);
        let s = Standardizer::fit(&x);
        let t = s.transform(&x);
        for c in 0..2 {
            let col = t.col(c);
            let mean: f64 = col.iter().sum::<f64>() / 3.0;
            let var: f64 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_column_is_safe() {
        let x = Matrix::from_rows(&[vec![7.0], vec![7.0], vec![7.0]]);
        let s = Standardizer::fit(&x);
        let t = s.transform(&x);
        assert!(t.col(0).iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn target_scaler_roundtrip() {
        let y = [2.0, 4.0, 6.0, 8.0];
        let s = TargetScaler::fit(&y);
        for &v in &y {
            assert!((s.unscale(s.scale(v)) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn shuffle_is_permutation_and_deterministic() {
        let a = shuffled_indices(100, 5);
        let b = shuffled_indices(100, 5);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(a, shuffled_indices(100, 6));
    }
}
