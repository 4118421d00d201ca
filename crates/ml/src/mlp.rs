//! A small multi-layer perceptron regressor (one ReLU hidden layer, Adam),
//! standing in for scikit-learn's `MLPRegressor`.

use crate::dataset::{shuffled_indices, Standardizer, TargetScaler};
use crate::engine::{Regressor, TrainError};
use crate::linalg::Matrix;
use autoax_exec::hash::splitmix64;

/// MLP regressor: `d -> hidden (ReLU) -> 1`, trained with Adam on MSE.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Hidden layer width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Initialization / shuffling seed.
    pub seed: u64,
    scaler: Option<Standardizer>,
    yscale: Option<TargetScaler>,
    w1: Vec<f64>, // hidden x d
    b1: Vec<f64>,
    w2: Vec<f64>, // hidden
    b2: f64,
}

impl Mlp {
    /// Defaults: 64 hidden units, 150 epochs, batch 32, lr 1e-3.
    pub fn new(seed: u64) -> Self {
        Mlp {
            hidden: 64,
            epochs: 150,
            batch: 32,
            learning_rate: 1e-3,
            seed,
            scaler: None,
            yscale: None,
            w1: Vec::new(),
            b1: Vec::new(),
            w2: Vec::new(),
            b2: 0.0,
        }
    }

    fn forward(&self, row: &[f64], hidden_out: &mut [f64]) -> f64 {
        let d = row.len();
        for (h, ho) in hidden_out.iter_mut().enumerate() {
            let mut z = self.b1[h];
            for (j, &xj) in row.iter().enumerate() {
                z += self.w1[h * d + j] * xj;
            }
            *ho = z.max(0.0); // ReLU
        }
        let mut out = self.b2;
        for (h, &ho) in hidden_out.iter().enumerate() {
            out += self.w2[h] * ho;
        }
        out
    }
}

struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: i32,
}

impl Adam {
    fn new(n: usize) -> Self {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t);
        let bc2 = 1.0 - B2.powi(self.t);
        for i in 0..params.len() {
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * grads[i];
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * grads[i] * grads[i];
            let mh = self.m[i] / bc1;
            let vh = self.v[i] / bc2;
            params[i] -= lr * mh / (vh.sqrt() + EPS);
        }
    }
}

impl Regressor for Mlp {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        let n = x.nrows();
        if n == 0 || n != y.len() {
            return Err(TrainError::new("invalid training set"));
        }
        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        let ys = TargetScaler::fit(y);
        let yt: Vec<f64> = y.iter().map(|&v| ys.scale(v)).collect();
        let d = xs.ncols();
        let h = self.hidden;

        // He initialization from a deterministic stream.
        let mut st = self.seed ^ 0x3317_0000_0000_0001;
        let mut next_gauss = || {
            // sum of 4 uniforms, roughly gaussian, scaled
            let mut s = 0.0;
            for _ in 0..4 {
                s += splitmix64(&mut st) as f64 / u64::MAX as f64;
            }
            (s - 2.0) * 1.732 // variance ~1
        };
        let scale1 = (2.0 / d as f64).sqrt();
        self.w1 = (0..h * d).map(|_| next_gauss() * scale1).collect();
        self.b1 = vec![0.0; h];
        let scale2 = (2.0 / h as f64).sqrt();
        self.w2 = (0..h).map(|_| next_gauss() * scale2).collect();
        self.b2 = 0.0;

        let mut adam_w1 = Adam::new(h * d);
        let mut adam_b1 = Adam::new(h);
        let mut adam_w2 = Adam::new(h);
        let mut adam_b2 = Adam::new(1);

        let mut g_w1 = vec![0.0; h * d];
        let mut g_b1 = vec![0.0; h];
        let mut g_w2 = vec![0.0; h];
        let mut g_b2 = vec![0.0; 1];
        let mut hidden_out = vec![0.0; h];

        for epoch in 0..self.epochs {
            let order = shuffled_indices(n, self.seed.wrapping_add(epoch as u64));
            for chunk in order.chunks(self.batch) {
                g_w1.iter_mut().for_each(|g| *g = 0.0);
                g_b1.iter_mut().for_each(|g| *g = 0.0);
                g_w2.iter_mut().for_each(|g| *g = 0.0);
                g_b2[0] = 0.0;
                for &i in chunk {
                    let row = xs.row(i);
                    let pred = self.forward(row, &mut hidden_out);
                    let err = pred - yt[i];
                    // output layer grads
                    for (hh, &ho) in hidden_out.iter().enumerate() {
                        g_w2[hh] += err * ho;
                        if ho > 0.0 {
                            let back = err * self.w2[hh];
                            g_b1[hh] += back;
                            for (j, &xj) in row.iter().enumerate() {
                                g_w1[hh * d + j] += back * xj;
                            }
                        }
                    }
                    g_b2[0] += err;
                }
                let bs = chunk.len() as f64;
                g_w1.iter_mut().for_each(|g| *g /= bs);
                g_b1.iter_mut().for_each(|g| *g /= bs);
                g_w2.iter_mut().for_each(|g| *g /= bs);
                g_b2[0] /= bs;
                adam_w1.step(&mut self.w1, &g_w1, self.learning_rate);
                adam_b1.step(&mut self.b1, &g_b1, self.learning_rate);
                adam_w2.step(&mut self.w2, &g_w2, self.learning_rate);
                let mut b2 = [self.b2];
                adam_b2.step(&mut b2, &g_b2, self.learning_rate);
                self.b2 = b2[0];
            }
        }
        self.scaler = Some(scaler);
        self.yscale = Some(ys);
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let (Some(s), Some(ys)) = (&self.scaler, &self.yscale) else {
            return 0.0;
        };
        let xr = s.transform_row(row);
        let mut hidden = vec![0.0; self.hidden];
        ys.unscale(self.forward(&xr, &mut hidden))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::fidelity;

    #[test]
    fn learns_nonlinear_function() {
        let rows: Vec<Vec<f64>> = (0..256)
            .map(|i| vec![(i % 16) as f64 / 15.0, (i / 16) as f64 / 15.0])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (r[0] * 3.0).sin() + r[1] * r[1])
            .collect();
        let x = Matrix::from_rows(&rows);
        let mut m = Mlp::new(0);
        m.epochs = 80;
        m.fit(&x, &y).unwrap();
        let preds: Vec<f64> = x.rows_iter().map(|r| m.predict_row(r)).collect();
        let f = fidelity(&preds, &y).unwrap();
        assert!(f > 0.85, "MLP fidelity {f}");
    }

    #[test]
    fn deterministic_given_seed() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 63.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut m1 = Mlp::new(5);
        let mut m2 = Mlp::new(5);
        m1.epochs = 10;
        m2.epochs = 10;
        m1.fit(&x, &y).unwrap();
        m2.fit(&x, &y).unwrap();
        assert_eq!(m1.predict_row(&[0.4]), m2.predict_row(&[0.4]));
    }

    #[test]
    fn predictions_are_finite() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 * 1e4]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 0.5).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = Mlp::new(1);
        m.epochs = 20;
        m.fit(&x, &y).unwrap();
        assert!(m.predict_row(&[123456.0]).is_finite());
    }
}
