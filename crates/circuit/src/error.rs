//! Error characterization of approximate circuits.
//!
//! Every library circuit is "fully characterized" (paper Section 1) with
//! the standard error metrics of the approximate-computing literature:
//! mean absolute error (MAE / MED), worst-case error (WCE), error rate
//! (ER), mean squared error (MSE), error-distance variance, and mean
//! relative error (MRE). The application-specific weighted mean error
//! distance (WMED, paper Section 2.2) is computed later against a profiled
//! probability mass function by `autoax::wmed`.
//!
//! # Exactness
//!
//! [`ErrorStats`] sums the error count, Σ|e|, Σe and Σe² exactly in
//! integers (Σe² in 128 bits; Σ|e| ≤ Σe², so the 64-bit Σ|e| and Σe are
//! exact while Σe² < 2^64) and converts each sum to `f64` once, in
//! [`ErrorStats::finish`]. Whenever Σe² stays below 2^53, every term and
//! every partial sum of the three sums is an integer that `f64` holds
//! exactly, so the metrics are bit-equal to summing the terms one by one
//! in `f64`, in any order. Every shipped library configuration is far
//! inside that bound: its worst case, a 16-bit class at 16,384 samples or
//! the 8-bit multipliers exhaustively, keeps Σe² below 2^48. Only the
//! relative-error sum Σ|e|/max(1, exact) is an `f64` sum, taken in push
//! order and without a branch: a zero term adds +0.0, which leaves the
//! non-negative sum unchanged.

/// Aggregate error metrics of one approximate circuit relative to the
/// exact function of its class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorMetrics {
    /// Mean absolute error distance (MED).
    pub mae: f64,
    /// Worst-case absolute error observed.
    pub wce: u64,
    /// Fraction of inputs with a non-zero error.
    pub er: f64,
    /// Mean squared error distance.
    pub mse: f64,
    /// Variance of the signed error distance.
    pub var_ed: f64,
    /// Mean relative error (|err| / max(1, exact)).
    pub mre: f64,
    /// Number of samples the metrics were computed from.
    pub samples: u64,
}

impl ErrorMetrics {
    /// True when the circuit made no error on any characterized input.
    pub fn is_exact(&self) -> bool {
        self.wce == 0
    }
}

/// Streaming accumulator for [`ErrorMetrics`], exact in integers (see
/// [the module docs](self#exactness)).
///
/// ```
/// use autoax_circuit::error::ErrorStats;
/// let mut s = ErrorStats::new();
/// s.push(0, 10);
/// s.push(-2, 10);
/// let m = s.finish();
/// assert_eq!(m.wce, 2);
/// assert_eq!(m.er, 0.5);
/// assert_eq!(m.mae, 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ErrorStats {
    n: u64,
    n_err: u64,
    sum_abs: u64,
    sum_signed: i64,
    sum_sq: u128,
    sum_rel: f64,
    max_abs: u64,
}

impl ErrorStats {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample: the signed error and the exact result magnitude
    /// (used for the relative-error metric).
    #[inline]
    pub fn push(&mut self, err: i64, exact_magnitude: u64) {
        let abs = err.unsigned_abs();
        self.n += 1;
        self.n_err += u64::from(abs != 0);
        self.sum_abs += abs;
        self.sum_signed += err;
        self.sum_sq += u128::from(abs) * u128::from(abs);
        // `|err as f64|` is `abs as f64`: rounding to nearest is symmetric.
        self.sum_rel += (err as f64).abs() / exact_magnitude.max(1) as f64;
        self.max_abs = self.max_abs.max(abs);
    }

    /// Number of samples recorded so far.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Finalizes the metrics.
    ///
    /// Returns all-zero metrics when no samples were recorded.
    pub fn finish(self) -> ErrorMetrics {
        if self.n == 0 {
            return ErrorMetrics::default();
        }
        let n = self.n as f64;
        let (sum_abs, sum_sq) = (self.sum_abs as f64, self.sum_sq as f64);
        let mean_signed = self.sum_signed as f64 / n;
        ErrorMetrics {
            mae: sum_abs / n,
            wce: self.max_abs,
            er: self.n_err as f64 / n,
            mse: sum_sq / n,
            var_ed: (sum_sq / n - mean_signed * mean_signed).max(0.0),
            mre: self.sum_rel / n,
            samples: self.n,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::util::{mask, splitmix64};
    use proptest::prelude::*;

    /// The accumulator the integer sums replaced, kept as the oracle:
    /// every sum taken term by term in `f64`.
    #[derive(Default)]
    pub(crate) struct SequentialStats {
        n: u64,
        n_err: u64,
        sum_abs: f64,
        sum_signed: f64,
        sum_sq: f64,
        sum_rel: f64,
        max_abs: u64,
    }

    impl SequentialStats {
        pub(crate) fn push(&mut self, err: i64, exact_magnitude: u64) {
            let abs = err.unsigned_abs();
            self.n += 1;
            if abs != 0 {
                self.n_err += 1;
            }
            self.sum_abs += abs as f64;
            self.sum_signed += err as f64;
            self.sum_sq += (err as f64) * (err as f64);
            self.sum_rel += abs as f64 / (exact_magnitude.max(1) as f64);
            self.max_abs = self.max_abs.max(abs);
        }

        pub(crate) fn finish(self) -> ErrorMetrics {
            if self.n == 0 {
                return ErrorMetrics::default();
            }
            let n = self.n as f64;
            let mean_signed = self.sum_signed / n;
            ErrorMetrics {
                mae: self.sum_abs / n,
                wce: self.max_abs,
                er: self.n_err as f64 / n,
                mse: self.sum_sq / n,
                var_ed: (self.sum_sq / n - mean_signed * mean_signed).max(0.0),
                mre: self.sum_rel / n,
                samples: self.n,
            }
        }
    }

    /// Every field of the metrics, the floats by their bits.
    pub(crate) fn metric_bits(m: &ErrorMetrics) -> [u64; 7] {
        [
            m.mae.to_bits(),
            m.wce,
            m.er.to_bits(),
            m.mse.to_bits(),
            m.var_ed.to_bits(),
            m.mre.to_bits(),
            m.samples,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Inside the 2^53 bound the integer sums are the sequential `f64`
        /// sums, bit for bit: streams of up to 400 errors below 2^`bits`
        /// in magnitude (zeros and both signs mixed in), each stream short
        /// enough that Σe² < 2^53, so the widest take one or two samples.
        #[test]
        fn integer_sums_equal_sequential_f64_sums(
            bits in 0u32..27,
            len in 1usize..400,
            seed in any::<u64>(),
        ) {
            let len = len.min(1 << (53 - 2 * bits).min(20));
            let mut st = seed;
            let (mut exact, mut oracle) = (ErrorStats::new(), SequentialStats::default());
            for _ in 0..len {
                let r = splitmix64(&mut st);
                let magnitude = (r & mask(bits)) as i64;
                let err = match r >> 62 {
                    0 => 0,
                    1 => -magnitude,
                    _ => magnitude,
                };
                let exact_magnitude = splitmix64(&mut st) >> ((r >> 58) & 63);
                exact.push(err, exact_magnitude);
                oracle.push(err, exact_magnitude);
            }
            prop_assert!(exact.sum_sq < 1 << 53);
            prop_assert_eq!(metric_bits(&exact.finish()), metric_bits(&oracle.finish()));
        }
    }

    #[test]
    fn empty_stats_are_zero() {
        let m = ErrorStats::new().finish();
        assert_eq!(m.mae, 0.0);
        assert_eq!(m.wce, 0);
        assert_eq!(m.samples, 0);
        assert!(m.is_exact());
    }

    #[test]
    fn exact_circuit_metrics() {
        let mut s = ErrorStats::new();
        for _ in 0..100 {
            s.push(0, 5);
        }
        let m = s.finish();
        assert!(m.is_exact());
        assert_eq!(m.er, 0.0);
        assert_eq!(m.mse, 0.0);
        assert_eq!(m.var_ed, 0.0);
    }

    #[test]
    fn mixed_errors() {
        let mut s = ErrorStats::new();
        s.push(3, 10);
        s.push(-3, 10);
        s.push(0, 10);
        s.push(0, 10);
        let m = s.finish();
        assert_eq!(m.mae, 1.5);
        assert_eq!(m.wce, 3);
        assert_eq!(m.er, 0.5);
        assert_eq!(m.mse, 4.5);
        // signed mean is 0 so variance == mse
        assert_eq!(m.var_ed, 4.5);
        assert!((m.mre - 0.15).abs() < 1e-12);
    }

    #[test]
    fn wce_dominates_mae() {
        let mut s = ErrorStats::new();
        for e in [1i64, -2, 5, 0, 3] {
            s.push(e, 100);
        }
        let m = s.finish();
        assert!(m.wce as f64 >= m.mae);
    }

    #[test]
    fn relative_error_guard_against_zero_exact() {
        let mut s = ErrorStats::new();
        s.push(4, 0); // exact result is zero; MRE uses max(1, exact)
        let m = s.finish();
        assert_eq!(m.mre, 4.0);
    }
}
