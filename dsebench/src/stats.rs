//! Order statistics for the benchmark's reports: medians, quartiles and
//! the tail-percentile rule ("the highest percentile that still has at
//! least ten samples beyond it").

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, in per-mille, highest first.
const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `NaN` for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones a Python script
/// computes from the same values. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    // Integer arithmetic as in CPython; `delta` goes negative (or past
    // `n`) when the clamp extrapolates from the two end samples.
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *q = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median (the run-to-run spread
/// the benchmark is judged by).
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    Some((q3 - q1) / q2)
}

/// 1-based nearest rank of the `permille`/1000 quantile among `n`
/// samples.
fn nearest_rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest of p99.9, p99, p95, p90, p75 and p50 that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, in percent; `None` when even
/// the median does not (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERMILLE
        .into_iter()
        .find(|&pm| n > 0 && n - nearest_rank(pm, n) >= TAIL_MIN_BEYOND)
        .map(|pm| pm as f64 / 10.0)
}

/// Nearest-rank percentile (`pct` in percent) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let permille = (pct * 10.0).round() as usize;
    v[nearest_rank(permille, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&xs).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // ~120 jobs per serve pass: p95 leaves 6 beyond, p90 leaves 12.
        assert_eq!(tail_percentile(120), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..2000 {
            let pct = tail_percentile(n).unwrap();
            let rank = nearest_rank((pct * 10.0) as usize, n);
            assert!(n - rank >= TAIL_MIN_BEYOND, "n={n} p{pct}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 108.0);
        assert_eq!(percentile(&xs, 50.0), 60.0);
        assert_eq!(percentile(&[4.0, 9.0, 1.0], 90.0), 9.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
