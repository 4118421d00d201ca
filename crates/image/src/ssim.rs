//! Structural similarity index (SSIM), Wang et al. 2004 — the QoR metric of
//! the paper.
//!
//! Implemented with the standard parameters: an 11×11 Gaussian window with
//! σ = 1.5, K1 = 0.01, K2 = 0.03, dynamic range L = 255. The windowed
//! statistics are computed with separable Gaussian filtering over `f64`
//! planes, by one register-blocked kernel (`filter_block`): eight
//! adjacent outputs of every plane at a time, their accumulators held in
//! registers. A comparison builds edge-replicated rows of `a`, `a²` and
//! `a·b` once per row and filters them horizontally into three planes;
//! the vertical pass then filters the three planes one output row at a
//! time, forms the row's SSIM terms and adds them to the total in raster
//! order, so no vertically filtered plane is ever stored.
//! [`SsimReference::new`] filters `b` and `b²` with the same kernel.
//!
//! Every filtered value still sums its 11 taps in tap order from `0.0`,
//! products of `u8` values are exact in `f64`, and Rust never contracts a
//! multiply and an add into an FMA, so the result is bit-identical to a
//! pixel-outer, tap-inner filter with every index clamped, on either
//! compiled path: the comparison body is compiled once for the baseline
//! target and once with AVX2 enabled (no FMA), picked at run time. On a
//! 2-core AVX2 Xeon VM, one comparison against a prebuilt reference
//! took 71–124 µs at 96×64 and 44–68 µs at 64×48 on the AVX2 path
//! (16 timed repeats each).

use crate::image::GrayImage;

const K1: f64 = 0.01;
const K2: f64 = 0.03;
const L: f64 = 255.0;
const WINDOW_RADIUS: usize = 5;
/// Taps of the Gaussian window.
const TAPS: usize = 2 * WINDOW_RADIUS + 1;
/// Adjacent outputs per kernel block: two AVX2 registers of `f64` per
/// plane.
const LANES: usize = 8;

/// The 11-tap Gaussian window (σ = 1.5), normalized to sum 1.
fn gaussian_taps() -> [f64; TAPS] {
    let sigma = 1.5f64;
    let mut taps = [0.0; TAPS];
    let mut sum = 0.0;
    for (i, t) in taps.iter_mut().enumerate() {
        let d = i as f64 - WINDOW_RADIUS as f64;
        *t = (-d * d / (2.0 * sigma * sigma)).exp();
        sum += *t;
    }
    for t in taps.iter_mut() {
        *t /= sum;
    }
    taps
}

/// The row stride of every filtered plane: `width` rounded up to whole
/// blocks. The columns past `width` hold values no result reads.
fn stride(width: usize) -> usize {
    width.div_ceil(LANES) * LANES
}

/// The filter kernel: [`LANES`] adjacent outputs of each of `P` planes.
/// Output `j` of plane `p` is `Σ_k taps[k] · src(p, k)[j]`, accumulated
/// in tap order from `0.0`.
#[inline(always)]
fn filter_block<'s, const P: usize>(
    taps: &[f64; TAPS],
    src: impl Fn(usize, usize) -> &'s [f64],
) -> [[f64; LANES]; P] {
    let mut acc = [[0.0; LANES]; P];
    for (k, &t) in taps.iter().enumerate() {
        for (p, acc) in acc.iter_mut().enumerate() {
            let row: &[f64; LANES] = src(p, k)[..LANES].try_into().expect("a whole block");
            for (o, &v) in acc.iter_mut().zip(row) {
                *o += t * v;
            }
        }
    }
    acc
}

/// The source column of padded position `i` in a row of `width` pixels:
/// the first and last pixels are replicated past each end.
#[inline(always)]
fn clamped(i: usize, width: usize) -> usize {
    i.saturating_sub(WINDOW_RADIUS).min(width - 1)
}

/// Horizontal pass over `P` planes of `width × height`. For each row,
/// `fill(y, rows)` writes the `P` edge-replicated source rows
/// (`rows[p][i]` is the plane's value at column [`clamped`]`(i)`); the
/// kernel filters them into `P` planes of [`stride`]` × height`.
#[inline(always)]
fn filter_rows<const P: usize>(
    taps: &[f64; TAPS],
    width: usize,
    height: usize,
    mut fill: impl FnMut(usize, &mut [Vec<f64>; P]),
) -> [Vec<f64>; P] {
    let s = stride(width);
    let mut rows: [Vec<f64>; P] = std::array::from_fn(|_| vec![0.0; s + 2 * WINDOW_RADIUS]);
    let mut planes: [Vec<f64>; P] = std::array::from_fn(|_| vec![0.0; s * height]);
    for y in 0..height {
        fill(y, &mut rows);
        for x0 in (0..s).step_by(LANES) {
            let acc = filter_block::<P>(taps, |p, k| &rows[p][x0 + k..]);
            for (plane, acc) in planes.iter_mut().zip(&acc) {
                plane[y * s + x0..][..LANES].copy_from_slice(acc);
            }
        }
    }
    planes
}

/// Vertical pass for output row `y`: filters the 11 rows of each of `P`
/// planes of `height` rows (row `y + k - r`, clamped to the image) into
/// the `P` rows of `out`, whose length is the planes' row stride.
#[inline(always)]
fn filter_column<const P: usize>(
    taps: &[f64; TAPS],
    planes: &[Vec<f64>; P],
    y: usize,
    height: usize,
    mut out: [&mut [f64]; P],
) {
    let s = out[0].len();
    let rows: [usize; TAPS] =
        std::array::from_fn(|k| (y + k).saturating_sub(WINDOW_RADIUS).min(height - 1) * s);
    for x0 in (0..s).step_by(LANES) {
        let acc = filter_block::<P>(taps, |p, k| &planes[p][rows[k] + x0..]);
        for (row, acc) in out.iter_mut().zip(&acc) {
            row[x0..][..LANES].copy_from_slice(acc);
        }
    }
}

/// The golden side of SSIM, precomputed once: the reference image plus
/// its Gaussian-filtered mean `μ_b` and second moment `E[b²]`.
///
/// QoR evaluation compares many approximate outputs against one fixed
/// exact output, so filtering the golden planes once saves two of the
/// five filters of every comparison. The reference costs 16 bytes per
/// pixel (of the width rounded up to a multiple of 8) on top of the
/// image.
#[derive(Debug, Clone)]
pub struct SsimReference {
    image: GrayImage,
    taps: [f64; TAPS],
    mu_b: Vec<f64>,
    m_b2: Vec<f64>,
}

impl SsimReference {
    /// Precomputes the reference statistics of `golden`.
    pub fn new(golden: &GrayImage) -> Self {
        let (w, h) = (golden.width(), golden.height());
        let s = stride(w);
        let taps = gaussian_taps();
        let data = golden.data();
        let planes = filter_rows::<2>(&taps, w, h, |y, [b, b2]| {
            let row = &data[y * w..(y + 1) * w];
            for (i, (b, b2)) in b.iter_mut().zip(b2.iter_mut()).enumerate() {
                let v = row[clamped(i, w)] as f64;
                (*b, *b2) = (v, v * v);
            }
        });
        let (mut mu_b, mut m_b2) = (vec![0.0; s * h], vec![0.0; s * h]);
        let rows = mu_b.chunks_exact_mut(s).zip(m_b2.chunks_exact_mut(s));
        for (y, (mu, m2)) in rows.enumerate() {
            filter_column(&taps, &planes, y, h, [mu, m2]);
        }
        SsimReference {
            image: golden.clone(),
            taps,
            mu_b,
            m_b2,
        }
    }

    /// Mean SSIM of `a` against the reference image.
    ///
    /// Returns a value in `(-1, 1]`; `1.0` iff the images are identical.
    ///
    /// # Panics
    /// Panics if `a` and the reference have different dimensions.
    pub fn ssim(&self, a: &GrayImage) -> f64 {
        assert_eq!(a.width(), self.image.width(), "SSIM requires equal widths");
        assert_eq!(
            a.height(),
            self.image.height(),
            "SSIM requires equal heights"
        );
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked on the line above.
            return unsafe { self.ssim_avx2(a) };
        }
        self.ssim_baseline(a)
    }

    /// [`SsimReference::ssim_baseline`] compiled with AVX2 enabled: the
    /// same operations in the same order, so the same bits.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn ssim_avx2(&self, a: &GrayImage) -> f64 {
        self.ssim_baseline(a)
    }

    /// The comparison body, for images of the reference's dimensions.
    #[inline(always)]
    fn ssim_baseline(&self, a: &GrayImage) -> f64 {
        let (w, h) = (a.width(), a.height());
        let s = stride(w);
        let (ad, bd) = (a.data(), self.image.data());
        let planes = filter_rows::<3>(&self.taps, w, h, |y, [ra, ra2, rab]| {
            let (arow, brow) = (&ad[y * w..(y + 1) * w], &bd[y * w..(y + 1) * w]);
            for (i, ((a, a2), ab)) in ra.iter_mut().zip(ra2.iter_mut()).zip(rab).enumerate() {
                let x = clamped(i, w);
                let v = arow[x] as f64;
                (*a, *a2, *ab) = (v, v * v, v * brow[x] as f64);
            }
        });

        // one row of μ_a, E[a²], E[ab], then of SSIM terms: the terms are
        // formed in a loop of their own, which vectorizes, and summed in
        // raster order
        let [mut mu_a, mut m_a2, mut m_ab] = [(); 3].map(|_| vec![0.0; s]);
        let mut terms = vec![0.0; s];
        let c1 = (K1 * L) * (K1 * L);
        let c2 = (K2 * L) * (K2 * L);
        let mut total = 0.0;
        for y in 0..h {
            let out = [&mut mu_a[..], &mut m_a2[..], &mut m_ab[..]];
            filter_column(&self.taps, &planes, y, h, out);
            let (mu_a, m_a2, m_ab) = (&mu_a[..s], &m_a2[..s], &m_ab[..s]);
            let (mu_b, m_b2) = (&self.mu_b[y * s..][..s], &self.m_b2[y * s..][..s]);
            for (x, term) in terms[..s].iter_mut().enumerate() {
                let (ma, mb) = (mu_a[x], mu_b[x]);
                let va = (m_a2[x] - ma * ma).max(0.0);
                let vb = (m_b2[x] - mb * mb).max(0.0);
                let cov = m_ab[x] - ma * mb;
                *term = ((2.0 * ma * mb + c1) * (2.0 * cov + c2))
                    / ((ma * ma + mb * mb + c1) * (va + vb + c2));
            }
            for &term in &terms[..w] {
                total += term;
            }
        }
        total / (w * h) as f64
    }
}

/// Mean SSIM between two images of identical dimensions:
/// `SsimReference::new(b).ssim(a)`.
///
/// Returns a value in `(-1, 1]`; `1.0` iff the images are identical.
///
/// # Panics
/// Panics if the images have different dimensions.
pub fn ssim(a: &GrayImage, b: &GrayImage) -> f64 {
    SsimReference::new(b).ssim(a)
}

/// Tiny deterministic signed-noise helper for tests (kept out of the public
/// API surface).
#[doc(hidden)]
pub fn synthetic_test_noise(state: &mut u64, amount: i32) -> i32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let r = (*state >> 33) as i32;
    (r % (2 * amount + 1)) - amount
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The two-sided SSIM as it was before [`SsimReference`]: five
    /// pixel-outer, tap-inner filters with every index clamped. The
    /// property test below holds the production code to it bit for bit.
    fn oracle_ssim(a: &GrayImage, b: &GrayImage) -> f64 {
        assert_eq!(a.width(), b.width(), "SSIM requires equal widths");
        assert_eq!(a.height(), b.height(), "SSIM requires equal heights");
        let (w, h) = (a.width(), a.height());
        let n = w * h;
        let ap: Vec<f64> = a.data().iter().map(|&p| p as f64).collect();
        let bp: Vec<f64> = b.data().iter().map(|&p| p as f64).collect();
        let a2: Vec<f64> = ap.iter().map(|v| v * v).collect();
        let b2: Vec<f64> = bp.iter().map(|v| v * v).collect();
        let ab: Vec<f64> = ap.iter().zip(bp.iter()).map(|(x, y)| x * y).collect();

        let mu_a = oracle_gauss_filter(&ap, w, h);
        let mu_b = oracle_gauss_filter(&bp, w, h);
        let m_a2 = oracle_gauss_filter(&a2, w, h);
        let m_b2 = oracle_gauss_filter(&b2, w, h);
        let m_ab = oracle_gauss_filter(&ab, w, h);

        let c1 = (K1 * L) * (K1 * L);
        let c2 = (K2 * L) * (K2 * L);
        let mut total = 0.0;
        for i in 0..n {
            let (ma, mb) = (mu_a[i], mu_b[i]);
            let va = (m_a2[i] - ma * ma).max(0.0);
            let vb = (m_b2[i] - mb * mb).max(0.0);
            let cov = m_ab[i] - ma * mb;
            let s = ((2.0 * ma * mb + c1) * (2.0 * cov + c2))
                / ((ma * ma + mb * mb + c1) * (va + vb + c2));
            total += s;
        }
        total / n as f64
    }

    fn oracle_gauss_filter(plane: &[f64], width: usize, height: usize) -> Vec<f64> {
        let taps = gaussian_taps();
        let r = WINDOW_RADIUS as isize;
        let mut tmp = vec![0.0f64; width * height];
        for y in 0..height {
            let row = &plane[y * width..(y + 1) * width];
            for x in 0..width {
                let mut acc = 0.0;
                for (k, &t) in taps.iter().enumerate() {
                    let xx = (x as isize + k as isize - r).clamp(0, width as isize - 1) as usize;
                    acc += t * row[xx];
                }
                tmp[y * width + x] = acc;
            }
        }
        let mut out = vec![0.0f64; width * height];
        for y in 0..height {
            for x in 0..width {
                let mut acc = 0.0;
                for (k, &t) in taps.iter().enumerate() {
                    let yy = (y as isize + k as isize - r).clamp(0, height as isize - 1) as usize;
                    acc += t * tmp[yy * width + x];
                }
                out[y * width + x] = acc;
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sizes straddle the 11-tap window (narrower, equal, wider), and
        /// single rows and columns clamp every tap of one pass to one
        /// pixel; `noise` of `None` draws two independent random images,
        /// `Some(n)` a copy of `b` with up to ±n of noise (0 gives
        /// identical images).
        #[test]
        fn reference_ssim_is_bit_identical_to_the_two_sided_oracle(
            (w, h) in prop_oneof![
                (1usize..=40, 1usize..=40),
                (Just(1usize), 1usize..=97),
                (1usize..=97, Just(1usize)),
            ],
            seed in any::<u64>(),
            noise in prop_oneof![Just(None), (0i32..=48).prop_map(Some)],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let b = GrayImage::from_fn(w, h, |_, _| rng.gen::<u8>());
            let a = match noise {
                None => GrayImage::from_fn(w, h, |_, _| rng.gen::<u8>()),
                Some(amount) => GrayImage::from_fn(w, h, |x, y| {
                    let r = rng.gen_range(-amount..=amount);
                    (b.get(x, y) as i32 + r).clamp(0, 255) as u8
                }),
            };
            let want = oracle_ssim(&a, &b).to_bits();
            let reference = SsimReference::new(&b);
            prop_assert_eq!(reference.ssim_baseline(&a).to_bits(), want, "baseline {}x{}", w, h);
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU supports AVX2, checked on the line above.
                let avx2 = unsafe { reference.ssim_avx2(&a) };
                prop_assert_eq!(avx2.to_bits(), want, "AVX2 {}x{}", w, h);
            }
            prop_assert_eq!(reference.ssim(&a).to_bits(), want, "{}x{}", w, h);
            prop_assert_eq!(ssim(&a, &b).to_bits(), want, "{}x{}", w, h);
        }
    }

    #[test]
    fn identical_images_score_one() {
        let img = synthetic::natural_proxy(64, 48, 5);
        assert!((ssim(&img, &img) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ssim_is_symmetric() {
        let a = synthetic::natural_proxy(64, 48, 5);
        let b = synthetic::value_noise(64, 48, 6, 4);
        assert!((ssim(&a, &b) - ssim(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn small_noise_scores_high_heavy_noise_scores_lower() {
        let img = synthetic::natural_proxy(96, 64, 7);
        let perturb = |amount: i32, seed: u64| {
            let mut st = seed;
            GrayImage::from_fn(img.width(), img.height(), |x, y| {
                let r = synthetic_test_noise(&mut st, amount);
                (img.get(x, y) as i32 + r).clamp(0, 255) as u8
            })
        };
        let light = perturb(2, 1);
        let heavy = perturb(60, 2);
        let s_light = ssim(&img, &light);
        let s_heavy = ssim(&img, &heavy);
        assert!(s_light > 0.95, "light noise: {s_light}");
        assert!(s_heavy < s_light, "heavy {s_heavy} !< light {s_light}");
        assert!(s_heavy < 0.8, "heavy noise should hurt: {s_heavy}");
    }

    #[test]
    fn constant_shift_scores_below_one() {
        let img = synthetic::natural_proxy(64, 48, 8);
        let shifted = GrayImage::from_fn(img.width(), img.height(), |x, y| {
            img.get(x, y).saturating_add(40)
        });
        let s = ssim(&img, &shifted);
        assert!(s < 0.999 && s > 0.0);
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn dimension_mismatch_panics() {
        let a = GrayImage::new(4, 4);
        let b = GrayImage::new(5, 4);
        let _ = ssim(&a, &b);
    }

    #[test]
    #[should_panic(expected = "equal heights")]
    fn reference_rejects_a_size_mismatch() {
        let golden = SsimReference::new(&GrayImage::new(4, 5));
        let _ = golden.ssim(&GrayImage::new(4, 4));
    }
}
