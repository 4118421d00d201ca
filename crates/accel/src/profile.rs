//! Operand profiling: the probability mass functions `D_k` of paper
//! Section 2.2 and Fig. 3.
//!
//! Step 1 runs the exact software model on benchmark samples and records
//! every operand pair of every slot: the image accelerators histogram
//! their operand planes ([`crate::Dataflow::profile`]), scalar software
//! models report pairs through a [`PmfRecorder`]. The resulting [`Pmf`]s
//! drive the WMED score used for library pre-processing.

use crate::accelerator::OpObserver;
use autoax_exec::hash::IntMap;

/// Empirical joint distribution of one slot's operand pairs.
///
/// The counts live in an [`IntMap`]: profiling is almost all inserts.
/// Every reader is independent of the map's iteration order: sums run
/// over integer counts, and the probabilities come out sorted
/// ([`Pmf::top_mass`], [`Pmf::sorted_counts`]).
#[derive(Debug, Clone, Default)]
pub struct Pmf {
    counts: IntMap<(u32, u32), u64>,
    total: u64,
}

impl Pmf {
    /// New empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one operand pair.
    #[inline]
    pub fn add(&mut self, a: u32, b: u32) {
        *self.counts.entry((a, b)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct operand pairs.
    pub fn support_len(&self) -> usize {
        self.counts.len()
    }

    /// Probability of a specific pair.
    pub fn prob(&self, a: u32, b: u32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.counts.get(&(a, b)).unwrap_or(&0) as f64 / self.total as f64
    }

    /// Iterates over `((a, b), probability)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u32), f64)> + '_ {
        let t = self.total.max(1) as f64;
        self.counts.iter().map(move |(&k, &c)| (k, c as f64 / t))
    }

    /// The support sorted by descending probability, truncated to the
    /// smallest prefix covering at least `mass_frac` of the distribution.
    ///
    /// Library pre-processing uses this to bound the WMED cost on huge
    /// supports; its truncation point is `PreprocessOptions::mass_frac`
    /// in `autoax::preprocess` (default 0.999).
    pub fn top_mass(&self, mass_frac: f64) -> Vec<((u32, u32), f64)> {
        let mut items: Vec<((u32, u32), u64)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        items.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let t = self.total.max(1) as f64;
        let mut acc = 0.0;
        let mut out = Vec::new();
        for (k, c) in items {
            let p = c as f64 / t;
            out.push((k, p));
            acc += p;
            if acc >= mass_frac {
                break;
            }
        }
        out
    }

    /// Downsamples the joint distribution onto a `bins × bins` grid
    /// (row-major, normalized) for heat-map export (Fig. 3).
    ///
    /// Each bin sums its integer counts and divides once, so the grid
    /// does not depend on the order the counts are visited in.
    pub fn to_grid(&self, bins: usize, max_a: u32, max_b: u32) -> Vec<f64> {
        let mut counts = vec![0u64; bins * bins];
        for (&(a, b), &c) in &self.counts {
            let ia = ((a as usize * bins) / (max_a as usize + 1)).min(bins - 1);
            let ib = ((b as usize * bins) / (max_b as usize + 1)).min(bins - 1);
            counts[ia * bins + ib] += c;
        }
        let t = self.total.max(1) as f64;
        counts.into_iter().map(|c| c as f64 / t).collect()
    }

    /// The raw operand-pair counts in deterministic (sorted-key) order —
    /// the lossless serialization surface used by `autoax-store`.
    pub fn sorted_counts(&self) -> Vec<((u32, u32), u64)> {
        let mut v: Vec<((u32, u32), u64)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Rebuilds a distribution from raw counts (inverse of
    /// [`Pmf::sorted_counts`]; duplicate keys are summed).
    pub fn from_counts(counts: impl IntoIterator<Item = ((u32, u32), u64)>) -> Self {
        let mut pmf = Pmf::new();
        for ((a, b), c) in counts {
            *pmf.counts.entry((a, b)).or_insert(0) += c;
            pmf.total += c;
        }
        pmf
    }

    /// Merges another distribution into this one (summing counts).
    pub fn absorb(&mut self, other: Pmf) {
        for (k, c) in other.counts {
            *self.counts.entry(k).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Fraction of probability mass within `band` of the diagonal
    /// (`|a - b| <= band`) — the quantitative form of Fig. 3's visual
    /// "operand values are typically very close".
    pub fn diagonal_mass(&self, band: u32) -> f64 {
        let near: u64 = self
            .counts
            .iter()
            .filter(|(&(a, b), _)| a.abs_diff(b) <= band)
            .map(|(_, &c)| c)
            .sum();
        near as f64 / self.total.max(1) as f64
    }
}

/// Merges `next` into `acc` slot by slot: the fold over per-sample
/// profiles that a parallel Step-1 run reduces in input order.
pub fn absorb_slots(mut acc: Vec<Pmf>, next: Vec<Pmf>) -> Vec<Pmf> {
    for (a, b) in acc.iter_mut().zip(next) {
        a.absorb(b);
    }
    acc
}

/// An [`OpObserver`] that accumulates one [`Pmf`] per slot — the Step-1
/// profiling hook, public so non-image workloads (e.g. `autoax-nn`) can
/// drive their own exact runs through it.
#[derive(Debug, Clone)]
pub struct PmfRecorder {
    pmfs: Vec<Pmf>,
}

impl PmfRecorder {
    /// New recorder with one empty distribution per slot.
    pub fn new(slot_count: usize) -> Self {
        PmfRecorder {
            pmfs: (0..slot_count).map(|_| Pmf::new()).collect(),
        }
    }

    /// The accumulated per-slot distributions.
    pub fn into_pmfs(self) -> Vec<Pmf> {
        self.pmfs
    }
}

impl OpObserver for PmfRecorder {
    #[inline]
    fn record(&mut self, slot: usize, a: u64, b: u64) {
        self.pmfs[slot].add(a as u32, b as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_counts_and_probs() {
        let mut p = Pmf::new();
        p.add(1, 2);
        p.add(1, 2);
        p.add(3, 4);
        assert_eq!(p.total(), 3);
        assert_eq!(p.support_len(), 2);
        assert!((p.prob(1, 2) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.prob(9, 9), 0.0);
    }

    #[test]
    fn top_mass_truncates() {
        let mut p = Pmf::new();
        for _ in 0..98 {
            p.add(0, 0);
        }
        p.add(1, 1);
        p.add(2, 2);
        let top = p.top_mass(0.9);
        assert_eq!(top.len(), 1);
        let all = p.top_mass(1.0);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn diagonal_mass() {
        let mut p = Pmf::new();
        p.add(10, 11);
        p.add(10, 10);
        p.add(0, 200);
        p.add(5, 100);
        assert!((p.diagonal_mass(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn absorb_merges_counts_and_totals() {
        let mut a = Pmf::new();
        a.add(1, 2);
        a.add(1, 2);
        let mut b = Pmf::new();
        b.add(1, 2);
        b.add(3, 4);
        a.absorb(b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.support_len(), 2);
        assert!((a.prob(1, 2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn parallel_profile_equals_per_image_merge() {
        use crate::sobel::SobelEd;
        use crate::Accelerator;
        let accel = SobelEd::new();
        let df = accel.dataflow();
        let images = autoax_image::synthetic::benchmark_suite(3, 24, 16, 9);
        let par = df.profile(&images);
        // reference: profile each image alone and merge in order
        let mut seq: Vec<Pmf> = df.slots().iter().map(|_| Pmf::new()).collect();
        for img in &images {
            let one = df.profile(std::slice::from_ref(img));
            for (a, b) in seq.iter_mut().zip(one) {
                a.absorb(b);
            }
        }
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(seq.iter()) {
            assert_eq!(p.total(), s.total());
            assert_eq!(p.support_len(), s.support_len());
            for (k, prob) in p.iter() {
                assert!((prob - s.prob(k.0, k.1)).abs() < 1e-12, "{k:?}");
            }
        }
    }

    /// A 4×4 grid over operands `0..8`: each bin spans two values of
    /// each operand, and 8 samples make every probability a multiple of
    /// 1/8.
    #[test]
    fn grid_matches_hand_computed_bins() {
        let mut p = Pmf::new();
        for (a, b) in [
            (0, 0),
            (1, 1),
            (1, 0),
            (2, 3),
            (7, 7),
            (6, 7),
            (7, 0),
            (3, 2),
        ] {
            p.add(a, b);
        }
        let mut want = [0.0; 16];
        want[0] = 3.0 / 8.0; // (0,0) (1,1) (1,0)
        want[5] = 2.0 / 8.0; // (2,3) (3,2)
        want[15] = 2.0 / 8.0; // (7,7) (6,7)
        want[12] = 1.0 / 8.0; // (7,0)
        assert_eq!(p.to_grid(4, 7, 7), want);
    }

    /// The same counts inserted in any order give the same grid, bit for
    /// bit, whatever order each map iterates them in.
    #[test]
    fn grid_is_independent_of_insertion_order() {
        use autoax_exec::hash::splitmix64;
        let mut st = 7;
        let mut counts: Vec<((u32, u32), u64)> = (0..600)
            .map(|_| {
                let r = splitmix64(&mut st);
                let (a, b) = ((r & 0xFF) as u32, ((r >> 8) & 0xFF) as u32);
                ((a, b), 1 + (r >> 40) % 97)
            })
            .collect();
        let want: Vec<u64> = Pmf::from_counts(counts.clone())
            .to_grid(16, 255, 255)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for _ in 0..20 {
            // Fisher-Yates with the same stream
            for i in (1..counts.len()).rev() {
                counts.swap(i, (splitmix64(&mut st) % (i as u64 + 1)) as usize);
            }
            let got: Vec<u64> = Pmf::from_counts(counts.clone())
                .to_grid(16, 255, 255)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn grid_sums_to_one() {
        let mut p = Pmf::new();
        for i in 0..50u32 {
            p.add(i % 16, (i * 3) % 16);
        }
        let g = p.to_grid(8, 15, 15);
        let sum: f64 = g.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
