//! Small shared helpers: bit masks and deterministic stimulus generation.

/// Returns a mask with the lowest `w` bits set (`w == 64` returns all ones).
///
/// ```
/// assert_eq!(autoax_circuit::util::mask(8), 0xFF);
/// assert_eq!(autoax_circuit::util::mask(0), 0);
/// ```
#[inline]
pub const fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

pub use autoax_exec::hash::splitmix64;

/// Deterministic stream of operand pairs for an `(wa, wb)`-bit binary
/// operation, seeded by `seed`.
///
/// The stream mixes uniform pairs with "correlated" pairs (`b` near `a`),
/// because image workloads produce strongly correlated operands (paper
/// Fig. 3) and characterization should exercise that regime too.
pub fn stimulus_pairs(wa: u32, wb: u32, n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut st = seed ^ 0xA076_1D64_78BD_642F;
    let ma = mask(wa);
    let mb = mask(wb);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let r = splitmix64(&mut st);
        let a = r & ma;
        let b = if i % 4 == 3 {
            // Correlated pair: b = a + small signed delta.
            let delta = ((splitmix64(&mut st) & 0x1F) as i64) - 16;
            ((a as i64 + delta).rem_euclid((mb as i64) + 1)) as u64
        } else {
            (r >> 32) & mb
        };
        out.push((a, b & mb));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_edges() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(16), 0xFFFF);
        assert_eq!(mask(63), u64::MAX >> 1);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn splitmix_deterministic() {
        let mut a = 7;
        let mut b = 7;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn stimulus_pairs_in_range_and_deterministic() {
        let p1 = stimulus_pairs(8, 8, 1000, 3);
        let p2 = stimulus_pairs(8, 8, 1000, 3);
        assert_eq!(p1, p2);
        for (a, b) in &p1 {
            assert!(*a <= 255 && *b <= 255);
        }
        let p3 = stimulus_pairs(8, 8, 1000, 4);
        assert_ne!(p1, p3);
    }
}
