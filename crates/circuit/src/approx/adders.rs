//! Approximate adder families: truncation, LOA, ETA-I (XOR lower part),
//! ACA, GeAr, QuAd-style segmentation and per-bit approximate-cell ripple
//! adders.
//!
//! All variants take two `w`-bit operands and produce a `w+1`-bit result
//! (matching the exact adder interface), so they are drop-in replacements
//! inside an accelerator.

use super::cells::FaCell;
use crate::arith;
use crate::netlist::{Bus, Netlist};
use crate::util::mask;
use std::sync::Arc;

/// The adder variants of the generated library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdderKind {
    /// Exact ripple-carry adder.
    Exact,
    /// Exact flat carry-lookahead adder (same function as [`Self::Exact`],
    /// more area, shorter critical path — architecture diversity for the
    /// hardware cost models).
    ExactCla,
    /// Lower `k` result bits forced to 0; the upper part adds `a>>k` and
    /// `b>>k` exactly.
    TruncZero {
        /// Number of truncated low bits (`1..w`).
        k: u32,
    },
    /// Lower `k` result bits pass operand `a` through unchanged.
    TruncPass {
        /// Number of passed-through low bits (`1..w`).
        k: u32,
    },
    /// Lower-part OR adder: low `k` bits are `a | b`; the upper adder gets
    /// a speculated carry `a[k-1] & b[k-1]`.
    Loa {
        /// Width of the OR-ed lower part (`1..w`).
        k: u32,
    },
    /// ETA-I style: low `k` bits are `a ^ b` with no carry generated.
    XorLower {
        /// Width of the XOR-ed lower part (`1..w`).
        k: u32,
    },
    /// Almost-correct adder: the carry into each bit is computed from a
    /// window of the previous `r` bit positions only.
    Aca {
        /// Carry speculation window (`1..w`).
        r: u32,
    },
    /// GeAr-style generic accuracy-configurable adder: overlapping
    /// sub-adders of `r + p` bits, each producing `r` new result bits with
    /// `p` bits of carry prediction.
    Gear {
        /// Result bits produced per sub-adder.
        r: u32,
        /// Prediction (overlap) bits per sub-adder.
        p: u32,
    },
    /// QuAd-style segmented adder: the operands are split into independent
    /// segments (LSB-first widths in `segs`); carries do not cross segment
    /// boundaries. With `speculate`, each segment's carry-in is the AND of
    /// the operand MSBs of the previous segment.
    Seg {
        /// Segment widths, LSB first; must sum to `w`.
        segs: Vec<u8>,
        /// Enable 1-bit carry speculation between segments.
        speculate: bool,
    },
    /// Ripple adder with a per-bit choice of (possibly approximate) cells.
    CellRipple {
        /// One cell per bit position, LSB first; length must equal `w`.
        cells: Arc<[FaCell]>,
    },
}

impl AdderKind {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            AdderKind::Exact => "add_exact".into(),
            AdderKind::ExactCla => "add_exact_cla".into(),
            AdderKind::TruncZero { k } => format!("add_trunc0_k{k}"),
            AdderKind::TruncPass { k } => format!("add_truncp_k{k}"),
            AdderKind::Loa { k } => format!("add_loa_k{k}"),
            AdderKind::XorLower { k } => format!("add_eta_k{k}"),
            AdderKind::Aca { r } => format!("add_aca_r{r}"),
            AdderKind::Gear { r, p } => format!("add_gear_r{r}p{p}"),
            AdderKind::Seg { segs, speculate } => {
                let s: Vec<String> = segs.iter().map(|x| x.to_string()).collect();
                format!(
                    "add_seg_{}{}",
                    s.join("_"),
                    if *speculate { "_spec" } else { "" }
                )
            }
            AdderKind::CellRipple { .. } => "add_cells".into(),
        }
    }
}

/// Functional model: computes the `w+1`-bit result.
pub fn eval(w: u32, kind: &AdderKind, a: u64, b: u64) -> u64 {
    debug_assert!(a <= mask(w) && b <= mask(w));
    match kind {
        AdderKind::Exact | AdderKind::ExactCla => a + b,
        AdderKind::TruncZero { k } => ((a >> k) + (b >> k)) << k,
        AdderKind::TruncPass { k } => (((a >> k) + (b >> k)) << k) | (a & mask(*k)),
        AdderKind::Loa { k } => {
            let low = (a | b) & mask(*k);
            let cin = (a >> (k - 1)) & (b >> (k - 1)) & 1;
            (((a >> k) + (b >> k) + cin) << k) | low
        }
        AdderKind::XorLower { k } => {
            let low = (a ^ b) & mask(*k);
            (((a >> k) + (b >> k)) << k) | low
        }
        AdderKind::Aca { r } => {
            let mut res = 0u64;
            for i in 0..=w {
                let lo = i.saturating_sub(*r);
                let win = i - lo;
                let cin = if win == 0 {
                    0
                } else {
                    (((a >> lo) & mask(win)) + ((b >> lo) & mask(win))) >> win
                };
                let bit = if i < w {
                    ((a >> i) ^ (b >> i) ^ cin) & 1
                } else {
                    cin & 1
                };
                res |= bit << i;
            }
            res
        }
        AdderKind::Gear { r, p } => {
            let first = r + p;
            if first >= w {
                return a + b;
            }
            let s0 = (a & mask(first)) + (b & mask(first));
            let mut res = s0 & mask(first);
            let mut carry_out = 0;
            let mut m = first;
            while m < w {
                let lo = m - p;
                let r_eff = (*r).min(w - m);
                let wa = (a >> lo) & mask(p + r_eff);
                let wb = (b >> lo) & mask(p + r_eff);
                let s = wa + wb;
                res |= ((s >> p) & mask(r_eff)) << m;
                carry_out = (s >> (p + r_eff)) & 1;
                m += r_eff;
            }
            res | (carry_out << w)
        }
        AdderKind::Seg { segs, speculate } => {
            debug_assert_eq!(segs.iter().map(|&s| s as u32).sum::<u32>(), w);
            let mut res = 0u64;
            let mut off = 0u32;
            for (j, &s) in segs.iter().enumerate() {
                let s = s as u32;
                let sa = (a >> off) & mask(s);
                let sb = (b >> off) & mask(s);
                let cin = if *speculate && j > 0 {
                    (a >> (off - 1)) & (b >> (off - 1)) & 1
                } else {
                    0
                };
                let sum = sa + sb + cin;
                let keep = if j + 1 == segs.len() { s + 1 } else { s };
                res |= (sum & mask(keep)) << off;
                off += s;
            }
            res
        }
        AdderKind::CellRipple { cells } => {
            debug_assert_eq!(cells.len() as u32, w);
            let mut res = 0u64;
            let mut c = 0u64;
            for (i, cell) in cells.iter().enumerate() {
                let (s, co) = cell.eval(a >> i, b >> i, c);
                res |= s << i;
                c = co;
            }
            res | (c << w)
        }
    }
}

/// Plane kernel of [`eval`] (see [`super::Behavior::eval_plane`]): one
/// pass for the single-adder kinds, one per window for ACA and GeAr, one
/// for a segmentation (carries stopped at segment boundaries within one
/// add), and for a cell ripple one per cell up to the last inexact one,
/// then one add for the exact cells above it.
pub fn eval_plane(w: u32, kind: &AdderKind, a: &[u32], b: &[u32], out: &mut [u32]) {
    use super::{each, mask32};
    let m = mask32(w);
    match kind {
        AdderKind::Exact | AdderKind::ExactCla => each(out, a, b, |_, x, y| (x & m) + (y & m)),
        &AdderKind::TruncZero { k } => {
            each(out, a, b, |_, x, y| (((x & m) >> k) + ((y & m) >> k)) << k)
        }
        &AdderKind::TruncPass { k } => each(out, a, b, |_, x, y| {
            ((((x & m) >> k) + ((y & m) >> k)) << k) | (x & mask32(k))
        }),
        &AdderKind::Loa { k } => each(out, a, b, |_, x, y| {
            let (x, y) = (x & m, y & m);
            let cin = (x >> (k - 1)) & (y >> (k - 1)) & 1;
            (((x >> k) + (y >> k) + cin) << k) | ((x | y) & mask32(k))
        }),
        &AdderKind::XorLower { k } => each(out, a, b, |_, x, y| {
            let (x, y) = (x & m, y & m);
            (((x >> k) + (y >> k)) << k) | ((x ^ y) & mask32(k))
        }),
        // Bits 0..=r are those of the exact sum; bit i > r is bit r of the
        // sum of the (r + 1)-bit windows ending at bit i, i.e. a_i ^ b_i ^
        // the window's carry (and that carry alone at i = w).
        &AdderKind::Aca { r } => sum_windows(
            m,
            std::iter::once(Window::low(r + 1))
                .chain((r + 1..=w).map(|i| Window::new(i - r, r + 1, r, 1))),
            a,
            b,
            out,
        ),
        &AdderKind::Gear { r, p } if r + p >= w => each(out, a, b, |_, x, y| (x & m) + (y & m)),
        &AdderKind::Gear { r, p } => {
            let starts = std::iter::successors(Some(r + p), |&s| Some(s + r));
            let subs = starts.take_while(|&s| s < w).map(|s| {
                let r_eff = r.min(w - s);
                // the last sub-adder also yields the carry-out at bit w
                Window::new(s - p, p + r_eff, p, r_eff + (s + r_eff == w) as u32)
            });
            sum_windows(
                m,
                std::iter::once(Window::low(r + p)).chain(subs),
                a,
                b,
                out,
            )
        }
        AdderKind::Seg { segs, speculate } => {
            // The top bit of every segment but the last: clearing it in
            // both operands stops the carry there, and `(a ^ b) & top`
            // restores the bit's own sum.
            let (mut top, mut off) = (0u32, 0u32);
            for &s in &segs[..segs.len() - 1] {
                off += s as u32;
                top |= 1 << (off - 1);
            }
            let spec = if *speculate { u32::MAX } else { 0 };
            each(out, a, b, |_, x, y| {
                let (x, y) = (x & m, y & m);
                let cin = ((x & y & top) << 1) & spec;
                ((x & !top) + (y & !top) + cin) ^ ((x ^ y) & top)
            })
        }
        AdderKind::CellRipple { cells } => {
            let k = cells
                .iter()
                .rposition(|&c| c != FaCell::EXACT_FA)
                .map_or(0, |i| i + 1);
            super::cells::ripple_plane(&cells[..k], a, b, out);
            let k = k as u32;
            each(out, a, b, |o, x, y| {
                (o & mask32(k)) | ((((x & m) >> k) + ((y & m) >> k) + (o >> k)) << k)
            })
        }
    }
}

/// One sub-adder of a windowed adder: the `width`-bit operand windows
/// from bit `lo` are added and bits `skip..skip + keep` of the sum become
/// result bits `lo + skip..`.
#[derive(Debug, Clone, Copy)]
struct Window {
    lo: u32,
    width: u32,
    skip: u32,
    keep: u32,
}

impl Window {
    fn new(lo: u32, width: u32, skip: u32, keep: u32) -> Self {
        Window {
            lo,
            width,
            skip,
            keep,
        }
    }

    /// The low `n` bits of the exact sum.
    fn low(n: u32) -> Self {
        Window::new(0, n, 0, n)
    }
}

/// ORs every window's result bits into `out`, one pass per window.
fn sum_windows(
    m: u32,
    windows: impl IntoIterator<Item = Window>,
    a: &[u32],
    b: &[u32],
    out: &mut [u32],
) {
    use super::{each, mask32};
    out.fill(0);
    for Window {
        lo,
        width,
        skip,
        keep,
    } in windows
    {
        let (wm, km) = (mask32(width), mask32(keep));
        each(out, a, b, |o, x, y| {
            let s = (((x & m) >> lo) & wm) + (((y & m) >> lo) & wm);
            o | ((s >> skip) & km) << (lo + skip)
        });
    }
}

/// Builds the gate-level netlist of an adder variant.
pub fn build_netlist(w: u32, kind: &AdderKind) -> Netlist {
    let mut n = Netlist::new(format!("add{w}_{}", kind.label()));
    let a = n.input_bus(w as usize);
    let b = n.input_bus(w as usize);
    let out = match kind {
        AdderKind::Exact => arith::ripple_add_into(&mut n, &a, &b, None),
        AdderKind::ExactCla => crate::arch::cla_add_into(&mut n, &a, &b),
        AdderKind::TruncZero { k } => {
            let k = *k as usize;
            let zero = n.const0();
            let hi = arith::ripple_add_into(
                &mut n,
                &a.slice(k..w as usize),
                &b.slice(k..w as usize),
                None,
            );
            Bus(std::iter::repeat_n(zero, k).chain(hi.0).collect())
        }
        AdderKind::TruncPass { k } => {
            let k = *k as usize;
            let hi = arith::ripple_add_into(
                &mut n,
                &a.slice(k..w as usize),
                &b.slice(k..w as usize),
                None,
            );
            Bus(a.0[..k].iter().copied().chain(hi.0).collect())
        }
        AdderKind::Loa { k } => {
            let k = *k as usize;
            let low: Vec<_> = (0..k).map(|i| n.or2(a.bit(i), b.bit(i))).collect();
            let cin = n.and2(a.bit(k - 1), b.bit(k - 1));
            let hi = arith::ripple_add_into(
                &mut n,
                &a.slice(k..w as usize),
                &b.slice(k..w as usize),
                Some(cin),
            );
            Bus(low.into_iter().chain(hi.0).collect())
        }
        AdderKind::XorLower { k } => {
            let k = *k as usize;
            let low: Vec<_> = (0..k).map(|i| n.xor2(a.bit(i), b.bit(i))).collect();
            let hi = arith::ripple_add_into(
                &mut n,
                &a.slice(k..w as usize),
                &b.slice(k..w as usize),
                None,
            );
            Bus(low.into_iter().chain(hi.0).collect())
        }
        AdderKind::Aca { r } => {
            let r = *r as usize;
            let mut bits = Vec::with_capacity(w as usize + 1);
            for i in 0..=(w as usize) {
                let lo = i.saturating_sub(r);
                // ripple the window [lo, i) to get the speculated carry-in
                let mut carry = None;
                for j in lo..i {
                    carry = Some(match carry {
                        None => n.and2(a.bit(j), b.bit(j)),
                        Some(c) => n.maj3(a.bit(j), b.bit(j), c),
                    });
                }
                if i < w as usize {
                    let p = n.xor2(a.bit(i), b.bit(i));
                    let s = match carry {
                        None => p,
                        Some(c) => n.xor2(p, c),
                    };
                    bits.push(s);
                } else {
                    let c = carry.unwrap_or_else(|| n.const0());
                    bits.push(c);
                }
            }
            Bus(bits)
        }
        AdderKind::Gear { r, p } => {
            let (r, p) = (*r as usize, *p as usize);
            let first = r + p;
            if first >= w as usize {
                arith::ripple_add_into(&mut n, &a, &b, None)
            } else {
                let s0 =
                    arith::ripple_add_into(&mut n, &a.slice(0..first), &b.slice(0..first), None);
                let mut bits: Vec<_> = s0.0[..first].to_vec();
                let mut top = None;
                let mut m = first;
                while m < w as usize {
                    let lo = m - p;
                    let r_eff = r.min(w as usize - m);
                    let hi = lo + p + r_eff;
                    let s =
                        arith::ripple_add_into(&mut n, &a.slice(lo..hi), &b.slice(lo..hi), None);
                    bits.extend_from_slice(&s.0[p..p + r_eff]);
                    top = Some(s.0[p + r_eff]);
                    m += r_eff;
                }
                bits.push(top.expect("at least one sub-adder"));
                Bus(bits)
            }
        }
        AdderKind::Seg { segs, speculate } => {
            let mut bits = Vec::with_capacity(w as usize + 1);
            let mut off = 0usize;
            for (j, &s) in segs.iter().enumerate() {
                let s = s as usize;
                let cin = if *speculate && j > 0 {
                    Some(n.and2(a.bit(off - 1), b.bit(off - 1)))
                } else {
                    None
                };
                let sum = arith::ripple_add_into(
                    &mut n,
                    &a.slice(off..off + s),
                    &b.slice(off..off + s),
                    cin,
                );
                if j + 1 == segs.len() {
                    bits.extend_from_slice(&sum.0[..s + 1]);
                } else {
                    bits.extend_from_slice(&sum.0[..s]);
                }
                off += s;
            }
            Bus(bits)
        }
        AdderKind::CellRipple { cells } => {
            let mut bits = Vec::with_capacity(w as usize + 1);
            let mut carry = n.const0();
            for (i, cell) in cells.iter().enumerate() {
                let s = n.three_input_tt(cell.sum, a.bit(i), b.bit(i), carry);
                let c = n.three_input_tt(cell.carry, a.bit(i), b.bit(i), carry);
                bits.push(s);
                carry = c;
            }
            bits.push(carry);
            Bus(bits)
        }
    };
    n.push_output_bus(&out);
    n
}

/// Enumerates all compositions of `w` into at least two segments (QuAd-style
/// configurations). For `w = 8` this yields 127 segmentations.
pub fn segment_compositions(w: u32) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    // Each of the w-1 internal boundaries is either cut or not; skip the
    // no-cut case (that is the exact adder).
    for cuts in 1u64..(1 << (w - 1)) {
        let mut segs = Vec::new();
        let mut len = 1u8;
        for pos in 0..w - 1 {
            if (cuts >> pos) & 1 != 0 {
                segs.push(len);
                len = 1;
            } else {
                len += 1;
            }
        }
        segs.push(len);
        out.push(segs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::eval_binop;

    fn check_netlist_matches_functional(w: u32, kind: &AdderKind) {
        let net = build_netlist(w, kind);
        assert_eq!(net.input_count() as u32, 2 * w);
        assert_eq!(net.outputs().len() as u32, w + 1);
        let n_samples = if w <= 6 { 1 << (2 * w) } else { 600 };
        let pairs: Vec<(u64, u64)> = if w <= 6 {
            (0..n_samples as u64)
                .map(|v| (v & mask(w), v >> w))
                .collect()
        } else {
            crate::util::stimulus_pairs(w, w, n_samples, 77)
        };
        for (a, b) in pairs {
            let f = eval(w, kind, a, b);
            let g = eval_binop(&net, w, w, a, b);
            assert_eq!(f, g, "{} w={w} a={a} b={b}", kind.label());
        }
    }

    #[test]
    fn trunc_zero_matches() {
        for k in 1..8 {
            check_netlist_matches_functional(8, &AdderKind::TruncZero { k });
        }
    }

    #[test]
    fn trunc_pass_matches() {
        for k in [1, 3, 5, 7] {
            check_netlist_matches_functional(8, &AdderKind::TruncPass { k });
        }
    }

    #[test]
    fn loa_matches() {
        for k in 1..8 {
            check_netlist_matches_functional(8, &AdderKind::Loa { k });
        }
        check_netlist_matches_functional(16, &AdderKind::Loa { k: 6 });
    }

    #[test]
    fn xor_lower_matches() {
        for k in [1, 2, 4, 6] {
            check_netlist_matches_functional(8, &AdderKind::XorLower { k });
        }
    }

    #[test]
    fn aca_matches() {
        for r in 1..8 {
            check_netlist_matches_functional(8, &AdderKind::Aca { r });
        }
        check_netlist_matches_functional(9, &AdderKind::Aca { r: 3 });
    }

    #[test]
    fn gear_matches() {
        for (r, p) in [(1, 1), (2, 1), (2, 2), (4, 2), (3, 3), (2, 4)] {
            check_netlist_matches_functional(8, &AdderKind::Gear { r, p });
            check_netlist_matches_functional(16, &AdderKind::Gear { r, p });
        }
    }

    #[test]
    fn seg_matches() {
        for segs in [vec![4u8, 4], vec![2, 3, 3], vec![1, 7], vec![2, 2, 2, 2]] {
            for speculate in [false, true] {
                check_netlist_matches_functional(
                    8,
                    &AdderKind::Seg {
                        segs: segs.clone(),
                        speculate,
                    },
                );
            }
        }
    }

    #[test]
    fn cell_ripple_exact_cells_is_exact() {
        let cells: Arc<[FaCell]> = vec![FaCell::EXACT_FA; 8].into();
        let kind = AdderKind::CellRipple { cells };
        for (a, b) in crate::util::stimulus_pairs(8, 8, 500, 3) {
            assert_eq!(eval(8, &kind, a, b), a + b);
        }
        check_netlist_matches_functional(8, &kind);
    }

    #[test]
    fn cell_ripple_random_cells_match() {
        let mut st = 2024u64;
        for _ in 0..10 {
            let cells: Arc<[FaCell]> = (0..8)
                .map(|i| {
                    if i < 4 {
                        FaCell::random(&mut st)
                    } else {
                        FaCell::EXACT_FA
                    }
                })
                .collect::<Vec<_>>()
                .into();
            check_netlist_matches_functional(8, &AdderKind::CellRipple { cells });
        }
    }

    #[test]
    fn approx_adders_are_bounded_error_when_upper_exact() {
        // Families that only touch the lower k bits have WCE < 2^(k+1).
        for k in 1..6 {
            for kind in [
                AdderKind::TruncZero { k },
                AdderKind::TruncPass { k },
                AdderKind::Loa { k },
                AdderKind::XorLower { k },
            ] {
                let bound = 1i64 << (k + 1);
                for (a, b) in crate::util::stimulus_pairs(8, 8, 400, 9) {
                    let err = (eval(8, &kind, a, b) as i64) - (a + b) as i64;
                    assert!(
                        err.abs() < bound,
                        "{} k={k}: err {err} out of bound",
                        kind.label()
                    );
                }
            }
        }
    }

    #[test]
    fn aca_exact_when_window_full() {
        // With r >= w the ACA degenerates to the exact adder.
        let kind = AdderKind::Aca { r: 8 };
        for (a, b) in crate::util::stimulus_pairs(8, 8, 400, 1) {
            assert_eq!(eval(8, &kind, a, b), a + b);
        }
    }

    #[test]
    fn segment_compositions_count() {
        assert_eq!(segment_compositions(8).len(), 127);
        assert_eq!(segment_compositions(4).len(), 7);
        for segs in segment_compositions(8) {
            assert_eq!(segs.iter().map(|&s| s as u32).sum::<u32>(), 8);
            assert!(segs.len() >= 2);
        }
    }

    #[test]
    fn labels_are_distinct_per_parameter() {
        assert_ne!(
            AdderKind::TruncZero { k: 1 }.label(),
            AdderKind::TruncZero { k: 2 }.label()
        );
        assert_ne!(
            AdderKind::Gear { r: 2, p: 1 }.label(),
            AdderKind::Gear { r: 1, p: 2 }.label()
        );
    }
}
