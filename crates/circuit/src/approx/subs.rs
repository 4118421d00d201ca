//! Approximate subtractor families, mirroring the adder families on the
//! borrow chain. All variants take two `w`-bit unsigned operands and
//! produce a `w+1`-bit two's-complement difference (MSB = sign), matching
//! the exact subtractor interface.

use super::cells::FaCell;
use crate::arith;
use crate::netlist::{Bus, Netlist};
use crate::util::mask;
use std::sync::Arc;

/// The subtractor variants of the generated library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubKind {
    /// Exact ripple-borrow subtractor.
    Exact,
    /// Lower `k` difference bits forced to 0; the upper part subtracts
    /// `a>>k` and `b>>k` exactly with no incoming borrow.
    TruncZero {
        /// Number of truncated low bits (`1..w`).
        k: u32,
    },
    /// Lower `k` difference bits pass operand `a` through.
    TruncPass {
        /// Number of passed-through low bits (`1..w`).
        k: u32,
    },
    /// Lower `k` bits are `a ^ b`; no borrow is generated out of the lower
    /// part (ETA-I analogue for subtraction).
    XorLower {
        /// Width of the XOR-ed lower part (`1..w`).
        k: u32,
    },
    /// Segmented subtractor: borrows do not cross segment boundaries; the
    /// sign comes from the top segment alone.
    Seg {
        /// Segment widths, LSB first; must sum to `w`.
        segs: Vec<u8>,
    },
    /// Ripple subtractor with per-bit (possibly approximate) cells.
    CellRipple {
        /// One cell per bit position, LSB first; length must equal `w`.
        cells: Arc<[FaCell]>,
    },
}

impl SubKind {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            SubKind::Exact => "sub_exact".into(),
            SubKind::TruncZero { k } => format!("sub_trunc0_k{k}"),
            SubKind::TruncPass { k } => format!("sub_truncp_k{k}"),
            SubKind::XorLower { k } => format!("sub_eta_k{k}"),
            SubKind::Seg { segs } => {
                let s: Vec<String> = segs.iter().map(|x| x.to_string()).collect();
                format!("sub_seg_{}", s.join("_"))
            }
            SubKind::CellRipple { .. } => "sub_cells".into(),
        }
    }
}

/// Functional model: computes the raw `w+1`-bit two's-complement result.
pub fn eval(w: u32, kind: &SubKind, a: u64, b: u64) -> u64 {
    debug_assert!(a <= mask(w) && b <= mask(w));
    match kind {
        SubKind::Exact => a.wrapping_sub(b) & mask(w + 1),
        SubKind::TruncZero { k } => {
            let hi = (a >> k).wrapping_sub(b >> k) & mask(w + 1 - k);
            hi << k
        }
        SubKind::TruncPass { k } => {
            let hi = (a >> k).wrapping_sub(b >> k) & mask(w + 1 - k);
            (hi << k) | (a & mask(*k))
        }
        SubKind::XorLower { k } => {
            let low = (a ^ b) & mask(*k);
            let hi = (a >> k).wrapping_sub(b >> k) & mask(w + 1 - k);
            (hi << k) | low
        }
        SubKind::Seg { segs } => {
            debug_assert_eq!(segs.iter().map(|&s| s as u32).sum::<u32>(), w);
            let mut res = 0u64;
            let mut off = 0u32;
            for (j, &s) in segs.iter().enumerate() {
                let s = s as u32;
                let sa = (a >> off) & mask(s);
                let sb = (b >> off) & mask(s);
                if j + 1 == segs.len() {
                    // top segment keeps its sign bit
                    let d = sa.wrapping_sub(sb) & mask(s + 1);
                    res |= d << off;
                } else {
                    let d = sa.wrapping_sub(sb) & mask(s);
                    res |= d << off;
                }
                off += s;
            }
            res
        }
        SubKind::CellRipple { cells } => {
            debug_assert_eq!(cells.len() as u32, w);
            let mut res = 0u64;
            let mut borrow = 0u64;
            for (i, cell) in cells.iter().enumerate() {
                let (d, bo) = cell.eval(a >> i, b >> i, borrow);
                res |= d << i;
                borrow = bo;
            }
            // sign bit = final borrow
            res | (borrow << w)
        }
    }
}

/// Plane kernel of [`eval`] (see [`super::Behavior::eval_plane`]): one
/// pass per kind, except a cell ripple, which takes one per cell up to
/// the last inexact one, then one subtraction for the exact cells above.
pub fn eval_plane(w: u32, kind: &SubKind, a: &[u32], b: &[u32], out: &mut [u32]) {
    use super::{each, mask32};
    let m = mask32(w);
    // the upper `w - k` bits of the difference with the sign at bit `w`
    let high = move |x: u32, y: u32, k: u32| {
        (((x & m) >> k).wrapping_sub((y & m) >> k) & mask32(w + 1 - k)) << k
    };
    match kind {
        SubKind::Exact => each(out, a, b, |_, x, y| high(x, y, 0)),
        &SubKind::TruncZero { k } => each(out, a, b, |_, x, y| high(x, y, k)),
        &SubKind::TruncPass { k } => each(out, a, b, |_, x, y| high(x, y, k) | (x & mask32(k))),
        &SubKind::XorLower { k } => {
            each(out, a, b, |_, x, y| high(x, y, k) | ((x ^ y) & mask32(k)))
        }
        SubKind::Seg { segs } => {
            // The top bit of every segment, the last one's being the sign
            // at bit w: setting it in a and clearing it in b keeps every
            // borrow inside its segment, and `!(a ^ b) & top` corrects the
            // bit itself.
            let mut top = 1u32 << w;
            let mut off = 0u32;
            for &s in &segs[..segs.len() - 1] {
                off += s as u32;
                top |= 1 << (off - 1);
            }
            each(out, a, b, |_, x, y| {
                let (x, y) = (x & m, y & m);
                ((x | top).wrapping_sub(y & !top)) ^ (!(x ^ y) & top)
            })
        }
        SubKind::CellRipple { cells } => {
            let k = cells
                .iter()
                .rposition(|&c| c != FaCell::EXACT_FS)
                .map_or(0, |i| i + 1);
            super::cells::ripple_plane(&cells[..k], a, b, out);
            let k = k as u32;
            each(out, a, b, |o, x, y| {
                let d = ((x & m) >> k)
                    .wrapping_sub((y & m) >> k)
                    .wrapping_sub(o >> k);
                (o & mask32(k)) | (d & mask32(w + 1 - k)) << k
            })
        }
    }
}

/// Builds the gate-level netlist of a subtractor variant.
pub fn build_netlist(w: u32, kind: &SubKind) -> Netlist {
    let mut n = Netlist::new(format!("sub{w}_{}", kind.label()));
    let a = n.input_bus(w as usize);
    let b = n.input_bus(w as usize);
    let out = match kind {
        SubKind::Exact => arith::ripple_sub_into(&mut n, &a, &b),
        SubKind::TruncZero { k } => {
            let k = *k as usize;
            let zero = n.const0();
            let hi =
                arith::ripple_sub_into(&mut n, &a.slice(k..w as usize), &b.slice(k..w as usize));
            Bus(std::iter::repeat_n(zero, k).chain(hi.0).collect())
        }
        SubKind::TruncPass { k } => {
            let k = *k as usize;
            let hi =
                arith::ripple_sub_into(&mut n, &a.slice(k..w as usize), &b.slice(k..w as usize));
            Bus(a.0[..k].iter().copied().chain(hi.0).collect())
        }
        SubKind::XorLower { k } => {
            let k = *k as usize;
            let low: Vec<_> = (0..k).map(|i| n.xor2(a.bit(i), b.bit(i))).collect();
            let hi =
                arith::ripple_sub_into(&mut n, &a.slice(k..w as usize), &b.slice(k..w as usize));
            Bus(low.into_iter().chain(hi.0).collect())
        }
        SubKind::Seg { segs } => {
            let mut bits = Vec::with_capacity(w as usize + 1);
            let mut off = 0usize;
            for (j, &s) in segs.iter().enumerate() {
                let s = s as usize;
                let d =
                    arith::ripple_sub_into(&mut n, &a.slice(off..off + s), &b.slice(off..off + s));
                if j + 1 == segs.len() {
                    bits.extend_from_slice(&d.0[..s + 1]);
                } else {
                    bits.extend_from_slice(&d.0[..s]);
                }
                off += s;
            }
            Bus(bits)
        }
        SubKind::CellRipple { cells } => {
            let mut bits = Vec::with_capacity(w as usize + 1);
            let mut borrow = n.const0();
            for (i, cell) in cells.iter().enumerate() {
                let d = n.three_input_tt(cell.sum, a.bit(i), b.bit(i), borrow);
                let bo = n.three_input_tt(cell.carry, a.bit(i), b.bit(i), borrow);
                bits.push(d);
                borrow = bo;
            }
            bits.push(borrow);
            Bus(bits)
        }
    };
    n.push_output_bus(&out);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::eval_binop;
    use crate::{OpKind, OpSignature};

    fn check_netlist_matches_functional(w: u32, kind: &SubKind) {
        let net = build_netlist(w, kind);
        assert_eq!(net.input_count() as u32, 2 * w);
        assert_eq!(net.outputs().len() as u32, w + 1);
        let pairs: Vec<(u64, u64)> = if w <= 6 {
            (0..(1u64 << (2 * w)))
                .map(|v| (v & mask(w), v >> w))
                .collect()
        } else {
            crate::util::stimulus_pairs(w, w, 600, 21)
        };
        for (a, b) in pairs {
            let f = eval(w, kind, a, b);
            let g = eval_binop(&net, w, w, a, b);
            assert_eq!(f, g, "{} w={w} a={a} b={b}", kind.label());
        }
    }

    #[test]
    fn exact_sub_signed_semantics() {
        let sig = OpSignature::new(OpKind::Sub, 8, 8);
        for (a, b) in crate::util::stimulus_pairs(8, 8, 500, 4) {
            let raw = eval(8, &SubKind::Exact, a, b);
            assert_eq!(sig.to_signed(raw), a as i64 - b as i64);
        }
    }

    #[test]
    fn trunc_zero_matches() {
        for k in 1..8 {
            check_netlist_matches_functional(8, &SubKind::TruncZero { k });
        }
        check_netlist_matches_functional(10, &SubKind::TruncZero { k: 4 });
    }

    #[test]
    fn trunc_pass_matches() {
        for k in [1, 3, 6] {
            check_netlist_matches_functional(8, &SubKind::TruncPass { k });
        }
    }

    #[test]
    fn xor_lower_matches() {
        for k in [1, 2, 5] {
            check_netlist_matches_functional(8, &SubKind::XorLower { k });
            check_netlist_matches_functional(16, &SubKind::XorLower { k });
        }
    }

    #[test]
    fn seg_matches() {
        for segs in [vec![5u8, 5], vec![3, 3, 4], vec![2, 8]] {
            check_netlist_matches_functional(10, &SubKind::Seg { segs });
        }
    }

    #[test]
    fn cell_ripple_exact_is_exact() {
        let cells: Arc<[FaCell]> = vec![FaCell::EXACT_FS; 10].into();
        let kind = SubKind::CellRipple { cells };
        let sig = OpSignature::SUB10;
        for (a, b) in crate::util::stimulus_pairs(10, 10, 500, 8) {
            let raw = eval(10, &kind, a, b);
            assert_eq!(sig.to_signed(raw), a as i64 - b as i64, "a={a} b={b}");
        }
        check_netlist_matches_functional(10, &kind);
    }

    #[test]
    fn cell_ripple_random_matches() {
        let mut st = 31u64;
        for _ in 0..8 {
            let cells: Arc<[FaCell]> = (0..10)
                .map(|i| {
                    if i < 5 {
                        FaCell::random(&mut st)
                    } else {
                        FaCell::EXACT_FS
                    }
                })
                .collect::<Vec<_>>()
                .into();
            check_netlist_matches_functional(10, &SubKind::CellRipple { cells });
        }
    }

    #[test]
    fn lower_part_families_have_bounded_error() {
        let sig = OpSignature::new(OpKind::Sub, 10, 10);
        for k in 1..5 {
            for kind in [
                SubKind::TruncZero { k },
                SubKind::TruncPass { k },
                SubKind::XorLower { k },
            ] {
                let bound = 1i64 << (k + 1);
                for (a, b) in crate::util::stimulus_pairs(10, 10, 400, 17) {
                    let raw = eval(10, &kind, a, b);
                    let err = sig.to_signed(raw) - (a as i64 - b as i64);
                    assert!(
                        err.abs() < bound,
                        "{} k={k} a={a} b={b}: err {err}",
                        kind.label()
                    );
                }
            }
        }
    }
}
