//! Approximate multiplier families: broken-array (BAM), truncation with
//! optional constant compensation, partial-product row perforation, the
//! Kulkarni-style recursive 2×2 underdesigned multiplier (UDM), and array
//! multipliers with per-cell approximate full adders.
//!
//! All variants take `wa`- and `wb`-bit operands and produce a
//! `wa + wb`-bit product.

use super::cells::FaCell;
use crate::arith;
use crate::netlist::{Bus, NetId, Netlist};
use crate::util::mask;
use std::sync::Arc;

/// The multiplier variants of the generated library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MulKind {
    /// Exact carry-propagate array multiplier.
    Exact,
    /// Exact Wallace-tree multiplier (same function, shorter critical
    /// path, more cells — architecture diversity for the cost models).
    ExactWallace,
    /// Broken-array multiplier: partial products in columns below `vbl`
    /// are removed; additionally the cells of the `hbl` lowest rows that
    /// fall into the lower half of the array (columns `< wa`) are removed.
    Bam {
        /// Vertical break level: dropped LSB columns (`0..wa+wb-1`).
        vbl: u32,
        /// Horizontal break level: rows whose lower-half cells are dropped
        /// (`0..wb`).
        hbl: u32,
    },
    /// Truncated multiplier: columns below `k` dropped, optionally with a
    /// constant compensation term `2^(k-1)`.
    Trunc {
        /// Dropped LSB columns (`1..wa`).
        k: u32,
        /// Add the expected-value compensation constant.
        comp: bool,
    },
    /// Partial-product perforation: partial-product rows whose bit is set
    /// in `row_mask` are skipped entirely.
    PerfRows {
        /// Bit `i` set ⇒ row `i` (operand-b bit `i`) is dropped.
        row_mask: u16,
    },
    /// Recursive 2×2 underdesigned multiplier: the recursion tree has
    /// `(wa/2) * (wb/2)` 2×2 leaves; leaf `ℓ` is approximate (3×3 → 7) iff
    /// bit `ℓ` of `leaf_mask` is set. Requires `wa == wb` and power of two.
    Udm {
        /// Approximation mask over the 2×2 leaves (row-major recursion
        /// order LL, LH, HL, HH at every level).
        leaf_mask: u16,
    },
    /// Array multiplier whose accumulation cells are individually chosen
    /// (possibly approximate) full adders.
    CellGrid {
        /// `(wb-1) * wa` cells, row-major from row 1; defaults anywhere to
        /// exact are expressed by [`FaCell::EXACT_FA`] entries.
        cells: Arc<[FaCell]>,
    },
}

impl MulKind {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            MulKind::Exact => "mul_exact".into(),
            MulKind::ExactWallace => "mul_exact_wallace".into(),
            MulKind::Bam { vbl, hbl } => format!("mul_bam_v{vbl}h{hbl}"),
            MulKind::Trunc { k, comp } => {
                format!("mul_trunc_k{k}{}", if *comp { "c" } else { "" })
            }
            MulKind::PerfRows { row_mask } => format!("mul_perf_{row_mask:02x}"),
            MulKind::Udm { leaf_mask } => format!("mul_udm_{leaf_mask:04x}"),
            MulKind::CellGrid { .. } => "mul_cells".into(),
        }
    }
}

/// Functional model: computes the `wa + wb`-bit product.
pub fn eval(wa: u32, wb: u32, kind: &MulKind, a: u64, b: u64) -> u64 {
    debug_assert!(a <= mask(wa) && b <= mask(wb));
    match kind {
        MulKind::Exact | MulKind::ExactWallace => a * b,
        MulKind::Bam { vbl, hbl } => {
            let mut sum = 0u64;
            for i in 0..wb {
                if (b >> i) & 1 == 0 {
                    continue;
                }
                let mut j_lo = vbl.saturating_sub(i);
                if i < *hbl {
                    j_lo = j_lo.max(wa.saturating_sub(i));
                }
                if j_lo >= wa {
                    continue;
                }
                sum += ((a >> j_lo) << j_lo) << i;
            }
            sum & mask(wa + wb)
        }
        MulKind::Trunc { k, comp } => {
            let base = eval(wa, wb, &MulKind::Bam { vbl: *k, hbl: 0 }, a, b);
            if *comp && *k >= 1 {
                (base + (1 << (k - 1))) & mask(wa + wb)
            } else {
                base
            }
        }
        MulKind::PerfRows { row_mask } => {
            let mut sum = 0u64;
            for i in 0..wb {
                if (row_mask >> i) & 1 != 0 {
                    continue;
                }
                if (b >> i) & 1 != 0 {
                    sum += a << i;
                }
            }
            sum & mask(wa + wb)
        }
        MulKind::Udm { leaf_mask } => {
            debug_assert!(wa == wb && wa.is_power_of_two() && wa >= 2);
            let mut leaf_idx = 0usize;
            udm_eval(wa, a, b, *leaf_mask, &mut leaf_idx)
        }
        MulKind::CellGrid { cells } => {
            debug_assert_eq!(cells.len() as u32, (wb - 1) * wa);
            let wout = (wa + wb) as usize;
            let mut acc = vec![0u64; wout];
            for (j, slot) in acc.iter_mut().enumerate().take(wa as usize) {
                *slot = ((a >> j) & 1) & (b & 1);
            }
            for i in 1..wb as usize {
                let bi = (b >> i) & 1;
                let mut carry = 0u64;
                for j in 0..wa as usize {
                    let pp = ((a >> j) & 1) & bi;
                    let cell = cells[(i - 1) * wa as usize + j];
                    let (s, c) = cell.eval(acc[i + j], pp, carry);
                    acc[i + j] = s;
                    carry = c;
                }
                acc[i + wa as usize] = carry;
            }
            acc.iter()
                .enumerate()
                .fold(0u64, |r, (i, &bit)| r | (bit << i))
        }
    }
}

/// Recursive UDM evaluation; `leaf_idx` tracks the leaf numbering in
/// LL, LH, HL, HH order so it matches the netlist builder exactly.
fn udm_eval(w: u32, a: u64, b: u64, leaf_mask: u16, leaf_idx: &mut usize) -> u64 {
    if w == 2 {
        let approx = (leaf_mask >> *leaf_idx) & 1 != 0;
        *leaf_idx += 1;
        return if approx && a == 3 && b == 3 { 7 } else { a * b };
    }
    let h = w / 2;
    let (al, ah) = (a & mask(h), a >> h);
    let (bl, bh) = (b & mask(h), b >> h);
    let ll = udm_eval(h, al, bl, leaf_mask, leaf_idx);
    let lh = udm_eval(h, al, bh, leaf_mask, leaf_idx);
    let hl = udm_eval(h, ah, bl, leaf_mask, leaf_idx);
    let hh = udm_eval(h, ah, bh, leaf_mask, leaf_idx);
    ll + ((lh + hl) << h) + (hh << (2 * h))
}

/// Plane kernel of [`eval`] (see [`super::Behavior::eval_plane`]): one
/// multiply for the exact kinds, one pass per kept partial-product row
/// for BAM, truncation and perforation, one correction per approximate
/// UDM leaf, and for a cell grid one pass per inexact cell plus one add
/// per row for the exact cells at its top.
pub fn eval_plane(wa: u32, wb: u32, kind: &MulKind, a: &[u32], b: &[u32], out: &mut [u32]) {
    use super::{each, mask32};
    let (ma, mb) = (mask32(wa), mask32(wb));
    match kind {
        MulKind::Exact | MulKind::ExactWallace => each(out, a, b, |_, x, y| (x & ma) * (y & mb)),
        &MulKind::Bam { vbl, hbl } => rows(wb, |i| bam_row(wa, vbl, hbl, i), a, b, out),
        &MulKind::Trunc { k, comp } => {
            rows(wb, |i| bam_row(wa, k, 0, i), a, b, out);
            if comp && k >= 1 {
                let mo = mask32(wa + wb);
                each(out, a, b, |o, _, _| o.wrapping_add(1 << (k - 1)) & mo);
            }
        }
        &MulKind::PerfRows { row_mask } => {
            let kept = |i: u32| if (row_mask >> i) & 1 != 0 { 0 } else { ma };
            rows(wb, kept, a, b, out)
        }
        &MulKind::Udm { leaf_mask } => {
            debug_assert!(wa == wb && wa.is_power_of_two() && wa >= 2);
            each(out, a, b, |_, x, y| (x & ma) * (y & mb));
            // An approximate leaf yields 7 for 3 × 3, two less than the
            // exact block, at its place in the product.
            let leaves = (wa / 2) * (wa / 2);
            for leaf in (0..leaves.min(16)).filter(|&l| (leaf_mask >> l) & 1 != 0) {
                let (oa, ob) = udm_leaf_offsets(wa, leaf);
                each(out, a, b, |o, x, y| {
                    o - (((x >> oa) & (x >> (oa + 1)) & (y >> ob) & (y >> (ob + 1)) & 1)
                        << (oa + ob + 1))
                });
            }
        }
        MulKind::CellGrid { cells } => {
            debug_assert_eq!(cells.len() as u32, (wb - 1) * wa);
            each(out, a, b, |_, x, y| (x & ma) & 0u32.wrapping_sub(y & 1));
            for (i, row) in (1..wb).zip(cells.chunks(wa as usize)) {
                // The running carry lives in bit i + wa, zero until the
                // row ends there; cells from j0 up are exact and add the
                // rest of the row at once.
                let j0 = row
                    .iter()
                    .rposition(|&c| c != FaCell::EXACT_FA)
                    .map_or(0, |j| j + 1);
                for (j, &cell) in (0..).zip(&row[..j0]) {
                    let pp = move |x: u32, y: u32| (x >> j) & (y >> i) & 1;
                    super::cells::grid_cell_plane(cell, i + j, i + wa, pp, a, b, out);
                }
                let (j0, lo) = (j0 as u32, i + j0 as u32);
                each(out, a, b, |o, x, y| {
                    let pp = ((x & ma) >> j0) & 0u32.wrapping_sub((y >> i) & 1);
                    let acc = (o >> lo) & mask32(wa - j0);
                    (o & mask32(lo)) | (acc + pp + ((o >> (i + wa)) & 1)) << lo
                });
            }
        }
    }
}

/// The bits of operand a whose partial products row `i` of a broken
/// array keeps (as [`eval`] decides them).
fn bam_row(wa: u32, vbl: u32, hbl: u32, i: u32) -> u32 {
    let mut j_lo = vbl.saturating_sub(i);
    if i < hbl {
        j_lo = j_lo.max(wa.saturating_sub(i));
    }
    super::mask32(wa) & !super::mask32(j_lo)
}

/// The sum of the partial-product rows over a plane: row `i` adds
/// `(a & kept(i)) << i` where bit `i` of b is set, one pass per
/// non-empty row.
fn rows(wb: u32, kept: impl Fn(u32) -> u32, a: &[u32], b: &[u32], out: &mut [u32]) {
    out.fill(0);
    for i in 0..wb {
        let r = kept(i);
        if r != 0 {
            super::each(out, a, b, |o, x, y| {
                o + (((x & r) << i) & 0u32.wrapping_sub((y >> i) & 1))
            });
        }
    }
}

/// The operand offsets `(a, b)` of UDM leaf `leaf` of a `w`-bit
/// multiplier. Each recursion level is one base-4 digit of the leaf
/// index, the innermost level (2-bit halves) the least significant one;
/// digits 0..=3 are the LL, LH, HL and HH quarters.
fn udm_leaf_offsets(w: u32, leaf: u32) -> (u32, u32) {
    let (mut oa, mut ob) = (0, 0);
    let mut h = 2;
    let mut digits = leaf;
    while h < w {
        oa += ((digits >> 1) & 1) * h;
        ob += (digits & 1) * h;
        digits >>= 2;
        h *= 2;
    }
    (oa, ob)
}

/// Builds the gate-level netlist of a multiplier variant.
pub fn build_netlist(wa: u32, wb: u32, kind: &MulKind) -> Netlist {
    let mut n = Netlist::new(format!("mul{wa}x{wb}_{}", kind.label()));
    let a = n.input_bus(wa as usize);
    let b = n.input_bus(wb as usize);
    let out = match kind {
        MulKind::Exact => arith::array_multiply_into(&mut n, &a, &b),
        MulKind::ExactWallace => {
            // wallace_multiplier builds its own IO; rebuild inline instead
            let sub = crate::arch::wallace_multiplier(wa, wb);
            let args: Vec<_> = a.iter().chain(b.iter()).copied().collect();
            Bus(n.instantiate(&sub, &args))
        }
        MulKind::Bam { vbl, hbl } => {
            let keep = |i: u32, j: u32| {
                if i + j < *vbl {
                    return false;
                }
                !(i < *hbl && i + j < wa)
            };
            masked_array(&mut n, &a, &b, keep, None)
        }
        MulKind::Trunc { k, comp } => {
            let kk = *k;
            let keep = move |i: u32, j: u32| i + j >= kk;
            let comp_const = if *comp && *k >= 1 {
                Some(1u64 << (k - 1))
            } else {
                None
            };
            masked_array(&mut n, &a, &b, keep, comp_const)
        }
        MulKind::PerfRows { row_mask } => {
            let m = *row_mask;
            let keep = move |i: u32, _j: u32| (m >> i) & 1 == 0;
            masked_array(&mut n, &a, &b, keep, None)
        }
        MulKind::Udm { leaf_mask } => {
            debug_assert!(wa == wb && wa.is_power_of_two() && wa >= 2);
            let mut leaf_idx = 0usize;
            udm_build(&mut n, &a, &b, *leaf_mask, &mut leaf_idx)
        }
        MulKind::CellGrid { cells } => {
            let wout = (wa + wb) as usize;
            let zero = n.const0();
            let mut acc = vec![zero; wout];
            for (j, slot) in acc.iter_mut().enumerate().take(wa as usize) {
                *slot = n.and2(a.bit(j), b.bit(0));
            }
            for i in 1..wb as usize {
                let bi = b.bit(i);
                let mut carry = zero;
                for j in 0..wa as usize {
                    let pp = n.and2(a.bit(j), bi);
                    let cell = cells[(i - 1) * wa as usize + j];
                    let s = n.three_input_tt(cell.sum, acc[i + j], pp, carry);
                    let c = n.three_input_tt(cell.carry, acc[i + j], pp, carry);
                    acc[i + j] = s;
                    carry = c;
                }
                acc[i + wa as usize] = carry;
            }
            Bus(acc)
        }
    };
    n.push_output_bus(&out);
    n
}

/// Array multiplier with a per-cell keep predicate and an optional additive
/// compensation constant. Removed cells contribute nothing — neither a
/// partial product nor an adder cell, exactly as in broken-array designs.
fn masked_array(
    n: &mut Netlist,
    a: &Bus,
    b: &Bus,
    keep: impl Fn(u32, u32) -> bool,
    comp: Option<u64>,
) -> Bus {
    let wa = a.width() as u32;
    let wb = b.width() as u32;
    let zero = n.const0();
    let mut acc: Vec<NetId> = vec![zero; (wa + wb) as usize];
    // Row 0.
    for j in 0..wa {
        if keep(0, j) {
            acc[j as usize] = n.and2(a.bit(j as usize), b.bit(0));
        }
    }
    // Compensation constant merged into otherwise-zero accumulator slots
    // where possible; remaining bits added afterwards.
    let mut comp_rest = 0u64;
    if let Some(c) = comp {
        for bit in 0..(wa + wb) {
            if (c >> bit) & 1 != 0 {
                if acc[bit as usize] == zero {
                    acc[bit as usize] = n.const1();
                } else {
                    comp_rest |= 1 << bit;
                }
            }
        }
    }
    for i in 1..wb {
        let bi = b.bit(i as usize);
        let mut carry: Option<NetId> = None;
        for j in 0..wa {
            if !keep(i, j) {
                continue;
            }
            let pp = n.and2(a.bit(j as usize), bi);
            let pos = (i + j) as usize;
            let (s, c) = match carry {
                None => {
                    if acc[pos] == zero {
                        (pp, None)
                    } else {
                        let (s, c) = n.half_adder(acc[pos], pp);
                        (s, Some(c))
                    }
                }
                Some(ci) => {
                    if acc[pos] == zero {
                        let (s, c) = n.half_adder(pp, ci);
                        (s, Some(c))
                    } else {
                        let (s, c) = n.full_adder(acc[pos], pp, ci);
                        (s, Some(c))
                    }
                }
            };
            acc[pos] = s;
            carry = c;
        }
        // Propagate the final carry up through the accumulator.
        if let Some(mut c) = carry {
            let mut pos = (i + wa) as usize;
            while pos < acc.len() {
                if acc[pos] == zero {
                    acc[pos] = c;
                    break;
                }
                let (s, nc) = n.half_adder(acc[pos], c);
                acc[pos] = s;
                c = nc;
                pos += 1;
            }
        }
    }
    if comp_rest != 0 {
        // Ripple-add the remaining compensation bits.
        let one = n.const1();
        for bit in 0..(wa + wb) as usize {
            if (comp_rest >> bit) & 1 == 0 {
                continue;
            }
            let mut c = one;
            let mut pos = bit;
            while pos < acc.len() {
                if acc[pos] == zero {
                    acc[pos] = c;
                    break;
                }
                let (s, nc) = n.half_adder(acc[pos], c);
                acc[pos] = s;
                c = nc;
                pos += 1;
            }
        }
    }
    Bus(acc)
}

/// Recursive UDM netlist; leaf numbering matches [`udm_eval`].
fn udm_build(n: &mut Netlist, a: &Bus, b: &Bus, leaf_mask: u16, leaf_idx: &mut usize) -> Bus {
    let w = a.width();
    if w == 2 {
        let approx = (leaf_mask >> *leaf_idx) & 1 != 0;
        *leaf_idx += 1;
        if approx {
            // Kulkarni 2x2 block: p0 = a0 b0, p1 = a1 b0 | a0 b1,
            // p2 = a1 b1, p3 = 0. Exact except 3*3 = 7.
            let p0 = n.and2(a.bit(0), b.bit(0));
            let t0 = n.and2(a.bit(1), b.bit(0));
            let t1 = n.and2(a.bit(0), b.bit(1));
            let p1 = n.or2(t0, t1);
            let p2 = n.and2(a.bit(1), b.bit(1));
            let z = n.const0();
            return Bus(vec![p0, p1, p2, z]);
        }
        return arith::array_multiply_into(n, a, b);
    }
    let h = w / 2;
    let al = a.slice(0..h);
    let ah = a.slice(h..w);
    let bl = b.slice(0..h);
    let bh = b.slice(h..w);
    let ll = udm_build(n, &al, &bl, leaf_mask, leaf_idx);
    let lh = udm_build(n, &al, &bh, leaf_mask, leaf_idx);
    let hl = udm_build(n, &ah, &bl, leaf_mask, leaf_idx);
    let hh = udm_build(n, &ah, &bh, leaf_mask, leaf_idx);
    // result = ll + ((lh + hl) << h) + (hh << 2h), all exact adds
    let zero = n.const0();
    let mid = arith::ripple_add_into(n, &lh, &hl, None);
    let s1 = arith::ripple_add_into(n, &ll, &mid.shifted_left(h, zero), None);
    let s2 = arith::ripple_add_into(n, &s1, &hh.shifted_left(2 * h, zero), None);
    // The exact product fits in 2w bits; drop provably-zero top bits.
    Bus(s2.0[..2 * w].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::eval_binop;

    fn check_netlist_matches_functional(wa: u32, wb: u32, kind: &MulKind) {
        let net = build_netlist(wa, wb, kind);
        assert_eq!(net.input_count() as u32, wa + wb);
        assert_eq!(net.outputs().len() as u32, wa + wb);
        let pairs: Vec<(u64, u64)> = if wa + wb <= 12 {
            (0..(1u64 << (wa + wb)))
                .map(|v| (v & mask(wa), v >> wa))
                .collect()
        } else {
            let mut p = crate::util::stimulus_pairs(wa, wb, 600, 55);
            p.push((mask(wa), mask(wb)));
            p.push((0, 0));
            p
        };
        for (a, b) in pairs {
            let f = eval(wa, wb, kind, a, b);
            let g = eval_binop(&net, wa, wb, a, b);
            assert_eq!(f, g, "{} a={a} b={b}", kind.label());
        }
    }

    #[test]
    fn exact_matches() {
        check_netlist_matches_functional(8, 8, &MulKind::Exact);
    }

    #[test]
    fn bam_matches() {
        for (vbl, hbl) in [(0, 0), (4, 0), (0, 3), (6, 2), (10, 4), (14, 7)] {
            check_netlist_matches_functional(8, 8, &MulKind::Bam { vbl, hbl });
        }
    }

    #[test]
    fn bam_zero_break_is_exact() {
        let kind = MulKind::Bam { vbl: 0, hbl: 0 };
        for (a, b) in crate::util::stimulus_pairs(8, 8, 400, 5) {
            assert_eq!(eval(8, 8, &kind, a, b), a * b);
        }
    }

    #[test]
    fn bam_underestimates() {
        // Removing partial products can only reduce the product.
        for (vbl, hbl) in [(5, 0), (0, 4), (8, 3)] {
            let kind = MulKind::Bam { vbl, hbl };
            for (a, b) in crate::util::stimulus_pairs(8, 8, 400, 6) {
                assert!(eval(8, 8, &kind, a, b) <= a * b, "vbl={vbl} hbl={hbl}");
            }
        }
    }

    #[test]
    fn trunc_matches() {
        for k in [1, 3, 5, 8] {
            for comp in [false, true] {
                check_netlist_matches_functional(8, 8, &MulKind::Trunc { k, comp });
            }
        }
    }

    #[test]
    fn perf_rows_matches() {
        for row_mask in [0b0000_0001u16, 0b0000_1010, 0b0111_0000, 0b0000_0000] {
            check_netlist_matches_functional(8, 8, &MulKind::PerfRows { row_mask });
        }
    }

    #[test]
    fn udm_exact_mask_is_exact() {
        let kind = MulKind::Udm { leaf_mask: 0 };
        for (a, b) in crate::util::stimulus_pairs(8, 8, 400, 7) {
            assert_eq!(eval(8, 8, &kind, a, b), a * b);
        }
    }

    #[test]
    fn udm_full_mask_underestimates() {
        let kind = MulKind::Udm { leaf_mask: 0xFFFF };
        let mut any_error = false;
        for (a, b) in crate::util::stimulus_pairs(8, 8, 2000, 8) {
            let v = eval(8, 8, &kind, a, b);
            assert!(v <= a * b);
            any_error |= v != a * b;
        }
        assert!(any_error, "full UDM mask must introduce errors");
    }

    #[test]
    fn udm_netlists_match() {
        for leaf_mask in [0u16, 1, 0x00F0, 0x1234, 0xFFFF] {
            check_netlist_matches_functional(8, 8, &MulKind::Udm { leaf_mask });
        }
        // 4x4 has 4 leaves
        check_netlist_matches_functional(4, 4, &MulKind::Udm { leaf_mask: 0b1010 });
    }

    #[test]
    fn udm_2x2_exhaustive() {
        // The approximate 2x2 block must differ from exact only at (3,3).
        let kind = MulKind::Udm { leaf_mask: 1 };
        for a in 0u64..4 {
            for b in 0u64..4 {
                let v = eval(2, 2, &kind, a, b);
                if a == 3 && b == 3 {
                    assert_eq!(v, 7);
                } else {
                    assert_eq!(v, a * b);
                }
            }
        }
        check_netlist_matches_functional(2, 2, &MulKind::Udm { leaf_mask: 1 });
    }

    #[test]
    fn cell_grid_exact_cells_is_exact() {
        let cells: Arc<[FaCell]> = vec![FaCell::EXACT_FA; 7 * 8].into();
        let kind = MulKind::CellGrid { cells };
        for (a, b) in crate::util::stimulus_pairs(8, 8, 400, 9) {
            assert_eq!(eval(8, 8, &kind, a, b), a * b, "a={a} b={b}");
        }
        check_netlist_matches_functional(8, 8, &kind);
    }

    #[test]
    fn cell_grid_random_matches() {
        let mut st = 1234u64;
        for _ in 0..5 {
            let cells: Arc<[FaCell]> = (0..7 * 8)
                .map(|i| {
                    if i % 11 == 0 {
                        FaCell::random(&mut st)
                    } else {
                        FaCell::EXACT_FA
                    }
                })
                .collect::<Vec<_>>()
                .into();
            check_netlist_matches_functional(8, 8, &MulKind::CellGrid { cells });
        }
    }

    #[test]
    fn trunc_smaller_than_exact_area() {
        use crate::synth::synthesize;
        let (_, exact) = synthesize(&build_netlist(8, 8, &MulKind::Exact));
        let (_, trunc) = synthesize(&build_netlist(8, 8, &MulKind::Trunc { k: 6, comp: false }));
        assert!(trunc.area < exact.area);
    }
}
