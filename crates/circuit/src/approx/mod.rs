//! Approximate circuit families.
//!
//! Each family is defined twice: as a fast *functional model* (plain
//! integer arithmetic, used for software simulation and characterization)
//! and as a *netlist builder* (used for hardware cost analysis). The two
//! are kept equivalent by construction and verified by tests — the same
//! contract the EvoApprox library gives its users (C model + Verilog
//! netlist per circuit).
//!
//! The functional model comes in two shapes. [`Behavior::eval`] is the
//! scalar reference: one operand pair in, one result out.
//! [`Behavior::eval_plane`] evaluates whole operand planes (`u32` per
//! element, results up to 32 bits) and must equal `eval` element for
//! element, including on operand bits above each width, which both
//! ignore. Each family has one plane kernel beside its scalar model
//! ([`adders::eval_plane`], [`subs::eval_plane`], [`muls::eval_plane`]):
//! the kind's parameters (windows, segments, cell truth tables, kept
//! partial-product rows, approximate leaves) are turned into a few
//! passes, each an element-inner loop with no data-dependent branch, so
//! LLVM vectorizes them. The kernels never allocate; `eval_plane` runs
//! them over blocks of [`PLANE_BLOCK`] elements so the passes of one
//! block stay in L1. [`Behavior::Raw`] planes go through the 64-lane
//! netlist simulator.
//!
//! Families implemented (paper Section 1 cites the originating lines of
//! work):
//!
//! | Family | Inspired by | Parameters |
//! |--------|-------------|------------|
//! | truncation (zero / operand-pass) | classic truncation | cut width `k` |
//! | [`adders::AdderKind::Loa`] | Lower-part OR Adder (Mahdiani et al.) | `k` |
//! | [`adders::AdderKind::XorLower`] | ETA-I | `k` |
//! | [`adders::AdderKind::Aca`] | Almost Correct Adder | window `r` |
//! | [`adders::AdderKind::Gear`] | GeAr (Shafique et al., DAC'15) | `(r, p)` |
//! | [`adders::AdderKind::Seg`] | QuAd (Hanif et al., DAC'17) | segmentation |
//! | [`adders::AdderKind::CellRipple`] | approximate mirror adders (AMA/AXA) | per-bit cells |
//! | [`muls::MulKind::Bam`] | Broken-Array Multiplier | `(vbl, hbl)` |
//! | [`muls::MulKind::PerfRows`] | partial-product perforation | row mask |
//! | [`muls::MulKind::Udm`] | Kulkarni 2×2 underdesigned multiplier | leaf mask |
//! | [`muls::MulKind::CellGrid`] | array multiplier with approximate cells | cell grid |
//! | [`mutate`] | CGP-evolved circuits (EvoApprox itself) | seed, #mutations |

pub mod adders;
pub mod cells;
pub mod muls;
pub mod mutate;
pub mod subs;

use crate::netlist::Netlist;
use crate::{OpKind, OpSignature};
use std::sync::Arc;

pub use cells::FaCell;

/// Elements per block of [`Behavior::eval_plane`]: three planes of this
/// many `u32` fill 12 KiB, so a multi-pass kernel re-reads them from L1.
pub const PLANE_BLOCK: usize = 1024;

/// One pass of a plane kernel: `out[k] = f(out[k], a[k], b[k])`.
#[inline(always)]
fn each(out: &mut [u32], a: &[u32], b: &[u32], f: impl Fn(u32, u32, u32) -> u32) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(*o, x, y);
    }
}

/// The lowest `w` bits set, as a plane element (`w <= 32`).
#[inline]
const fn mask32(w: u32) -> u32 {
    crate::util::mask(w) as u32
}

/// The complete description of one library circuit's behaviour: enough to
/// evaluate it functionally *and* to rebuild its netlist deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Behavior {
    /// An adder variant over `w`-bit operands.
    Adder { w: u32, kind: adders::AdderKind },
    /// A subtractor variant over `w`-bit operands (two's-complement
    /// `w+1`-bit result).
    Subtractor { w: u32, kind: subs::SubKind },
    /// A multiplier variant over `wa × wb`-bit operands.
    Multiplier {
        wa: u32,
        wb: u32,
        kind: muls::MulKind,
    },
    /// An arbitrary netlist (produced by structural mutation); the netlist
    /// *is* the behaviour.
    Raw {
        sig: OpSignature,
        netlist: Arc<Netlist>,
    },
}

impl Behavior {
    /// The operation signature this behaviour implements.
    pub fn signature(&self) -> OpSignature {
        match self {
            Behavior::Adder { w, .. } => OpSignature::new(OpKind::Add, *w as u8, *w as u8),
            Behavior::Subtractor { w, .. } => OpSignature::new(OpKind::Sub, *w as u8, *w as u8),
            Behavior::Multiplier { wa, wb, .. } => {
                OpSignature::new(OpKind::Mul, *wa as u8, *wb as u8)
            }
            Behavior::Raw { sig, .. } => *sig,
        }
    }

    /// Evaluates the circuit on one operand pair. Out-of-range operand bits
    /// are masked off.
    pub fn eval(&self, a: u64, b: u64) -> u64 {
        let sig = self.signature();
        let a = a & crate::util::mask(sig.width_a as u32);
        let b = b & crate::util::mask(sig.width_b as u32);
        match self {
            Behavior::Adder { w, kind } => adders::eval(*w, kind, a, b),
            Behavior::Subtractor { w, kind } => subs::eval(*w, kind, a, b),
            Behavior::Multiplier { wa, wb, kind } => muls::eval(*wa, *wb, kind, a, b),
            Behavior::Raw { sig, netlist } => {
                crate::sim::eval_binop(netlist, sig.width_a as u32, sig.width_b as u32, a, b)
            }
        }
    }

    /// Evaluates the circuit over operand planes: `out[k] = eval(a[k],
    /// b[k])` for every `k`, bit for bit (see the module docs).
    ///
    /// # Panics
    /// Panics if the three planes differ in length or the output is wider
    /// than 32 bits.
    pub fn eval_plane(&self, a: &[u32], b: &[u32], out: &mut [u32]) {
        assert!(
            a.len() == out.len() && b.len() == out.len(),
            "operand planes of {} and {} elements for {} outputs",
            a.len(),
            b.len(),
            out.len()
        );
        let sig = self.signature();
        assert!(sig.output_width() <= 32, "{sig} outputs do not fit u32");
        if let Behavior::Raw { netlist, .. } = self {
            let (wa, wb) = (sig.width_a as u32, sig.width_b as u32);
            return crate::sim::eval_binop_plane(netlist, wa, wb, a, b, out);
        }
        let blocks = a.chunks(PLANE_BLOCK).zip(b.chunks(PLANE_BLOCK));
        for ((a, b), out) in blocks.zip(out.chunks_mut(PLANE_BLOCK)) {
            match self {
                Behavior::Adder { w, kind } => adders::eval_plane(*w, kind, a, b, out),
                Behavior::Subtractor { w, kind } => subs::eval_plane(*w, kind, a, b, out),
                Behavior::Multiplier { wa, wb, kind } => {
                    muls::eval_plane(*wa, *wb, kind, a, b, out)
                }
                Behavior::Raw { .. } => unreachable!("simulated above"),
            }
        }
    }

    /// Builds (or clones) the gate-level netlist realizing this behaviour.
    pub fn build_netlist(&self) -> Netlist {
        match self {
            Behavior::Adder { w, kind } => adders::build_netlist(*w, kind),
            Behavior::Subtractor { w, kind } => subs::build_netlist(*w, kind),
            Behavior::Multiplier { wa, wb, kind } => muls::build_netlist(*wa, *wb, kind),
            Behavior::Raw { netlist, .. } => (**netlist).clone(),
        }
    }

    /// A short human-readable family/parameter label (used in reports).
    pub fn label(&self) -> String {
        match self {
            Behavior::Adder { kind, .. } => kind.label(),
            Behavior::Subtractor { kind, .. } => kind.label(),
            Behavior::Multiplier { kind, .. } => kind.label(),
            Behavior::Raw { .. } => "mutant".to_string(),
        }
    }

    /// The exact behaviour for a signature (entry 0 of every library class).
    pub fn exact_for(sig: OpSignature) -> Behavior {
        match sig.kind {
            OpKind::Add => Behavior::Adder {
                w: sig.width_a as u32,
                kind: adders::AdderKind::Exact,
            },
            OpKind::Sub => Behavior::Subtractor {
                w: sig.width_a as u32,
                kind: subs::SubKind::Exact,
            },
            OpKind::Mul => Behavior::Multiplier {
                wa: sig.width_a as u32,
                wb: sig.width_b as u32,
                kind: muls::MulKind::Exact,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_behaviors_match_signature_exact() {
        for sig in OpSignature::PAPER_CLASSES {
            let b = Behavior::exact_for(sig);
            assert_eq!(b.signature(), sig);
            for (x, y) in
                crate::util::stimulus_pairs(sig.width_a as u32, sig.width_b as u32, 300, 42)
            {
                assert_eq!(b.eval(x, y), sig.exact(x, y), "{sig} a={x} b={y}");
            }
        }
    }

    #[test]
    fn exact_netlists_match_functional() {
        for sig in OpSignature::PAPER_CLASSES {
            let b = Behavior::exact_for(sig);
            let n = b.build_netlist();
            for (x, y) in
                crate::util::stimulus_pairs(sig.width_a as u32, sig.width_b as u32, 100, 7)
            {
                let f = b.eval(x, y);
                let g = crate::sim::eval_binop(&n, sig.width_a as u32, sig.width_b as u32, x, y);
                assert_eq!(f, g, "{sig} a={x} b={y}");
            }
        }
    }

    #[test]
    fn eval_plane_matches_eval() {
        let mutant = crate::approx::mutate::mutate_netlist(
            &Behavior::exact_for(OpSignature::ADD8).build_netlist(),
            3,
            9,
        );
        let behaviors = [
            Behavior::Adder {
                w: 8,
                kind: adders::AdderKind::Loa { k: 3 },
            },
            Behavior::Raw {
                sig: OpSignature::ADD8,
                netlist: Arc::new(mutant),
            },
        ];
        // Longer than a block, with a partial last block and operand bits
        // above the width.
        let len = PLANE_BLOCK + 77;
        let mut st = 5u64;
        let a: Vec<u32> = (0..len)
            .map(|_| crate::util::splitmix64(&mut st) as u32)
            .collect();
        let b: Vec<u32> = (0..len)
            .map(|_| crate::util::splitmix64(&mut st) as u32)
            .collect();
        for behavior in &behaviors {
            let mut out = vec![0; len];
            behavior.eval_plane(&a, &b, &mut out);
            for ((&x, &y), &o) in a.iter().zip(&b).zip(&out) {
                assert_eq!(
                    o as u64,
                    behavior.eval(x as u64, y as u64),
                    "{}",
                    behavior.label()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "operand planes")]
    fn eval_plane_rejects_mismatched_planes() {
        Behavior::exact_for(OpSignature::ADD8).eval_plane(&[1, 2], &[3], &mut [0, 0]);
    }

    #[test]
    fn eval_masks_out_of_range_operands() {
        let b = Behavior::exact_for(OpSignature::ADD8);
        assert_eq!(b.eval(0x1FF, 0), 0xFF); // high bit masked
    }
}
