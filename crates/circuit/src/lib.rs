//! # autoax-circuit
//!
//! Gate-level substrate for the [autoAx (DAC 2019)](https://doi.org/10.1145/3316781.3317781)
//! reproduction: a netlist intermediate representation, a 45 nm-like standard
//! cell library, 64-way bit-parallel logic simulation, a "synthesis-lite"
//! optimizer with area/delay/power/energy reporting, and generators for
//! libraries of exact and approximate arithmetic circuits (adders,
//! subtractors and multipliers) in the spirit of EvoApprox8b, QuAd and BAM.
//!
//! The crate replaces three proprietary or external dependencies of the
//! paper:
//!
//! * the downloadable **EvoApprox8b library** is replaced by
//!   [`charlib::build_library`], which generates a configurable number of
//!   fully characterized approximate circuits per operation class from ten
//!   parameterized families plus a seeded structural-mutation engine;
//! * **Synopsys Design Compiler** is replaced by [`synth`], which performs
//!   constant propagation, structural hashing and dead-cell elimination on
//!   the composed accelerator netlist and reports area, critical-path delay
//!   and switching-activity-based power/energy;
//! * **Verilog simulation** is replaced by [`sim`], a 64-way bit-parallel
//!   logic simulator.
//!
//! # Example
//!
//! ```
//! use autoax_circuit::arith::ripple_carry_adder;
//! use autoax_circuit::sim::eval_binop;
//!
//! let adder = ripple_carry_adder(8);
//! assert_eq!(eval_binop(&adder, 8, 8, 100, 55), 155);
//! ```

pub mod approx;
pub mod arch;
pub mod arith;
pub mod cell;
pub mod charlib;
pub mod error;
pub mod netlist;
pub mod sim;
pub mod synth;
pub mod util;

pub use cell::CellKind;
pub use charlib::{CircuitEntry, CircuitId, ClassCounts, ComponentLibrary, LibraryConfig};
pub use error::ErrorMetrics;
pub use netlist::{Bus, Gate, NetId, Netlist};
pub use synth::HwReport;

/// Identifies an operation class: the operation kind and its operand widths.
///
/// The six classes used by the paper's accelerators (Table 1/2) are provided
/// as associated constants.
///
/// ```
/// use autoax_circuit::OpSignature;
/// assert_eq!(OpSignature::ADD8.output_width(), 9);
/// assert_eq!(OpSignature::MUL8.output_width(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpSignature {
    /// The arithmetic operation implemented by circuits of this class.
    pub kind: OpKind,
    /// Width in bits of the first operand.
    pub width_a: u8,
    /// Width in bits of the second operand.
    pub width_b: u8,
}

/// The arithmetic operation kinds that appear in the paper's accelerators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Unsigned addition.
    Add,
    /// Subtraction producing a two's-complement result one bit wider than
    /// the operands (sign bit included).
    Sub,
    /// Unsigned multiplication.
    Mul,
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpKind::Add => write!(f, "add"),
            OpKind::Sub => write!(f, "sub"),
            OpKind::Mul => write!(f, "mul"),
        }
    }
}

impl OpSignature {
    /// 8-bit adder class (Sobel ED, fixed GF).
    pub const ADD8: OpSignature = OpSignature::new(OpKind::Add, 8, 8);
    /// 9-bit adder class (Sobel ED, fixed GF).
    pub const ADD9: OpSignature = OpSignature::new(OpKind::Add, 9, 9);
    /// 16-bit adder class (fixed GF, generic GF).
    pub const ADD16: OpSignature = OpSignature::new(OpKind::Add, 16, 16);
    /// 10-bit subtractor class (Sobel ED).
    pub const SUB10: OpSignature = OpSignature::new(OpKind::Sub, 10, 10);
    /// 16-bit subtractor class (fixed GF).
    pub const SUB16: OpSignature = OpSignature::new(OpKind::Sub, 16, 16);
    /// 8-bit multiplier class (generic GF).
    pub const MUL8: OpSignature = OpSignature::new(OpKind::Mul, 8, 8);

    /// All six classes of Table 2, in the paper's column order.
    pub const PAPER_CLASSES: [OpSignature; 6] = [
        Self::ADD8,
        Self::ADD9,
        Self::ADD16,
        Self::SUB10,
        Self::SUB16,
        Self::MUL8,
    ];

    /// Creates a new signature.
    pub const fn new(kind: OpKind, width_a: u8, width_b: u8) -> Self {
        OpSignature {
            kind,
            width_a,
            width_b,
        }
    }

    /// Width in bits of the (exact) result.
    ///
    /// Additions produce `max(wa, wb) + 1` bits, subtractions a
    /// two's-complement result of `max(wa, wb) + 1` bits, multiplications
    /// `wa + wb` bits.
    pub const fn output_width(&self) -> u8 {
        let w = if self.width_a > self.width_b {
            self.width_a
        } else {
            self.width_b
        };
        match self.kind {
            OpKind::Add | OpKind::Sub => w + 1,
            OpKind::Mul => self.width_a + self.width_b,
        }
    }

    /// Total number of input bits (`wa + wb`).
    pub const fn input_bits(&self) -> u32 {
        self.width_a as u32 + self.width_b as u32
    }

    /// The exact (golden) function of this class.
    ///
    /// Operands wider than the class width are masked. Subtraction returns
    /// the two's-complement difference truncated to `output_width` bits.
    pub fn exact(&self, a: u64, b: u64) -> u64 {
        let a = a & crate::util::mask(self.width_a as u32);
        let b = b & crate::util::mask(self.width_b as u32);
        match self.kind {
            OpKind::Add => a + b,
            OpKind::Sub => a.wrapping_sub(b) & crate::util::mask(self.output_width() as u32),
            OpKind::Mul => a * b,
        }
    }

    /// Interprets a raw `output_width`-bit result of this class as a signed
    /// integer (only meaningful for [`OpKind::Sub`]; other kinds are
    /// returned unchanged).
    pub fn to_signed(&self, raw: u64) -> i64 {
        match self.kind {
            OpKind::Sub => {
                let w = self.output_width() as u32;
                let sign = 1u64 << (w - 1);
                if raw & sign != 0 {
                    (raw | !crate::util::mask(w)) as i64
                } else {
                    raw as i64
                }
            }
            _ => raw as i64,
        }
    }

    /// Numeric error between an approximate raw output and the exact result
    /// for the operand pair `(a, b)`, taking the signedness of subtraction
    /// into account.
    pub fn error(&self, a: u64, b: u64, approx_raw: u64) -> i64 {
        let exact = self.exact(a, b);
        self.to_signed(approx_raw) - self.to_signed(exact)
    }

    /// The full numeric output range (used to normalize error metrics).
    pub fn output_range(&self) -> f64 {
        match self.kind {
            OpKind::Add => {
                (crate::util::mask(self.width_a as u32) + crate::util::mask(self.width_b as u32))
                    as f64
            }
            OpKind::Sub => (2 * crate::util::mask(self.width_a.max(self.width_b) as u32)) as f64,
            OpKind::Mul => {
                (crate::util::mask(self.width_a as u32) * crate::util::mask(self.width_b as u32))
                    as f64
            }
        }
    }
}

impl std::fmt::Display for OpSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.width_a == self.width_b {
            write!(f, "{}{}", self.kind, self.width_a)
        } else {
            write!(f, "{}{}x{}", self.kind, self.width_a, self.width_b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_output_widths_match_table1() {
        assert_eq!(OpSignature::ADD8.output_width(), 9);
        assert_eq!(OpSignature::ADD9.output_width(), 10);
        assert_eq!(OpSignature::ADD16.output_width(), 17);
        assert_eq!(OpSignature::SUB10.output_width(), 11);
        assert_eq!(OpSignature::SUB16.output_width(), 17);
        assert_eq!(OpSignature::MUL8.output_width(), 16);
    }

    #[test]
    fn exact_add_and_mul() {
        assert_eq!(OpSignature::ADD8.exact(255, 255), 510);
        assert_eq!(OpSignature::MUL8.exact(255, 255), 65025);
    }

    #[test]
    fn exact_sub_wraps_to_twos_complement() {
        let s = OpSignature::SUB10;
        let raw = s.exact(0, 1);
        assert_eq!(s.to_signed(raw), -1);
        let raw = s.exact(1000, 20);
        assert_eq!(s.to_signed(raw), 980);
    }

    #[test]
    fn signed_error_of_sub() {
        let s = OpSignature::SUB10;
        let exact_raw = s.exact(0, 4);
        assert_eq!(s.to_signed(exact_raw), -4);
        assert_eq!(s.error(0, 4, 0), 4);
    }

    #[test]
    fn display_names() {
        assert_eq!(OpSignature::ADD8.to_string(), "add8");
        assert_eq!(OpSignature::SUB10.to_string(), "sub10");
        assert_eq!(OpSignature::MUL8.to_string(), "mul8");
    }

    #[test]
    fn output_ranges() {
        assert_eq!(OpSignature::ADD8.output_range(), 510.0);
        assert_eq!(OpSignature::MUL8.output_range(), 255.0 * 255.0);
        assert_eq!(OpSignature::SUB10.output_range(), 2046.0);
    }

    #[test]
    fn mixed_width_display() {
        let s = OpSignature::new(OpKind::Mul, 8, 4);
        assert_eq!(s.to_string(), "mul8x4");
        assert_eq!(s.output_width(), 12);
    }
}
