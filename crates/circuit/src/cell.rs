//! Standard-cell library: the gate kinds a [`crate::Netlist`] may contain,
//! with per-cell area, delay, leakage and switching-energy characterization.
//!
//! The numbers are modelled on a 45 nm open cell library (areas in µm²,
//! delays in ns, leakage in nW, switching energy in fJ per output toggle).
//! They are *synthetic but proportionally realistic*: XOR-class cells are
//! roughly 2–3× an inverter in every dimension, exactly the proportions
//! that make approximate-arithmetic area/power trade-offs meaningful. The
//! absolute scale differs from the paper's Synopsys/45 nm flow, which
//! `crate::synth` stands in for (README, "How the paper maps to the
//! code"). Only relative costs matter, because the methodology only ever
//! compares configurations against each other (Pareto filtering).

/// The kinds of cells available to netlists.
///
/// All cells have at most three inputs. Unused input slots are ignored
/// (see [`CellKind::arity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Constant logic 0 (zero inputs, free).
    Const0,
    /// Constant logic 1 (zero inputs, free).
    Const1,
    /// Buffer: `y = a`.
    Buf,
    /// Inverter: `y = !a`.
    Inv,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer: `y = s ? d1 : d0` with inputs `[s, d0, d1]`.
    Mux2,
    /// 3-input majority (the carry function): `y = ab | ac | bc`.
    Maj3,
}

impl CellKind {
    /// All cell kinds (useful for exhaustive tests and mutation).
    pub const ALL: [CellKind; 12] = [
        CellKind::Const0,
        CellKind::Const1,
        CellKind::Buf,
        CellKind::Inv,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Maj3,
    ];

    /// Number of inputs the cell reads.
    pub const fn arity(self) -> usize {
        match self {
            CellKind::Const0 | CellKind::Const1 => 0,
            CellKind::Buf | CellKind::Inv => 1,
            CellKind::And2
            | CellKind::Or2
            | CellKind::Nand2
            | CellKind::Nor2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Mux2 | CellKind::Maj3 => 3,
        }
    }

    /// Cell area in µm².
    pub const fn area(self) -> f64 {
        match self {
            CellKind::Const0 | CellKind::Const1 => 0.0,
            CellKind::Buf => 0.798,
            CellKind::Inv => 0.532,
            CellKind::And2 | CellKind::Or2 => 1.064,
            CellKind::Nand2 | CellKind::Nor2 => 0.798,
            CellKind::Xor2 | CellKind::Xnor2 => 1.596,
            CellKind::Mux2 => 1.862,
            CellKind::Maj3 => 2.128,
        }
    }

    /// Propagation delay in ns (typical corner, unit load).
    pub const fn delay(self) -> f64 {
        match self {
            CellKind::Const0 | CellKind::Const1 => 0.0,
            CellKind::Buf => 0.012,
            CellKind::Inv => 0.008,
            CellKind::And2 | CellKind::Or2 => 0.020,
            CellKind::Nand2 | CellKind::Nor2 => 0.014,
            CellKind::Xor2 | CellKind::Xnor2 => 0.032,
            CellKind::Mux2 => 0.030,
            CellKind::Maj3 => 0.028,
        }
    }

    /// Static leakage power in nW.
    pub const fn leakage(self) -> f64 {
        match self {
            CellKind::Const0 | CellKind::Const1 => 0.0,
            CellKind::Buf => 1.8,
            CellKind::Inv => 1.2,
            CellKind::And2 | CellKind::Or2 => 2.4,
            CellKind::Nand2 | CellKind::Nor2 => 1.9,
            CellKind::Xor2 | CellKind::Xnor2 => 3.8,
            CellKind::Mux2 => 4.2,
            CellKind::Maj3 => 4.6,
        }
    }

    /// Dynamic switching energy in fJ per output toggle.
    pub const fn switch_energy(self) -> f64 {
        match self {
            CellKind::Const0 | CellKind::Const1 => 0.0,
            CellKind::Buf => 1.1,
            CellKind::Inv => 0.7,
            CellKind::And2 | CellKind::Or2 => 1.6,
            CellKind::Nand2 | CellKind::Nor2 => 1.2,
            CellKind::Xor2 | CellKind::Xnor2 => 2.6,
            CellKind::Mux2 => 2.9,
            CellKind::Maj3 => 3.1,
        }
    }

    /// Evaluates the cell on bit-parallel words (each bit lane is an
    /// independent evaluation).
    ///
    /// Unused inputs are ignored. Constants return all-zero / all-one
    /// words.
    #[inline]
    pub fn eval(self, a: u64, b: u64, c: u64) -> u64 {
        match self {
            CellKind::Const0 => 0,
            CellKind::Const1 => u64::MAX,
            CellKind::Buf => a,
            CellKind::Inv => !a,
            CellKind::And2 => a & b,
            CellKind::Or2 => a | b,
            CellKind::Nand2 => !(a & b),
            CellKind::Nor2 => !(a | b),
            CellKind::Xor2 => a ^ b,
            CellKind::Xnor2 => !(a ^ b),
            // a = select, b = d0, c = d1
            CellKind::Mux2 => (a & c) | (!a & b),
            CellKind::Maj3 => (a & b) | (a & c) | (b & c),
        }
    }

    /// True for two-input cells whose function is symmetric in its inputs
    /// (used by structural hashing to canonicalize operand order).
    pub const fn is_commutative2(self) -> bool {
        matches!(
            self,
            CellKind::And2
                | CellKind::Or2
                | CellKind::Nand2
                | CellKind::Nor2
                | CellKind::Xor2
                | CellKind::Xnor2
        )
    }
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CellKind::Const0 => "const0",
            CellKind::Const1 => "const1",
            CellKind::Buf => "buf",
            CellKind::Inv => "inv",
            CellKind::And2 => "and2",
            CellKind::Or2 => "or2",
            CellKind::Nand2 => "nand2",
            CellKind::Nor2 => "nor2",
            CellKind::Xor2 => "xor2",
            CellKind::Xnor2 => "xnor2",
            CellKind::Mux2 => "mux2",
            CellKind::Maj3 => "maj3",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_consistency() {
        for k in CellKind::ALL {
            assert!(k.arity() <= 3);
        }
        assert_eq!(CellKind::Const0.arity(), 0);
        assert_eq!(CellKind::Inv.arity(), 1);
        assert_eq!(CellKind::Xor2.arity(), 2);
        assert_eq!(CellKind::Maj3.arity(), 3);
    }

    #[test]
    fn eval_truth_tables() {
        // Single-lane checks using all-zeros/all-ones words.
        let t = u64::MAX;
        let f = 0u64;
        assert_eq!(CellKind::And2.eval(t, f, 0), 0);
        assert_eq!(CellKind::Or2.eval(t, f, 0), t);
        assert_eq!(CellKind::Xor2.eval(t, t, 0), 0);
        assert_eq!(CellKind::Nand2.eval(t, t, 0), 0);
        assert_eq!(CellKind::Nor2.eval(f, f, 0), t);
        assert_eq!(CellKind::Xnor2.eval(t, f, 0), 0);
        assert_eq!(CellKind::Inv.eval(t, 0, 0), 0);
        // Mux: select=1 picks d1.
        assert_eq!(CellKind::Mux2.eval(t, f, t), t);
        assert_eq!(CellKind::Mux2.eval(f, f, t), f);
        // Majority.
        assert_eq!(CellKind::Maj3.eval(t, t, f), t);
        assert_eq!(CellKind::Maj3.eval(t, f, f), f);
    }

    #[test]
    fn maj3_matches_carry_function() {
        for a in [0u64, 1] {
            for b in [0u64, 1] {
                for c in [0u64, 1] {
                    let exp = (a + b + c) >= 2;
                    let got = CellKind::Maj3.eval(
                        if a == 1 { u64::MAX } else { 0 },
                        if b == 1 { u64::MAX } else { 0 },
                        if c == 1 { u64::MAX } else { 0 },
                    );
                    assert_eq!(got == u64::MAX, exp);
                }
            }
        }
    }

    #[test]
    fn costs_are_positive_for_real_cells() {
        for k in CellKind::ALL {
            if matches!(k, CellKind::Const0 | CellKind::Const1) {
                assert_eq!(k.area(), 0.0);
            } else {
                assert!(k.area() > 0.0);
                assert!(k.delay() > 0.0);
                assert!(k.leakage() > 0.0);
                assert!(k.switch_energy() > 0.0);
            }
        }
    }

    #[test]
    fn xor_costs_more_than_nand() {
        assert!(CellKind::Xor2.area() > CellKind::Nand2.area());
        assert!(CellKind::Xor2.delay() > CellKind::Nand2.delay());
    }

    #[test]
    fn commutativity_flags() {
        assert!(CellKind::And2.is_commutative2());
        assert!(!CellKind::Mux2.is_commutative2());
        assert!(!CellKind::Inv.is_commutative2());
    }
}
