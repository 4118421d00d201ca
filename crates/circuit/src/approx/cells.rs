//! Approximate full-adder / full-subtractor cells as 3-input truth tables.
//!
//! A [`FaCell`] describes an arbitrary 1-bit cell with two outputs (sum and
//! carry — or difference and borrow) as 8-entry truth tables indexed by
//! `cin<<2 | b<<1 | a`. This uniform representation covers the exact cell,
//! the published approximate-mirror-adder style designs, and arbitrary
//! randomly sampled cells used to give the generated library EvoApprox-like
//! diversity.

/// One 1-bit arithmetic cell: `sum`/`carry` truth tables indexed by
/// `cin<<2 | b<<1 | a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaCell {
    /// Truth table of the sum (or difference) output.
    pub sum: u8,
    /// Truth table of the carry (or borrow) output.
    pub carry: u8,
}

impl FaCell {
    /// The exact full adder: `sum = a ^ b ^ cin`, `carry = maj(a, b, cin)`.
    pub const EXACT_FA: FaCell = FaCell {
        sum: 0b1001_0110,
        carry: 0b1110_1000,
    };

    /// The exact full subtractor: `diff = a ^ b ^ bin`,
    /// `borrow = !a&b | !a&bin | b&bin`.
    pub const EXACT_FS: FaCell = FaCell {
        sum: 0b1001_0110,
        carry: 0b1101_0100,
    };

    /// Evaluates the cell; inputs and outputs are single bits.
    #[inline]
    pub fn eval(&self, a: u64, b: u64, cin: u64) -> (u64, u64) {
        let idx = (a & 1) | ((b & 1) << 1) | ((cin & 1) << 2);
        ((self.sum >> idx) as u64 & 1, (self.carry >> idx) as u64 & 1)
    }

    /// Both truth tables interleaved: bit `2i` is bit `i` of `sum`, bit
    /// `2i + 1` bit `i` of `carry`, so one lookup reads both outputs.
    fn pair_table(self) -> u32 {
        (0..8).fold(0, |t, i| {
            t | ((self.sum as u32 >> i) & 1) << (2 * i)
                | ((self.carry as u32 >> i) & 1) << (2 * i + 1)
        })
    }

    /// Named approximate full-adder variants, in increasing "aggressiveness".
    ///
    /// These are inspired by the approximate mirror adder (AMA) and
    /// approximate XOR adder (AXA) lines of work; the exact published
    /// transistor-level designs differ, but each variant here has the same
    /// flavor: a simplified sum and/or carry function.
    pub fn approx_fa_catalog() -> Vec<FaCell> {
        vec![
            // sum = !carry_exact (AMA1-like single-gate sum)
            FaCell {
                sum: !Self::EXACT_FA.carry,
                carry: Self::EXACT_FA.carry,
            },
            // sum = b, carry exact (AMA2-like)
            FaCell {
                sum: 0b1100_1100,
                carry: Self::EXACT_FA.carry,
            },
            // sum = b, carry = a (AMA3-like)
            FaCell {
                sum: 0b1100_1100,
                carry: 0b1010_1010,
            },
            // sum = a, carry = cin (AMA4-like)
            FaCell {
                sum: 0b1010_1010,
                carry: 0b1111_0000,
            },
            // sum = a | b, carry = a & b (OR-based, LOA cell)
            FaCell {
                sum: 0b1110_1110,
                carry: 0b1000_1000,
            },
            // sum = a ^ b, carry = 0 (carry-cut XOR cell)
            FaCell {
                sum: 0b0110_0110,
                carry: 0b0000_0000,
            },
            // sum = a ^ b ^ cin, carry = a (AXA-like: cheap carry)
            FaCell {
                sum: Self::EXACT_FA.sum,
                carry: 0b1010_1010,
            },
            // sum = !(a ^ b), carry = a & b (inverted-sum XNOR cell)
            FaCell {
                sum: 0b1001_1001,
                carry: 0b1000_1000,
            },
        ]
    }

    /// Named approximate full-subtractor variants (mirroring the adder
    /// catalog for the borrow chain).
    pub fn approx_fs_catalog() -> Vec<FaCell> {
        vec![
            // diff = !borrow_exact
            FaCell {
                sum: !Self::EXACT_FS.carry,
                carry: Self::EXACT_FS.carry,
            },
            // diff = a ^ b, borrow = 0 (borrow-cut)
            FaCell {
                sum: 0b0110_0110,
                carry: 0b0000_0000,
            },
            // diff = a, borrow = b (pass-through)
            FaCell {
                sum: 0b1010_1010,
                carry: 0b1100_1100,
            },
            // diff = a ^ b ^ bin, borrow = b (cheap borrow)
            FaCell {
                sum: Self::EXACT_FS.sum,
                carry: 0b1100_1100,
            },
            // diff = a | !b restricted: use a & !b as diff, borrow = !a & b
            FaCell {
                sum: 0b0010_0010,
                carry: 0b0100_0100,
            },
        ]
    }

    /// A deterministic pseudo-random cell drawn from `state` (used to fill
    /// large library classes with diverse behaviours).
    pub fn random(state: &mut u64) -> FaCell {
        let r = crate::util::splitmix64(state);
        FaCell {
            sum: (r & 0xFF) as u8,
            carry: ((r >> 8) & 0xFF) as u8,
        }
    }
}

/// Both outputs of the cell with pair table `t` on single-bit inputs,
/// `sum | carry << 1`: three mask selects of table halves (carry-in,
/// then b, then a), which vectorize without per-lane shifts.
#[inline(always)]
fn eval_pair(t: u32, a: u32, b: u32, cin: u32) -> u32 {
    let select = |bit: u32, t: u32, half: u32| {
        let m = 0u32.wrapping_sub(bit);
        (t & !m) | ((t >> half) & m)
    };
    select(a, select(b, select(cin, t, 8), 4), 2) & 3
}

/// The ripple of `cells` (cell `i` at bit `i`) over operand planes:
/// bits `0..n` of each output are the sums and bit `n = cells.len()` the
/// final carry, which is also where the running carry lives between
/// passes. Operand bits from `n` up are ignored.
pub(crate) fn ripple_plane(cells: &[FaCell], a: &[u32], b: &[u32], out: &mut [u32]) {
    let n = cells.len() as u32;
    out.fill(0);
    for (i, cell) in (0..n).zip(cells) {
        let t = cell.pair_table();
        super::each(out, a, b, |o, x, y| {
            let r = eval_pair(t, (x >> i) & 1, (y >> i) & 1, o >> n);
            (o & super::mask32(n)) | (r & 1) << i | (r >> 1) << n
        });
    }
}

/// One cell of a multiplier's carry-save row over a plane: the cell at
/// output bit `pos` adds the accumulator bit there, the partial-product
/// bit `pp(x, y)` and the running carry, which lives in bit `carry_bit`
/// (zero above the row until the row ends).
pub(crate) fn grid_cell_plane(
    cell: FaCell,
    pos: u32,
    carry_bit: u32,
    pp: impl Fn(u32, u32) -> u32,
    a: &[u32],
    b: &[u32],
    out: &mut [u32],
) {
    let t = cell.pair_table();
    let keep = !(1u32 << pos | 1u32 << carry_bit);
    super::each(out, a, b, |o, x, y| {
        let r = eval_pair(t, (o >> pos) & 1, pp(x, y), (o >> carry_bit) & 1);
        (o & keep) | (r & 1) << pos | (r >> 1) << carry_bit
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fa_truth_table() {
        for a in 0u64..2 {
            for b in 0u64..2 {
                for c in 0u64..2 {
                    let (s, co) = FaCell::EXACT_FA.eval(a, b, c);
                    let total = a + b + c;
                    assert_eq!(s, total & 1);
                    assert_eq!(co, total >> 1);
                }
            }
        }
    }

    #[test]
    fn exact_fs_truth_table() {
        for a in 0i64..2 {
            for b in 0i64..2 {
                for bin in 0i64..2 {
                    let (d, bo) = FaCell::EXACT_FS.eval(a as u64, b as u64, bin as u64);
                    let diff = a - b - bin;
                    assert_eq!(d as i64, diff.rem_euclid(2), "a={a} b={b} bin={bin}");
                    assert_eq!(bo as i64, i64::from(diff < 0), "a={a} b={b} bin={bin}");
                }
            }
        }
    }

    #[test]
    fn catalogs_are_nonempty_and_differ_from_exact() {
        for c in FaCell::approx_fa_catalog() {
            assert_ne!(c, FaCell::EXACT_FA);
        }
        for c in FaCell::approx_fs_catalog() {
            assert_ne!(c, FaCell::EXACT_FS);
        }
    }

    #[test]
    fn random_cells_deterministic() {
        let mut s1 = 10u64;
        let mut s2 = 10u64;
        assert_eq!(FaCell::random(&mut s1), FaCell::random(&mut s2));
    }
}
