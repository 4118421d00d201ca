//! 64-way bit-parallel logic simulation.
//!
//! Each net carries one `u64` word per simulation call; bit lane `i` of every
//! word belongs to the `i`-th of 64 independent input assignments. This is
//! the classic EDA trick that makes exhaustive characterization of 16-bit
//! operand spaces (65 536 assignments = 1024 words) cheap.
//!
//! The batch entry points, [`exhaustive_outputs`], [`eval_binop_batch`]
//! and [`eval_binop_plane`], reuse one net-value buffer for all of their
//! 64-lane passes and turn each pass's output words into per-assignment
//! integers with one in-place 64×64 bit-matrix transpose, so a pass
//! allocates nothing.

use crate::netlist::Netlist;
use crate::util::mask;

/// Simulates all 64 lanes at once. `inputs[i]` is the word driving primary
/// input net `i`; the result contains one word per primary output.
///
/// # Panics
/// Panics if `inputs.len()` differs from the netlist's input count.
pub fn sim_lanes(netlist: &Netlist, inputs: &[u64]) -> Vec<u64> {
    let values = sim_all_nets(netlist, inputs);
    netlist
        .outputs()
        .iter()
        .map(|o| values[o.index()])
        .collect()
}

/// Like [`sim_lanes`] but returns the word of *every* net (used by power
/// estimation, which needs internal toggle counts).
pub fn sim_all_nets(netlist: &Netlist, inputs: &[u64]) -> Vec<u64> {
    assert_eq!(
        inputs.len(),
        netlist.input_count(),
        "input word count mismatch for `{}`",
        netlist.name()
    );
    let mut values = vec![0u64; netlist.net_count()];
    values[..inputs.len()].copy_from_slice(inputs);
    eval_gates(netlist, &mut values);
    values
}

/// Evaluates every gate of `netlist` into `values` (one word per net),
/// whose first `input_count()` words already hold the input lanes.
fn eval_gates(netlist: &Netlist, values: &mut [u64]) {
    let base = netlist.input_count();
    for (g, gate) in netlist.gates().iter().enumerate() {
        let a = values[gate.ins[0].index()];
        let b = values[gate.ins[1].index()];
        let c = values[gate.ins[2].index()];
        values[base + g] = gate.kind.eval(a, b, c);
    }
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `j` of `m[i]`
/// is what bit `i` of `m[j]` was. Six rounds swap the off-diagonal blocks
/// of every diagonal block, from 32×32 down to 1×1.
fn transpose64(m: &mut [u64; 64]) {
    let mut width = 32;
    let mut low: u64 = 0x0000_0000_FFFF_FFFF;
    while width != 0 {
        for block in m.chunks_exact_mut(2 * width) {
            let (top, bottom) = block.split_at_mut(width);
            for (x, y) in top.iter_mut().zip(bottom) {
                let t = ((*x >> width) ^ *y) & low;
                *x ^= t << width;
                *y ^= t;
            }
        }
        width /= 2;
        low ^= low << width;
    }
}

/// Panics unless every lane's outputs fit one `u64` result.
fn assert_outputs_fit(netlist: &Netlist) {
    assert!(
        netlist.outputs().len() <= 64,
        "`{}` has {} outputs; a u64 result holds at most 64",
        netlist.name(),
        netlist.outputs().len()
    );
}

/// Writes lane `l`'s outputs, assembled LSB-first into one integer, to
/// `out[l]` for the first `out.len()` lanes.
fn lanes_to_results(netlist: &Netlist, values: &[u64], out: &mut [u64]) {
    let mut m = [0u64; 64];
    for (row, o) in m.iter_mut().zip(netlist.outputs()) {
        *row = values[o.index()];
    }
    transpose64(&mut m);
    out.copy_from_slice(&m[..out.len()]);
}

/// Evaluates a netlist as a two-operand arithmetic circuit on a single
/// operand pair.
///
/// The first `wa` primary inputs receive the bits of `a` (LSB first), the
/// next `wb` inputs the bits of `b`. The outputs are assembled LSB-first
/// into the returned integer.
///
/// # Panics
/// Panics if the netlist does not have exactly `wa + wb` inputs.
pub fn eval_binop(netlist: &Netlist, wa: u32, wb: u32, a: u64, b: u64) -> u64 {
    assert_eq!(netlist.input_count() as u32, wa + wb);
    let mut words = Vec::with_capacity((wa + wb) as usize);
    for i in 0..wa {
        words.push(if (a >> i) & 1 != 0 { u64::MAX } else { 0 });
    }
    for i in 0..wb {
        words.push(if (b >> i) & 1 != 0 { u64::MAX } else { 0 });
    }
    let outs = sim_lanes(netlist, &words);
    let mut r = 0u64;
    for (i, w) in outs.iter().enumerate() {
        r |= (w & 1) << i;
    }
    r
}

/// Evaluates a netlist as a two-operand arithmetic circuit on a batch of
/// operand pairs, 64 pairs per simulation pass.
///
/// # Panics
/// Panics if the netlist does not have exactly `wa + wb` inputs, or has
/// more than 64 outputs.
pub fn eval_binop_batch(netlist: &Netlist, wa: u32, wb: u32, pairs: &[(u64, u64)]) -> Vec<u64> {
    let mut results = vec![0u64; pairs.len()];
    binop_passes(
        netlist,
        wa,
        wb,
        pairs.len(),
        |k| pairs[k],
        |k, r| results[k] = r,
    );
    results
}

/// [`eval_binop_batch`] over operand planes: `out[k]` is the result for
/// `(a[k], b[k])`, truncated to 32 bits.
///
/// # Panics
/// Panics as [`eval_binop_batch`] does, or if the planes differ in length.
pub fn eval_binop_plane(
    netlist: &Netlist,
    wa: u32,
    wb: u32,
    a: &[u32],
    b: &[u32],
    out: &mut [u32],
) {
    assert!(
        a.len() == out.len() && b.len() == out.len(),
        "plane length mismatch"
    );
    let pair = |k: usize| (a[k] as u64, b[k] as u64);
    binop_passes(netlist, wa, wb, out.len(), pair, |k, r| out[k] = r as u32);
}

/// Simulates `len` operand pairs, `pair(k)` for `k < len`, 64 per pass
/// through one net-value buffer, and hands each result to `emit(k, r)`.
fn binop_passes(
    netlist: &Netlist,
    wa: u32,
    wb: u32,
    len: usize,
    pair: impl Fn(usize) -> (u64, u64),
    mut emit: impl FnMut(usize, u64),
) {
    assert_eq!(netlist.input_count() as u32, wa + wb);
    assert_outputs_fit(netlist);
    let (wa, n_in) = (wa as usize, (wa + wb) as usize);
    let mut values = vec![0u64; netlist.net_count()];
    let mut results = [0u64; 64];
    for start in (0..len).step_by(64) {
        let lanes = (len - start).min(64);
        let (a_words, b_words) = values[..n_in].split_at_mut(wa);
        a_words.fill(0);
        b_words.fill(0);
        for lane in 0..lanes {
            let (a, b) = pair(start + lane);
            for (i, w) in a_words.iter_mut().enumerate() {
                *w |= ((a >> i) & 1) << lane;
            }
            for (i, w) in b_words.iter_mut().enumerate() {
                *w |= ((b >> i) & 1) << lane;
            }
        }
        eval_gates(netlist, &mut values);
        lanes_to_results(netlist, &values, &mut results[..lanes]);
        for (lane, &r) in results[..lanes].iter().enumerate() {
            emit(start + lane, r);
        }
    }
}

/// The canonical word patterns that enumerate all assignments of the lowest
/// six input variables within one 64-lane word.
const LOW_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Exhaustively evaluates a netlist with `k = input_count() ≤ 26` inputs,
/// returning one integer result per input assignment, ordered by the
/// assignment value (input 0 = LSB of the assignment index).
///
/// For a 16-input circuit this performs only 1024 bit-parallel passes.
///
/// # Panics
/// Panics if the netlist has more than 26 inputs (the result vector would
/// exceed 64 M entries) or more than 64 outputs.
pub fn exhaustive_outputs(netlist: &Netlist) -> Vec<u64> {
    let mut results = Vec::with_capacity(1 << netlist.input_count().min(26));
    exhaustive_blocks(netlist, |_, block| results.extend_from_slice(block));
    results
}

/// The streaming form of [`exhaustive_outputs`]: hands the results of
/// each 64-assignment pass, in assignment order, to `visit(first, block)`
/// (`first` is the block's first assignment), so only the net-value
/// buffer is allocated.
///
/// # Panics
/// As [`exhaustive_outputs`].
pub fn exhaustive_blocks(netlist: &Netlist, mut visit: impl FnMut(usize, &[u64])) {
    let k = netlist.input_count();
    assert!(k <= 26, "exhaustive evaluation limited to 26 inputs");
    assert_outputs_fit(netlist);
    let mut values = vec![0u64; netlist.net_count()];
    let mut results = [0u64; 64];
    let low = k.min(6);
    values[..low].copy_from_slice(&LOW_PATTERNS[..low]);
    for block in 0..(1usize << k).div_ceil(64) {
        for (i, w) in values[low..k].iter_mut().enumerate() {
            *w = if (block >> i) & 1 != 0 { u64::MAX } else { 0 };
        }
        eval_gates(netlist, &mut values);
        let out = &mut results[..(1 << low)];
        lanes_to_results(netlist, &values, out);
        visit(block * 64, out);
    }
}

/// Checks functional equivalence of two netlists with identical interfaces
/// on `n_samples` deterministic stimuli (exhaustively when the input space
/// is at most 2^20).
///
/// Returns the first differing assignment as a counterexample, or `None`
/// when equivalent on all tested stimuli.
pub fn check_equivalence(a: &Netlist, b: &Netlist, n_samples: usize, seed: u64) -> Option<u64> {
    assert_eq!(a.input_count(), b.input_count());
    assert_eq!(a.outputs().len(), b.outputs().len());
    let k = a.input_count() as u32;
    if k <= 20 {
        let oa = exhaustive_outputs(a);
        let ob = exhaustive_outputs(b);
        return oa
            .iter()
            .zip(ob.iter())
            .position(|(x, y)| x != y)
            .map(|p| p as u64);
    }
    let mut st = seed;
    for _ in 0..n_samples {
        let v = crate::util::splitmix64(&mut st) & mask(k);
        let words: Vec<u64> = (0..k)
            .map(|i| if (v >> i) & 1 != 0 { u64::MAX } else { 0 })
            .collect();
        if sim_lanes(a, &words)
            .iter()
            .zip(sim_lanes(b, &words).iter())
            .any(|(x, y)| (x & 1) != (y & 1))
        {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::netlist::{NetId, Netlist};
    use crate::util::splitmix64;
    use proptest::prelude::*;

    /// A seeded random netlist: `n_gates` gates of any cell kind over any
    /// earlier nets, and `n_out` outputs drawn from all nets (repeats and
    /// bare inputs allowed).
    fn random_netlist(n_in: usize, n_gates: usize, n_out: usize, seed: u64) -> Netlist {
        let mut st = seed;
        let mut n = Netlist::new("random");
        for _ in 0..n_in {
            n.input();
        }
        let pick = |st: &mut u64, nets: usize| NetId((splitmix64(st) % nets as u64) as u32);
        for _ in 0..n_gates {
            let kind = CellKind::ALL[(splitmix64(&mut st) % CellKind::ALL.len() as u64) as usize];
            let nets = n.net_count();
            let ins = [
                pick(&mut st, nets),
                pick(&mut st, nets),
                pick(&mut st, nets),
            ];
            n.push(kind, ins);
        }
        for _ in 0..n_out {
            let o = pick(&mut st, n.net_count());
            n.push_output(o);
        }
        n
    }

    fn xor_netlist() -> Netlist {
        let mut n = Netlist::new("xor");
        let a = n.input();
        let b = n.input();
        let y = n.xor2(a, b);
        n.push_output(y);
        n
    }

    #[test]
    fn lanes_are_independent() {
        let n = xor_netlist();
        // lane 0: 0^0, lane 1: 1^0, lane 2: 0^1, lane 3: 1^1
        let outs = sim_lanes(&n, &[0b1010, 0b1100]);
        assert_eq!(outs[0] & 0xF, 0b0110);
    }

    #[test]
    fn eval_binop_single() {
        let n = xor_netlist();
        assert_eq!(eval_binop(&n, 1, 1, 1, 1), 0);
        assert_eq!(eval_binop(&n, 1, 1, 0, 1), 1);
    }

    #[test]
    fn batch_matches_single() {
        let n = xor_netlist();
        let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i & 1, (i >> 1) & 1)).collect();
        let batch = eval_binop_batch(&n, 1, 1, &pairs);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], eval_binop(&n, 1, 1, a, b));
        }
    }

    #[test]
    fn exhaustive_matches_eval() {
        // 3-input majority gate netlist
        let mut n = Netlist::new("maj");
        let a = n.input();
        let b = n.input();
        let c = n.input();
        let y = n.maj3(a, b, c);
        n.push_output(y);
        let all = exhaustive_outputs(&n);
        assert_eq!(all.len(), 8);
        for v in 0u64..8 {
            let bits = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
            assert_eq!(all[v as usize], u64::from(bits >= 2), "v={v}");
        }
    }

    #[test]
    fn exhaustive_large_block_boundary() {
        // 7 inputs exercises the block loop (two 64-lane blocks).
        let mut n = Netlist::new("parity7");
        let ins: Vec<_> = (0..7).map(|_| n.input()).collect();
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = n.xor2(acc, i);
        }
        n.push_output(acc);
        let all = exhaustive_outputs(&n);
        assert_eq!(all.len(), 128);
        for v in 0u64..128 {
            assert_eq!(all[v as usize], (v.count_ones() as u64) & 1);
        }
    }

    #[test]
    fn equivalence_check_finds_difference() {
        let a = xor_netlist();
        let mut b = Netlist::new("xnor");
        let x = b.input();
        let y = b.input();
        let o = b.xnor2(x, y);
        b.push_output(o);
        assert!(check_equivalence(&a, &a.clone(), 100, 1).is_none());
        assert!(check_equivalence(&a, &b, 100, 1).is_some());
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn more_than_64_outputs_are_rejected() {
        let n = random_netlist(2, 3, 65, 1);
        let _ = exhaustive_outputs(&n);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The block-swap transpose equals the definition, bit by bit.
        #[test]
        fn transpose64_matches_the_naive_bit_loop(
            rows in proptest::collection::vec(any::<u64>(), 64),
        ) {
            let mut m = [0u64; 64];
            m.copy_from_slice(&rows);
            transpose64(&mut m);
            for (j, &col) in m.iter().enumerate() {
                let mut want = 0u64;
                for (i, &row) in rows.iter().enumerate() {
                    want |= ((row >> j) & 1) << i;
                }
                prop_assert_eq!(col, want, "column {}", j);
            }
        }

        /// Exhaustive, batched and plane simulation agree with the
        /// single-pair reference on random netlists: 1-12 inputs (below
        /// six, one partial 64-lane block), 1-64 outputs (a plane keeps
        /// the low 32), and batch lengths that leave a partial last pass.
        #[test]
        fn batch_simulators_match_eval_binop(
            n_in in 1usize..13,
            n_gates in 0usize..60,
            n_out in 1usize..65,
            seed in any::<u64>(),
            len in 1usize..300,
        ) {
            let n = random_netlist(n_in, n_gates, n_out, seed);
            let k = n_in as u32;
            let all = exhaustive_outputs(&n);
            prop_assert_eq!(all.len(), 1 << n_in);
            for (v, &r) in all.iter().enumerate() {
                prop_assert_eq!(r, eval_binop(&n, k, 0, v as u64, 0), "assignment {}", v);
            }

            let len = if len % 64 == 0 { len + 1 } else { len };
            let (wa, wb) = (k / 2, k - k / 2);
            let mut st = seed ^ 0x5EED;
            // Unmasked operands: bits above each width must be ignored.
            let pairs: Vec<(u64, u64)> = (0..len)
                .map(|_| (splitmix64(&mut st), splitmix64(&mut st)))
                .collect();
            let batch = eval_binop_batch(&n, wa, wb, &pairs);
            prop_assert_eq!(batch.len(), len);
            for (&(a, b), &r) in pairs.iter().zip(&batch) {
                prop_assert_eq!(r, eval_binop(&n, wa, wb, a, b));
            }
            let (a, b): (Vec<u32>, Vec<u32>) =
                pairs.iter().map(|&(a, b)| (a as u32, b as u32)).unzip();
            let mut plane = vec![0; len];
            eval_binop_plane(&n, wa, wb, &a, &b, &mut plane);
            for ((&a, &b), &r) in a.iter().zip(&b).zip(&plane) {
                let want = eval_binop(&n, wa, wb, a as u64, b as u64) as u32;
                prop_assert_eq!(r, want);
            }
        }
    }
}
