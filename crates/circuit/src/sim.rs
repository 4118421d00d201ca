//! Bit-parallel logic simulation.
//!
//! Each net carries `W` `u64` words per gate evaluation, and bit lane `l`
//! of every word belongs to an independent input assignment. This is the
//! classic EDA trick that makes exhaustive characterization of 16-bit
//! operand spaces (65 536 assignments) cheap. There is one gate loop:
//! [`sim_lanes`] and [`sim_all_nets`] run it at one word (64 assignments),
//! the batch passes at four words, 256 assignments per gate evaluation.
//!
//! Every batch entry point is a view of one streaming pass over blocks of
//! 64 assignments. `exhaustive_words` enumerates every input assignment
//! and `packed_words` replays operand pairs packed once into input words
//! (`PackedPairs`). Both hand each block's output words, one per primary
//! output, to a visitor. `block_results` turns a block's words into
//! per-assignment integers with the smallest transpose that holds them:
//! four 16×16 bit blocks side by side in one 16-word pass for up to 16
//! outputs, the full 64×64 matrix otherwise. [`exhaustive_blocks`],
//! [`exhaustive_outputs`], [`eval_binop_batch`] and [`eval_binop_plane`]
//! wrap the pass with it, in assignment order; library characterization
//! (`charlib`) folds the words itself. The streaming passes allocate only
//! their net-value buffer; the two batch calls also pack their pairs.

use crate::netlist::Netlist;
use crate::util::mask;

/// Words per net in the batch passes: 256 assignments per gate evaluation.
const WIDE: usize = 4;

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
    let mut values = vec![[0u64]; netlist.net_count()];
    for (value, &word) in values.iter_mut().zip(inputs) {
        *value = [word];
    }
    eval_gates(netlist, &mut values);
    values.into_iter().map(|[word]| word).collect()
}

/// The gate loop: evaluates every gate of `netlist` into `values` (`W`
/// words per net), whose first `input_count()` entries already hold the
/// input words.
fn eval_gates<const W: usize>(netlist: &Netlist, values: &mut [[u64; W]]) {
    let base = netlist.input_count();
    for (g, gate) in netlist.gates().iter().enumerate() {
        let [a, b, c] = gate.ins.map(|net| values[net.index()]);
        values[base + g] = std::array::from_fn(|w| gate.kind.eval(a[w], b[w], c[w]));
    }
}

/// Transposes the `N`×`N` bit blocks that lie side by side in `m`: for
/// every `j < 64 / N`, bit `N * j + c` of `m[i]` becomes what bit
/// `N * j + i` of `m[c]` was. `N = 64` is the whole 64×64 matrix. Each
/// round swaps the off-diagonal halves of every diagonal block, from
/// `N/2`-wide halves down to single bits.
fn transpose_blocks<const N: usize>(m: &mut [u64; N]) {
    let mut width = N / 2;
    while width != 0 {
        // The low `width` bits of every `2 * width`-bit field.
        let low = !LOW_PATTERNS[width.trailing_zeros() as usize];
        for block in m.chunks_exact_mut(2 * width) {
            let (top, bottom) = block.split_at_mut(width);
            for (x, y) in top.iter_mut().zip(bottom) {
                let t = ((*x >> width) ^ *y) & low;
                *x ^= t << width;
                *y ^= t;
            }
        }
        width /= 2;
    }
}

/// Assembles one block's results: `out[l]` becomes lane `l`'s outputs,
/// LSB-first, where `words[o]` holds output `o` in all 64 lanes. Up to 16
/// outputs take one 16-row pass over four 16×16 blocks (lane `16 * j + c`
/// is then field `j` of row `c`); more take the 64×64 transpose.
///
/// # Panics
/// Panics if `words` holds more than 64 outputs.
#[inline]
pub(crate) fn block_results(words: &[u64], out: &mut [u64; 64]) {
    if words.len() <= 16 {
        let mut m: [u64; 16] = std::array::from_fn(|o| words.get(o).copied().unwrap_or(0));
        transpose_blocks(&mut m);
        for (j, lanes) in out.chunks_exact_mut(16).enumerate() {
            for (r, &row) in lanes.iter_mut().zip(&m) {
                *r = (row >> (16 * j)) & 0xFFFF;
            }
        }
    } else {
        out.fill(0);
        out[..words.len()].copy_from_slice(words);
        transpose_blocks(out);
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

/// The batch pass: simulates `n_blocks` blocks of 64 assignments, [`WIDE`]
/// blocks per gate evaluation, through one net-value buffer.
/// `load(group, inputs)` writes the input words of blocks `WIDE * group`
/// onwards (`inputs[i][w]` drives input `i` in block `WIDE * group + w`).
/// `visit(block, words)` then receives the output words of each of those
/// blocks below `n_blocks`, in block order.
fn wide_pass(
    netlist: &Netlist,
    n_blocks: usize,
    mut load: impl FnMut(usize, &mut [[u64; WIDE]]),
    mut visit: impl FnMut(usize, &[u64]),
) {
    assert_outputs_fit(netlist);
    let outputs = netlist.outputs();
    let mut values = vec![[0u64; WIDE]; netlist.net_count()];
    let mut words = [0u64; 64];
    for group in 0..n_blocks.div_ceil(WIDE) {
        load(group, &mut values[..netlist.input_count()]);
        eval_gates(netlist, &mut values);
        for (w, block) in (WIDE * group..n_blocks).take(WIDE).enumerate() {
            for (word, o) in words.iter_mut().zip(outputs) {
                *word = values[o.index()][w];
            }
            visit(block, &words[..outputs.len()]);
        }
    }
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

/// Operand pairs packed once into the input words of the batch pass, so
/// any number of netlists with one `(wa, wb)` interface can be simulated
/// on the same stimulus without packing it again.
pub(crate) struct PackedPairs {
    n_in: usize,
    len: usize,
    /// `n_in` entries per group of [`WIDE`] blocks.
    words: Vec<[u64; WIDE]>,
}

impl PackedPairs {
    /// Packs `len` operand pairs, `pair(k)` for `k < len`, pair `k` into
    /// lane `k % 64` of block `k / 64`: the first `wa` inputs take the
    /// bits of `a` (LSB first), the next `wb` those of `b`. Operand bits
    /// above each width are ignored, and the lanes of a partial last block
    /// hold zero operands.
    pub(crate) fn new(wa: u32, wb: u32, len: usize, pair: impl Fn(usize) -> (u64, u64)) -> Self {
        let (wa, n_in) = (wa as usize, (wa + wb) as usize);
        let mut words = vec![[0u64; WIDE]; len.div_ceil(64 * WIDE) * n_in];
        for k in 0..len {
            let (a, b) = pair(k);
            let (group, w, lane) = (k / (64 * WIDE), k / 64 % WIDE, k % 64);
            let (a_words, b_words) = words[group * n_in..][..n_in].split_at_mut(wa);
            for (i, word) in a_words.iter_mut().enumerate() {
                word[w] |= ((a >> i) & 1) << lane;
            }
            for (i, word) in b_words.iter_mut().enumerate() {
                word[w] |= ((b >> i) & 1) << lane;
            }
        }
        PackedPairs { n_in, len, words }
    }
}

/// Simulates a netlist on packed operand pairs, streamed: hands
/// `visit(block, words)` the output words of each 64-pair block in order,
/// lane `l` of `words[o]` being output `o` for pair `64 * block + l`.
/// Lanes past the last pair simulate zero operands.
///
/// # Panics
/// Panics if the netlist's input count differs from the packed width, or
/// it has more than 64 outputs.
pub(crate) fn packed_words(
    netlist: &Netlist,
    packed: &PackedPairs,
    visit: impl FnMut(usize, &[u64]),
) {
    let n_in = packed.n_in;
    assert_eq!(netlist.input_count(), n_in, "packed input width mismatch");
    let load = |group: usize, inputs: &mut [[u64; WIDE]]| {
        inputs.copy_from_slice(&packed.words[group * n_in..][..n_in]);
    };
    wide_pass(netlist, packed.len.div_ceil(64), load, visit);
}

/// Evaluates a netlist as a two-operand arithmetic circuit on a batch of
/// operand pairs, 256 pairs per simulation pass.
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

/// Packs `len` operand pairs, `pair(k)` for `k < len`, simulates them and
/// hands each result to `emit(k, r)` in order.
fn binop_passes(
    netlist: &Netlist,
    wa: u32,
    wb: u32,
    len: usize,
    pair: impl Fn(usize) -> (u64, u64),
    mut emit: impl FnMut(usize, u64),
) {
    let packed = PackedPairs::new(wa, wb, len, pair);
    let mut results = [0u64; 64];
    packed_words(netlist, &packed, |block, words| {
        block_results(words, &mut results);
        let first = 64 * block;
        for (k, &r) in (first..len).zip(&results) {
            emit(k, r);
        }
    });
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

/// Exhaustively simulates a netlist with `k = input_count() ≤ 26` inputs,
/// streamed: hands `visit(block, words)` the output words of each block
/// of 64 assignments in order, lane `l` of `words[o]` being output `o`
/// under assignment `64 * block + l` (input 0 = LSB of the assignment).
/// Below six inputs there is one block, whose lanes past `2^k` repeat the
/// first `2^k`.
///
/// # Panics
/// Panics if the netlist has more than 26 inputs or more than 64 outputs.
pub(crate) fn exhaustive_words(netlist: &Netlist, visit: impl FnMut(usize, &[u64])) {
    let k = netlist.input_count();
    assert!(k <= 26, "exhaustive evaluation limited to 26 inputs");
    let load = |group: usize, inputs: &mut [[u64; WIDE]]| {
        for (i, word) in inputs.iter_mut().enumerate() {
            *word = match i.checked_sub(6) {
                None => [LOW_PATTERNS[i]; WIDE],
                // Inputs 6 and up spell the block index.
                Some(bit) => {
                    std::array::from_fn(|w| (((WIDE * group + w) >> bit) as u64 & 1).wrapping_neg())
                }
            };
        }
    };
    wide_pass(netlist, (1usize << k).div_ceil(64), load, visit);
}

/// Exhaustively evaluates a netlist with `k = input_count() ≤ 26` inputs,
/// returning one integer result per input assignment, ordered by the
/// assignment value (input 0 = LSB of the assignment index).
///
/// For a 16-input circuit this performs only 256 bit-parallel passes.
///
/// # Panics
/// Panics if the netlist has more than 26 inputs (the result vector would
/// exceed 64 M entries) or more than 64 outputs.
pub fn exhaustive_outputs(netlist: &Netlist) -> Vec<u64> {
    let mut results = Vec::with_capacity(1 << netlist.input_count().min(26));
    exhaustive_blocks(netlist, |_, block| results.extend_from_slice(block));
    results
}

/// The streaming form of [`exhaustive_outputs`]: hands the results of each
/// block of 64 assignments, in assignment order, to `visit(first,
/// results)` (`first` is the block's first assignment), so only the
/// net-value buffer is allocated.
///
/// # Panics
/// As [`exhaustive_outputs`].
pub fn exhaustive_blocks(netlist: &Netlist, mut visit: impl FnMut(usize, &[u64])) {
    let lanes = 1usize << netlist.input_count().min(6);
    let mut results = [0u64; 64];
    exhaustive_words(netlist, |block, words| {
        block_results(words, &mut results);
        visit(64 * block, &results[..lanes]);
    });
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

        /// The block-swap transposes equal the definition, bit by bit:
        /// the 64×64 matrix, the four 16×16 blocks of a 16-row pass, and
        /// the per-lane results of a block of 1-64 output words.
        #[test]
        fn transpose64_matches_the_naive_bit_loop(
            rows in proptest::collection::vec(any::<u64>(), 64),
            n_out in 1usize..65,
        ) {
            let mut m = [0u64; 64];
            m.copy_from_slice(&rows);
            transpose_blocks(&mut m);
            for (j, &col) in m.iter().enumerate() {
                let mut want = 0u64;
                for (i, &row) in rows.iter().enumerate() {
                    want |= ((row >> j) & 1) << i;
                }
                prop_assert_eq!(col, want, "column {}", j);
            }

            let mut m = [0u64; 16];
            m.copy_from_slice(&rows[..16]);
            transpose_blocks(&mut m);
            for (c, &col) in m.iter().enumerate() {
                let mut want = 0u64;
                for j in 0..4 {
                    for (i, &row) in rows[..16].iter().enumerate() {
                        want |= ((row >> (16 * j + c)) & 1) << (16 * j + i);
                    }
                }
                prop_assert_eq!(col, want, "16-row column {}", c);
            }

            let mut out = [0u64; 64];
            block_results(&rows[..n_out], &mut out);
            for (lane, &r) in out.iter().enumerate() {
                let mut want = 0u64;
                for (o, &row) in rows[..n_out].iter().enumerate() {
                    want |= ((row >> lane) & 1) << o;
                }
                prop_assert_eq!(r, want, "lane {} of {} outputs", lane, n_out);
            }
        }

        /// Exhaustive, packed, batched and plane simulation agree with the
        /// single-pair reference on random netlists: 1-12 inputs (below
        /// six, one partial 64-lane block; below eight, a partial group of
        /// four blocks), 1-64 outputs (a plane keeps the low 32), and
        /// batch lengths that leave a partial last block and group.
        #[test]
        fn batch_simulators_match_eval_binop(
            n_in in 1usize..13,
            n_gates in 0usize..60,
            n_out in 1usize..65,
            seed in any::<u64>(),
            len in 1usize..600,
        ) {
            let n = random_netlist(n_in, n_gates, n_out, seed);
            let k = n_in as u32;
            let all = exhaustive_outputs(&n);
            prop_assert_eq!(all.len(), 1 << n_in);
            for (v, &r) in all.iter().enumerate() {
                prop_assert_eq!(r, eval_binop(&n, k, 0, v as u64, 0), "assignment {}", v);
            }
            // The words themselves, lane by lane: lanes past 2^k repeat.
            let mut blocks = 0;
            exhaustive_words(&n, |block, words| {
                assert_eq!((block, words.len()), (blocks, n_out));
                blocks += 1;
                for lane in 0..64 {
                    let v = (64 * block + lane) % (1 << n_in);
                    let got = words.iter().enumerate().map(|(o, w)| ((w >> lane) & 1) << o);
                    assert_eq!(got.sum::<u64>(), all[v], "block {block} lane {lane}");
                }
            });
            prop_assert_eq!(blocks, (1usize << n_in).div_ceil(64));

            let len = if len % 64 == 0 { len + 1 } else { len };
            let (wa, wb) = (k / 2, k - k / 2);
            let mut st = seed ^ 0x5EED;
            // Unmasked operands: bits above each width must be ignored.
            let pairs: Vec<(u64, u64)> = (0..len)
                .map(|_| (splitmix64(&mut st), splitmix64(&mut st)))
                .collect();
            let packed = PackedPairs::new(wa, wb, len, |k| pairs[k]);
            let zero = eval_binop(&n, wa, wb, 0, 0);
            let mut blocks = 0;
            packed_words(&n, &packed, |block, words| {
                assert_eq!((block, words.len()), (blocks, n_out));
                blocks += 1;
                for lane in 0..64 {
                    let want = match pairs.get(64 * block + lane) {
                        Some(&(a, b)) => eval_binop(&n, wa, wb, a, b),
                        None => zero,
                    };
                    let got = words.iter().enumerate().map(|(o, w)| ((w >> lane) & 1) << o);
                    assert_eq!(got.sum::<u64>(), want, "block {block} lane {lane}");
                }
            });
            prop_assert_eq!(blocks, len.div_ceil(64));
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
