//! "Synthesis-lite": logic optimization and hardware cost reporting.
//!
//! This module stands in for the paper's Synopsys Design Compiler flow. It
//! performs the optimizations that matter for the autoAx methodology:
//!
//! * **constant propagation** — approximate components frequently tie
//!   output bits to constants (truncation) which then simplifies downstream
//!   logic;
//! * **identity folding** — `x & x`, `x ^ x`, double inversion, muxes with
//!   equal branches, …;
//! * **structural hashing** — duplicate gates are merged;
//! * **dead-cell elimination** — logic whose output no longer reaches a
//!   primary output is removed. This is the effect the paper observed when
//!   a heavily approximated final subtractor caused the synthesis tool to
//!   strip large parts of upstream adders, defeating the naïve
//!   sum-of-component-areas model (Section 4.1.2, Fig. 4).
//!
//! Cost reporting covers area (µm²), critical-path delay (ns), power (µW;
//! leakage plus switching-activity-based dynamic power) and energy per
//! operation (fJ).

use crate::cell::CellKind;
use crate::netlist::{NetId, Netlist};
use crate::sim::sim_all_nets;
use autoax_exec::hash::IntMap;

/// Hardware cost report of a synthesized netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwReport {
    /// Total cell area in µm².
    pub area: f64,
    /// Critical-path delay in ns.
    pub delay: f64,
    /// Total power in µW (leakage + dynamic at the reference activity).
    pub power: f64,
    /// Energy per operation in fJ (dynamic switching energy of one average
    /// input transition plus leakage integrated over one critical path).
    pub energy: f64,
    /// Number of cells after optimization (constants excluded).
    pub cells: usize,
}

impl HwReport {
    /// A zero report (used for empty netlists).
    pub const ZERO: HwReport = HwReport {
        area: 0.0,
        delay: 0.0,
        power: 0.0,
        energy: 0.0,
        cells: 0,
    };
}

impl std::fmt::Display for HwReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "area={:.2}um2 delay={:.3}ns power={:.2}uW energy={:.1}fJ cells={}",
            self.area, self.delay, self.power, self.energy, self.cells
        )
    }
}

/// What a net is known to be during optimization.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NetVal {
    /// Constant logic value.
    Const(bool),
    /// Alias of an existing net in the *new* netlist.
    Net(NetId),
    /// Complement of an existing net in the new netlist (tracked so that
    /// `inv(inv(x))` folds without materializing gates).
    NotNet(NetId),
}

/// Optimizes a netlist: constant propagation, identity folding, structural
/// hashing, then dead-cell elimination. The primary input/output interface
/// is preserved; output *functions* are unchanged (verified by tests).
pub fn optimize(netlist: &Netlist) -> Netlist {
    let forward = forward_simplify(netlist);
    dead_cell_elimination(&forward)
}

/// One forward pass of constant propagation + identity folding +
/// structural hashing. Because gates are in topological order, constants
/// cascade through the whole netlist in a single pass.
fn forward_simplify(netlist: &Netlist) -> Netlist {
    let mut out = Netlist::new(netlist.name().to_string());
    for _ in 0..netlist.input_count() {
        out.input();
    }
    // value of each original net, expressed in terms of the new netlist
    let mut vals: Vec<NetVal> = (0..netlist.input_count() as u32)
        .map(|i| NetVal::Net(NetId(i)))
        .collect();
    // structural hash: (kind, resolved inputs) -> new net
    let mut cse: IntMap<(CellKind, [u32; 3]), NetId> = IntMap::default();
    // cached constant nets in the new netlist
    let mut const_nets: [Option<NetId>; 2] = [None, None];
    // cached inverters, indexed by new net: the net of its complement
    let mut inv_cache: Vec<Option<NetId>> = Vec::with_capacity(netlist.net_count());
    let pair_inverters = |cache: &mut Vec<Option<NetId>>, x: NetId, y: NetId| {
        let top = x.index().max(y.index());
        if cache.len() <= top {
            cache.resize(top + 1, None);
        }
        cache[x.index()] = Some(y);
        cache[y.index()] = Some(x);
    };

    // Materializes a NetVal as an actual net in `out`.
    // (Closures can't borrow `out` mutably twice, so plain fns + macros.)
    macro_rules! materialize {
        ($v:expr) => {{
            match $v {
                NetVal::Net(n) => n,
                NetVal::Const(c) => {
                    let slot = usize::from(c);
                    if let Some(n) = const_nets[slot] {
                        n
                    } else {
                        let n = if c { out.const1() } else { out.const0() };
                        const_nets[slot] = Some(n);
                        n
                    }
                }
                NetVal::NotNet(n) => {
                    if let Some(inv) = inv_cache.get(n.index()).copied().flatten() {
                        inv
                    } else {
                        let key = (CellKind::Inv, [n.0, n.0, n.0]);
                        let invn = *cse.entry(key).or_insert_with(|| out.inv(n));
                        pair_inverters(&mut inv_cache, n, invn);
                        invn
                    }
                }
            }
        }};
    }

    for gate in netlist.gates() {
        let raw: [NetVal; 3] = [
            vals[gate.ins[0].index()],
            vals[gate.ins[1].index()],
            vals[gate.ins[2].index()],
        ];
        let v = simplify_gate(gate.kind, raw);
        let v = match v {
            SimplifyResult::Val(v) => v,
            SimplifyResult::Gate(kind, ins) => {
                let mut nets = [NetId(0); 3];
                for (slot, net) in nets.iter_mut().enumerate().take(kind.arity()) {
                    *net = materialize!(ins[slot]);
                }
                // pad unused gate slots with the first used input
                for slot in kind.arity()..3 {
                    nets[slot] = nets[0];
                }
                // canonicalize commutative operand order
                if kind.is_commutative2() && nets[0].0 > nets[1].0 {
                    nets.swap(0, 1);
                }
                // hash key covers only the used arity slots
                let mut key_ins = [u32::MAX; 3];
                for slot in 0..kind.arity() {
                    key_ins[slot] = nets[slot].0;
                }
                let key = (kind, key_ins);
                if let Some(&existing) = cse.get(&key) {
                    NetVal::Net(existing)
                } else {
                    let n = out.push(kind, nets);
                    cse.insert(key, n);
                    if kind == CellKind::Inv {
                        pair_inverters(&mut inv_cache, nets[0], n);
                    }
                    NetVal::Net(n)
                }
            }
        };
        vals.push(v);
    }

    let outs: Vec<NetId> = netlist
        .outputs()
        .iter()
        .map(|o| {
            let v = vals[o.index()];
            materialize!(v)
        })
        .collect();
    out.set_outputs(outs);
    out
}

enum SimplifyResult {
    Val(NetVal),
    Gate(CellKind, [NetVal; 3]),
}

/// Rewrites one gate given the knowledge about its inputs. Returns either a
/// final value (constant/alias/complement) or a — possibly different —
/// gate to emit.
fn simplify_gate(kind: CellKind, ins: [NetVal; 3]) -> SimplifyResult {
    use CellKind::*;
    use NetVal::*;
    use SimplifyResult::*;

    let same = |x: NetVal, y: NetVal| match (x, y) {
        (Net(a), Net(b)) | (NotNet(a), NotNet(b)) => a == b,
        (Const(a), Const(b)) => a == b,
        _ => false,
    };
    let complement = |x: NetVal, y: NetVal| match (x, y) {
        (Net(a), NotNet(b)) | (NotNet(a), Net(b)) => a == b,
        (Const(a), Const(b)) => a != b,
        _ => false,
    };

    match kind {
        Const0 => Val(Const(false)),
        Const1 => Val(Const(true)),
        Buf => Val(ins[0]),
        Inv => Val(match ins[0] {
            Const(c) => Const(!c),
            Net(n) => NotNet(n),
            NotNet(n) => Net(n),
        }),
        And2 | Or2 | Nand2 | Nor2 => {
            let (a, b) = (ins[0], ins[1]);
            // Normalize to AND/OR with an optional output inversion.
            let (base_or, invert_out) = match kind {
                And2 => (false, false),
                Nand2 => (false, true),
                Or2 => (true, false),
                Nor2 => (true, true),
                _ => unreachable!(),
            };
            let invert = |v: NetVal| match v {
                Const(c) => Const(!c),
                Net(n) => NotNet(n),
                NotNet(n) => Net(n),
            };
            // absorbing / identity constants
            let absorbing = base_or; // OR absorbs 1, AND absorbs 0
            for (x, other) in [(a, b), (b, a)] {
                if let Const(c) = x {
                    if c == absorbing {
                        let r = Const(absorbing);
                        return Val(if invert_out { invert(r) } else { r });
                    }
                    // identity element: result = other
                    return Val(if invert_out { invert(other) } else { other });
                }
            }
            if same(a, b) {
                return Val(if invert_out { invert(a) } else { a });
            }
            if complement(a, b) {
                let r = Const(base_or);
                return Val(if invert_out { invert(r) } else { r });
            }
            Gate(kind, ins)
        }
        Xor2 | Xnor2 => {
            let invert_out = kind == Xnor2;
            let (a, b) = (ins[0], ins[1]);
            let invert = |v: NetVal| match v {
                Const(c) => Const(!c),
                Net(n) => NotNet(n),
                NotNet(n) => Net(n),
            };
            for (x, other) in [(a, b), (b, a)] {
                if let Const(c) = x {
                    let r = if c { invert(other) } else { other };
                    return Val(if invert_out { invert(r) } else { r });
                }
            }
            if same(a, b) {
                return Val(Const(invert_out));
            }
            if complement(a, b) {
                return Val(Const(!invert_out));
            }
            // Fold operand complements into the output phase:
            // (!a ^ b) == !(a ^ b)
            let mut phase = invert_out;
            let norm = |v: NetVal, phase: &mut bool| match v {
                NotNet(n) => {
                    *phase = !*phase;
                    Net(n)
                }
                other => other,
            };
            let na = norm(a, &mut phase);
            let nb = norm(b, &mut phase);
            Gate(if phase { Xnor2 } else { Xor2 }, [na, nb, na])
        }
        Mux2 => {
            let (s, d0, d1) = (ins[0], ins[1], ins[2]);
            if let Const(c) = s {
                return Val(if c { d1 } else { d0 });
            }
            if same(d0, d1) {
                return Val(d0);
            }
            match (d0, d1) {
                (Const(false), Const(true)) => return Val(s),
                (Const(true), Const(false)) => {
                    return Val(match s {
                        Net(n) => NotNet(n),
                        NotNet(n) => Net(n),
                        Const(c) => Const(!c),
                    })
                }
                // s ? d1 : 0  ==  s & d1 ; s ? 1 : d0 == s | d0, etc.
                (Const(false), _) => return simplify_gate(And2, [s, d1, s]),
                (_, Const(false)) => {
                    let ns = match s {
                        Net(n) => NotNet(n),
                        NotNet(n) => Net(n),
                        Const(c) => Const(!c),
                    };
                    return simplify_gate(And2, [ns, d0, ns]);
                }
                (Const(true), _) => {
                    let ns = match s {
                        Net(n) => NotNet(n),
                        NotNet(n) => Net(n),
                        Const(c) => Const(!c),
                    };
                    return simplify_gate(Or2, [ns, d1, ns]);
                }
                (_, Const(true)) => return simplify_gate(Or2, [s, d0, s]),
                _ => {}
            }
            Gate(Mux2, ins)
        }
        Maj3 => {
            let (a, b, c) = (ins[0], ins[1], ins[2]);
            for (x, y, z) in [(a, b, c), (a, c, b), (b, c, a)] {
                if let Const(cv) = z {
                    // maj(x, y, 1) = x | y ; maj(x, y, 0) = x & y
                    return simplify_gate(if cv { Or2 } else { And2 }, [x, y, x]);
                }
                if same(x, y) {
                    return Val(x);
                }
                if complement(x, y) {
                    return Val(z);
                }
            }
            Gate(Maj3, ins)
        }
    }
}

/// Removes gates whose output cannot reach any primary output.
fn dead_cell_elimination(netlist: &Netlist) -> Netlist {
    let n_in = netlist.input_count();
    let mut live = vec![false; netlist.net_count()];
    for o in netlist.outputs() {
        live[o.index()] = true;
    }
    for (gi, gate) in netlist.gates().iter().enumerate().rev() {
        if live[n_in + gi] {
            for slot in gate.ins.iter().take(gate.kind.arity()) {
                live[slot.index()] = true;
            }
        }
    }
    let mut out = Netlist::new(netlist.name().to_string());
    for _ in 0..n_in {
        out.input();
    }
    let mut map: Vec<NetId> = (0..n_in as u32).map(NetId).collect();
    for (gi, gate) in netlist.gates().iter().enumerate() {
        if live[n_in + gi] {
            let ins = [
                map[gate.ins[0].index()],
                map[gate.ins[1].index()],
                map[gate.ins[2].index()],
            ];
            let new = out.push(gate.kind, ins);
            map.push(new);
        } else {
            // placeholder; never referenced by live gates
            map.push(NetId(0));
        }
    }
    let outs = netlist.outputs().iter().map(|o| map[o.index()]).collect();
    out.set_outputs(outs);
    out
}

/// Static timing analysis: length (in ns) of the longest combinational
/// path from any input to any output.
pub fn critical_path(netlist: &Netlist) -> f64 {
    let mut arrival = vec![0.0f64; netlist.net_count()];
    let n_in = netlist.input_count();
    for (gi, gate) in netlist.gates().iter().enumerate() {
        let mut t: f64 = 0.0;
        for slot in gate.ins.iter().take(gate.kind.arity()) {
            t = t.max(arrival[slot.index()]);
        }
        arrival[n_in + gi] = t + gate.kind.delay();
    }
    netlist
        .outputs()
        .iter()
        .map(|o| arrival[o.index()])
        .fold(0.0, f64::max)
}

/// Total cell area in µm².
pub fn total_area(netlist: &Netlist) -> f64 {
    netlist.gates().iter().map(|g| g.kind.area()).sum()
}

/// Estimates average switching energy per input transition (fJ) by
/// simulating `n_vectors` deterministic pseudo-random input vectors and
/// counting output toggles of every gate between consecutive vectors.
pub fn switching_energy(netlist: &Netlist, n_vectors: usize, seed: u64) -> f64 {
    if netlist.gate_count() == 0 || n_vectors < 2 {
        return 0.0;
    }
    let n_in = netlist.input_count();
    let mut st = seed ^ 0x1234_5678_9ABC_DEF0;
    let blocks = n_vectors.div_ceil(64).max(1);
    let mut total_fj = 0.0f64;
    let mut transitions = 0usize;
    let mut words = vec![0u64; n_in];
    for _ in 0..blocks {
        for w in words.iter_mut() {
            *w = crate::util::splitmix64(&mut st);
        }
        let values = sim_all_nets(netlist, &words);
        for (gi, gate) in netlist.gates().iter().enumerate() {
            let w = values[n_in + gi];
            // Toggles between adjacent lanes within the word: lane i vs i+1.
            let toggles = (w ^ (w >> 1)) & (u64::MAX >> 1);
            total_fj += toggles.count_ones() as f64 * gate.kind.switch_energy();
        }
        transitions += 63;
    }
    total_fj / transitions as f64
}

/// Analysis options for [`analyze`].
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeOptions {
    /// Number of random vectors for activity estimation.
    pub activity_vectors: usize,
    /// Seed for the activity stimulus stream.
    pub seed: u64,
    /// Clock frequency in MHz used to convert energy/op to dynamic power.
    pub clock_mhz: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            activity_vectors: 512,
            seed: 0xC0FFEE,
            clock_mhz: 500.0,
        }
    }
}

/// Produces the hardware cost report of an (already optimized) netlist.
pub fn analyze(netlist: &Netlist, opts: &AnalyzeOptions) -> HwReport {
    if netlist.gate_count() == 0 {
        return HwReport::ZERO;
    }
    let area = total_area(netlist);
    let delay = critical_path(netlist);
    let sw_fj = switching_energy(netlist, opts.activity_vectors, opts.seed);
    let leakage_nw: f64 = netlist.gates().iter().map(|g| g.kind.leakage()).sum();
    // dynamic power (µW) = energy/op (fJ) * f (MHz) * 1e-3
    let dyn_uw = sw_fj * opts.clock_mhz * 1e-3;
    let leak_uw = leakage_nw * 1e-3;
    let power = dyn_uw + leak_uw;
    // energy per operation: switching energy + leakage over one cycle
    let cycle_ns = 1000.0 / opts.clock_mhz;
    let energy = sw_fj + leak_uw * cycle_ns; // µW * ns = fJ
    HwReport {
        area,
        delay,
        power,
        energy,
        cells: netlist.cell_count(),
    }
}

/// Optimizes and analyzes in one step — the equivalent of "running
/// synthesis" in the paper's flow.
pub fn synthesize(netlist: &Netlist) -> (Netlist, HwReport) {
    let opt = optimize(netlist);
    let report = analyze(&opt, &AnalyzeOptions::default());
    (opt, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::ripple_carry_adder;
    use crate::netlist::Netlist;
    use crate::sim::{check_equivalence, eval_binop};

    #[test]
    fn optimize_preserves_adder_function() {
        let add = ripple_carry_adder(6);
        let opt = optimize(&add);
        assert!(check_equivalence(&add, &opt, 0, 0).is_none());
    }

    #[test]
    fn constant_inputs_fold_away() {
        // y = (a & 0) | b  should fold to  y = b (one buffer at most).
        let mut n = Netlist::new("fold");
        let a = n.input();
        let b = n.input();
        let z = n.const0();
        let t = n.and2(a, z);
        let y = n.or2(t, b);
        n.push_output(y);
        let opt = optimize(&n);
        assert!(opt.cell_count() <= 1, "got {} cells", opt.cell_count());
        assert_eq!(eval_binop(&opt, 1, 1, 0, 1), 1);
        assert_eq!(eval_binop(&opt, 1, 1, 1, 0), 0);
    }

    #[test]
    fn double_inversion_folds() {
        let mut n = Netlist::new("dblinv");
        let a = n.input();
        let x = n.inv(a);
        let y = n.inv(x);
        n.push_output(y);
        let opt = optimize(&n);
        assert_eq!(opt.cell_count(), 0, "double inversion should vanish");
    }

    #[test]
    fn structural_hashing_merges_duplicates() {
        let mut n = Netlist::new("dup");
        let a = n.input();
        let b = n.input();
        let x = n.and2(a, b);
        let y = n.and2(b, a); // commutative duplicate
        let z = n.xor2(x, y); // x == y, so z == 0
        n.push_output(z);
        let opt = optimize(&n);
        // Everything folds to constant 0.
        assert_eq!(opt.cell_count(), 0);
        assert_eq!(eval_binop(&opt, 1, 1, 1, 1), 0);
    }

    #[test]
    fn dce_removes_unconnected_logic() {
        let mut n = Netlist::new("dead");
        let a = n.input();
        let b = n.input();
        let _dead = n.xor2(a, b);
        let live = n.and2(a, b);
        n.push_output(live);
        let opt = optimize(&n);
        assert_eq!(opt.cell_count(), 1);
    }

    #[test]
    fn truncated_outputs_shrink_upstream_area() {
        // The Fig.4 effect: dropping output bits lets synthesis strip logic.
        let add = ripple_carry_adder(8);
        let full = optimize(&add);
        let mut truncated = add.clone();
        // keep only the top output bit
        let top = *truncated.outputs().last().unwrap();
        truncated.set_outputs(vec![top]);
        let opt = optimize(&truncated);
        assert!(
            total_area(&opt) < total_area(&full),
            "truncating outputs must reduce area ({} !< {})",
            total_area(&opt),
            total_area(&full)
        );
    }

    #[test]
    fn critical_path_grows_with_width() {
        let d4 = critical_path(&ripple_carry_adder(4));
        let d16 = critical_path(&ripple_carry_adder(16));
        assert!(d16 > d4 * 2.0);
    }

    #[test]
    fn analyze_reports_positive_costs() {
        let add = ripple_carry_adder(8);
        let (_, r) = synthesize(&add);
        assert!(r.area > 0.0);
        assert!(r.delay > 0.0);
        assert!(r.power > 0.0);
        assert!(r.energy > 0.0);
        assert!(r.cells > 0);
    }

    #[test]
    fn smaller_adder_costs_less() {
        let (_, r4) = synthesize(&ripple_carry_adder(4));
        let (_, r16) = synthesize(&ripple_carry_adder(16));
        assert!(r4.area < r16.area);
        assert!(r4.power < r16.power);
        assert!(r4.energy < r16.energy);
    }

    #[test]
    fn mux_simplifications_preserve_function() {
        // mux(s, d, d) == d; mux with const select folds to branch.
        let mut n = Netlist::new("mux");
        let s = n.input();
        let d = n.input();
        let one = n.const1();
        let m1 = n.mux2(s, d, d);
        let m2 = n.mux2(one, d, s);
        let y = n.xor2(m1, m2); // = d ^ s
        n.push_output(y);
        let opt = optimize(&n);
        for v in 0u64..4 {
            let (sv, dv) = (v & 1, (v >> 1) & 1);
            assert_eq!(eval_binop(&opt, 1, 1, sv, dv), sv ^ dv);
        }
        assert!(opt.cell_count() <= 1);
    }

    #[test]
    fn maj_with_constant_folds_to_and_or() {
        let mut n = Netlist::new("majc");
        let a = n.input();
        let b = n.input();
        let one = n.const1();
        let zero = n.const0();
        let m1 = n.maj3(a, b, one); // a | b
        let m2 = n.maj3(a, b, zero); // a & b
        n.push_output(m1);
        n.push_output(m2);
        let opt = optimize(&n);
        assert_eq!(opt.cell_count(), 2);
        for v in 0u64..4 {
            let (av, bv) = (v & 1, (v >> 1) & 1);
            let outs = crate::sim::sim_lanes(
                &opt,
                &[
                    if av != 0 { u64::MAX } else { 0 },
                    if bv != 0 { u64::MAX } else { 0 },
                ],
            );
            assert_eq!(outs[0] & 1, av | bv);
            assert_eq!(outs[1] & 1, av & bv);
        }
    }

    #[test]
    fn optimize_random_netlists_preserves_function() {
        // Randomized netlists stress the rewrite rules.
        let mut st = 99u64;
        for case in 0..30 {
            let mut n = Netlist::new(format!("rand{case}"));
            let ins: Vec<_> = (0..6).map(|_| n.input()).collect();
            let mut nets = ins.clone();
            for _ in 0..40 {
                let k = CellKind::ALL
                    [(crate::util::splitmix64(&mut st) % CellKind::ALL.len() as u64) as usize];
                let pick = |st: &mut u64, nets: &Vec<NetId>| {
                    nets[(crate::util::splitmix64(st) % nets.len() as u64) as usize]
                };
                let a = pick(&mut st, &nets);
                let b = pick(&mut st, &nets);
                let c = pick(&mut st, &nets);
                let out = n.push(k, [a, b, c]);
                nets.push(out);
            }
            for _ in 0..4 {
                let o = nets[(crate::util::splitmix64(&mut st) % nets.len() as u64) as usize];
                n.push_output(o);
            }
            let opt = optimize(&n);
            assert!(
                check_equivalence(&n, &opt, 0, 0).is_none(),
                "case {case}: optimize changed function"
            );
            assert!(opt.cell_count() <= n.cell_count());
        }
    }

    #[test]
    fn switching_energy_is_deterministic() {
        let add = ripple_carry_adder(8);
        let e1 = switching_energy(&add, 256, 7);
        let e2 = switching_energy(&add, 256, 7);
        assert_eq!(e1, e2);
        assert!(e1 > 0.0);
    }
}
