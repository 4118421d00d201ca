//! The [`Accelerator`] abstraction: a hierarchical design whose arithmetic
//! operations ("slots") can be replaced by approximate circuits — the
//! "hierarchical hardware as well as software models" the methodology
//! requires from the user (paper Section 2.1), both derived from one
//! [`Dataflow`] — plus the compiled per-slot operations ([`OpSet`]) every
//! software model runs on.

use crate::dataflow::Dataflow;
use autoax_circuit::approx::{Behavior, PLANE_BLOCK};
use autoax_circuit::sim::exhaustive_blocks;
use autoax_circuit::{CircuitEntry, OpSignature};
use std::sync::Arc;

/// One replaceable operation of an accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSlot {
    /// Slot name as used in the paper (e.g. `add1`, `sub`).
    pub name: String,
    /// The operation class the slot draws implementations from.
    pub signature: OpSignature,
}

impl OpSlot {
    /// Creates a slot.
    pub fn new(name: impl Into<String>, signature: OpSignature) -> Self {
        OpSlot {
            name: name.into(),
            signature,
        }
    }
}

/// A compiled, fast-callable implementation of one slot.
///
/// Lookup tables are built for every non-exact circuit whose outputs fit
/// 16 bits and whose operand space fits in 2^16 assignments (and for
/// netlist mutants up to 2^20, where scalar simulation would otherwise
/// dominate the software model); everything else evaluates through the
/// circuit's functional model. A model's table is filled through
/// [`Behavior::eval_plane`] over blocks of the enumerated operand space,
/// a mutant's by exhaustive 64-lane simulation, so a compile allocates
/// little beyond its table.
///
/// The dataflow executor evaluates every form a whole operand plane at a
/// time, with the dispatch hoisted out of the element loop: native
/// arithmetic, a table gather, or the circuit's plane kernel. All three
/// equal [`Behavior::eval`] element for element.
#[derive(Debug, Clone)]
pub enum CompiledOp {
    /// The accurate operation (native integer arithmetic).
    Exact(OpSignature),
    /// Tabulated circuit: `table[b << wa | a]`.
    Lut {
        /// Width of operand a (table index stride).
        wa: u32,
        /// Output table, one entry per operand assignment.
        table: Arc<Vec<u16>>,
    },
    /// Direct functional evaluation.
    Func(Behavior),
}

impl CompiledOp {
    /// Compiles a library circuit into its fastest evaluable form.
    pub fn compile(entry: &CircuitEntry) -> CompiledOp {
        let sig = entry.signature();
        if entry.is_exact() {
            return CompiledOp::Exact(sig);
        }
        let max_bits = match &entry.behavior {
            Behavior::Raw { .. } => 20,
            _ => 16,
        };
        if sig.input_bits() > max_bits || sig.output_width() > 16 {
            return CompiledOp::Func(entry.behavior.clone());
        }
        let wa = sig.width_a as u32;
        let mut table = vec![0u16; 1 << sig.input_bits()];
        match &entry.behavior {
            Behavior::Raw { netlist, .. } => exhaustive_blocks(netlist, |first, block| {
                for (t, &v) in table[first..].iter_mut().zip(block) {
                    *t = v as u16;
                }
            }),
            model => tabulate(model, wa, &mut table),
        }
        CompiledOp::Lut {
            wa,
            table: Arc::new(table),
        }
    }

    /// Evaluates the operation.
    #[inline]
    pub fn eval(&self, a: u64, b: u64) -> u64 {
        match self {
            CompiledOp::Exact(sig) => sig.exact(a, b),
            CompiledOp::Lut { wa, table } => table[((b << wa) | a) as usize] as u64,
            CompiledOp::Func(b_) => b_.eval(a, b),
        }
    }
}

/// Fills `table[b << wa | a]` with a functional model's outputs, one
/// [`PLANE_BLOCK`] of the enumerated operand space per plane call.
fn tabulate(model: &Behavior, wa: u32, table: &mut [u16]) {
    let (mut a, mut b, mut out) = ([0; PLANE_BLOCK], [0; PLANE_BLOCK], [0; PLANE_BLOCK]);
    let a_mask = autoax_circuit::util::mask(wa) as u32;
    for (first, chunk) in (0u32..)
        .step_by(PLANE_BLOCK)
        .zip(table.chunks_mut(PLANE_BLOCK))
    {
        let n = chunk.len();
        for (v, (x, y)) in (first..).zip(a[..n].iter_mut().zip(&mut b[..n])) {
            (*x, *y) = (v & a_mask, v >> wa);
        }
        model.eval_plane(&a[..n], &b[..n], &mut out[..n]);
        for (t, &o) in chunk.iter_mut().zip(&out[..n]) {
            *t = o as u16;
        }
    }
}

/// The per-slot implementations for one configuration.
#[derive(Debug, Clone)]
pub struct OpSet {
    ops: Vec<CompiledOp>,
}

impl OpSet {
    /// Builds from pre-compiled ops (must match the accelerator's slots).
    pub fn new(ops: Vec<CompiledOp>) -> Self {
        OpSet { ops }
    }

    /// The all-exact configuration for an accelerator.
    pub fn exact(accel: &dyn Accelerator) -> Self {
        Self::exact_slots(accel.dataflow().slots())
    }

    /// The all-exact op set for a slot list.
    pub fn exact_slots(slots: &[OpSlot]) -> Self {
        OpSet {
            ops: slots
                .iter()
                .map(|s| CompiledOp::Exact(s.signature))
                .collect(),
        }
    }

    /// Evaluates slot `i`.
    #[inline]
    pub fn apply(&self, slot: usize, a: u64, b: u64) -> u64 {
        self.ops[slot].eval(a, b)
    }

    /// Evaluates slot `i` over operand planes, `out[k] = op(a[k], b[k]) &
    /// out_mask`, with the dispatch hoisted out of the loop.
    pub(crate) fn apply_plane(
        &self,
        slot: usize,
        a: &[u32],
        b: &[u32],
        out_mask: u32,
        out: &mut [u32],
    ) {
        let lanes = out.iter_mut().zip(a.iter().zip(b));
        match &self.ops[slot] {
            CompiledOp::Exact(sig) => {
                for (o, (&x, &y)) in lanes {
                    *o = sig.exact(x as u64, y as u64) as u32 & out_mask;
                }
            }
            CompiledOp::Lut { wa, table } => {
                for (o, (&x, &y)) in lanes {
                    *o = table[((y << wa) | x) as usize] as u32 & out_mask;
                }
            }
            CompiledOp::Func(f) => {
                f.eval_plane(a, b, out);
                for o in out {
                    *o &= out_mask;
                }
            }
        }
    }
}

/// Observer of every operation a scalar software model executes: the
/// quantized-NN workload profiles its MAC loop through it, while the
/// image accelerators histogram whole operand planes instead
/// ([`Dataflow::profile`]).
pub trait OpObserver {
    /// Called with the slot index and the operand pair before evaluation.
    fn record(&mut self, slot: usize, a: u64, b: u64);
}

/// An [`OpObserver`] that does nothing (zero-cost in the hot path).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRecord;

impl OpObserver for NoRecord {
    #[inline]
    fn record(&mut self, _slot: usize, _a: u64, _b: u64) {}
}

/// A hierarchical image accelerator: a name and the [`Dataflow`] over a
/// 3×3 pixel neighbourhood that its slots, software model, hardware
/// netlist, operand profile and cache identity are derived from. Every
/// accelerator is a [`crate::Workload`] over grayscale images with
/// mean-SSIM QoR.
pub trait Accelerator: Send + Sync {
    /// Accelerator name as used in the paper.
    fn name(&self) -> &str;

    /// The accelerator's dataflow.
    fn dataflow(&self) -> &Dataflow;
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoax_circuit::charlib::{build_class, LibraryConfig};

    #[test]
    fn compile_exact_entry_is_native() {
        let cfg = LibraryConfig::tiny();
        let entries = build_class(OpSignature::ADD8, 5, &cfg, 1);
        let op = CompiledOp::compile(&entries[0]);
        assert!(matches!(op, CompiledOp::Exact(_)));
        assert_eq!(op.eval(200, 100), 300);
    }

    #[test]
    fn compiled_lut_matches_behavior() {
        let cfg = LibraryConfig::tiny();
        let entries = build_class(OpSignature::ADD8, 20, &cfg, 2);
        for e in &entries[1..] {
            let op = CompiledOp::compile(e);
            for (a, b) in autoax_circuit::util::stimulus_pairs(8, 8, 200, 3) {
                assert_eq!(op.eval(a, b), e.eval(a, b), "{}", e.label);
            }
        }
    }

    #[test]
    fn model_tables_equal_per_pair_tabulation() {
        let lib = autoax_circuit::charlib::build_library(&LibraryConfig::tiny());
        let mut tabulated = 0;
        for sig in lib.signatures() {
            let models = lib.class(sig).iter().filter(|e| !e.is_exact());
            for e in models.filter(|e| !matches!(e.behavior, Behavior::Raw { .. })) {
                let CompiledOp::Lut { wa, table } = CompiledOp::compile(e) else {
                    continue;
                };
                let want = (0..1u64 << sig.input_bits())
                    .map(|v| e.behavior.eval(v & ((1 << wa) - 1), v >> wa) as u16);
                assert!(table.iter().copied().eq(want), "{}", e.label);
                tabulated += 1;
            }
        }
        assert!(tabulated >= 100, "only {tabulated} model tables");
    }

    #[test]
    fn wide_outputs_are_not_truncated_into_a_table() {
        // 20 input bits fit a mutant's table, but 20 output bits do not
        // fit its u16 entries.
        let sig = OpSignature::new(autoax_circuit::OpKind::Mul, 10, 10);
        let exact = Behavior::exact_for(sig).build_netlist();
        let inexact = build_class(OpSignature::MUL8, 5, &LibraryConfig::tiny(), 1)
            .into_iter()
            .find(|e| !e.is_exact())
            .unwrap();
        let entry = CircuitEntry {
            behavior: Behavior::Raw {
                sig,
                netlist: Arc::new(autoax_circuit::approx::mutate::mutate_netlist(&exact, 0, 1)),
            },
            ..inexact
        };
        let op = CompiledOp::compile(&entry);
        assert!(matches!(op, CompiledOp::Func(_)));
        assert_eq!(op.eval(1000, 1000), 1_000_000);
    }

    #[test]
    fn sixteen_bit_entries_stay_functional() {
        let cfg = LibraryConfig::tiny();
        let entries = build_class(OpSignature::ADD16, 10, &cfg, 3);
        for e in entries.iter().filter(|e| !e.is_exact()) {
            let op = CompiledOp::compile(e);
            assert!(
                matches!(op, CompiledOp::Func(_)),
                "{} should not be tabulated",
                e.label
            );
        }
    }
}
