//! The [`Accelerator`] abstraction: a hierarchical design whose arithmetic
//! operations ("slots") can be replaced by approximate circuits — the
//! "hierarchical hardware as well as software models" the methodology
//! requires from the user (paper Section 2.1), both derived from one
//! [`Dataflow`] — plus the compiled per-slot operations ([`OpSet`]) every
//! software model runs on.

use crate::dataflow::Dataflow;
use autoax_circuit::approx::Behavior;
use autoax_circuit::sim::exhaustive_outputs;
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
/// Lookup tables are built for every non-exact circuit whose operand space
/// fits in 2^16 assignments (and for netlist mutants up to 2^20, where
/// scalar simulation would otherwise dominate the software model);
/// everything else evaluates through the circuit's functional model.
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
        let bits = sig.input_bits();
        let lut_worthwhile = match &entry.behavior {
            Behavior::Raw { .. } => bits <= 20,
            _ => bits <= 16,
        };
        if lut_worthwhile {
            debug_assert!(sig.output_width() <= 16, "LUT output must fit u16");
            let table = match &entry.behavior {
                Behavior::Raw { netlist, .. } => exhaustive_outputs(netlist)
                    .into_iter()
                    .map(|v| v as u16)
                    .collect(),
                other => {
                    let wa = sig.width_a as u32;
                    let total = 1usize << bits;
                    let mut t = Vec::with_capacity(total);
                    for v in 0..total as u64 {
                        let a = v & autoax_circuit::util::mask(wa);
                        let b = v >> wa;
                        t.push(other.eval(a, b) as u16);
                    }
                    t
                }
            };
            CompiledOp::Lut {
                wa: sig.width_a as u32,
                table: Arc::new(table),
            }
        } else {
            CompiledOp::Func(entry.behavior.clone())
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
                for (o, (&x, &y)) in lanes {
                    *o = f.eval(x as u64, y as u64) as u32 & out_mask;
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
