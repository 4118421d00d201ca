//! The [`Accelerator`] abstraction: a hierarchical design whose arithmetic
//! operations ("slots") can be replaced by approximate circuits — the
//! "hierarchical hardware as well as software models" the methodology
//! requires from the user (paper Section 2.1).

use autoax_circuit::approx::Behavior;
use autoax_circuit::sim::exhaustive_outputs;
use autoax_circuit::{CircuitEntry, Netlist, OpSignature};
use autoax_image::ssim::SsimReference;
use autoax_image::GrayImage;
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
        OpSet {
            ops: accel
                .slots()
                .iter()
                .map(|s| CompiledOp::Exact(s.signature))
                .collect(),
        }
    }

    /// Compiles a configuration given one library entry per slot.
    ///
    /// # Panics
    /// Panics if an entry's signature does not match its slot.
    pub fn from_entries(accel: &dyn Accelerator, entries: &[&CircuitEntry]) -> Self {
        assert_eq!(entries.len(), accel.slots().len(), "one entry per slot");
        for (slot, e) in accel.slots().iter().zip(entries.iter()) {
            assert_eq!(
                slot.signature,
                e.signature(),
                "slot {} expects {}, got {}",
                slot.name,
                slot.signature,
                e.signature()
            );
        }
        OpSet {
            ops: entries.iter().map(|e| CompiledOp::compile(e)).collect(),
        }
    }

    /// Number of slots covered.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no ops are present.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Evaluates slot `i`.
    #[inline]
    pub fn apply(&self, slot: usize, a: u64, b: u64) -> u64 {
        self.ops[slot].eval(a, b)
    }
}

/// Observer invoked by the software model on every operation execution.
///
/// The profiler uses this to collect operand PMFs; QoR evaluation passes
/// [`NoRecord`].
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

/// A hierarchical accelerator: software model + hardware netlist over a
/// set of replaceable operation slots.
///
/// All three paper accelerators consume a 3×3 pixel neighbourhood per
/// output pixel. `mode` selects among behavioural variants of the same
/// hardware — the generic Gaussian filter evaluates one mode per kernel
/// coefficient set; the other accelerators have a single mode.
pub trait Accelerator: Send + Sync {
    /// Accelerator name as used in the paper.
    fn name(&self) -> &str;

    /// The replaceable operation slots, in evaluation order.
    fn slots(&self) -> &[OpSlot];

    /// Number of behavioural modes (kernel sets); defaults to 1.
    fn mode_count(&self) -> usize {
        1
    }

    /// Computes one output pixel from the 3×3 neighbourhood
    /// (row-major: `n[3*y + x]`) using `ops`, reporting every operand pair
    /// to `obs`.
    fn kernel(&self, mode: usize, n: &[u8; 9], ops: &OpSet, obs: &mut dyn OpObserver) -> u8;

    /// Builds the flat hardware netlist with the given component netlists
    /// (one per slot, in slot order).
    fn build_netlist(&self, impls: &[Netlist]) -> Netlist;

    /// Runs the software model over a whole image.
    fn run(&self, img: &GrayImage, ops: &OpSet, mode: usize) -> GrayImage {
        let mut out = GrayImage::new(img.width(), img.height());
        let mut obs = NoRecord;
        for y in 0..img.height() as isize {
            for x in 0..img.width() as isize {
                let mut n = [0u8; 9];
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        n[(3 * (dy + 1) + dx + 1) as usize] = img.get_clamped(x + dx, y + dy);
                    }
                }
                let v = self.kernel(mode, &n, ops, &mut obs);
                out.set(x as usize, y as usize, v);
            }
        }
        out
    }

    /// Golden outputs: the software model with all-exact operations, for
    /// every mode.
    fn run_exact(&self, img: &GrayImage) -> Vec<GrayImage> {
        let exact = OpSet::exact_slots(self.slots());
        (0..self.mode_count())
            .map(|m| self.run(img, &exact, m))
            .collect()
    }

    /// Quality of result: mean SSIM of the approximate outputs against the
    /// exact outputs over all images and modes (the paper's QoR measure;
    /// for the generic GF this is the "average SSIM" over 50 kernels).
    ///
    /// Deliberately sequential: on the hot path this runs *under* the
    /// parallel `evaluate_batch` (one task per configuration), so nesting
    /// another fan-out here would oversubscribe the workers.
    fn qor(&self, images: &[GrayImage], golden: &[Vec<SsimReference>], ops: &OpSet) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (img, gold) in images.iter().zip(golden.iter()) {
            for (mode, g) in gold.iter().enumerate() {
                sum += g.ssim(&self.run(img, ops, mode));
                n += 1;
            }
        }
        assert!(n > 0, "qor needs at least one image and mode");
        sum / n as f64
    }

    /// Precomputes the golden side of [`Accelerator::qor`]: the SSIM
    /// reference of every mode's exact output, one parallel task per
    /// image (coarse-grained: a task renders every mode of a whole image).
    fn golden(&self, images: &[GrayImage]) -> Vec<Vec<SsimReference>> {
        autoax_exec::par_map_coarse(images, |img| {
            self.run_exact(img).iter().map(SsimReference::new).collect()
        })
    }
}

impl OpSet {
    /// The all-exact op set for a slot list (free function form used by
    /// trait default methods).
    pub fn exact_slots(slots: &[OpSlot]) -> Self {
        OpSet {
            ops: slots
                .iter()
                .map(|s| CompiledOp::Exact(s.signature))
                .collect(),
        }
    }
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
