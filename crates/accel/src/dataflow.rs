//! The dataflow of an image accelerator: the one declaration its software
//! model, hardware netlist, operand profile and cache identity are all
//! derived from (paper Section 2.1's hierarchical models, written once).
//!
//! A [`Dataflow`] is an ordered list of nodes over a 3×3 pixel
//! neighbourhood. Each node is one replaceable slot ([`OpSlot`]) with two
//! operands: a [`tap`], a per-mode constant ([`coeff`]) or an earlier
//! node, shifted left by wiring and fitted (truncated or zero-padded) to
//! the slot's operand width. One exact [`Glue`] turns the last node into
//! the output pixel. The software model runs op-outer over whole-image
//! `u32` planes, gathering the taps once per image, and the profiler
//! histograms the same operand planes.
//!
//! ```
//! use autoax_accel::dataflow::{tap, DataflowBuilder, Glue};
//! use autoax_accel::OpSet;
//! use autoax_circuit::OpSignature;
//! use autoax_image::GrayImage;
//!
//! // out = (left + right) >> 1
//! let mut df = DataflowBuilder::new();
//! df.op("sum", OpSignature::ADD8, tap(3), tap(5));
//! let df = df.finish(Glue::Bits { lo: 1 });
//! let img = GrayImage::from_fn(4, 4, |x, _| 10 * x as u8);
//! let out = df.run(&img, &OpSet::exact_slots(df.slots())).remove(0);
//! assert_eq!(out.get(1, 1), 10);
//! ```

use crate::accelerator::{OpSet, OpSlot};
use crate::profile::Pmf;
use autoax_circuit::netlist::{Bus, Netlist};
use autoax_circuit::util::mask;
use autoax_circuit::OpSignature;
use autoax_image::GrayImage;

/// Where an operand's bits come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// Pixel `i` of the neighbourhood.
    Tap(usize),
    /// Constant `i` of the current mode.
    Coeff(usize),
    /// The output of node `i`.
    Node(usize),
}

/// One operand of a node: a source and its wired left shift
/// (`operand << k`), fitted to the slot's operand width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operand(Src, u32);

/// Pixel `i` of the 3×3 neighbourhood, row-major: `4` is the centre, `3`
/// and `5` its left and right neighbours. Borders replicate the edge.
///
/// # Panics
/// Panics if `i >= 9`.
pub fn tap(i: usize) -> Operand {
    assert!(i < 9, "tap {i} is outside the 3×3 neighbourhood");
    Operand(Src::Tap(i), 0)
}

/// Constant `i` of the current mode, an 8-bit runtime input of the
/// hardware (see [`DataflowBuilder::with_modes`]).
pub fn coeff(i: usize) -> Operand {
    Operand(Src::Coeff(i), 0)
}

impl std::ops::Shl<u32> for Operand {
    type Output = Operand;

    /// A wired left shift: free in hardware, `(x << k)` in software.
    fn shl(self, k: u32) -> Operand {
        let shl = self.1 + k;
        assert!(shl < 32, "shift by {shl} overflows a plane element");
        Operand(self.0, shl)
    }
}

/// The exact logic between the last node and the 8-bit output pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Glue {
    /// Bits `lo..lo + 8` of the last node: a wired right shift, e.g. the
    /// `>> 8` that normalizes the Gaussian filters.
    Bits {
        /// The lowest output bit.
        lo: u32,
    },
    /// `|x|` of the last node's 11-bit two's-complement output, saturated
    /// to 255 (Sobel's edge magnitude). The magnitude is the negation of
    /// the low 10 bits, so −1024 maps to 0, in software as in the gates.
    AbsClamp,
}

impl Glue {
    /// True when the glue can read a last node of output width `width`.
    fn fits(self, width: u32) -> bool {
        match self {
            Glue::Bits { lo } => lo.saturating_add(8) <= width,
            Glue::AbsClamp => width == 11,
        }
    }

    /// The output pixel of a last-node value.
    #[inline]
    fn apply(self, v: u32) -> u8 {
        match self {
            Glue::Bits { lo } => (v >> lo) as u8,
            Glue::AbsClamp => {
                let mag = if v & 0x400 != 0 { v.wrapping_neg() } else { v } & 0x3FF;
                mag.min(255) as u8
            }
        }
    }

    /// The glue's gates, reading the last node's bus `x`.
    fn build(self, n: &mut Netlist, x: &Bus) -> Bus {
        match self {
            Glue::Bits { lo } => x.slice(lo as usize..lo as usize + 8),
            Glue::AbsClamp => {
                let sign = x.bit(10);
                // negate the low 10 bits: ~x + 1
                let mut carry = n.const1();
                let mut neg = Vec::with_capacity(10);
                for i in 0..10 {
                    let inv = n.inv(x.bit(i));
                    let s = n.xor2(inv, carry);
                    carry = n.and2(inv, carry);
                    neg.push(s);
                }
                let mag: Vec<_> = (0..10).map(|i| n.mux2(sign, x.bit(i), neg[i])).collect();
                // saturate: any of bits 8 and 9 set -> 255
                let sat = n.or2(mag[8], mag[9]);
                Bus((0..8).map(|i| n.or2(mag[i], sat)).collect())
            }
        }
    }
}

/// Declares a [`Dataflow`] node by node; see the module example.
#[derive(Debug)]
pub struct DataflowBuilder {
    slots: Vec<OpSlot>,
    operands: Vec<[Operand; 2]>,
    modes: Vec<Vec<u8>>,
}

impl Default for DataflowBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DataflowBuilder {
    /// A single-mode dataflow without constants.
    pub fn new() -> Self {
        Self::with_modes(vec![Vec::new()])
    }

    /// A dataflow with one behavioural mode per constant vector (the
    /// generic Gaussian filter has one per kernel); [`coeff`]`(i)` reads
    /// entry `i` of the mode being run.
    ///
    /// # Panics
    /// Panics if `modes` is empty or its vectors differ in length.
    pub fn with_modes(modes: Vec<Vec<u8>>) -> Self {
        assert!(!modes.is_empty(), "at least one mode required");
        assert!(
            modes.iter().all(|m| m.len() == modes[0].len()),
            "every mode needs the same number of constants"
        );
        DataflowBuilder {
            slots: Vec::new(),
            operands: Vec::new(),
            modes,
        }
    }

    /// Appends a node: slot `name`, drawing its circuits from the
    /// `signature` class, applied to `a` and `b`. Returns the operand
    /// that reads the node's output.
    ///
    /// # Panics
    /// Panics if an operand names a constant the modes lack or a node of
    /// another builder, or if the class's output is wider than 32 bits.
    pub fn op(
        &mut self,
        name: impl Into<String>,
        signature: OpSignature,
        a: Operand,
        b: Operand,
    ) -> Operand {
        for Operand(src, _) in [a, b] {
            match src {
                Src::Tap(_) => {}
                Src::Coeff(i) => assert!(i < self.modes[0].len(), "no constant {i}"),
                Src::Node(i) => assert!(i < self.slots.len(), "no node {i} yet"),
            }
        }
        assert!(signature.output_width() <= 32, "{signature} is too wide");
        self.slots.push(OpSlot::new(name, signature));
        self.operands.push([a, b]);
        Operand(Src::Node(self.slots.len() - 1), 0)
    }

    /// Ends the dataflow in `glue` applied to the last node.
    ///
    /// # Panics
    /// Panics if there is no node or the glue does not fit the last
    /// node's output width.
    pub fn finish(self, glue: Glue) -> Dataflow {
        let last = self.slots.last().expect("a dataflow needs a node");
        let width = last.signature.output_width() as u32;
        assert!(glue.fits(width), "{glue:?} cannot read a {width}-bit node");
        Dataflow {
            slots: self.slots,
            operands: self.operands,
            glue,
            modes: self.modes,
        }
    }
}

/// A validated image-accelerator dataflow (see the module docs).
#[derive(Debug, Clone)]
pub struct Dataflow {
    slots: Vec<OpSlot>,
    operands: Vec<[Operand; 2]>,
    glue: Glue,
    modes: Vec<Vec<u8>>,
}

impl Dataflow {
    /// The replaceable operation slots, in node order.
    pub fn slots(&self) -> &[OpSlot] {
        &self.slots
    }

    /// Number of behavioural modes (constant vectors).
    pub fn mode_count(&self) -> usize {
        self.modes.len()
    }

    /// Runs the software model over a whole image: one output per mode.
    pub fn run(&self, img: &GrayImage, ops: &OpSet) -> Vec<GrayImage> {
        let taps = gather(img);
        (0..self.modes.len())
            .map(|mode| {
                let px = self.execute(&taps, mode, ops, |_, _, _| {});
                GrayImage::from_data(img.width(), img.height(), px)
            })
            .collect()
    }

    /// Step 1a: runs the exact software model over every image and mode
    /// and returns each slot's operand-pair [`Pmf`].
    ///
    /// Images are profiled in parallel through the execution layer's
    /// chunked map-reduce; the per-image counts merge commutatively, so
    /// the result is identical at any thread count.
    pub fn profile(&self, images: &[GrayImage]) -> Vec<Pmf> {
        let exact = OpSet::exact_slots(&self.slots);
        let empty = || -> Vec<Pmf> { self.slots.iter().map(|_| Pmf::new()).collect() };
        autoax_exec::map_reduce(
            images,
            |img| {
                let taps = gather(img);
                let mut pmfs = empty();
                for mode in 0..self.modes.len() {
                    self.execute(&taps, mode, &exact, |slot, a, b| {
                        let pmf = &mut pmfs[slot];
                        for (&x, &y) in a.iter().zip(b) {
                            pmf.add(x, y);
                        }
                    });
                }
                pmfs
            },
            |mut acc, next| {
                for (a, b) in acc.iter_mut().zip(next) {
                    a.absorb(b);
                }
                acc
            },
        )
        .unwrap_or_else(empty)
    }

    /// Builds the flat hardware netlist from one component netlist per
    /// slot: nine 8-bit pixel buses, one 8-bit bus per mode constant,
    /// then each node's component in node order, then the glue.
    ///
    /// # Panics
    /// Panics if `impls` does not hold one netlist per slot.
    pub(crate) fn build_netlist(&self, impls: &[Netlist]) -> Netlist {
        assert_eq!(impls.len(), self.slots.len(), "one netlist per slot");
        let mut top = Netlist::new("accelerator");
        let taps: Vec<Bus> = (0..9).map(|_| top.input_bus(8)).collect();
        let coeffs: Vec<Bus> = self.modes[0].iter().map(|_| top.input_bus(8)).collect();
        let zero = top.const0();
        let mut nodes: Vec<Bus> = Vec::with_capacity(self.slots.len());
        for ((slot, [a, b]), sub) in self.slots.iter().zip(&self.operands).zip(impls) {
            let fit = |&Operand(src, shl): &Operand, width: u8| {
                let bus = match src {
                    Src::Tap(i) => &taps[i],
                    Src::Coeff(i) => &coeffs[i],
                    Src::Node(i) => &nodes[i],
                };
                let mut bits = bus.shifted_left(shl as usize, zero).0;
                bits.resize(width as usize, zero);
                bits
            };
            let mut args = fit(a, slot.signature.width_a);
            args.extend(fit(b, slot.signature.width_b));
            nodes.push(Bus(top.instantiate(sub, &args)));
        }
        let out = self.glue.build(&mut top, nodes.last().expect("validated"));
        top.push_output_bus(&out);
        top
    }

    /// Feeds the dataflow's identity to `sink`: every node's class,
    /// operand sources and shifts, the glue and every mode's constants.
    /// Accelerators that digest equal compute the same function of the
    /// same slot classes.
    pub(crate) fn digest(&self, sink: &mut dyn FnMut(&[u8])) {
        let mut words = vec![self.slots.len() as u64];
        for (slot, operands) in self.slots.iter().zip(&self.operands) {
            let sig = slot.signature;
            words.extend([sig.kind as u64, sig.width_a as u64, sig.width_b as u64]);
            for &Operand(src, shl) in operands {
                let (tag, i) = match src {
                    Src::Tap(i) => (0, i),
                    Src::Coeff(i) => (1, i),
                    Src::Node(i) => (2, i),
                };
                words.extend([tag, i as u64, shl as u64]);
            }
        }
        words.extend(match self.glue {
            Glue::Bits { lo } => [0, lo as u64],
            Glue::AbsClamp => [1, 0],
        });
        for mode in &self.modes {
            words.push(mode.len() as u64);
            words.extend(mode.iter().map(|&c| c as u64));
        }
        for w in words {
            sink(&w.to_le_bytes());
        }
    }

    /// The executor: runs `mode` node by node over the tap planes, shows
    /// `visit` every node's operand planes and returns the output pixels.
    fn execute(
        &self,
        taps: &[Vec<u32>],
        mode: usize,
        ops: &OpSet,
        mut visit: impl FnMut(usize, &[u32], &[u32]),
    ) -> Vec<u8> {
        let consts = &self.modes[mode];
        let mut nodes: Vec<Vec<u32>> = Vec::with_capacity(self.slots.len());
        let (mut scratch_a, mut scratch_b) = (Vec::new(), Vec::new());
        for (i, (slot, [oa, ob])) in self.slots.iter().zip(&self.operands).enumerate() {
            let sig = slot.signature;
            let a = self.operand(*oa, sig.width_a, taps, &nodes, consts, &mut scratch_a);
            let b = self.operand(*ob, sig.width_b, taps, &nodes, consts, &mut scratch_b);
            visit(i, a, b);
            let mut out = vec![0; taps[4].len()];
            ops.apply_plane(i, a, b, mask(sig.output_width() as u32) as u32, &mut out);
            nodes.push(out);
        }
        let last = nodes.last().expect("validated");
        last.iter().map(|&v| self.glue.apply(v)).collect()
    }

    /// The plane of an operand fitted to `width` bits: the source plane
    /// itself when it already fits, else `(src << shl) & mask(width)`
    /// written to `scratch`.
    fn operand<'p>(
        &self,
        Operand(src, shl): Operand,
        width: u8,
        taps: &'p [Vec<u32>],
        nodes: &'p [Vec<u32>],
        consts: &[u8],
        scratch: &'p mut Vec<u32>,
    ) -> &'p [u32] {
        let m = mask(width as u32) as u32;
        let (plane, src_width) = match src {
            Src::Tap(i) => (&taps[i], 8),
            Src::Node(i) => (&nodes[i], self.slots[i].signature.output_width()),
            Src::Coeff(i) => {
                scratch.clear();
                scratch.resize(taps[4].len(), ((consts[i] as u32) << shl) & m);
                return scratch;
            }
        };
        if shl == 0 && src_width <= width {
            return plane;
        }
        scratch.clear();
        scratch.extend(plane.iter().map(|&v| (v << shl) & m));
        scratch
    }
}

/// The nine neighbourhood taps of every pixel as row-major planes, with
/// replicated-edge borders (as [`GrayImage::get_clamped`]), gathered a
/// row at a time: each tap row is a source row, shifted by at most one
/// pixel.
fn gather(img: &GrayImage) -> Vec<Vec<u32>> {
    let (w, h) = (img.width(), img.height());
    let rows: Vec<&[u8]> = img.data().chunks(w).collect();
    (0..9)
        .map(|t| {
            let mut plane = Vec::with_capacity(w * h);
            for y in 0..h {
                let row = rows[(y + t / 3).saturating_sub(1).min(h - 1)];
                let (head, body, tail) = match t % 3 {
                    0 => (&row[..1], &row[..w - 1], &row[..0]),
                    1 => (&row[..0], row, &row[..0]),
                    _ => (&row[..0], &row[1..], &row[w - 1..]),
                };
                plane.extend(head.iter().chain(body).chain(tail).map(|&p| p as u32));
            }
            plane
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Accelerator, CompiledOp};
    use autoax_circuit::charlib::{build_class, CircuitEntry, LibraryConfig};
    use autoax_circuit::sim::sim_lanes;
    use autoax_circuit::util::splitmix64;

    /// The output of `net` with primary input `i` driven by `input(i)`.
    fn eval(net: &Netlist, input: impl Fn(usize) -> u64) -> u64 {
        let words: Vec<u64> = (0..net.input_count()).map(|i| input(i) & 1).collect();
        let outs = sim_lanes(net, &words).into_iter().enumerate();
        outs.fold(0, |acc, (i, w)| acc | (w & 1) << i)
    }

    /// The exact output of `accel`'s first mode on `img`.
    pub(crate) fn run_exact(accel: &dyn Accelerator, img: &GrayImage) -> GrayImage {
        accel.dataflow().run(img, &OpSet::exact(accel)).remove(0)
    }

    /// Simulates `accel`'s derived netlist on every pixel of a random image
    /// in every mode against the executor; `approximate` gives every slot
    /// an approximate entry of its tiny-library class instead of the exact.
    pub(crate) fn assert_netlist_matches_executor(accel: &dyn Accelerator, approximate: bool) {
        let cfg = LibraryConfig::tiny();
        let mut st = 31u64;
        let img = GrayImage::from_fn(12, 7, |_, _| splitmix64(&mut st) as u8);
        let df = accel.dataflow();
        let entries: Vec<CircuitEntry> = (df.slots().iter().enumerate())
            .map(|(i, s)| {
                let mut class = build_class(s.signature, 8, &cfg, s.signature.input_bits() as u64);
                class.swap_remove(approximate as usize * (1 + i % (class.len() - 1)))
            })
            .collect();
        assert_eq!(entries.iter().all(|e| e.is_exact()), !approximate);
        let ops = OpSet::new(entries.iter().map(CompiledOp::compile).collect());
        let impls: Vec<Netlist> = entries.iter().map(|e| e.build_netlist()).collect();
        let top = df.build_netlist(&impls);
        for (mode, out) in df.run(&img, &ops).iter().enumerate() {
            for (p, &px) in out.data().iter().enumerate() {
                let (x, y) = ((p % 12) as isize, (p / 12) as isize);
                let bytes: Vec<u8> = (0..9)
                    .map(|t| img.get_clamped(x + t % 3 - 1, y + t / 3 - 1))
                    .chain(df.modes[mode].iter().copied())
                    .collect();
                let hw = eval(&top, |i| (bytes[i / 8] >> (i % 8)) as u64);
                let what = format!("{} mode {mode} pixel {p}", accel.name());
                assert_eq!(hw, px as u64, "{what}, approximate {approximate}");
            }
        }
    }

    #[test]
    fn glue_software_matches_its_gates_exhaustively() {
        for (glue, width) in [(Glue::AbsClamp, 11), (Glue::Bits { lo: 2 }, 10)] {
            let mut net = Netlist::new("glue");
            let x = net.input_bus(width);
            let out = glue.build(&mut net, &x);
            net.push_output_bus(&out);
            for v in 0..1u32 << width {
                let hw = eval(&net, |i| (v >> i) as u64);
                assert_eq!(hw, glue.apply(v) as u64, "{glue:?} on {v:#x}");
            }
        }
        assert_eq!(Glue::AbsClamp.apply(0x400), 0, "-1024 as the gates see it");
    }

    #[test]
    #[should_panic(expected = "cannot read")]
    fn glue_must_fit_the_last_node() {
        let mut df = DataflowBuilder::new();
        df.op("sum", OpSignature::ADD8, tap(0), tap(1));
        df.finish(Glue::Bits { lo: 2 });
    }

    #[test]
    #[should_panic(expected = "no constant 0")]
    fn constants_must_exist_in_every_mode() {
        DataflowBuilder::new().op("mul", OpSignature::MUL8, tap(0), coeff(0));
    }
}
