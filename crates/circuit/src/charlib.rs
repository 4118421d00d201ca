//! Generation and characterization of approximate-component libraries.
//!
//! This module replaces the paper's downloaded libraries (EvoApprox8b,
//! QuAd adders, BAM multipliers). [`build_library`] fills each operation
//! class with a configurable number of circuits drawn from the
//! parameterized families in [`crate::approx`] — producing exactly the
//! artifact the autoAx methodology consumes: a set of *fully
//! characterized* black-box circuits per operation.
//!
//! Characterization is demand-driven. Each class walks its candidate list
//! in a fixed order, characterizes the next few candidates in parallel
//! (synthesis-lite plus simulation: exhaustive up to
//! [`LibraryConfig::max_exhaustive_bits`] input bits, a large
//! deterministic sample above), passes them in order through the
//! functional dedupe and the garbage filter, and stops as soon as the
//! class is full. Only what the library keeps, plus at most one chunk of
//! overshoot, is ever characterized. The kept entries are the in-order
//! prefix of the accepted candidates, so the library is byte-identical
//! at every thread count.
//!
//! # One pass per candidate
//!
//! A candidate is characterized in one streaming pass, with no output
//! vector. The simulator runs 256 assignments per gate evaluation and
//! hands the output words of every 64-assignment block to a fold, which
//!
//! * hashes the words into the dedupe fingerprint: word-level FNV-1a over
//!   the block's output words (one per output bit, the lanes past the
//!   last assignment cleared), then the rounded area and delay. The key
//!   lives only in memory, so two candidates are duplicates exactly when
//!   they agree on every characterized assignment and on cost;
//! * turns the words into per-assignment results with the smallest
//!   transpose that holds them (`sim::block_results`: four 16×16 blocks
//!   for up to 16 outputs, which covers add8, add9, sub10 and mul8);
//! * folds each result into [`ErrorStats`] against the exact result, with
//!   the class's operation matched once per candidate, not once per
//!   assignment.
//!
//! [`ErrorStats`] sums exactly in integers, which equals the sequential
//! `f64` sums bit for bit while Σe² < 2^53; every shipped configuration
//! stays below 2^48 (see [`crate::error`]). The sampled classes pack
//! their fixed stimulus into input words, and tabulate its exact results,
//! once per class, not once per candidate.
//!
//! [`ClassCounts::paper`] reproduces the library sizes of Table 2.

use crate::approx::adders::{self, AdderKind};
use crate::approx::cells::FaCell;
use crate::approx::muls::MulKind;
use crate::approx::mutate::mutate_netlist;
use crate::approx::subs::SubKind;
use crate::approx::Behavior;
use crate::error::{ErrorMetrics, ErrorStats};
use crate::netlist::Netlist;
use crate::sim;
use crate::synth::{self, HwReport};
use crate::util::{mask, splitmix64, stimulus_pairs};
use crate::{OpKind, OpSignature};
use autoax_exec::par_map_coarse;
use autoax_telemetry as telemetry;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Index of a circuit inside its operation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CircuitId(pub u32);

/// One fully characterized library circuit.
#[derive(Debug, Clone)]
pub struct CircuitEntry {
    /// Index within the class (0 is always the exact circuit).
    pub id: CircuitId,
    /// The functional/structural description.
    pub behavior: Behavior,
    /// Human-readable family label.
    pub label: String,
    /// Hardware cost after synthesis-lite (isolated circuit).
    pub hw: HwReport,
    /// Error metrics versus the exact function.
    pub err: ErrorMetrics,
}

impl CircuitEntry {
    /// Evaluates the circuit on one operand pair.
    pub fn eval(&self, a: u64, b: u64) -> u64 {
        self.behavior.eval(a, b)
    }

    /// The operation signature of this circuit.
    pub fn signature(&self) -> OpSignature {
        self.behavior.signature()
    }

    /// Rebuilds the circuit netlist (deterministic).
    pub fn build_netlist(&self) -> Netlist {
        self.behavior.build_netlist()
    }

    /// True when this is the accurate implementation.
    pub fn is_exact(&self) -> bool {
        self.err.is_exact()
    }
}

/// Target number of circuits per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassCounts {
    /// 8-bit adders.
    pub add8: usize,
    /// 9-bit adders.
    pub add9: usize,
    /// 16-bit adders.
    pub add16: usize,
    /// 10-bit subtractors.
    pub sub10: usize,
    /// 16-bit subtractors.
    pub sub16: usize,
    /// 8-bit multipliers.
    pub mul8: usize,
}

impl ClassCounts {
    /// The library sizes of the paper's Table 2.
    pub fn paper() -> Self {
        ClassCounts {
            add8: 6979,
            add9: 332,
            add16: 884,
            sub10: 365,
            sub16: 460,
            mul8: 29911,
        }
    }

    /// A laptop-friendly default (~10% of paper scale for the two huge
    /// classes); preserves the relative class sizes.
    pub fn default_scale() -> Self {
        ClassCounts {
            add8: 700,
            add9: 150,
            add16: 250,
            sub10: 150,
            sub16: 180,
            mul8: 1200,
        }
    }

    /// Tiny library for fast unit/integration tests.
    pub fn tiny() -> Self {
        ClassCounts {
            add8: 60,
            add9: 40,
            add16: 50,
            sub10: 40,
            sub16: 40,
            mul8: 70,
        }
    }

    /// Target count for a signature (0 for unknown classes).
    pub fn for_signature(&self, sig: OpSignature) -> usize {
        match sig {
            OpSignature::ADD8 => self.add8,
            OpSignature::ADD9 => self.add9,
            OpSignature::ADD16 => self.add16,
            OpSignature::SUB10 => self.sub10,
            OpSignature::SUB16 => self.sub16,
            OpSignature::MUL8 => self.mul8,
            _ => 0,
        }
    }
}

/// Configuration of the library generator.
#[derive(Debug, Clone)]
pub struct LibraryConfig {
    /// Target class sizes.
    pub counts: ClassCounts,
    /// Master RNG seed; the whole library is a deterministic function of
    /// the configuration.
    pub seed: u64,
    /// Number of sampled operand pairs for classes whose input space is
    /// too large for exhaustive characterization.
    pub char_samples: usize,
    /// Classes with at most this many input bits are characterized
    /// exhaustively.
    pub max_exhaustive_bits: u32,
    /// Candidates whose worst-case error exceeds this fraction of the
    /// class output range are discarded as garbage.
    pub max_wce_frac: f64,
    /// Fraction of the "fill" candidates generated as netlist mutants
    /// (the rest are cell-substitution and segmentation draws).
    pub mutant_frac: f64,
}

impl Default for LibraryConfig {
    fn default() -> Self {
        LibraryConfig {
            counts: ClassCounts::default_scale(),
            seed: 42,
            char_samples: 16384,
            max_exhaustive_bits: 18,
            max_wce_frac: 0.75,
            mutant_frac: 0.15,
        }
    }
}

impl LibraryConfig {
    /// Paper-scale configuration (Table 2 counts).
    pub fn paper() -> Self {
        LibraryConfig {
            counts: ClassCounts::paper(),
            ..Default::default()
        }
    }

    /// Tiny test configuration.
    pub fn tiny() -> Self {
        LibraryConfig {
            counts: ClassCounts::tiny(),
            char_samples: 2048,
            ..Default::default()
        }
    }
}

/// A library of characterized circuits grouped by operation class.
#[derive(Debug, Clone, Default)]
pub struct ComponentLibrary {
    classes: BTreeMap<OpSignature, Vec<CircuitEntry>>,
}

impl ComponentLibrary {
    /// The circuits of one class (empty slice if the class is absent).
    pub fn class(&self, sig: OpSignature) -> &[CircuitEntry] {
        self.classes.get(&sig).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Signatures present in the library.
    pub fn signatures(&self) -> impl Iterator<Item = OpSignature> + '_ {
        self.classes.keys().copied()
    }

    /// Number of circuits in a class.
    pub fn class_size(&self, sig: OpSignature) -> usize {
        self.class(sig).len()
    }

    /// Total number of circuits across all classes.
    pub fn total_size(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    /// Inserts (replacing) a class.
    pub fn insert_class(&mut self, sig: OpSignature, entries: Vec<CircuitEntry>) {
        self.classes.insert(sig, entries);
    }
}

/// Builds the full six-class library of the paper.
pub fn build_library(cfg: &LibraryConfig) -> ComponentLibrary {
    let _span = telemetry::span("charlib.build");
    let mut lib = ComponentLibrary::default();
    for (i, sig) in OpSignature::PAPER_CLASSES.into_iter().enumerate() {
        let count = cfg.counts.for_signature(sig);
        if count == 0 {
            continue;
        }
        let entries = build_class(sig, count, cfg, cfg.seed.wrapping_add(i as u64 * 0x9E37));
        lib.insert_class(sig, entries);
    }
    lib
}

/// Candidates characterized per parallel chunk, per worker thread: small,
/// so a class stops soon after it is full, but enough to keep every
/// worker busy between selection steps.
const CHUNK_PER_THREAD: usize = 4;

/// Builds and characterizes one class to (up to) `target` circuits.
///
/// Candidates are generated in rounds — the structured families plus a
/// seeded fill first, then seeded fill only — and characterized on demand,
/// in order, a few per worker thread at a time. After each chunk the
/// candidates pass, in order, through the functional dedupe and the
/// garbage filter, and the class stops as soon as it holds `target`
/// entries; the rest of the round is never characterized. The kept
/// entries are therefore the in-order prefix of the accepted candidates,
/// the same library at every thread count.
///
/// The exact circuit is always entry 0, and `target == 0` yields an empty
/// class. If the family generators plus the seeded fill cannot produce
/// `target` distinct, non-garbage behaviours in eight rounds, the class is
/// returned smaller (never happens at the paper's scales).
pub fn build_class(
    sig: OpSignature,
    target: usize,
    cfg: &LibraryConfig,
    seed: u64,
) -> Vec<CircuitEntry> {
    let mut span = telemetry::span("charlib.class");
    span.field("class", sig);
    span.field("target", target);
    let chunk = CHUNK_PER_THREAD * autoax_exec::thread_count();
    let bench = ClassBench::new(sig, cfg);
    let (entries, characterized) = build_class_chunked(&bench, target, cfg, seed, chunk);
    span.field("characterized", characterized);
    span.field("assignments", characterized * bench.assignments);
    span.field("kept", entries.len());
    entries
}

/// [`build_class`] with an explicit characterization chunk size; also
/// returns how many candidates were characterized. The entries do not
/// depend on `chunk`.
fn build_class_chunked(
    bench: &ClassBench,
    target: usize,
    cfg: &LibraryConfig,
    seed: u64,
    chunk: usize,
) -> (Vec<CircuitEntry>, usize) {
    let sig = bench.sig;
    let mut entries: Vec<CircuitEntry> = Vec::with_capacity(target);
    let mut seen: HashSet<u64> = HashSet::new();
    let mut round_seed = seed;
    let mut characterized = 0;

    // Round 0 uses the structured families; later rounds only random fill.
    for round in 0..8 {
        if entries.len() >= target {
            break;
        }
        let need = target - entries.len();
        let candidates = if round == 0 {
            let mut c = structured_candidates(sig);
            let fill_n = need.saturating_sub(c.len()) + need / 4;
            c.extend(fill_candidates(sig, fill_n, cfg, round_seed));
            c
        } else {
            fill_candidates(sig, need + need / 3 + 8, cfg, round_seed)
        };
        round_seed = round_seed.wrapping_add(0xABCD_EF01);

        for part in candidates.chunks(chunk) {
            if entries.len() >= target {
                break;
            }
            let results = par_map_coarse(part, |b| bench.characterize(b));
            characterized += part.len();
            for (behavior, (err, hw, fingerprint)) in part.iter().zip(results) {
                if entries.len() >= target {
                    break;
                }
                if !seen.insert(fingerprint) {
                    continue; // functional duplicate
                }
                let is_exact_slot = entries.is_empty();
                if !is_exact_slot && err.wce as f64 > cfg.max_wce_frac * sig.output_range() {
                    continue; // garbage
                }
                entries.push(CircuitEntry {
                    id: CircuitId(entries.len() as u32),
                    behavior: behavior.clone(),
                    label: behavior.label(),
                    hw,
                    err,
                });
            }
        }
    }
    debug_assert!(
        entries.first().is_none_or(CircuitEntry::is_exact),
        "entry 0 must be the exact circuit"
    );
    (entries, characterized)
}

/// What characterizing a class needs, prepared once and shared by all of
/// its candidates: the assignments to simulate and the exact result of
/// each.
struct ClassBench {
    sig: OpSignature,
    /// Operand assignments simulated per candidate.
    assignments: usize,
    /// The sampled stimulus packed into input words, with the exact result
    /// of each pair; `None` when the class is characterized exhaustively.
    sample: Option<(sim::PackedPairs, Vec<u64>)>,
}

impl ClassBench {
    /// Exhaustive up to [`LibraryConfig::max_exhaustive_bits`] input bits,
    /// else [`LibraryConfig::char_samples`] deterministic pairs.
    fn new(sig: OpSignature, cfg: &LibraryConfig) -> Self {
        if sig.input_bits() <= cfg.max_exhaustive_bits {
            return ClassBench {
                sig,
                assignments: 1 << sig.input_bits(),
                sample: None,
            };
        }
        let (wa, wb) = (sig.width_a as u32, sig.width_b as u32);
        let seed = 0x5EED ^ sig.input_bits() as u64;
        let pairs = stimulus_pairs(wa, wb, cfg.char_samples, seed);
        let packed = sim::PackedPairs::new(wa, wb, pairs.len(), |k| pairs[k]);
        let exact = pairs.iter().map(|&(a, b)| sig.exact(a, b)).collect();
        ClassBench {
            sig,
            assignments: pairs.len(),
            sample: Some((packed, exact)),
        }
    }

    /// Characterizes one behaviour: error metrics, hardware report and a
    /// fingerprint for deduplication. The fingerprint combines the
    /// functional signature with the rounded area/delay so that
    /// functionally identical circuits with different *architectures*
    /// (e.g. ripple vs lookahead adders) both survive, as they do in real
    /// component libraries.
    ///
    /// Everything goes through the circuit's netlist and the bit-parallel
    /// simulator, so characterization also exercises the same structure
    /// that hardware analysis sees.
    fn characterize(&self, behavior: &Behavior) -> (ErrorMetrics, HwReport, u64) {
        let sig = self.sig;
        let netlist = behavior.build_netlist();
        let (_, hw) = synth::synthesize(&netlist);
        let mut fold = Fold::new(self.assignments);
        let width = sig.output_width() as u32;
        // `OpSignature::to_signed` of a subtractor's raw result.
        let signed = |raw: u64| {
            let high = ((raw >> (width - 1)) & 1).wrapping_neg() & !mask(width);
            (raw | high) as i64
        };
        let (wa, mo) = (sig.width_a as u32, mask(width) as u32);
        // The operation is matched here, once per candidate: each arm folds
        // lane `l` of a block into `(error, exact result)`.
        match (&self.sample, sig.kind) {
            (Some((_, exact)), OpKind::Sub) => self.simulate(&netlist, &mut |block, words| {
                let exact = &exact[64 * block..];
                fold.block(block, words, |l, raw| {
                    (signed(raw) - signed(exact[l]), exact[l])
                })
            }),
            (Some((_, exact)), _) => self.simulate(&netlist, &mut |block, words| {
                let exact = &exact[64 * block..];
                fold.block(block, words, |l, raw| {
                    (raw as i64 - exact[l] as i64, exact[l])
                })
            }),
            (None, OpKind::Add) => self.simulate(&netlist, &mut |block, words| {
                let exact = exact_block(block, wa, |a, b| a + b);
                fold.block(block, words, |l, raw| {
                    (raw as i64 - i64::from(exact[l]), u64::from(exact[l]))
                })
            }),
            (None, OpKind::Sub) => self.simulate(&netlist, &mut |block, words| {
                let exact = exact_block(block, wa, |a, b| a.wrapping_sub(b));
                fold.block(block, words, |l, raw| {
                    let exact = u64::from(exact[l] & mo);
                    (signed(raw) - signed(exact), exact)
                })
            }),
            (None, OpKind::Mul) => self.simulate(&netlist, &mut |block, words| {
                let exact = exact_block(block, wa, |a, b| a * b);
                fold.block(block, words, |l, raw| {
                    (raw as i64 - i64::from(exact[l]), u64::from(exact[l]))
                })
            }),
        }
        fold.hash((hw.area * 16.0).round() as u64);
        fold.hash((hw.delay * 1024.0).round() as u64);
        (fold.stats.finish(), hw, fold.fp)
    }

    /// Simulates a netlist on the class's stimulus, handing each block's
    /// output words to `visit`.
    fn simulate(&self, netlist: &Netlist, visit: &mut dyn FnMut(usize, &[u64])) {
        match &self.sample {
            Some((packed, _)) => sim::packed_words(netlist, packed, visit),
            None => sim::exhaustive_words(netlist, visit),
        }
    }
}

/// The exact results `op(a, b)` of the 64 assignments of block `block` of
/// an exhaustive class whose first operand is `wa` bits wide. An
/// exhaustive class has at most 26 input bits, so its operands, assignment
/// indices and exact results all fit `u32`, and the fold can convert them
/// to `f64` as signed integers.
fn exact_block(block: usize, wa: u32, op: impl Fn(u32, u32) -> u32) -> [u32; 64] {
    let (first, ma) = (64 * block as u32, mask(wa) as u32);
    let mut exact = [0u32; 64];
    for (v, x) in (first..).zip(&mut exact) {
        *x = op(v & ma, v >> wa);
    }
    exact
}

/// One candidate's fold: its blocks of output words, in assignment order,
/// into the error statistics and the dedupe fingerprint.
struct Fold {
    stats: ErrorStats,
    /// Word-level FNV-1a.
    fp: u64,
    assignments: usize,
}

impl Fold {
    fn new(assignments: usize) -> Self {
        Fold {
            stats: ErrorStats::new(),
            fp: 0xcbf2_9ce4_8422_2325, // FNV offset basis
            assignments,
        }
    }

    #[inline]
    fn hash(&mut self, word: u64) {
        self.fp = (self.fp ^ word).wrapping_mul(0x100_0000_01b3);
    }

    /// Folds block `block`, where `words[o]` holds output `o` in all 64
    /// lanes and lane `l` is assignment `64 * block + l`; `lane(l, raw)` is
    /// that assignment's error and exact result.
    #[inline]
    fn block(&mut self, block: usize, words: &[u64], lane: impl Fn(usize, u64) -> (i64, u64)) {
        let first = 64 * block;
        let lanes = (self.assignments - first).min(64);
        for &word in words {
            self.hash(word & mask(lanes as u32));
        }
        let mut results = [0u64; 64];
        sim::block_results(words, &mut results);
        // Locals, so no store through `lane`'s captures can alias them and
        // the statistics stay in registers across the lanes.
        let mut stats = std::mem::take(&mut self.stats);
        for (l, &raw) in results[..lanes].iter().enumerate() {
            let (err, exact) = lane(l, raw);
            stats.push(err, exact);
        }
        self.stats = stats;
    }
}

/// All "named" structured variants of a class, exact first.
fn structured_candidates(sig: OpSignature) -> Vec<Behavior> {
    match sig.kind {
        OpKind::Add => structured_adders(sig.width_a as u32),
        OpKind::Sub => structured_subs(sig.width_a as u32),
        OpKind::Mul => structured_muls(sig.width_a as u32, sig.width_b as u32),
    }
}

fn structured_adders(w: u32) -> Vec<Behavior> {
    let mut out = vec![Behavior::Adder {
        w,
        kind: AdderKind::Exact,
    }];
    let mut push = |kind: AdderKind| {
        out.push(Behavior::Adder { w, kind });
    };
    push(AdderKind::ExactCla);
    for k in 1..w {
        push(AdderKind::TruncZero { k });
        push(AdderKind::TruncPass { k });
        push(AdderKind::Loa { k });
        push(AdderKind::XorLower { k });
    }
    for r in 1..w {
        push(AdderKind::Aca { r });
    }
    for r in 1..=w / 2 {
        for p in 1..=w / 2 {
            if r + p < w {
                push(AdderKind::Gear { r, p });
            }
        }
    }
    // QuAd-style segmentations: enumerate fully up to 9 bits, else defer to
    // the random fill.
    if w <= 9 {
        for segs in adders::segment_compositions(w) {
            for speculate in [false, true] {
                push(AdderKind::Seg {
                    segs: segs.clone(),
                    speculate,
                });
            }
        }
    }
    // Low-k catalog-cell substitutions.
    for k in 1..w {
        for cell in FaCell::approx_fa_catalog() {
            let cells: Arc<[FaCell]> = (0..w)
                .map(|i| if i < k { cell } else { FaCell::EXACT_FA })
                .collect::<Vec<_>>()
                .into();
            push(AdderKind::CellRipple { cells });
        }
    }
    out
}

fn structured_subs(w: u32) -> Vec<Behavior> {
    let mut out = vec![Behavior::Subtractor {
        w,
        kind: SubKind::Exact,
    }];
    let mut push = |kind: SubKind| {
        out.push(Behavior::Subtractor { w, kind });
    };
    for k in 1..w {
        push(SubKind::TruncZero { k });
        push(SubKind::TruncPass { k });
        push(SubKind::XorLower { k });
    }
    if w <= 9 {
        for segs in adders::segment_compositions(w) {
            push(SubKind::Seg { segs });
        }
    }
    for k in 1..w {
        for cell in FaCell::approx_fs_catalog() {
            let cells: Arc<[FaCell]> = (0..w)
                .map(|i| if i < k { cell } else { FaCell::EXACT_FS })
                .collect::<Vec<_>>()
                .into();
            push(SubKind::CellRipple { cells });
        }
    }
    out
}

fn structured_muls(wa: u32, wb: u32) -> Vec<Behavior> {
    let mut out = vec![Behavior::Multiplier {
        wa,
        wb,
        kind: MulKind::Exact,
    }];
    let mut push = |kind: MulKind| {
        out.push(Behavior::Multiplier { wa, wb, kind });
    };
    push(MulKind::ExactWallace);
    for vbl in 0..(wa + wb - 1) {
        for hbl in 0..wb {
            if vbl == 0 && hbl == 0 {
                continue;
            }
            push(MulKind::Bam { vbl, hbl });
        }
    }
    for k in 1..wa {
        push(MulKind::Trunc { k, comp: true });
        // comp: false duplicates Bam { vbl: k, hbl: 0 }; skipped.
    }
    for row_mask in 1..(1u16 << wb.min(8)) {
        if row_mask.count_ones() <= 3 {
            push(MulKind::PerfRows { row_mask });
        }
    }
    if wa == wb && wa.is_power_of_two() && wa >= 4 {
        let n_leaves = (wa / 2) * (wb / 2);
        for l in 0..n_leaves.min(16) {
            push(MulKind::Udm { leaf_mask: 1 << l });
        }
        for k in 2..=n_leaves.min(16) {
            push(MulKind::Udm {
                leaf_mask: (mask(k) & 0xFFFF) as u16,
            });
        }
    }
    // Column-wise catalog-cell substitution.
    for k_cols in 1..(wa + wb - 2) {
        for cell in FaCell::approx_fa_catalog() {
            let cells: Arc<[FaCell]> = (1..wb)
                .flat_map(|i| {
                    (0..wa).map(move |j| {
                        if i + j < k_cols {
                            cell
                        } else {
                            FaCell::EXACT_FA
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into();
            push(MulKind::CellGrid { cells });
        }
    }
    out
}

/// Seeded random candidates used to fill a class up to its target size.
fn fill_candidates(sig: OpSignature, n: usize, cfg: &LibraryConfig, seed: u64) -> Vec<Behavior> {
    let mut st = seed ^ 0x0BAD_5EED;
    let w = sig.width_a as u32;
    // Netlist mutants are only generated for classes whose operand space
    // can be turned into a lookup table (≤ 20 input bits); wider classes
    // would force slow scalar netlist simulation into the software QoR
    // model, and their functional families provide ample diversity.
    let n_mutants = if sig.input_bits() <= 20 {
        (n as f64 * cfg.mutant_frac) as usize
    } else {
        0
    };
    let mut out = Vec::with_capacity(n);
    // Mutants of the exact netlist.
    let base = Behavior::exact_for(sig).build_netlist();
    for _ in 0..n_mutants {
        let n_muts = 1 + (splitmix64(&mut st) % 6) as u32;
        let mutated = mutate_netlist(&base, n_muts, splitmix64(&mut st));
        out.push(Behavior::Raw {
            sig,
            netlist: Arc::new(mutated),
        });
    }
    // Random structured draws for the rest.
    while out.len() < n {
        match sig.kind {
            OpKind::Add => {
                if splitmix64(&mut st) & 1 == 0 {
                    // random cell mix on the low bits
                    let k = 1 + (splitmix64(&mut st) % (w as u64 - 1)) as u32;
                    let catalog = FaCell::approx_fa_catalog();
                    let cells: Arc<[FaCell]> = (0..w)
                        .map(|i| {
                            if i < k {
                                match splitmix64(&mut st) % 3 {
                                    0 => FaCell::random(&mut st),
                                    _ => {
                                        catalog
                                            [(splitmix64(&mut st) % catalog.len() as u64) as usize]
                                    }
                                }
                            } else {
                                FaCell::EXACT_FA
                            }
                        })
                        .collect::<Vec<_>>()
                        .into();
                    out.push(Behavior::Adder {
                        w,
                        kind: AdderKind::CellRipple { cells },
                    });
                } else {
                    // random segmentation
                    let cuts = 1 + splitmix64(&mut st) % (mask(w - 1).max(1));
                    let mut segs = Vec::new();
                    let mut len = 1u8;
                    for pos in 0..w - 1 {
                        if (cuts >> pos) & 1 != 0 {
                            segs.push(len);
                            len = 1;
                        } else {
                            len += 1;
                        }
                    }
                    segs.push(len);
                    out.push(Behavior::Adder {
                        w,
                        kind: AdderKind::Seg {
                            segs,
                            speculate: splitmix64(&mut st) & 1 == 0,
                        },
                    });
                }
            }
            OpKind::Sub => {
                let k = 1 + (splitmix64(&mut st) % (w as u64 - 1)) as u32;
                let catalog = FaCell::approx_fs_catalog();
                let cells: Arc<[FaCell]> = (0..w)
                    .map(|i| {
                        if i < k {
                            match splitmix64(&mut st) % 3 {
                                0 => FaCell::random(&mut st),
                                _ => catalog[(splitmix64(&mut st) % catalog.len() as u64) as usize],
                            }
                        } else {
                            FaCell::EXACT_FS
                        }
                    })
                    .collect::<Vec<_>>()
                    .into();
                out.push(Behavior::Subtractor {
                    w,
                    kind: SubKind::CellRipple { cells },
                });
            }
            OpKind::Mul => {
                let wa = sig.width_a as u32;
                let wb = sig.width_b as u32;
                match splitmix64(&mut st) % 3 {
                    0 if wa == wb && wa.is_power_of_two() => {
                        out.push(Behavior::Multiplier {
                            wa,
                            wb,
                            kind: MulKind::Udm {
                                leaf_mask: (splitmix64(&mut st) & 0xFFFF) as u16,
                            },
                        });
                    }
                    1 => {
                        // random low-column cell substitutions
                        let k_cols = 1 + (splitmix64(&mut st) % (wa + wb - 3) as u64) as u32;
                        let catalog = FaCell::approx_fa_catalog();
                        let cells: Arc<[FaCell]> = (1..wb)
                            .flat_map(|i| {
                                (0..wa)
                                    .map(|j| {
                                        if i + j < k_cols {
                                            match splitmix64(&mut st) % 3 {
                                                0 => FaCell::random(&mut st),
                                                _ => {
                                                    catalog[(splitmix64(&mut st)
                                                        % catalog.len() as u64)
                                                        as usize]
                                                }
                                            }
                                        } else {
                                            FaCell::EXACT_FA
                                        }
                                    })
                                    .collect::<Vec<_>>()
                            })
                            .collect::<Vec<_>>()
                            .into();
                        out.push(Behavior::Multiplier {
                            wa,
                            wb,
                            kind: MulKind::CellGrid { cells },
                        });
                    }
                    _ => {
                        out.push(Behavior::Multiplier {
                            wa,
                            wb,
                            kind: MulKind::PerfRows {
                                row_mask: (1 + splitmix64(&mut st) % mask(wb)) as u16,
                            },
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::tests::{metric_bits, SequentialStats};
    use autoax_exec::par_map;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn tiny_cfg() -> LibraryConfig {
        LibraryConfig::tiny()
    }

    /// The per-sample characterization the one-pass fold replaced, kept as
    /// the oracle: every output materialized by `exhaustive_outputs` or
    /// `eval_binop_batch`, then one sequential-`f64` push and one FNV step
    /// per assignment.
    fn characterize_per_sample(
        sig: OpSignature,
        behavior: &Behavior,
        cfg: &LibraryConfig,
    ) -> (ErrorMetrics, HwReport, u64) {
        let netlist = behavior.build_netlist();
        let (_, hw) = synth::synthesize(&netlist);
        let wa = sig.width_a as u32;
        let mut stats = SequentialStats::default();
        let mut fp: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
        let mut push_fp = |v: u64| {
            fp ^= v;
            fp = fp.wrapping_mul(0x100_0000_01b3);
        };
        if sig.input_bits() <= cfg.max_exhaustive_bits {
            let outs = sim::exhaustive_outputs(&netlist);
            for (v, &raw) in outs.iter().enumerate() {
                let a = v as u64 & mask(wa);
                let b = v as u64 >> wa;
                stats.push(sig.error(a, b, raw), sig.exact(a, b));
                push_fp(raw);
            }
        } else {
            let pairs = stimulus_pairs(
                wa,
                sig.width_b as u32,
                cfg.char_samples,
                0x5EED ^ sig.input_bits() as u64,
            );
            let outs = sim::eval_binop_batch(&netlist, wa, sig.width_b as u32, &pairs);
            for (&(a, b), &raw) in pairs.iter().zip(outs.iter()) {
                stats.push(sig.error(a, b, raw), sig.exact(a, b));
                push_fp(raw);
            }
        }
        push_fp((hw.area * 16.0).round() as u64);
        push_fp((hw.delay * 1024.0).round() as u64);
        (stats.finish(), hw, fp)
    }

    /// Every bit of a hardware report.
    fn hw_bits(hw: &HwReport) -> [u64; 5] {
        [
            hw.area.to_bits(),
            hw.delay.to_bits(),
            hw.power.to_bits(),
            hw.energy.to_bits(),
            hw.cells as u64,
        ]
    }

    /// The class characterized the other way round: the exhaustive classes
    /// sampled at 1,000 pairs (a partial last block), SUB10 exhaustively
    /// over its 2^20 assignments, the 32-bit classes sampled at 1,000.
    fn flipped(sig: OpSignature, cfg: &LibraryConfig) -> LibraryConfig {
        LibraryConfig {
            max_exhaustive_bits: if sig.input_bits() <= cfg.max_exhaustive_bits {
                0
            } else {
                20
            },
            char_samples: 1000,
            ..cfg.clone()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The one-pass fold equals the per-sample oracle on candidates of
        /// every paper class (a seeded pick of structured candidates, plus
        /// seeded fill with netlist mutants), characterized both
        /// exhaustively and sampled: every `ErrorMetrics` field by
        /// `to_bits()`, the hardware report, and the duplicates. Two
        /// candidates share a new fingerprint exactly when they share an
        /// old one. MUL8 always includes the first 24 structured
        /// candidates, whose BAM variants duplicate one another.
        #[test]
        fn one_pass_fold_equals_the_per_sample_oracle(seed in any::<u64>()) {
            let base = LibraryConfig { mutant_frac: 0.5, ..tiny_cfg() };
            let mut mul8_duplicates = 0;
            for sig in OpSignature::PAPER_CLASSES {
                let structured = structured_candidates(sig);
                for cfg in [base.clone(), flipped(sig, &base)] {
                    let exhaustive = sig.input_bits() <= cfg.max_exhaustive_bits;
                    // 2^20-assignment oracles are slow; take fewer of them.
                    let picks = if exhaustive && sig.input_bits() > 18 { 3 } else { 10 };
                    let mut st = seed ^ u64::from(sig.input_bits());
                    let mut candidates: Vec<Behavior> = (0..picks)
                        .map(|_| structured[(splitmix64(&mut st) % structured.len() as u64) as usize].clone())
                        .collect();
                    if sig == OpSignature::MUL8 {
                        candidates.extend_from_slice(&structured[..24]);
                    }
                    candidates.extend(fill_candidates(sig, picks, &cfg, splitmix64(&mut st)));
                    let bench = ClassBench::new(sig, &cfg);
                    let (mut old_to_new, mut new_to_old) = (HashMap::new(), HashMap::new());
                    for b in &candidates {
                        let (err, hw, fp) = bench.characterize(b);
                        let (want_err, want_hw, want_fp) = characterize_per_sample(sig, b, &cfg);
                        let what = format!("{sig} {} (exhaustive: {exhaustive})", b.label());
                        prop_assert_eq!(metric_bits(&err), metric_bits(&want_err), "{}", what);
                        prop_assert_eq!(hw_bits(&hw), hw_bits(&want_hw), "{}", what);
                        prop_assert_eq!(*old_to_new.entry(want_fp).or_insert(fp), fp, "{}", what);
                        prop_assert_eq!(*new_to_old.entry(fp).or_insert(want_fp), want_fp, "{}", what);
                    }
                    if sig == OpSignature::MUL8 && exhaustive {
                        mul8_duplicates = candidates.len() - old_to_new.len();
                    }
                }
            }
            prop_assert!(mul8_duplicates > 0, "no MUL8 duplicates were compared");
        }
    }

    /// The characterize-everything selection `build_class` replaced, kept
    /// as the oracle: characterize a whole round, then keep candidates in
    /// order until the class is full.
    fn build_class_whole_rounds(
        sig: OpSignature,
        target: usize,
        cfg: &LibraryConfig,
        seed: u64,
    ) -> Vec<CircuitEntry> {
        let mut entries: Vec<CircuitEntry> = Vec::with_capacity(target);
        let mut seen: HashSet<u64> = HashSet::new();
        let mut round_seed = seed;
        for round in 0..8 {
            if entries.len() >= target {
                break;
            }
            let need = target - entries.len();
            let candidates = if round == 0 {
                let mut c = structured_candidates(sig);
                let fill_n = need.saturating_sub(c.len()) + need / 4;
                c.extend(fill_candidates(sig, fill_n, cfg, round_seed));
                c
            } else {
                fill_candidates(sig, need + need / 3 + 8, cfg, round_seed)
            };
            round_seed = round_seed.wrapping_add(0xABCD_EF01);

            let bench = ClassBench::new(sig, cfg);
            let characterized = par_map(&candidates, |b| bench.characterize(b));
            for (behavior, (err, hw, fingerprint)) in candidates.into_iter().zip(characterized) {
                if entries.len() >= target {
                    break;
                }
                if !seen.insert(fingerprint) {
                    continue;
                }
                let is_exact_slot = entries.is_empty();
                if !is_exact_slot && err.wce as f64 > cfg.max_wce_frac * sig.output_range() {
                    continue;
                }
                let label = behavior.label();
                entries.push(CircuitEntry {
                    id: CircuitId(entries.len() as u32),
                    behavior,
                    label,
                    hw,
                    err,
                });
            }
        }
        entries
    }

    /// Every stored bit of an entry except its behaviour and label.
    fn entry_bits(e: &CircuitEntry) -> [u64; 13] {
        let (hw, err) = (&e.hw, &e.err);
        [
            e.id.0 as u64,
            hw.area.to_bits(),
            hw.delay.to_bits(),
            hw.power.to_bits(),
            hw.energy.to_bits(),
            hw.cells as u64,
            err.mae.to_bits(),
            err.wce,
            err.er.to_bits(),
            err.mse.to_bits(),
            err.var_ed.to_bits(),
            err.mre.to_bits(),
            err.samples,
        ]
    }

    /// Asserts that demand-driven selection at chunk sizes 1, 7 and a
    /// whole round keeps exactly the oracle's entries.
    fn assert_matches_whole_rounds(
        cfg: &LibraryConfig,
        sig: OpSignature,
        target: usize,
        seed: u64,
    ) {
        let want = build_class_whole_rounds(sig, target, cfg, seed);
        assert_eq!(want.len(), target, "{sig}: oracle fell short");
        let bench = ClassBench::new(sig, cfg);
        for chunk in [1, 7, usize::MAX] {
            let (got, characterized) = build_class_chunked(&bench, target, cfg, seed, chunk);
            assert_eq!(got.len(), want.len(), "{sig} chunk {chunk}: size");
            assert!(characterized >= target, "{sig} chunk {chunk}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.behavior, w.behavior,
                    "{sig} chunk {chunk}: behaviour of {i}"
                );
                assert_eq!(g.label, w.label, "{sig} chunk {chunk}: label of {i}");
                assert_eq!(
                    entry_bits(g),
                    entry_bits(w),
                    "{sig} chunk {chunk}: bits of {i}"
                );
            }
        }
    }

    #[test]
    fn demand_driven_selection_equals_whole_round_selection_for_every_class() {
        // The tiny library's targets and per-class seeds.
        let cfg = tiny_cfg();
        for (i, sig) in OpSignature::PAPER_CLASSES.into_iter().enumerate() {
            let seed = cfg.seed.wrapping_add(i as u64 * 0x9E37);
            assert_matches_whole_rounds(&cfg, sig, cfg.counts.for_signature(sig), seed);
        }
    }

    #[test]
    fn demand_driven_selection_equals_whole_round_selection_past_round_zero() {
        // Round 0 grows with the target (SUB10 at 120: 73 structured
        // candidates plus 77 fill) and fills the class under the default
        // garbage bound. A 1% bound rejects most of it, so rounds >= 1 run.
        let cfg = LibraryConfig {
            max_wce_frac: 0.01,
            ..tiny_cfg()
        };
        let sig = OpSignature::SUB10;
        let round0 = structured_candidates(sig).len().max(120) + 120 / 4;
        let (_, characterized) = build_class_chunked(&ClassBench::new(sig, &cfg), 120, &cfg, 11, 1);
        assert!(characterized > round0, "round 1 never ran");
        assert_matches_whole_rounds(&cfg, sig, 120, 11);
    }

    #[test]
    fn zero_target_builds_an_empty_class() {
        let cfg = tiny_cfg();
        for sig in OpSignature::PAPER_CLASSES {
            assert!(build_class(sig, 0, &cfg, 1).is_empty(), "{sig}");
        }
    }

    #[test]
    fn build_class_add8_tiny() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD8, 60, &cfg, 1);
        assert_eq!(entries.len(), 60);
        assert!(entries[0].is_exact());
        assert_eq!(entries[0].id, CircuitId(0));
        // ids are consecutive
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.id.0 as usize, i);
            assert_eq!(e.signature(), OpSignature::ADD8);
            assert!(e.hw.area > 0.0);
        }
    }

    #[test]
    fn entries_are_distinct_in_function_or_cost() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD8, 40, &cfg, 2);
        // The dedup fingerprint covers the exhaustive functional signature
        // plus the hardware cost, so no two entries may agree on both
        // (functionally identical architecture variants like ripple vs
        // lookahead are legitimately distinct entries).
        let a: Vec<u32> = (0..65536).map(|v| v & 0xFF).collect();
        let b: Vec<u32> = (0..65536).map(|v| v >> 8).collect();
        let mut sigs = HashSet::new();
        for e in &entries {
            let mut v = vec![0; a.len()];
            e.behavior.eval_plane(&a, &b, &mut v);
            v.push((e.hw.area * 16.0).round() as u32);
            v.push((e.hw.delay * 1024.0).round() as u32);
            assert!(sigs.insert(v), "duplicate entry in class: {}", e.label);
        }
    }

    #[test]
    fn architecture_variants_survive_dedup() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD8, 40, &cfg, 2);
        let rca = entries.iter().find(|e| e.label == "add_exact").unwrap();
        let cla = entries.iter().find(|e| e.label == "add_exact_cla").unwrap();
        assert!(cla.is_exact());
        assert!(cla.hw.delay < rca.hw.delay, "CLA must be faster");
        assert!(cla.hw.area > rca.hw.area, "CLA must pay area");
    }

    #[test]
    fn exact_entry_has_highest_area_tendency() {
        // Not strictly maximal, but the exact adder must cost more than the
        // heavily truncated variants.
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD8, 40, &cfg, 3);
        let exact_area = entries[0].hw.area;
        let trunc = entries
            .iter()
            .find(|e| e.label.contains("trunc0_k7"))
            .expect("trunc k=7 present");
        assert!(trunc.hw.area < exact_area);
        assert!(trunc.err.mae > 0.0);
    }

    #[test]
    fn garbage_filter_respects_wce_bound() {
        let cfg = tiny_cfg();
        for sig in [OpSignature::ADD8, OpSignature::SUB10] {
            let entries = build_class(sig, 40, &cfg, 4);
            for e in &entries[1..] {
                assert!(
                    (e.err.wce as f64) <= cfg.max_wce_frac * sig.output_range(),
                    "{}: wce {} beyond bound",
                    e.label,
                    e.err.wce
                );
            }
        }
    }

    #[test]
    fn build_library_tiny_has_all_classes() {
        let cfg = tiny_cfg();
        let lib = build_library(&cfg);
        for sig in OpSignature::PAPER_CLASSES {
            assert_eq!(
                lib.class_size(sig),
                cfg.counts.for_signature(sig),
                "class {sig}"
            );
            assert!(lib.class(sig)[0].is_exact());
        }
        assert_eq!(lib.total_size(), 60 + 40 + 50 + 40 + 40 + 70);
    }

    #[test]
    fn library_is_deterministic() {
        let cfg = tiny_cfg();
        let l1 = build_class(OpSignature::SUB10, 30, &cfg, 9);
        let l2 = build_class(OpSignature::SUB10, 30, &cfg, 9);
        for (a, b) in l1.iter().zip(l2.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.err.mae, b.err.mae);
            assert_eq!(a.hw.area, b.hw.area);
        }
    }

    #[test]
    fn mul_class_contains_multiple_families() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::MUL8, 70, &cfg, 5);
        let has = |p: &str| entries.iter().any(|e| e.label.contains(p));
        assert!(has("bam"), "expected BAM variants");
        assert!(has("trunc"), "expected truncated variants");
        assert!(entries.len() == 70);
    }

    #[test]
    fn paper_counts_match_table2() {
        let c = ClassCounts::paper();
        assert_eq!(c.add8, 6979);
        assert_eq!(c.add9, 332);
        assert_eq!(c.add16, 884);
        assert_eq!(c.sub10, 365);
        assert_eq!(c.sub16, 460);
        assert_eq!(c.mul8, 29911);
    }

    #[test]
    fn sixteen_bit_classes_use_sampled_characterization() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD16, 20, &cfg, 6);
        for e in &entries {
            assert_eq!(e.err.samples as usize, cfg.char_samples);
        }
    }

    #[test]
    fn eight_bit_class_characterized_exhaustively() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD8, 10, &cfg, 7);
        for e in &entries {
            assert_eq!(e.err.samples, 65536);
        }
    }
}
