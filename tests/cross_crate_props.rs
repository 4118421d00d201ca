//! Property-based tests (proptest) for the core invariants that hold
//! across crates:
//!
//! * every variant of every approximate-circuit family, at every width
//!   the library builds: netlist simulation ≡ functional model, the plane
//!   kernel ≡ the scalar model, and synthesis-lite preserves the function;
//! * compiled ops (LUT or functional) ≡ the library entry they compile;
//! * characterization invariants (WCE ≥ MAE, WMED ≤ WCE);
//! * Pareto front invariants under arbitrary insertion streams;
//! * SSIM bounds and identity.

use autoax::config::{ConfigSpace, Configuration, SlotChoices, SlotMember};
use autoax::model::FittedModels;
use autoax::pareto::{ParetoFront, TradeoffPoint};
use autoax::search::Estimator;
use autoax_accel::accelerator::CompiledOp;
use autoax_accel::Pmf;
use autoax_circuit::approx::adders::AdderKind;
use autoax_circuit::approx::muls::MulKind;
use autoax_circuit::approx::mutate::mutate_netlist;
use autoax_circuit::approx::subs::SubKind;
use autoax_circuit::approx::{Behavior, FaCell};
use autoax_circuit::charlib::{build_class, ComponentLibrary, LibraryConfig};
use autoax_circuit::sim::eval_binop;
use autoax_circuit::synth::optimize;
use autoax_circuit::util::splitmix64;
use autoax_circuit::OpSignature;
use autoax_ml::{EngineKind, Matrix};
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// `rows × width` cells, row-major: cell `(r, j)` is drawn at random
/// where `r + j < k` and is `exact` elsewhere — the shape of the
/// library's cell families, from all exact (`k = 0`) to all random.
fn cells_strategy(width: u32, rows: u32, exact: FaCell) -> impl Strategy<Value = Arc<[FaCell]>> {
    let n = (width * rows) as usize;
    (prop::collection::vec(any::<u16>(), n), 0..=width + rows).prop_map(move |(raw, k)| {
        let cell = |(idx, &r): (usize, &u16)| {
            let (row, col) = (idx as u32 / width, idx as u32 % width);
            let random = FaCell {
                sum: r as u8,
                carry: (r >> 8) as u8,
            };
            if row + col < k {
                random
            } else {
                exact
            }
        };
        raw.iter().enumerate().map(cell).collect::<Vec<_>>().into()
    })
}

/// A segmentation of `w` bits, LSB first: a set bit `i` of the cut mask
/// ends a segment after bit `i` (no cut: one segment).
fn segs_strategy(w: u32) -> impl Strategy<Value = Vec<u8>> {
    (0..1u32 << (w - 1)).prop_map(move |cuts| {
        let mut segs = vec![1u8];
        for pos in 0..w - 1 {
            if (cuts >> pos) & 1 != 0 {
                segs.push(1);
            } else {
                *segs.last_mut().unwrap() += 1;
            }
        }
        segs
    })
}

/// Every adder variant over `w`-bit operands.
fn adder_kind_strategy(w: u32) -> impl Strategy<Value = AdderKind> {
    prop_oneof![
        Just(AdderKind::Exact),
        Just(AdderKind::ExactCla),
        (1..w).prop_map(|k| AdderKind::TruncZero { k }),
        (1..w).prop_map(|k| AdderKind::TruncPass { k }),
        (1..w).prop_map(|k| AdderKind::Loa { k }),
        (1..w).prop_map(|k| AdderKind::XorLower { k }),
        (1..w).prop_map(|r| AdderKind::Aca { r }),
        (1..=w / 2, 1..=w / 2).prop_map(|(r, p)| AdderKind::Gear { r, p }),
        (segs_strategy(w), any::<bool>())
            .prop_map(|(segs, speculate)| AdderKind::Seg { segs, speculate }),
        cells_strategy(w, 1, FaCell::EXACT_FA).prop_map(|cells| AdderKind::CellRipple { cells }),
    ]
}

/// Every subtractor variant over `w`-bit operands.
fn sub_kind_strategy(w: u32) -> impl Strategy<Value = SubKind> {
    prop_oneof![
        Just(SubKind::Exact),
        (1..w).prop_map(|k| SubKind::TruncZero { k }),
        (1..w).prop_map(|k| SubKind::TruncPass { k }),
        (1..w).prop_map(|k| SubKind::XorLower { k }),
        segs_strategy(w).prop_map(|segs| SubKind::Seg { segs }),
        cells_strategy(w, 1, FaCell::EXACT_FS).prop_map(|cells| SubKind::CellRipple { cells }),
    ]
}

/// Every multiplier variant over `wa × wb`-bit operands except the UDM,
/// which needs equal power-of-two widths.
fn mul_kind_strategy(wa: u32, wb: u32) -> impl Strategy<Value = MulKind> {
    prop_oneof![
        Just(MulKind::Exact),
        Just(MulKind::ExactWallace),
        (0..wa + wb - 1, 0..wb).prop_map(|(vbl, hbl)| MulKind::Bam { vbl, hbl }),
        (1..wa, any::<bool>()).prop_map(|(k, comp)| MulKind::Trunc { k, comp }),
        (0..1u16 << wb).prop_map(|row_mask| MulKind::PerfRows { row_mask }),
        cells_strategy(wa, wb - 1, FaCell::EXACT_FA).prop_map(|cells| MulKind::CellGrid { cells }),
    ]
}

/// Adders at the library's widths: 8, 9 and 16 bits.
fn adder_strategy() -> impl Strategy<Value = Behavior> {
    let at = |w: u32| adder_kind_strategy(w).prop_map(move |kind| Behavior::Adder { w, kind });
    prop_oneof![at(8), at(9), at(16)]
}

/// Subtractors at the library's widths: 10 and 16 bits.
fn subtractor_strategy() -> impl Strategy<Value = Behavior> {
    let at = |w: u32| sub_kind_strategy(w).prop_map(move |kind| Behavior::Subtractor { w, kind });
    prop_oneof![at(10), at(16)]
}

/// Multipliers: every variant at 8×8 and all but the UDM at 10×6.
fn multiplier_strategy() -> impl Strategy<Value = Behavior> {
    let at = |wa: u32, wb: u32| {
        mul_kind_strategy(wa, wb).prop_map(move |kind| Behavior::Multiplier { wa, wb, kind })
    };
    let udm = any::<u16>().prop_map(|leaf_mask| Behavior::Multiplier {
        wa: 8,
        wb: 8,
        kind: MulKind::Udm { leaf_mask },
    });
    prop_oneof![at(8, 8), udm, at(10, 6)]
}

/// Netlist mutants of the exact circuits of the six paper classes.
fn raw_strategy() -> impl Strategy<Value = Behavior> {
    (0..OpSignature::PAPER_CLASSES.len(), 0u32..8, any::<u64>()).prop_map(|(i, n, seed)| {
        let sig = OpSignature::PAPER_CLASSES[i];
        let base = Behavior::exact_for(sig).build_netlist();
        Behavior::Raw {
            sig,
            netlist: Arc::new(mutate_netlist(&base, n, seed)),
        }
    })
}

/// Asserts `eval_plane ≡ eval` on `len` random operand pairs with every
/// bit set at random, so also above each operand's width.
fn assert_plane_matches_eval(b: &Behavior, len: usize, seed: u64) {
    let mut st = seed;
    let a: Vec<u32> = (0..len).map(|_| splitmix64(&mut st) as u32).collect();
    let y: Vec<u32> = (0..len).map(|_| splitmix64(&mut st) as u32).collect();
    let mut out = vec![0; len];
    b.eval_plane(&a, &y, &mut out);
    for (k, &o) in out.iter().enumerate() {
        let want = b.eval(a[k] as u64, y[k] as u64);
        assert_eq!(o as u64, want, "{:?} at {k}: ({:#x}, {:#x})", b, a[k], y[k]);
    }
}

/// Asserts netlist simulation ≡ functional model on `n` stimulus pairs.
fn assert_netlist_matches_eval(b: &Behavior, n: usize, seed: u64) {
    let sig = b.signature();
    let (wa, wb) = (sig.width_a as u32, sig.width_b as u32);
    let net = b.build_netlist();
    for (x, y) in autoax_circuit::util::stimulus_pairs(wa, wb, n, seed) {
        assert_eq!(
            eval_binop(&net, wa, wb, x, y),
            b.eval(x, y),
            "{b:?} ({x}, {y})"
        );
    }
}

/// Lazily fitted model pairs for every Table 3 engine over a tiny
/// three-slot adder space, shared across property cases (one fit per
/// engine per test binary).
#[allow(clippy::type_complexity)]
static ENGINE_ZOO: OnceLock<(
    ConfigSpace,
    ComponentLibrary,
    Vec<(EngineKind, FittedModels)>,
)> = OnceLock::new();

fn fitted_engine_zoo() -> (
    &'static ConfigSpace,
    &'static ComponentLibrary,
    impl Iterator<Item = (EngineKind, &'static FittedModels)>,
) {
    let (space, lib, fitted) = ENGINE_ZOO.get_or_init(|| {
        let cfg = LibraryConfig::tiny();
        let entries = build_class(OpSignature::ADD8, 10, &cfg, 11);
        let mut lib = ComponentLibrary::default();
        lib.insert_class(OpSignature::ADD8, entries);
        let space = ConfigSpace::new(
            (0..3)
                .map(|i| SlotChoices {
                    name: format!("s{i}"),
                    signature: OpSignature::ADD8,
                    members: lib
                        .class(OpSignature::ADD8)
                        .iter()
                        .map(|e| SlotMember {
                            id: e.id,
                            wmed: e.err.mae,
                        })
                        .collect(),
                })
                .collect(),
        );
        // Distinct random training configurations with synthetic nonlinear
        // targets — enough structure for every engine to fit something.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2019);
        let mut train: Vec<Configuration> = (0..120).map(|_| space.random(&mut rng)).collect();
        train.sort();
        train.dedup();
        let qrows: Vec<Vec<f64>> = train
            .iter()
            .map(|c| autoax::model::qor_features(&space, c))
            .collect();
        let hrows: Vec<Vec<f64>> = train
            .iter()
            .map(|c| autoax::model::hw_features(&space, &lib, c))
            .collect();
        let yq: Vec<f64> = qrows
            .iter()
            .map(|r| 1.0 - r.iter().sum::<f64>() / 50.0 + (r[0] * 0.3).sin() * 0.1)
            .collect();
        let yh: Vec<f64> = hrows
            .iter()
            .map(|r| r.iter().step_by(3).sum::<f64>() * (1.0 + 0.01 * (r[0] * 0.2).cos()))
            .collect();
        let qx = Matrix::from_rows(&qrows);
        let hx = Matrix::from_rows(&hrows);
        let fitted: Vec<(EngineKind, FittedModels)> = EngineKind::ALL
            .iter()
            .map(|&kind| {
                let mut qor = kind.make(5);
                qor.fit(&qx, &yq)
                    .unwrap_or_else(|e| panic!("{kind} qor: {e}"));
                let mut hw = kind.make(6);
                hw.fit(&hx, &yh)
                    .unwrap_or_else(|e| panic!("{kind} hw: {e}"));
                (kind, FittedModels { qor, hw })
            })
            .collect();
        (space, lib, fitted)
    });
    (space, lib, fitted.iter().map(|(k, m)| (*k, m)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn adder_netlist_matches_functional(b in adder_strategy(), seed in any::<u64>()) {
        assert_netlist_matches_eval(&b, 64, seed);
    }

    #[test]
    fn multiplier_netlist_matches_functional(b in multiplier_strategy(), seed in any::<u64>()) {
        assert_netlist_matches_eval(&b, 48, seed);
    }

    #[test]
    fn subtractor_netlist_matches_functional(b in subtractor_strategy(), seed in any::<u64>()) {
        assert_netlist_matches_eval(&b, 48, seed);
    }

    #[test]
    fn synthesis_preserves_approximate_circuit_function(
        b in multiplier_strategy(),
        seed in any::<u64>()
    ) {
        let sig = b.signature();
        let (wa, wb) = (sig.width_a as u32, sig.width_b as u32);
        let net = b.build_netlist();
        let opt = optimize(&net);
        for (x, y) in autoax_circuit::util::stimulus_pairs(wa, wb, 32, seed) {
            prop_assert_eq!(eval_binop(&opt, wa, wb, x, y), b.eval(x, y));
        }
        // optimization never increases cell count
        prop_assert!(opt.cell_count() <= net.cell_count());
    }
}

// ---------------------------------------------------------------------------
// Plane kernels ≡ scalar models, at plane lengths 1..=70 (one partial
// 64-lane simulator pass and more), with operand bits above every width.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn adder_plane_matches_eval(b in adder_strategy(), len in 1usize..=70, seed in any::<u64>()) {
        assert_plane_matches_eval(&b, len, seed);
    }

    #[test]
    fn subtractor_plane_matches_eval(
        b in subtractor_strategy(),
        len in 1usize..=70,
        seed in any::<u64>()
    ) {
        assert_plane_matches_eval(&b, len, seed);
    }

    #[test]
    fn multiplier_plane_matches_eval(
        b in multiplier_strategy(),
        len in 1usize..=70,
        seed in any::<u64>()
    ) {
        assert_plane_matches_eval(&b, len, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn raw_plane_matches_eval(b in raw_strategy(), len in 1usize..=70, seed in any::<u64>()) {
        assert_plane_matches_eval(&b, len, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pareto_front_stays_minimal(points in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..80)) {
        let mut front = ParetoFront::new();
        for (q, c) in points {
            front.try_insert(TradeoffPoint::new(q, c), ());
        }
        let pts = front.points();
        for (i, a) in pts.iter().enumerate() {
            for (j, b) in pts.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.dominates(b), "{:?} dominates {:?}", a, b);
                    prop_assert!(!(a.qor == b.qor && a.cost == b.cost), "duplicate point kept");
                }
            }
        }
    }

    #[test]
    fn wmed_never_exceeds_wce(support_seed in any::<u64>()) {
        let cfg = LibraryConfig::tiny();
        let entries = build_class(OpSignature::ADD8, 12, &cfg, 5);
        let mut pmf = Pmf::new();
        let mut st = support_seed;
        for _ in 0..200 {
            let r = autoax_circuit::util::splitmix64(&mut st);
            pmf.add((r & 0xFF) as u32, ((r >> 8) & 0xFF) as u32);
        }
        let support = pmf.top_mass(1.0);
        for e in &entries {
            let w = autoax::wmed::wmed_on_support(e, &support);
            prop_assert!(w <= e.err.wce as f64 + 1e-9, "{}: {} > {}", e.label, w, e.err.wce);
        }
    }

    #[test]
    fn compiled_ops_match_entries(seed in any::<u64>()) {
        let cfg = LibraryConfig::tiny();
        let entries = build_class(OpSignature::MUL8, 10, &cfg, 7);
        for e in &entries {
            let op = CompiledOp::compile(e);
            for (x, y) in autoax_circuit::util::stimulus_pairs(8, 8, 24, seed) {
                prop_assert_eq!(op.eval(x, y), e.eval(x, y), "{}", &e.label);
            }
        }
    }

    #[test]
    fn ssim_is_bounded_and_reflexive(seed in any::<u64>(), seed2 in any::<u64>()) {
        use autoax_image::ssim::ssim;
        use autoax_image::synthetic::{natural_proxy, value_noise};
        let a = natural_proxy(32, 24, seed);
        let b = value_noise(32, 24, seed2, 3);
        let s = ssim(&a, &b);
        prop_assert!(s <= 1.0 + 1e-12);
        prop_assert!(s >= -1.0 - 1e-12);
        prop_assert!((ssim(&a, &a) - 1.0).abs() < 1e-12);
        prop_assert!((ssim(&a, &b) - ssim(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn exact_circuits_match_native_arithmetic(seed in any::<u64>()) {
        // The exact (non-approximate) member of every operation class the
        // library builds must agree with native integer arithmetic, both as
        // a functional model and as a simulated netlist.
        use autoax_circuit::util::mask;
        use autoax_circuit::OpKind;
        for sig in OpSignature::PAPER_CLASSES {
            let b = Behavior::exact_for(sig);
            let net = b.build_netlist();
            let (wa, wb) = (sig.width_a as u32, sig.width_b as u32);
            for (x, y) in autoax_circuit::util::stimulus_pairs(wa, wb, 32, seed) {
                let native = match sig.kind {
                    OpKind::Add => x + y,
                    OpKind::Mul => x * y,
                    OpKind::Sub => {
                        (x.wrapping_sub(y)) & mask(sig.output_width() as u32)
                    }
                };
                prop_assert_eq!(b.eval(x, y), native, "{} functional ({x}, {y})", sig);
                prop_assert_eq!(
                    eval_binop(&net, wa, wb, x, y),
                    native,
                    "{} netlist ({x}, {y})",
                    sig
                );
            }
        }
    }

    #[test]
    fn exact_adders_match_native_addition_at_every_width(
        w in 2u32..17,
        seed in any::<u64>()
    ) {
        // Beyond the six paper classes: the adder generator is width-
        // parametric, and its exact variant must be a true adder at any
        // width the library could be configured to build.
        let b = Behavior::Adder { w, kind: AdderKind::Exact };
        let net = b.build_netlist();
        for (x, y) in autoax_circuit::util::stimulus_pairs(w, w, 24, seed) {
            prop_assert_eq!(eval_binop(&net, w, w, x, y), x + y, "w={} ({x}, {y})", w);
        }
    }

    #[test]
    fn exact_multipliers_match_native_multiplication_at_every_width(
        wa in 2u32..9,
        wb in 2u32..9,
        seed in any::<u64>()
    ) {
        let b = Behavior::Multiplier { wa, wb, kind: MulKind::Exact };
        let net = b.build_netlist();
        for (x, y) in autoax_circuit::util::stimulus_pairs(wa, wb, 24, seed) {
            prop_assert_eq!(
                eval_binop(&net, wa, wb, x, y),
                x * y,
                "{}x{} ({x}, {y})",
                wa,
                wb
            );
        }
    }

    #[test]
    fn estimate_batch_equals_per_row_estimate_for_every_engine(seed in any::<u64>()) {
        // Property: for every learning engine of Table 3, the slab path
        // the search consumes (one `estimate_slice` over the whole batch)
        // returns bitwise the same trade-off points as the scalar
        // per-row `FittedModels::estimate`, for arbitrary batches. This
        // is the invariant that makes a strategy's round size
        // semantically inert.
        let (space, lib, fitted) = fitted_engine_zoo();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 1 + (seed % 40) as usize;
        let configs: Vec<Configuration> = (0..n).map(|_| space.random(&mut rng)).collect();
        let slab = autoax::search::ConfigBatch::from_configs(&configs);
        for (kind, models) in fitted {
            let est = autoax::model::ModelEstimator::new(models, space, lib);
            let mut pts = Vec::new();
            est.estimate_slice(slab.as_slice(), &mut pts);
            prop_assert_eq!(pts.len(), configs.len());
            for (c, p) in configs.iter().zip(pts.iter()) {
                let (q, h) = models.estimate(space, lib, c);
                prop_assert_eq!(q.to_bits(), p.qor.to_bits(), "{}: qor diverged", kind);
                prop_assert_eq!(h.to_bits(), p.cost.to_bits(), "{}: hw diverged", kind);
            }
        }
    }

    #[test]
    fn characterization_invariants_hold(count in 6usize..14) {
        let cfg = LibraryConfig::tiny();
        let entries = build_class(OpSignature::SUB10, count, &cfg, count as u64);
        for e in &entries {
            prop_assert!(e.err.wce as f64 >= e.err.mae, "{}", &e.label);
            prop_assert!((e.err.er == 0.0) == (e.err.wce == 0), "{}", &e.label);
            prop_assert!(e.err.mse >= e.err.var_ed - 1e-9, "{}", &e.label);
            prop_assert!(e.hw.area > 0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// MAC datapath of the NN workload (autoax-nn): exact circuits ≡ native
// integer arithmetic, at the paper's mul8/add16 widths and parametrically.
// ---------------------------------------------------------------------------

proptest! {
    /// The low-lane MAC composition — product through the multiplier
    /// class, accumulate through the 2w-bit adder class, carry beyond the
    /// lane via exact glue — equals the native `Σ x·w` for *every*
    /// multiplier width whose adder lane is a paper class (w = 4 → add8
    /// lanes, w = 8 → the mul8/add16 datapath) and the parametric widths
    /// in between.
    #[test]
    fn exact_mac_equals_native_at_every_width(
        w in 2u32..=8,
        stream in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..40)
    ) {
        use autoax_circuit::util::mask;
        use autoax_circuit::OpKind;
        let mul = CompiledOp::Exact(OpSignature::new(OpKind::Mul, w as u8, w as u8));
        let add = CompiledOp::Exact(OpSignature::new(OpKind::Add, 2 * w as u8, 2 * w as u8));
        let op_mask = mask(w);
        let lane = mask(2 * w);
        let mut acc = 0u64;
        let mut native = 0u64;
        for &(a, b) in &stream {
            let x = a as u64 & op_mask;
            let y = b as u64 & op_mask;
            let p = mul.eval(x, y) & lane;
            let lo = acc & lane;
            let s = add.eval(lo, p) & mask(2 * w + 1);
            acc = (acc & !lane).wrapping_add(s);
            native += x * y;
        }
        prop_assert_eq!(acc, native, "w={}", w);
    }

    /// `autoax_nn::mac_step` — the slot-observing mul8/add16 MAC the
    /// quantized MLP runs on — folds to the native dot product under
    /// exact ops for arbitrary operand streams.
    #[test]
    fn nn_mac_step_matches_native_dot_product(
        stream in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..64)
    ) {
        use autoax_accel::accelerator::{NoRecord, OpSet, OpSlot};
        let slots = [
            OpSlot::new("mul", OpSignature::MUL8),
            OpSlot::new("acc", OpSignature::ADD16),
        ];
        let ops = OpSet::exact_slots(&slots);
        let mut acc = 0u64;
        for &(x, w) in &stream {
            acc = autoax_nn::mac_step(&ops, 0, 1, acc, x, w, &mut NoRecord);
        }
        let native: u64 = stream.iter().map(|&(x, w)| x as u64 * w as u64).sum();
        prop_assert_eq!(acc, native);
    }
}
