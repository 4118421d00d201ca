//! Weighted mean error distance (paper Section 2.2):
//!
//! `WMED_k(M̃) = Σ_{i ∈ I} D_k(i) · |M(i) − M̃(i)|`
//!
//! where `D_k` is the operand PMF of the accelerator's `k`-th operation,
//! profiled on benchmark data. WMED is the application-aware error score
//! that drives library pre-processing.
//!
//! A support is scored through the plane kernels: its `a` and `b`
//! operands are laid out once as `u32` planes, next to each pair's
//! probability and exact signed result, and every circuit runs
//! [`Behavior::eval_plane`](autoax_circuit::approx::Behavior::eval_plane)
//! over them (its model's plane kernel, or the 64-lane netlist simulator
//! for a `Raw` mutant). The products `p · |error|` are then summed in
//! support order, so each score is bit-identical to one `eval` per pair.

use autoax_accel::Pmf;
use autoax_circuit::{CircuitEntry, OpSignature};
use autoax_exec::par_map;

/// A PMF support laid out for one class: the operand planes, each pair's
/// probability and its exact result, all in support order.
struct SupportPlanes {
    sig: OpSignature,
    a: Vec<u32>,
    b: Vec<u32>,
    p: Vec<f64>,
    exact: Vec<i64>,
}

impl SupportPlanes {
    /// Lays out `support` for circuits of class `sig`.
    ///
    /// # Panics
    /// Panics if `sig`'s outputs do not fit the `u32` planes.
    fn new(sig: OpSignature, support: &[((u32, u32), f64)]) -> Self {
        assert!(
            sig.output_width() <= 32,
            "WMED scores {sig} through u32 planes, but its outputs are {} bits",
            sig.output_width()
        );
        let a: Vec<u32> = support.iter().map(|&((a, _), _)| a).collect();
        let b: Vec<u32> = support.iter().map(|&((_, b), _)| b).collect();
        let p = support.iter().map(|&(_, p)| p).collect();
        let exact = a
            .iter()
            .zip(&b)
            .map(|(&a, &b)| sig.to_signed(sig.exact(a as u64, b as u64)))
            .collect();
        SupportPlanes {
            sig,
            a,
            b,
            p,
            exact,
        }
    }

    /// The WMED of one circuit of the class.
    fn wmed(&self, entry: &CircuitEntry) -> f64 {
        assert_eq!(
            entry.signature(),
            self.sig,
            "{} is not of class {}",
            entry.label,
            self.sig
        );
        let mut raw = vec![0u32; self.a.len()];
        entry.behavior.eval_plane(&self.a, &self.b, &mut raw);
        let mut acc = 0.0;
        for ((&r, &e), &p) in raw.iter().zip(&self.exact).zip(&self.p) {
            let err = self.sig.to_signed(r as u64) - e;
            acc += p * err.unsigned_abs() as f64;
        }
        acc
    }
}

/// Computes the WMED of one circuit against a PMF support.
///
/// `support` is a list of `((a, b), probability)` pairs, typically
/// obtained from [`Pmf::top_mass`].
///
/// # Panics
/// Panics if the circuit's outputs are wider than 32 bits.
pub fn wmed_on_support(entry: &CircuitEntry, support: &[((u32, u32), f64)]) -> f64 {
    SupportPlanes::new(entry.signature(), support).wmed(entry)
}

/// Computes WMED for every circuit of a class in parallel, laying the
/// support out once for the whole class.
///
/// `mass_frac` truncates the PMF support to its highest-probability prefix
/// covering that fraction of the mass (1.0 = exact WMED); the truncation
/// bounds the cost on the 2^16-point supports of the multiplier class.
///
/// # Panics
/// Panics if the entries differ in class, or their outputs are wider
/// than 32 bits (every library class has at most 17).
pub fn wmed_class(entries: &[CircuitEntry], pmf: &Pmf, mass_frac: f64) -> Vec<f64> {
    let Some(first) = entries.first() else {
        return Vec::new();
    };
    let planes = SupportPlanes::new(first.signature(), &pmf.top_mass(mass_frac));
    par_map(entries, |e| planes.wmed(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoax_circuit::approx::adders::AdderKind;
    use autoax_circuit::approx::Behavior;
    use autoax_circuit::charlib::{build_class, CircuitEntry, CircuitId, LibraryConfig};
    use autoax_circuit::synth::HwReport;
    use autoax_circuit::{ErrorMetrics, OpSignature};

    /// An 8-bit adder that zeroes the low `k` result bits
    /// (`((a >> k) + (b >> k)) << k`), wrapped as a bare library entry.
    fn trunc_adder_entry(k: u32) -> CircuitEntry {
        CircuitEntry {
            id: CircuitId(1),
            behavior: Behavior::Adder {
                w: 8,
                kind: AdderKind::TruncZero { k },
            },
            label: format!("add_trunc0_k{k}"),
            hw: HwReport::ZERO,
            err: ErrorMetrics::default(),
        }
    }

    #[test]
    fn wmed_matches_hand_computed_error_table() {
        // TruncZero k=2 computes ((a >> 2) + (b >> 2)) << 2, so:
        //   (3, 1): exact 4,  approx (0 + 0) << 2 = 0  -> |err| = 4
        //   (4, 4): exact 8,  approx (1 + 1) << 2 = 8  -> |err| = 0
        //   (7, 5): exact 12, approx (1 + 1) << 2 = 8  -> |err| = 4
        // With weights (0.5, 0.25, 0.25):
        //   WMED = 0.5 * 4 + 0.25 * 0 + 0.25 * 4 = 3 (exact in binary fp).
        let entry = trunc_adder_entry(2);
        let support = [((3, 1), 0.5), ((4, 4), 0.25), ((7, 5), 0.25)];
        assert_eq!(wmed_on_support(&entry, &support), 3.0);
    }

    #[test]
    fn wmed_from_profiled_pmf_matches_hand_computed_table() {
        // The same error table, with the weights coming from a profiled
        // PMF: 2 hits on (3,1) and 1 hit each on (4,4) and (7,5) gives
        // probabilities (0.5, 0.25, 0.25) after normalization.
        let entry = trunc_adder_entry(2);
        let mut pmf = Pmf::new();
        pmf.add(3, 1);
        pmf.add(3, 1);
        pmf.add(4, 4);
        pmf.add(7, 5);
        let support = pmf.top_mass(1.0);
        assert_eq!(wmed_on_support(&entry, &support), 3.0);
    }

    #[test]
    fn wmed_scales_linearly_with_truncation_error() {
        // On the all-ones operand pair (every low bit lost), TruncZero's
        // absolute error is exactly (a mod 2^k) + (b mod 2^k); a
        // single-point PMF makes WMED equal that number.
        for k in 1..4u32 {
            let entry = trunc_adder_entry(k);
            let a = (1u32 << k) - 1; // low k bits all set
            let support = [((a, a), 1.0)];
            let expected = 2.0 * a as f64;
            assert_eq!(wmed_on_support(&entry, &support), expected, "k={k}");
        }
    }

    #[test]
    fn wmed_of_exact_behavior_is_zero_on_any_support() {
        let entry = CircuitEntry {
            id: CircuitId(0),
            behavior: Behavior::exact_for(OpSignature::ADD8),
            label: "add_exact".into(),
            hw: HwReport::ZERO,
            err: ErrorMetrics::default(),
        };
        let support: Vec<((u32, u32), f64)> = (0..64u32)
            .map(|i| (((i * 7) % 256, (i * 13) % 256), 1.0 / 64.0))
            .collect();
        assert_eq!(wmed_on_support(&entry, &support), 0.0);
    }

    fn diag_pmf() -> Pmf {
        // Mass concentrated near small operands.
        let mut p = Pmf::new();
        for a in 0u32..32 {
            for d in 0u32..4 {
                p.add(a, (a + d).min(255));
            }
        }
        p
    }

    #[test]
    fn exact_circuit_has_zero_wmed() {
        let cfg = LibraryConfig::tiny();
        let lib = build_class(OpSignature::ADD8, 10, &cfg, 1);
        let pmf = diag_pmf();
        let w = wmed_class(&lib, &pmf, 1.0);
        assert_eq!(w[0], 0.0);
        assert!(w[1..].iter().any(|&x| x > 0.0));
    }

    #[test]
    fn wmed_is_bounded_by_wce() {
        let cfg = LibraryConfig::tiny();
        let lib = build_class(OpSignature::ADD8, 20, &cfg, 2);
        let pmf = diag_pmf();
        let w = wmed_class(&lib, &pmf, 1.0);
        for (e, &wm) in lib.iter().zip(w.iter()) {
            assert!(
                wm <= e.err.wce as f64 + 1e-9,
                "{}: wmed {wm} > wce {}",
                e.label,
                e.err.wce
            );
        }
    }

    #[test]
    fn pmf_weighting_matters() {
        // A circuit that truncates low bits is harmless for operands that
        // are multiples of 8, harmful otherwise.
        let cfg = LibraryConfig::tiny();
        let lib = build_class(OpSignature::ADD8, 30, &cfg, 3);
        let trunc = lib
            .iter()
            .find(|e| e.label.contains("trunc0_k3"))
            .expect("trunc k=3 in library");
        let mut aligned = Pmf::new();
        let mut unaligned = Pmf::new();
        for i in 0u32..16 {
            aligned.add(i * 8, i * 8);
            unaligned.add(i * 8 + 7, i * 8 + 7);
        }
        let w_aligned = wmed_on_support(trunc, &aligned.top_mass(1.0));
        let w_unaligned = wmed_on_support(trunc, &unaligned.top_mass(1.0));
        assert_eq!(w_aligned, 0.0);
        assert!(w_unaligned > 0.0);
    }

    /// The per-pair WMED loop that scored every circuit before the plane
    /// path: one `eval` and one `error` per support pair, summed in
    /// support order.
    fn oracle_wmed_on_support(entry: &CircuitEntry, support: &[((u32, u32), f64)]) -> f64 {
        let sig = entry.signature();
        let mut acc = 0.0;
        for &((a, b), p) in support {
            let raw = entry.eval(a as u64, b as u64);
            let err = sig.error(a as u64, b as u64, raw);
            acc += p * err.unsigned_abs() as f64;
        }
        acc
    }

    /// Every class of the tiny library (the signed subtractors included),
    /// plus four netlist mutants per class as `Raw` entries, against the
    /// profiled Sobel and Generic-GF operand PMFs of its operand width,
    /// exact and truncated.
    #[test]
    fn wmed_class_is_bit_identical_to_the_per_pair_oracle_on_profiled_pmfs() {
        use autoax_accel::gaussian_generic::GenericGaussian;
        use autoax_accel::sobel::SobelEd;
        use autoax_accel::Accelerator;
        use autoax_circuit::approx::mutate::mutate_netlist;
        use autoax_circuit::charlib::build_library;
        use std::sync::Arc;

        let lib = build_library(&LibraryConfig::tiny());
        let images = autoax_image::synthetic::benchmark_suite(2, 32, 24, 11);
        let accels: [&dyn Accelerator; 2] = [&SobelEd::new(), &GenericGaussian::with_sweep(2)];
        let profiled: Vec<(OpSignature, Pmf)> = accels
            .iter()
            .flat_map(|acc| {
                let df = acc.dataflow();
                let sigs: Vec<OpSignature> = df.slots().iter().map(|s| s.signature).collect();
                sigs.into_iter().zip(df.profile(&images))
            })
            .collect();
        let mut signed = 0;
        for sig in lib.signatures() {
            let exact = Behavior::exact_for(sig).build_netlist();
            let mut class = lib.class(sig).to_vec();
            let first = class.len() as u32;
            class.extend((0..4u64).map(|seed| CircuitEntry {
                id: CircuitId(first + seed as u32),
                behavior: Behavior::Raw {
                    sig,
                    netlist: Arc::new(mutate_netlist(&exact, 1 + seed as u32, seed)),
                },
                label: format!("mutant{seed}"),
                hw: HwReport::ZERO,
                err: ErrorMetrics::default(),
            }));
            signed += usize::from(sig.kind == autoax_circuit::OpKind::Sub);
            let pmfs: Vec<&Pmf> = profiled
                .iter()
                .filter(|(s, _)| s.width_a == sig.width_a)
                .map(|(_, p)| p)
                .collect();
            assert!(!pmfs.is_empty(), "{sig}: no profiled PMF of its width");
            for pmf in pmfs {
                for mass_frac in [1.0, 0.999] {
                    let support = pmf.top_mass(mass_frac);
                    let want: Vec<u64> = class
                        .iter()
                        .map(|e| oracle_wmed_on_support(e, &support).to_bits())
                        .collect();
                    let got: Vec<u64> = wmed_class(&class, pmf, mass_frac)
                        .iter()
                        .map(|w| w.to_bits())
                        .collect();
                    assert_eq!(got, want, "{sig} at mass_frac {mass_frac}");
                }
            }
        }
        assert_eq!(lib.signatures().count(), 6, "every paper class");
        assert_eq!(signed, 2, "sub10 and sub16");
    }

    #[test]
    fn mass_truncation_approximates_full_wmed() {
        let cfg = LibraryConfig::tiny();
        let lib = build_class(OpSignature::ADD8, 15, &cfg, 4);
        // skewed pmf: a few dominant pairs plus a long tail
        let mut p = Pmf::new();
        for _ in 0..1000 {
            p.add(100, 100);
        }
        for i in 0..200u32 {
            p.add(i, 255 - i);
        }
        let full = wmed_class(&lib, &p, 1.0);
        let trunc = wmed_class(&lib, &p, 0.95);
        for (&f, &t) in full.iter().zip(trunc.iter()) {
            assert!(t <= f + 1e-9, "truncated WMED must not exceed full");
            if f > 0.0 {
                assert!(t / f > 0.5, "truncation lost too much mass: {t} vs {f}");
            }
        }
    }
}
