//! The [`Workload`] implementation: a quantized-MLP inference accelerator
//! whose per-layer MAC units draw from the approximate multiplier and
//! adder library, with top-1 accuracy against the exact-arithmetic golden
//! run as the QoR measure — the flow of "Using Libraries of Approximate
//! Circuits in Design of Hardware Accelerators of Deep Neural Networks"
//! (Mrazek et al., 2020) on top of the autoAx pipeline.

use autoax_accel::accelerator::{NoRecord, OpSet, OpSlot};
use autoax_accel::{absorb_slots, Pmf, PmfRecorder, Workload};
use autoax_circuit::netlist::{Bus, Netlist};
use autoax_circuit::OpSignature;

use crate::dataset::{synthetic_blobs, DatasetConfig, NnSample};
use crate::qmlp::{fit_classifier, QuantMlp};

/// A quantized-MLP inference accelerator over replaceable MAC slots.
///
/// Each layer is served by one time-multiplexed MAC unit with two
/// replaceable circuits: the 8×8 multiplier (`l{i}_mul`, class `mul8`)
/// and the 16-bit accumulator adder (`l{i}_acc`, class `add16`). The
/// zero-point correction, bias add, requantize shift and argmax are
/// exact glue — only the listed arithmetic is approximated, exactly as in
/// the paper's accelerators.
#[derive(Debug, Clone)]
pub struct NnAccelerator {
    name: String,
    mlp: QuantMlp,
    slots: Vec<OpSlot>,
}

impl NnAccelerator {
    /// Wraps a quantized network as an accelerator workload.
    pub fn new(name: impl Into<String>, mlp: QuantMlp) -> Self {
        let slots = (0..mlp.layers.len())
            .flat_map(|l| {
                [
                    OpSlot::new(format!("l{l}_mul"), OpSignature::MUL8),
                    OpSlot::new(format!("l{l}_acc"), OpSignature::ADD16),
                ]
            })
            .collect();
        NnAccelerator {
            name: name.into(),
            mlp,
            slots,
        }
    }

    /// The wrapped network.
    pub fn mlp(&self) -> &QuantMlp {
        &self.mlp
    }

    /// The all-exact op set for this workload's slots.
    pub fn exact_ops(&self) -> OpSet {
        OpSet::exact_slots(&self.slots)
    }

    /// True accuracy of the *exact* network against the dataset labels
    /// (reporting only — the pipeline's QoR is accuracy against the
    /// exact-run predictions, so the exact configuration scores 1.0).
    pub fn exact_label_accuracy(&self, samples: &[NnSample]) -> f64 {
        assert!(!samples.is_empty(), "need at least one sample");
        let exact = self.exact_ops();
        let hits = samples
            .iter()
            .filter(|s| self.mlp.predict(&s.features, &exact, &mut NoRecord) == s.label)
            .count();
        hits as f64 / samples.len() as f64
    }
}

impl Workload for NnAccelerator {
    type Sample = NnSample;
    /// The exact network's predicted class of one sample.
    type Golden = u8;

    fn name(&self) -> &str {
        &self.name
    }

    fn slots(&self) -> &[OpSlot] {
        &self.slots
    }

    fn qor_metric(&self) -> &'static str {
        "top-1 accuracy"
    }

    fn profile(&self, samples: &[NnSample]) -> Vec<Pmf> {
        let exact = self.exact_ops();
        // one exact forward pass per sample; the per-sample PMFs merge in
        // input order, so the result is thread-count invariant
        autoax_exec::par_map(samples, |s| {
            let mut rec = PmfRecorder::new(self.slots.len());
            let _ = self.mlp.predict(&s.features, &exact, &mut rec);
            rec.into_pmfs()
        })
        .into_iter()
        .reduce(absorb_slots)
        .unwrap_or_else(|| (0..self.slots.len()).map(|_| Pmf::new()).collect())
    }

    fn golden(&self, samples: &[NnSample]) -> Vec<u8> {
        let exact = self.exact_ops();
        autoax_exec::par_map(samples, |s| {
            self.mlp.predict(&s.features, &exact, &mut NoRecord)
        })
    }

    fn qor(&self, samples: &[NnSample], golden: &[u8], ops: &OpSet) -> f64 {
        assert_eq!(samples.len(), golden.len(), "golden shape mismatch");
        assert!(!samples.is_empty(), "qor needs at least one sample");
        // deliberately sequential: runs under the parallel evaluate_batch
        let hits = samples
            .iter()
            .zip(golden)
            .filter(|(s, &g)| self.mlp.predict(&s.features, ops, &mut NoRecord) == g)
            .count();
        hits as f64 / samples.len() as f64
    }

    fn build_netlist(&self, impls: &[Netlist]) -> Netlist {
        assert_eq!(impls.len(), self.slots.len(), "one netlist per slot");
        let mut top = Netlist::new("nn_mac_array");
        let cat = |a: &Bus, b: &Bus| -> Vec<autoax_circuit::NetId> {
            a.iter().chain(b.iter()).copied().collect()
        };
        // one MAC processing element per layer: product = mul(x, w),
        // new_acc_lo = add16(acc_lo, product) with the carry in bit 16
        // (all primary inputs first — net ids must precede the gates)
        let pe_inputs: Vec<(Bus, Bus, Bus)> = (0..self.mlp.layers.len())
            .map(|_| (top.input_bus(8), top.input_bus(8), top.input_bus(16)))
            .collect();
        for (l, (x, w, acc)) in pe_inputs.iter().enumerate() {
            let p = Bus(top.instantiate(&impls[2 * l], &cat(x, w)));
            let s = Bus(top.instantiate(&impls[2 * l + 1], &cat(acc, &p)));
            top.push_output_bus(&s);
        }
        top
    }

    fn digest_samples(&self, samples: &[NnSample], sink: &mut dyn FnMut(&[u8])) {
        for s in samples {
            sink(&(s.features.len() as u64).to_le_bytes());
            sink(&s.features);
            sink(&[s.label]);
        }
    }

    fn digest_identity(&self, sink: &mut dyn FnMut(&[u8])) {
        // the network *is* workload identity: same name + slots with
        // different weights must never alias a cache entry
        sink(&(self.mlp.layers.len() as u64).to_le_bytes());
        for layer in &self.mlp.layers {
            sink(&(layer.in_dim as u64).to_le_bytes());
            sink(&(layer.out_dim as u64).to_le_bytes());
            sink(&layer.weights);
            for &b in &layer.bias {
                sink(&b.to_le_bytes());
            }
            sink(&layer.shift.to_le_bytes());
        }
    }
}

/// A complete, reproducible NN scenario: dataset shape + network shape.
#[derive(Debug, Clone, Copy)]
pub struct NnScenario {
    /// Synthetic dataset configuration.
    pub dataset: DatasetConfig,
    /// Hidden layer width.
    pub hidden: usize,
    /// Network initialization seed.
    pub seed: u64,
}

impl NnScenario {
    /// Smoke-test scenario (16→12→4 network, 96 samples).
    pub fn tiny() -> Self {
        NnScenario {
            dataset: DatasetConfig::tiny(),
            hidden: 12,
            seed: 7,
        }
    }

    /// Laptop scenario (32→20→6 network, 360 samples).
    pub fn default_scale() -> Self {
        NnScenario {
            dataset: DatasetConfig::default_scale(),
            hidden: 20,
            seed: 7,
        }
    }

    /// Generates the dataset and fits the workload on it.
    pub fn build(&self) -> (NnAccelerator, Vec<NnSample>) {
        let data = synthetic_blobs(&self.dataset);
        let mlp = fit_classifier(&data, self.dataset.classes, self.hidden, self.seed);
        (NnAccelerator::new("Quantized MLP", mlp), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoax_accel::accelerator::CompiledOp;
    use autoax_circuit::approx::Behavior;
    use autoax_circuit::sim::sim_lanes;
    use std::sync::Arc;

    fn tiny() -> (NnAccelerator, Vec<NnSample>) {
        NnScenario::tiny().build()
    }

    #[test]
    fn slot_inventory_is_one_mac_per_layer() {
        let (accel, _) = tiny();
        let slots = accel.slots();
        assert_eq!(slots.len(), 4);
        assert_eq!(slots[0].signature, OpSignature::MUL8);
        assert_eq!(slots[1].signature, OpSignature::ADD16);
        assert_eq!(slots[2].signature, OpSignature::MUL8);
        assert_eq!(slots[3].signature, OpSignature::ADD16);
    }

    #[test]
    fn exact_configuration_scores_accuracy_one() {
        let (accel, data) = tiny();
        let golden = accel.golden(&data);
        let q = accel.qor(&data, &golden, &accel.exact_ops());
        assert_eq!(q, 1.0, "QoR is match-vs-golden: exact must be perfect");
        // and the exact net genuinely solves the synthetic task
        assert!(accel.exact_label_accuracy(&data) > 0.9);
    }

    #[test]
    fn zeroed_multipliers_hurt_accuracy() {
        let (accel, data) = tiny();
        let golden = accel.golden(&data);
        let zero_mul = CompiledOp::Lut {
            wa: 8,
            table: Arc::new(vec![0u16; 1 << 16]),
        };
        let broken = OpSet::new(vec![
            zero_mul.clone(),
            CompiledOp::Exact(OpSignature::ADD16),
            zero_mul,
            CompiledOp::Exact(OpSignature::ADD16),
        ]);
        let q = accel.qor(&data, &golden, &broken);
        assert!(q < 1.0, "all-zero products must lose accuracy: {q}");
        assert!((0.0..=1.0).contains(&q));
    }

    #[test]
    fn profiling_fills_every_slot() {
        let (accel, data) = tiny();
        let pmfs = accel.profile(&data);
        assert_eq!(pmfs.len(), 4);
        for (pmf, slot) in pmfs.iter().zip(accel.slots()) {
            assert!(pmf.total() > 0, "slot {} never profiled", slot.name);
        }
        // layer-1 MAC count: samples × hidden × features
        assert_eq!(
            pmfs[0].total(),
            (data.len() * accel.mlp().layers[0].out_dim * accel.mlp().layers[0].in_dim) as u64
        );
    }

    #[test]
    fn netlist_mac_matches_software_semantics() {
        // drive the composed MAC array with exact component netlists and
        // compare each layer's PE against the software mac_step contract:
        // out = add16(acc_lo, mul(x, w))
        let (accel, _) = tiny();
        let impls: Vec<Netlist> = accel
            .slots()
            .iter()
            .map(|s| Behavior::exact_for(s.signature).build_netlist())
            .collect();
        let top = accel.build_netlist(&impls);
        assert_eq!(top.input_count(), 2 * (8 + 8 + 16));
        assert_eq!(top.outputs().len(), 2 * 17);
        let mut st = 5u64;
        for _ in 0..100 {
            let x = (autoax_circuit::util::splitmix64(&mut st) & 0xFF) as u64;
            let w = (autoax_circuit::util::splitmix64(&mut st) & 0xFF) as u64;
            let acc = (autoax_circuit::util::splitmix64(&mut st) & 0xFFFF) as u64;
            // pack both layers with the same operands
            let mut bits = Vec::new();
            for _ in 0..2 {
                for i in 0..8 {
                    bits.push((x >> i) & 1);
                }
                for i in 0..8 {
                    bits.push((w >> i) & 1);
                }
                for i in 0..16 {
                    bits.push((acc >> i) & 1);
                }
            }
            let words: Vec<u64> = bits
                .iter()
                .map(|&b| if b != 0 { u64::MAX } else { 0 })
                .collect();
            let outs = sim_lanes(&top, &words);
            let expect = acc + x * w; // ≤ 2^17 − 1: exact in 17 bits
            for layer in 0..2 {
                let got = (0..17).fold(0u64, |a, i| a | ((outs[17 * layer + i] & 1) << i));
                assert_eq!(got, expect, "layer {layer}: x={x} w={w} acc={acc}");
            }
        }
    }

    #[test]
    fn identity_digest_tracks_the_weights() {
        let (a, data) = tiny();
        let mut other_mlp = a.mlp().clone();
        other_mlp.layers[0].weights[0] ^= 1;
        let b = NnAccelerator::new("Quantized MLP", other_mlp);
        let collect = |acc: &NnAccelerator| {
            let mut out = Vec::new();
            let mut sink = |bytes: &[u8]| out.extend_from_slice(bytes);
            acc.digest_identity(&mut sink);
            out
        };
        assert_ne!(collect(&a), collect(&b), "weight flip must change identity");
        let mut da = Vec::new();
        let mut sink = |bytes: &[u8]| da.extend_from_slice(bytes);
        a.digest_samples(&data, &mut sink);
        assert!(!da.is_empty());
    }

    #[test]
    fn scenario_build_is_deterministic() {
        let (a, da) = tiny();
        let (b, db) = tiny();
        assert_eq!(da, db);
        assert_eq!(a.mlp(), b.mlp());
    }
}
