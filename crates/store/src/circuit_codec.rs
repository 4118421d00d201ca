//! Codec for the circuit layer: behaviours, netlists and the per-circuit
//! error/hardware characterization tables — everything needed to
//! round-trip a characterized [`ComponentLibrary`] without re-running
//! characterization.
//!
//! Floats (WMED, area, error statistics) are stored as IEEE-754 bit
//! patterns, so a decoded library is indistinguishable from the one that
//! was encoded: every downstream computation (feature construction, model
//! fitting, search) produces bitwise identical results.

use crate::codec::{Decoder, Encoder};
use crate::StoreError;
use autoax_circuit::approx::adders::AdderKind;
use autoax_circuit::approx::muls::MulKind;
use autoax_circuit::approx::subs::SubKind;
use autoax_circuit::approx::{Behavior, FaCell};
use autoax_circuit::charlib::{CircuitEntry, CircuitId, ComponentLibrary};
use autoax_circuit::{CellKind, ErrorMetrics, HwReport, Netlist, OpKind, OpSignature};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// leaf types
// ---------------------------------------------------------------------------

/// Encodes an operation signature (kind + operand widths).
pub fn put_signature(e: &mut Encoder, sig: OpSignature) {
    e.put_u8(match sig.kind {
        OpKind::Add => 0,
        OpKind::Sub => 1,
        OpKind::Mul => 2,
    });
    e.put_u8(sig.width_a);
    e.put_u8(sig.width_b);
}

/// Decodes an operation signature.
pub fn take_signature(d: &mut Decoder<'_>) -> Result<OpSignature, StoreError> {
    let kind = match d.take_u8()? {
        0 => OpKind::Add,
        1 => OpKind::Sub,
        2 => OpKind::Mul,
        t => return Err(StoreError::Invalid(format!("bad op kind tag {t}"))),
    };
    let wa = d.take_u8()?;
    let wb = d.take_u8()?;
    Ok(OpSignature::new(kind, wa, wb))
}

fn put_cell_kind(e: &mut Encoder, kind: CellKind) {
    let idx = CellKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("CellKind::ALL is exhaustive");
    e.put_u8(idx as u8);
}

fn take_cell_kind(d: &mut Decoder<'_>) -> Result<CellKind, StoreError> {
    let idx = d.take_u8()? as usize;
    CellKind::ALL
        .get(idx)
        .copied()
        .ok_or_else(|| StoreError::Invalid(format!("bad cell kind index {idx}")))
}

fn put_fa_cell(e: &mut Encoder, c: FaCell) {
    e.put_u8(c.sum);
    e.put_u8(c.carry);
}

fn take_fa_cell(d: &mut Decoder<'_>) -> Result<FaCell, StoreError> {
    Ok(FaCell {
        sum: d.take_u8()?,
        carry: d.take_u8()?,
    })
}

fn put_fa_cells(e: &mut Encoder, cells: &[FaCell]) {
    e.put_len(cells.len());
    for &c in cells {
        put_fa_cell(e, c);
    }
}

fn take_fa_cells(d: &mut Decoder<'_>) -> Result<Arc<[FaCell]>, StoreError> {
    let n = d.take_len()?;
    let mut v = Vec::new();
    for _ in 0..n {
        v.push(take_fa_cell(d)?);
    }
    Ok(v.into())
}

/// Encodes a gate-level netlist (name, inputs, gates, outputs).
pub fn put_netlist(e: &mut Encoder, n: &Netlist) {
    e.put_str(n.name());
    e.put_u32(n.input_count() as u32);
    e.put_len(n.gates().len());
    for g in n.gates() {
        put_cell_kind(e, g.kind);
        for i in 0..3 {
            e.put_u32(g.ins[i].0);
        }
    }
    e.put_len(n.outputs().len());
    for o in n.outputs() {
        e.put_u32(o.0);
    }
}

/// Decodes a netlist, validating net references so malformed data yields
/// an error rather than a builder panic.
pub fn take_netlist(d: &mut Decoder<'_>) -> Result<Netlist, StoreError> {
    use autoax_circuit::netlist::NetId;
    let name = d.take_str()?;
    let n_inputs = d.take_u32()?;
    let mut out = Netlist::new(name);
    for _ in 0..n_inputs {
        out.input();
    }
    let n_gates = d.take_len()?;
    for gi in 0..n_gates {
        let kind = take_cell_kind(d)?;
        let mut ins = [NetId(0); 3];
        for slot in &mut ins {
            *slot = NetId(d.take_u32()?);
        }
        let next = n_inputs as u64 + gi as u64;
        for slot in ins.iter().take(kind.arity()) {
            if slot.0 as u64 >= next {
                return Err(StoreError::Invalid(format!(
                    "gate {gi} references future net {}",
                    slot.0
                )));
            }
        }
        // Unused input slots are conventional but must still be in range
        // for `push` (it only asserts used slots; keep them valid anyway).
        for slot in ins.iter_mut().skip(kind.arity()) {
            if slot.0 as u64 >= next.max(1) {
                *slot = NetId(0);
            }
        }
        out.push(kind, ins);
    }
    let n_outs = d.take_len()?;
    let net_count = out.net_count() as u32;
    let mut outputs = Vec::new();
    for _ in 0..n_outs {
        let o = d.take_u32()?;
        if o >= net_count {
            return Err(StoreError::Invalid(format!("output references net {o}")));
        }
        outputs.push(NetId(o));
    }
    out.set_outputs(outputs);
    Ok(out)
}

// ---------------------------------------------------------------------------
// behaviour kinds
// ---------------------------------------------------------------------------

fn put_adder_kind(e: &mut Encoder, k: &AdderKind) {
    match k {
        AdderKind::Exact => e.put_u8(0),
        AdderKind::ExactCla => e.put_u8(1),
        AdderKind::TruncZero { k } => {
            e.put_u8(2);
            e.put_u32(*k);
        }
        AdderKind::TruncPass { k } => {
            e.put_u8(3);
            e.put_u32(*k);
        }
        AdderKind::Loa { k } => {
            e.put_u8(4);
            e.put_u32(*k);
        }
        AdderKind::XorLower { k } => {
            e.put_u8(5);
            e.put_u32(*k);
        }
        AdderKind::Aca { r } => {
            e.put_u8(6);
            e.put_u32(*r);
        }
        AdderKind::Gear { r, p } => {
            e.put_u8(7);
            e.put_u32(*r);
            e.put_u32(*p);
        }
        AdderKind::Seg { segs, speculate } => {
            e.put_u8(8);
            e.put_bytes(segs);
            e.put_bool(*speculate);
        }
        AdderKind::CellRipple { cells } => {
            e.put_u8(9);
            put_fa_cells(e, cells);
        }
    }
}

fn take_adder_kind(d: &mut Decoder<'_>) -> Result<AdderKind, StoreError> {
    Ok(match d.take_u8()? {
        0 => AdderKind::Exact,
        1 => AdderKind::ExactCla,
        2 => AdderKind::TruncZero { k: d.take_u32()? },
        3 => AdderKind::TruncPass { k: d.take_u32()? },
        4 => AdderKind::Loa { k: d.take_u32()? },
        5 => AdderKind::XorLower { k: d.take_u32()? },
        6 => AdderKind::Aca { r: d.take_u32()? },
        7 => AdderKind::Gear {
            r: d.take_u32()?,
            p: d.take_u32()?,
        },
        8 => AdderKind::Seg {
            segs: d.take_bytes()?.to_vec(),
            speculate: d.take_bool()?,
        },
        9 => AdderKind::CellRipple {
            cells: take_fa_cells(d)?,
        },
        t => return Err(StoreError::Invalid(format!("bad adder kind tag {t}"))),
    })
}

fn put_sub_kind(e: &mut Encoder, k: &SubKind) {
    match k {
        SubKind::Exact => e.put_u8(0),
        SubKind::TruncZero { k } => {
            e.put_u8(1);
            e.put_u32(*k);
        }
        SubKind::TruncPass { k } => {
            e.put_u8(2);
            e.put_u32(*k);
        }
        SubKind::XorLower { k } => {
            e.put_u8(3);
            e.put_u32(*k);
        }
        SubKind::Seg { segs } => {
            e.put_u8(4);
            e.put_bytes(segs);
        }
        SubKind::CellRipple { cells } => {
            e.put_u8(5);
            put_fa_cells(e, cells);
        }
    }
}

fn take_sub_kind(d: &mut Decoder<'_>) -> Result<SubKind, StoreError> {
    Ok(match d.take_u8()? {
        0 => SubKind::Exact,
        1 => SubKind::TruncZero { k: d.take_u32()? },
        2 => SubKind::TruncPass { k: d.take_u32()? },
        3 => SubKind::XorLower { k: d.take_u32()? },
        4 => SubKind::Seg {
            segs: d.take_bytes()?.to_vec(),
        },
        5 => SubKind::CellRipple {
            cells: take_fa_cells(d)?,
        },
        t => return Err(StoreError::Invalid(format!("bad sub kind tag {t}"))),
    })
}

fn put_mul_kind(e: &mut Encoder, k: &MulKind) {
    match k {
        MulKind::Exact => e.put_u8(0),
        MulKind::ExactWallace => e.put_u8(1),
        MulKind::Bam { vbl, hbl } => {
            e.put_u8(2);
            e.put_u32(*vbl);
            e.put_u32(*hbl);
        }
        MulKind::Trunc { k, comp } => {
            e.put_u8(3);
            e.put_u32(*k);
            e.put_bool(*comp);
        }
        MulKind::PerfRows { row_mask } => {
            e.put_u8(4);
            e.put_u16(*row_mask);
        }
        MulKind::Udm { leaf_mask } => {
            e.put_u8(5);
            e.put_u16(*leaf_mask);
        }
        MulKind::CellGrid { cells } => {
            e.put_u8(6);
            put_fa_cells(e, cells);
        }
    }
}

fn take_mul_kind(d: &mut Decoder<'_>) -> Result<MulKind, StoreError> {
    Ok(match d.take_u8()? {
        0 => MulKind::Exact,
        1 => MulKind::ExactWallace,
        2 => MulKind::Bam {
            vbl: d.take_u32()?,
            hbl: d.take_u32()?,
        },
        3 => MulKind::Trunc {
            k: d.take_u32()?,
            comp: d.take_bool()?,
        },
        4 => MulKind::PerfRows {
            row_mask: d.take_u16()?,
        },
        5 => MulKind::Udm {
            leaf_mask: d.take_u16()?,
        },
        6 => MulKind::CellGrid {
            cells: take_fa_cells(d)?,
        },
        t => return Err(StoreError::Invalid(format!("bad mul kind tag {t}"))),
    })
}

/// Encodes a circuit behaviour (functional model + netlist recipe).
pub fn put_behavior(e: &mut Encoder, b: &Behavior) {
    match b {
        Behavior::Adder { w, kind } => {
            e.put_u8(0);
            e.put_u32(*w);
            put_adder_kind(e, kind);
        }
        Behavior::Subtractor { w, kind } => {
            e.put_u8(1);
            e.put_u32(*w);
            put_sub_kind(e, kind);
        }
        Behavior::Multiplier { wa, wb, kind } => {
            e.put_u8(2);
            e.put_u32(*wa);
            e.put_u32(*wb);
            put_mul_kind(e, kind);
        }
        Behavior::Raw { sig, netlist } => {
            e.put_u8(3);
            put_signature(e, *sig);
            put_netlist(e, netlist);
        }
    }
}

/// Decodes a circuit behaviour.
pub fn take_behavior(d: &mut Decoder<'_>) -> Result<Behavior, StoreError> {
    Ok(match d.take_u8()? {
        0 => Behavior::Adder {
            w: d.take_u32()?,
            kind: take_adder_kind(d)?,
        },
        1 => Behavior::Subtractor {
            w: d.take_u32()?,
            kind: take_sub_kind(d)?,
        },
        2 => Behavior::Multiplier {
            wa: d.take_u32()?,
            wb: d.take_u32()?,
            kind: take_mul_kind(d)?,
        },
        3 => Behavior::Raw {
            sig: take_signature(d)?,
            netlist: Arc::new(take_netlist(d)?),
        },
        t => return Err(StoreError::Invalid(format!("bad behavior tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// characterization tables
// ---------------------------------------------------------------------------

/// Encodes the error characterization table of one circuit.
pub fn put_error_metrics(e: &mut Encoder, m: &ErrorMetrics) {
    e.put_f64(m.mae);
    e.put_u64(m.wce);
    e.put_f64(m.er);
    e.put_f64(m.mse);
    e.put_f64(m.var_ed);
    e.put_f64(m.mre);
    e.put_u64(m.samples);
}

/// Decodes an error characterization table.
pub fn take_error_metrics(d: &mut Decoder<'_>) -> Result<ErrorMetrics, StoreError> {
    Ok(ErrorMetrics {
        mae: d.take_f64()?,
        wce: d.take_u64()?,
        er: d.take_f64()?,
        mse: d.take_f64()?,
        var_ed: d.take_f64()?,
        mre: d.take_f64()?,
        samples: d.take_u64()?,
    })
}

/// Encodes a hardware report.
pub fn put_hw_report(e: &mut Encoder, h: &HwReport) {
    e.put_f64(h.area);
    e.put_f64(h.delay);
    e.put_f64(h.power);
    e.put_f64(h.energy);
    e.put_u64(h.cells as u64);
}

/// Decodes a hardware report.
pub fn take_hw_report(d: &mut Decoder<'_>) -> Result<HwReport, StoreError> {
    Ok(HwReport {
        area: d.take_f64()?,
        delay: d.take_f64()?,
        power: d.take_f64()?,
        energy: d.take_f64()?,
        cells: d.take_u64()? as usize,
    })
}

/// Encodes one fully characterized library circuit.
pub fn put_circuit_entry(e: &mut Encoder, entry: &CircuitEntry) {
    e.put_u32(entry.id.0);
    put_behavior(e, &entry.behavior);
    e.put_str(&entry.label);
    put_hw_report(e, &entry.hw);
    put_error_metrics(e, &entry.err);
}

/// Decodes a library circuit.
pub fn take_circuit_entry(d: &mut Decoder<'_>) -> Result<CircuitEntry, StoreError> {
    Ok(CircuitEntry {
        id: CircuitId(d.take_u32()?),
        behavior: take_behavior(d)?,
        label: d.take_str()?,
        hw: take_hw_report(d)?,
        err: take_error_metrics(d)?,
    })
}

// ---------------------------------------------------------------------------
// whole libraries
// ---------------------------------------------------------------------------

/// Encodes a characterized component library (all classes, all entries,
/// with their characterization tables).
pub fn put_library(e: &mut Encoder, lib: &ComponentLibrary) {
    let sigs: Vec<OpSignature> = lib.signatures().collect();
    e.put_len(sigs.len());
    for sig in sigs {
        put_signature(e, sig);
        let class = lib.class(sig);
        e.put_len(class.len());
        for entry in class {
            put_circuit_entry(e, entry);
        }
    }
}

/// Decodes a characterized component library.
pub fn take_library(d: &mut Decoder<'_>) -> Result<ComponentLibrary, StoreError> {
    let n_classes = d.take_len()?;
    let mut lib = ComponentLibrary::default();
    for _ in 0..n_classes {
        let sig = take_signature(d)?;
        let n = d.take_len()?;
        let mut entries = Vec::new();
        for _ in 0..n {
            entries.push(take_circuit_entry(d)?);
        }
        lib.insert_class(sig, entries);
    }
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoax_circuit::charlib::{build_class, LibraryConfig};

    fn round_trip_behavior(b: &Behavior) -> Behavior {
        let mut e = Encoder::new();
        put_behavior(&mut e, b);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let out = take_behavior(&mut d).unwrap();
        d.finish().unwrap();
        out
    }

    #[test]
    fn structured_behaviors_round_trip_exactly() {
        let cases = vec![
            Behavior::Adder {
                w: 8,
                kind: AdderKind::Gear { r: 2, p: 3 },
            },
            Behavior::Adder {
                w: 9,
                kind: AdderKind::Seg {
                    segs: vec![3, 3, 3],
                    speculate: true,
                },
            },
            Behavior::Subtractor {
                w: 10,
                kind: SubKind::CellRipple {
                    cells: vec![FaCell::EXACT_FS; 10].into(),
                },
            },
            Behavior::Multiplier {
                wa: 8,
                wb: 8,
                kind: MulKind::Bam { vbl: 5, hbl: 2 },
            },
        ];
        for b in cases {
            assert_eq!(round_trip_behavior(&b), b);
        }
    }

    #[test]
    fn raw_netlist_behavior_round_trips_functionally() {
        let sig = OpSignature::ADD8;
        let b = Behavior::Raw {
            sig,
            netlist: Arc::new(Behavior::exact_for(sig).build_netlist()),
        };
        let rt = round_trip_behavior(&b);
        assert_eq!(rt, b);
        for a in [0u64, 3, 200, 255] {
            assert_eq!(rt.eval(a, 77), b.eval(a, 77));
        }
    }

    #[test]
    fn characterized_class_round_trips_bitwise() {
        let cfg = LibraryConfig::tiny();
        let entries = build_class(OpSignature::ADD8, 30, &cfg, 11);
        let mut lib = ComponentLibrary::default();
        lib.insert_class(OpSignature::ADD8, entries);
        let mut e = Encoder::new();
        put_library(&mut e, &lib);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let rt = take_library(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(rt.class_size(OpSignature::ADD8), 30);
        for (a, b) in lib
            .class(OpSignature::ADD8)
            .iter()
            .zip(rt.class(OpSignature::ADD8))
        {
            assert_eq!(a.id, b.id);
            assert_eq!(a.behavior, b.behavior);
            assert_eq!(a.label, b.label);
            assert_eq!(a.hw.area.to_bits(), b.hw.area.to_bits());
            assert_eq!(a.hw.energy.to_bits(), b.hw.energy.to_bits());
            assert_eq!(a.err.mae.to_bits(), b.err.mae.to_bits());
            assert_eq!(a.err.wce, b.err.wce);
            assert_eq!(a.err.samples, b.err.samples);
        }
    }

    #[test]
    fn bad_tags_are_invalid_not_panics() {
        let bytes = [200u8, 0, 0, 0, 0];
        let mut d = Decoder::new(&bytes);
        assert!(take_behavior(&mut d).is_err());
        let mut d2 = Decoder::new(&bytes);
        assert!(take_signature(&mut d2).is_err());
    }
}
