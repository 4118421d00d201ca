//! Regenerates **Table 1**: the number of operations in the target
//! accelerators, by operation class.
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin table1
//! ```

use autoax_accel::gaussian_fixed::FixedGaussian;
use autoax_accel::gaussian_generic::GenericGaussian;
use autoax_accel::sobel::SobelEd;
use autoax_accel::Accelerator;
use autoax_bench::write_csv;
use autoax_circuit::OpSignature;

fn main() {
    let accels: Vec<Box<dyn Accelerator>> = vec![
        Box::new(SobelEd::new()),
        Box::new(FixedGaussian::new()),
        Box::new(GenericGaussian::with_sweep(2)),
    ];
    let classes = OpSignature::PAPER_CLASSES;
    println!("Table 1: The number of operations in target accelerators");
    println!(
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "Problem", "add8", "add9", "add16", "sub10", "sub16", "mul8", "total"
    );
    let mut rows = Vec::new();
    // (problem, counts per class) expected from the paper
    let expected = [
        ("Sobel ED", [2, 2, 0, 1, 0, 0], 5),
        ("Fixed GF", [4, 2, 4, 0, 1, 0], 11),
        ("Generic GF", [0, 0, 8, 0, 0, 9], 17),
    ];
    for (accel, (name, exp_counts, exp_total)) in accels.iter().zip(expected.iter()) {
        let slots = accel.dataflow().slots();
        let counts: Vec<usize> = classes
            .iter()
            .map(|&sig| slots.iter().filter(|s| s.signature == sig).count())
            .collect();
        let total = slots.len();
        println!(
            "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            accel.name(),
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            counts[4],
            counts[5],
            total
        );
        assert_eq!(accel.name(), *name);
        assert_eq!(
            &counts[..],
            &exp_counts[..],
            "{name}: class counts diverge from paper"
        );
        assert_eq!(
            total, *exp_total,
            "{name}: total op count diverges from paper"
        );
        rows.push(
            std::iter::once(name.to_string())
                .chain(counts.iter().map(|c| c.to_string()))
                .chain(std::iter::once(total.to_string()))
                .collect(),
        );
    }
    write_csv(
        "table1.csv",
        "problem,add8,add9,add16,sub10,sub16,mul8,total",
        &rows,
    );
    println!("\nAll inventories match the paper exactly.");
}
