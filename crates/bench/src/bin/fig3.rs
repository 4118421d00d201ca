//! Regenerates **Figure 3**: the operand probability mass functions of
//! the Sobel ED operations, profiled on benchmark data.
//!
//! The paper's plots show (i) operands concentrated near the diagonal
//! (neighbouring pixels are similar) and (ii) regular stripes in the
//! `add2` PMF caused by the shifted second operand. Both structures are
//! rendered as ASCII heat maps, quantified, and exported as CSV grids.
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin fig3 -- --scale default
//! ```

use autoax_accel::sobel::SobelEd;
use autoax_accel::Accelerator;
use autoax_bench::{ascii_heatmap, sobel_image_suite, write_csv, Scale};

fn main() {
    let scale = Scale::from_args();
    let accel = SobelEd::new();
    let images = sobel_image_suite(scale);
    println!(
        "Figure 3: operand PMFs of the Sobel ED ({} images, scale {})",
        images.len(),
        scale.label()
    );
    let pmfs = accel.dataflow().profile(&images);
    let bins = 32;
    for (slot, pmf) in accel.dataflow().slots().iter().zip(pmfs.iter()) {
        let max_a = (1u32 << slot.signature.width_a) - 1;
        let max_b = (1u32 << slot.signature.width_b) - 1;
        let grid = pmf.to_grid(bins, max_a, max_b);
        println!(
            "\n--- D_{} ({}; support {}, diagonal mass(|a-b|<=32): {:.2}) ---",
            slot.name,
            slot.signature,
            pmf.support_len(),
            pmf.diagonal_mass(32)
        );
        println!("{}", ascii_heatmap(&grid, bins));
        let rows: Vec<Vec<String>> = (0..bins)
            .map(|r| {
                (0..bins)
                    .map(|c| format!("{:.3e}", grid[r * bins + c]))
                    .collect()
            })
            .collect();
        write_csv(
            &format!("fig3_pmf_{}.csv", slot.name),
            &(0..bins)
                .map(|c| format!("b{c}"))
                .collect::<Vec<_>>()
                .join(","),
            &rows,
        );
    }

    // The quantitative claims behind the figure:
    // add1/add3 see raw pixels -> strong diagonal concentration.
    assert!(
        pmfs[0].diagonal_mass(32) > 0.5,
        "add1 operands should concentrate near the diagonal"
    );
    assert!(
        pmfs[2].diagonal_mass(32) > 0.5,
        "add3 operands should concentrate near the diagonal"
    );
    // add2's second operand is a shifted pixel -> even values only,
    // producing the paper's "regular white stripes".
    let odd_b_mass: f64 = pmfs[1]
        .iter()
        .filter(|((_, b), _)| b % 2 == 1)
        .map(|(_, p)| p)
        .sum();
    println!("\nadd2: probability mass on odd second operands = {odd_b_mass:.4} (stripes)");
    assert!(
        odd_b_mass < 1e-12,
        "shifted operand must produce even-only stripes"
    );
    // add1 and add3 have nearly identical PMFs (the paper: "add3 has
    // almost identical PMF with add1").
    let g1 = pmfs[0].to_grid(bins, 255, 255);
    let g3 = pmfs[2].to_grid(bins, 255, 255);
    let l1: f64 = g1.iter().zip(g3.iter()).map(|(a, b)| (a - b).abs()).sum();
    println!("L1 distance between D_add1 and D_add3 grids: {l1:.4}");
    assert!(l1 < 0.3, "add1/add3 PMFs should nearly coincide");
}
