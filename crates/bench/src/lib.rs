//! Shared infrastructure for the table/figure regeneration binaries.
//!
//! Every binary accepts `--scale quick|default|paper`:
//!
//! * `quick` — seconds; tiny library, small images (CI smoke runs);
//! * `default` — minutes on a laptop; preserves every qualitative claim;
//! * `paper` — the paper's library sizes (Table 2) and budgets; hours.
//!
//! Binaries that run the pipeline additionally accept the warm-start
//! flags `--cache-dir <path>` and `--cache off|read|rw` (parsed by
//! [`cache_args`]); see `docs/ARCHITECTURE.md` for the cache design.
//!
//! Results are printed and also written as CSV under `bench_out/`.
//!
//! # Example
//!
//! The correlation helpers used by the fidelity tables:
//!
//! ```
//! use autoax_bench::{pearson, spearman};
//!
//! let a = [1.0, 2.0, 3.0, 4.0];
//! let b = [10.0, 20.0, 30.0, 40.0];
//! assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
//! assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
//! ```

use autoax::pipeline::PipelineTimings;
use autoax_circuit::charlib::{ClassCounts, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_image::GrayImage;
use autoax_store::cache::CacheMode;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Run scale of a regeneration binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds; smoke-test sizes.
    Quick,
    /// Minutes; laptop sizes (the default).
    Default,
    /// The paper's sizes and budgets.
    Paper,
}

impl Scale {
    /// Parses `--scale <s>` / `--scale=<s>` from `std::env::args`.
    pub fn from_args() -> Scale {
        match flag_value(&std::env::args().collect::<Vec<_>>(), "scale").as_deref() {
            None | Some("default") => Scale::Default,
            Some("quick") => Scale::Quick,
            Some("paper") => Scale::Paper,
            Some(other) => {
                autoax_telemetry::ax_warn!("unknown scale `{other}`, using default");
                Scale::Default
            }
        }
    }

    /// The library configuration for this scale.
    pub fn library_config(self) -> LibraryConfig {
        match self {
            Scale::Quick => LibraryConfig::tiny(),
            Scale::Default => LibraryConfig {
                counts: ClassCounts::default_scale(),
                ..LibraryConfig::default()
            },
            Scale::Paper => LibraryConfig::paper(),
        }
    }

    /// Benchmark image geometry `(count, width, height)` for QoR analysis
    /// of the Sobel / fixed-GF studies (paper: 24 images of 384×256).
    pub fn sobel_images(self) -> (usize, usize, usize) {
        match self {
            Scale::Quick => (2, 96, 64),
            Scale::Default => (6, 192, 128),
            Scale::Paper => (24, 384, 256),
        }
    }

    /// Image set and kernel sweep for the generic GF (paper: 4 images,
    /// 50 kernels).
    pub fn generic_gf_setup(self) -> (usize, usize, usize, usize) {
        // (images, width, height, kernels)
        match self {
            Scale::Quick => (2, 64, 48, 2),
            Scale::Default => (2, 128, 96, 8),
            Scale::Paper => (4, 384, 256, 50),
        }
    }

    /// Training/testing configuration counts for model construction
    /// (paper: 1500/1500 Sobel, 4000/1000 GF).
    pub fn model_budget(self) -> (usize, usize) {
        match self {
            Scale::Quick => (60, 40),
            Scale::Default => (400, 200),
            Scale::Paper => (1500, 1500),
        }
    }

    /// Scale label for file names.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Paper => "paper",
        }
    }
}

/// The value of the first `--<name> <v>` / `--<name>=<v>` in `args`; a
/// bare `--<name>` with nothing after it is skipped.
fn flag_value(args: &[String], name: &str) -> Option<String> {
    let eq = format!("--{name}=");
    let bare = format!("--{name}");
    args.iter()
        .enumerate()
        .find_map(|(i, a)| match a.strip_prefix(&eq) {
            Some(rest) => Some(rest.to_string()),
            None if *a == bare => args.get(i + 1).cloned(),
            None => None,
        })
}

/// The standard benchmark image suite for a scale.
pub fn sobel_image_suite(scale: Scale) -> Vec<GrayImage> {
    let (n, w, h) = scale.sobel_images();
    benchmark_suite(n, w, h, 2019)
}

/// Parses the warm-start flags `--cache-dir <path>` (or `--cache-dir=`)
/// and `--cache off|read|rw` from `std::env::args`.
///
/// Thin wrapper over [`autoax_store::parse_cache_flags`] — the one flag
/// parser shared with the examples, so every entry point accepts the
/// same syntax and handles bad input identically (an unknown mode warns
/// and disables caching).
pub fn cache_args() -> (Option<PathBuf>, CacheMode) {
    let args: Vec<String> = std::env::args().collect();
    autoax_store::parse_cache_flags(&args)
}

/// One-line stage/cache timing summary of a pipeline run, making the
/// Steps-1–2 breakdown and warm-start savings visible in bench output.
pub fn timings_line(t: &PipelineTimings) -> String {
    let mut s = String::new();
    if t.cache_hits > 0 {
        write!(
            s,
            "cache warm ({} hit, load {:.1?} vs compute-equivalent skipped)",
            t.cache_hits, t.cache_load
        )
        .unwrap();
    } else {
        write!(
            s,
            "step1 profile {:.1?} + wmed/pareto {:.1?}, step2 data {:.1?} + fit {:.1?}",
            t.profiling,
            t.preprocess.saturating_sub(t.profiling),
            t.training_data,
            t.model_fit
        )
        .unwrap();
        if t.cache_misses > 0 {
            write!(s, " [cache miss]").unwrap();
        }
    }
    write!(
        s,
        "; search {:.1?} ({:.2e} evals/s), final {:.1?}",
        t.search, t.search_evals_per_sec, t.final_eval
    )
    .unwrap();
    s
}

/// Output directory for CSV artifacts (`bench_out/`), created on demand.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("bench_out");
    std::fs::create_dir_all(&dir).expect("create bench_out/");
    dir
}

/// Writes a CSV file under `bench_out/` and reports its path.
pub fn write_csv(name: &str, header: &str, rows: &[Vec<String>]) {
    let mut body = String::new();
    writeln!(body, "{header}").unwrap();
    for row in rows {
        writeln!(body, "{}", row.join(",")).unwrap();
    }
    let path = out_dir().join(name);
    std::fs::write(&path, body).expect("write csv");
    println!("[csv] wrote {}", path.display());
}

/// Renders a normalized row-major grid as a coarse ASCII heat map
/// (darkest = highest probability), for terminal-friendly Fig. 3 output.
pub fn ascii_heatmap(grid: &[f64], bins: usize) -> String {
    const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let max = grid.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    let mut s = String::new();
    // print with row 0 at the bottom (operand-1 axis upward)
    for r in (0..bins).rev() {
        for c in 0..bins {
            let v = grid[r * bins + c];
            // log-ish scaling mirrors the paper's log color scale
            let t = ((v / max).powf(0.25) * (SHADES.len() - 1) as f64).round() as usize;
            s.push(SHADES[t.min(SHADES.len() - 1)]);
            s.push(SHADES[t.min(SHADES.len() - 1)]);
        }
        s.push('\n');
    }
    s
}

/// Pearson correlation coefficient of two equal-length samples.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    cov / (va.sqrt() * vb.sqrt()).max(1e-300)
}

/// Spearman rank correlation.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].partial_cmp(&v[j]).unwrap_or(std::cmp::Ordering::Equal));
        let mut r = vec![0.0; v.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    pearson(&rank(a), &rank(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_of_linear_relation_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_anticorrelation_is_minus_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        assert!((pearson(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_is_rank_based() {
        // monotone but nonlinear: spearman 1, pearson < 1
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 10.0, 100.0, 1000.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        assert!(pearson(&a, &b) < 0.99);
    }

    #[test]
    fn heatmap_shape() {
        let grid = vec![0.1; 16];
        let m = ascii_heatmap(&grid, 4);
        assert_eq!(m.lines().count(), 4);
        assert!(m.lines().all(|l| l.chars().count() == 8));
    }

    #[test]
    fn flag_value_reads_both_spellings_and_skips_a_dangling_flag() {
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let a = args(&["prog", "--train", "80", "--scale=quick"]);
        assert_eq!(flag_value(&a, "train").as_deref(), Some("80"));
        assert_eq!(flag_value(&a, "scale").as_deref(), Some("quick"));
        assert_eq!(flag_value(&a, "seed"), None);
        let a = args(&["prog", "--scale=paper", "--scale", "quick"]);
        assert_eq!(flag_value(&a, "scale").as_deref(), Some("paper"));
        let a = args(&["prog", "--scale"]);
        assert_eq!(flag_value(&a, "scale"), None);
    }

    #[test]
    fn scale_configs_are_ordered() {
        assert!(
            Scale::Quick.library_config().counts.add8 < Scale::Paper.library_config().counts.add8
        );
        assert_eq!(Scale::Paper.library_config().counts.mul8, 29911);
    }
}
