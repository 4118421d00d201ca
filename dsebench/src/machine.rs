//! The machine a record came from, and the process's peak memory.

use std::path::Path;
use std::process::Command;

/// Fingerprint printed with every result record, so numbers from
/// different machines are never compared by accident.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Logical cores available to the process.
    pub cores: usize,
    /// Whether the CPU has AVX2 (the estimate kernels dispatch on it).
    pub avx2: bool,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// Git revision of the working directory, `unknown` outside a
    /// checkout.
    pub git_rev: String,
}

impl Machine {
    /// Probes the current machine.
    pub fn probe() -> Machine {
        Machine {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            avx2: avx2(),
            rustc: Command::new("rustc")
                .arg("-V")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string()),
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2() -> bool {
    false
}

/// Resolves `HEAD` of the git directory `git` by reading its files (no
/// `git` process; a directory that is not a checkout has no revision).
fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| {
            let (rev, name) = l.split_once(' ')?;
            (name == reference).then(|| rev.to_string())
        })
}

/// Peak resident set size of this process in MiB (`VmHWM`), `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
