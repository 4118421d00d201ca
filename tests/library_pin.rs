//! Pins the encoded bytes of the generated component libraries.
//!
//! The library is the artifact every later step consumes, so any change
//! to candidate generation, characterization order, dedupe or the garbage
//! filter shows up here first. Each digest is the store's FNV-1a 64 of
//! `encode_library(build_library(cfg))`, which covers every entry's
//! behaviour, label, hardware report and error metrics bit for bit.
//!
//! The default-scale pin is `#[ignore]`d because its build takes seconds
//! in release and far longer in the debug profile; run it with
//! `cargo test --release --test library_pin -- --include-ignored`.

use autoax_circuit::charlib::{build_library, LibraryConfig};
use autoax_store::container::fnv1a64;
use autoax_store::library::encode_library;

fn library_digest(cfg: &LibraryConfig) -> u64 {
    fnv1a64(&encode_library(&build_library(cfg)))
}

#[test]
fn tiny_library_bytes_are_pinned() {
    assert_eq!(
        library_digest(&LibraryConfig::tiny()),
        0x16d5_8280_eca4_23cf,
        "the tiny library's encoded bytes changed"
    );
}

#[test]
#[ignore = "default-scale build; run in release with --include-ignored"]
fn default_library_bytes_are_pinned() {
    assert_eq!(
        library_digest(&LibraryConfig::default()),
        0x13b8_a8b9_5818_65f8,
        "the default-scale library's encoded bytes changed"
    );
}
