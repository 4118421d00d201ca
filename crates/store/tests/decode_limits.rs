//! Decoders must not trust a blob's element counts: a crafted count has
//! to fail without any single allocation larger than a small multiple of
//! the blob. A counting global allocator records the largest request
//! while each crafted blob decodes.

use autoax_circuit::charlib::ComponentLibrary;
use autoax_circuit::OpSignature;
use autoax_ml::forest::RandomForest;
use autoax_ml::tree::TreeConfig;
use autoax_store::codec::{Decoder, Encoder};
use autoax_store::library::{decode_library, encode_library};
use autoax_store::ml_codec::{put_regressor, take_regressor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` keeps each of `GlobalAlloc`'s guarantees exactly as `System`
// does; the only extra work is a relaxed atomic max.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `header` with its trailing `u64` element count replaced by `count`,
/// followed by `zeros` zero bytes.
fn crafted(mut header: Vec<u8>, count: u64, zeros: usize) -> Vec<u8> {
    let at = header.len() - 8;
    header[at..].copy_from_slice(&count.to_le_bytes());
    header.resize(header.len() + zeros, 0);
    header
}

/// Whether `decode` failed, and the largest single allocation it made.
fn decode_and_measure(decode: impl FnOnce() -> bool) -> (bool, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let failed = decode();
    (failed, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn crafted_counts_fail_without_oversized_allocations() {
    // A forest header claiming 800,064 trees, then 100,000 zero bytes:
    // a 100,050-byte blob.
    let mut e = Encoder::new();
    let empty = RandomForest::from_fitted_parts(0, TreeConfig::default(), Vec::new());
    put_regressor(&mut e, &empty).expect("forests encode");
    let forest = crafted(e.into_bytes(), 800_064, 100_000);
    assert_eq!(forest.len(), 100_050);
    // A one-class library header claiming one entry per remaining byte.
    let mut lib = ComponentLibrary::default();
    lib.insert_class(OpSignature::ADD8, Vec::new());
    let library = crafted(encode_library(&lib), 100_000, 100_000);

    let (failed, largest) =
        decode_and_measure(|| take_regressor(&mut Decoder::new(&forest)).is_err());
    assert!(failed, "the crafted forest decoded");
    assert!(
        largest <= 4 * forest.len(),
        "forest: a {largest}-byte allocation for a {}-byte blob",
        forest.len()
    );
    let (failed, largest) = decode_and_measure(|| decode_library(&library).is_err());
    assert!(failed, "the crafted library decoded");
    assert!(
        largest <= 4 * library.len(),
        "library: a {largest}-byte allocation for a {}-byte blob",
        library.len()
    );
}
