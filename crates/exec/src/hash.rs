//! FNV-1a 64 and SplitMix64: the one implementation of each that every
//! digest, checksum, content key and seeded stream of the workspace
//! runs through. Beside them, one map hasher ([`MapHasher`]) for the
//! integer-keyed in-memory maps.
//!
//! None is cryptographic. FNV-1a fingerprints content: front digests,
//! store checksums and cache keys, characterization dedupe and compiled
//! forest identity. SplitMix64 drives the deterministic streams: operand
//! stimuli, bootstrap resamples, weight initialization and shuffles. Pinned
//! digests all over the workspace depend on these exact bits.
//! [`MapHasher`] is not a digest: it only places keys in the buckets of
//! an [`IntMap`], and nothing may depend on its values or on the order in
//! which such a map iterates.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// SplitMix64's state increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// The multiplier of [`MapHasher`]'s step (FxHash's).
const MAP_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A running FNV-1a 64 hash.
///
/// [`Fnv64::bytes`] is the standard byte-at-a-time step;
/// [`Fnv64::word`] folds a whole 64-bit word into one xor-multiply round,
/// the cheaper step the front digest and the characterization
/// fingerprint use.
///
/// ```
/// use autoax_exec::hash::{fnv1a64, Fnv64};
/// let mut h = Fnv64::new();
/// h.bytes(b"ab");
/// h.bytes(b"c");
/// assert_eq!(h.finish(), fnv1a64(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hash at the standard offset basis.
    pub const fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// A hash started from another offset basis (an independent lane).
    pub const fn with_basis(basis: u64) -> Self {
        Fnv64(basis)
    }

    /// Feeds bytes, one xor-multiply round each.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a whole word in one xor-multiply round.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    /// The digest so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(bytes);
    h.finish()
}

/// One SplitMix64 step: advances `state` and returns the next output of
/// its stream.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// SplitMix64's output function: a bijective avalanche of one word.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A map hasher for small integer keys: each word is folded in with
/// FxHash's step, `h = (h.rotl(5) ^ w) · K`.
///
/// Step 1's operand profiles and structural hashing in synthesis are
/// almost all map inserts, and this step hashes an integer key in a few
/// cycles where `std`'s SipHash takes tens. It is not a digest and not
/// DoS-resistant: use it only for in-process maps of trusted keys whose
/// results never depend on iteration order ([`IntMap`]). FNV's word step
/// is no substitute: its last multiply leaves the low bits that pick a
/// bucket poorly mixed.
///
/// ```
/// use autoax_exec::hash::IntMap;
/// let mut counts: IntMap<(u32, u32), u64> = IntMap::default();
/// *counts.entry((3, 4)).or_insert(0) += 1;
/// assert_eq!(counts[&(3, 4)], 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MapHasher(u64);

impl MapHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(MAP_SEED);
    }
}

impl Hasher for MapHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`MapHasher`]: the workspace's map for
/// integer-keyed in-memory tables. Build one with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<MapHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_step_equals_the_byte_step_on_one_byte() {
        // For a word below 256 the two steps are the same round, so the
        // word step inherits the byte step's reference vector.
        let mut h = Fnv64::new();
        h.word(u64::from(b'a'));
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(h.finish(), fnv1a64(b"a"));
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        let mut state = 0;
        let first: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            first,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
        let mut state = 1_234_567;
        assert_eq!(splitmix64(&mut state), 6_457_827_717_110_365_317);
        assert_eq!(splitmix64(&mut state), 3_203_168_211_198_807_973);
    }

    #[test]
    fn mix64_is_the_output_function_of_the_stream() {
        assert_eq!(mix64(GOLDEN_GAMMA), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(0), 0);
    }

    #[test]
    fn map_hasher_folds_each_integer_as_one_word() {
        let hash = |f: &dyn Fn(&mut MapHasher)| {
            let mut h = MapHasher::default();
            f(&mut h);
            h.finish()
        };
        // one step from zero is a multiply
        assert_eq!(hash(&|h| h.write_u32(1)), MAP_SEED);
        assert_eq!(hash(&|h| h.write_u8(7)), hash(&|h| h.write_u64(7)));
        // a byte slice folds whole little-endian words, then the zero-padded rest
        assert_eq!(
            hash(&|h| h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 0])),
            hash(&|h| {
                h.write_u64(1);
                h.write_u64(2);
            })
        );
        assert_ne!(
            hash(&|h| {
                h.write_u32(1);
                h.write_u32(2);
            }),
            hash(&|h| {
                h.write_u32(2);
                h.write_u32(1);
            })
        );
    }

    #[test]
    fn int_map_keys_spread_over_the_low_bits() {
        // a 16×16 grid of operand pairs spreads over the low byte, the
        // bits that pick a bucket
        let mut low = std::collections::BTreeSet::new();
        for a in 0..16u32 {
            for b in 0..16u32 {
                let mut h = MapHasher::default();
                h.write_u32(a);
                h.write_u32(b);
                low.insert(h.finish() & 0xFF);
            }
        }
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }
}
