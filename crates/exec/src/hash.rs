//! FNV-1a 64 and SplitMix64: the one implementation of each that every
//! digest, checksum, content key and seeded stream of the workspace
//! runs through.
//!
//! Neither is cryptographic. FNV-1a fingerprints content: front digests,
//! store checksums and cache keys, characterization dedupe and compiled
//! forest identity. SplitMix64 drives the deterministic streams: operand
//! stimuli, bootstrap resamples, weight initialization and shuffles. Pinned
//! digests all over the workspace depend on these exact bits.

/// The FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// SplitMix64's state increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

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
}
