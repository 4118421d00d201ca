//! The sealed blob container: every artifact on disk is wrapped in a
//! fixed header plus a trailing checksum.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"AXST"
//! 4       4     format version (u32)
//! 8       4     type tag (4 ASCII bytes, e.g. b"ALIB")
//! 12      8     payload length (u64)
//! 20      n     payload
//! 20+n    8     FNV-1a 64 checksum over bytes [0, 20+n)
//! ```
//!
//! The checksum covers the header too, so a version or tag edit is caught
//! even before the version comparison runs; [`unseal`] still reports the
//! most specific error it can (magic → checksum → version → tag → length)
//! so callers can distinguish "stale format" from "bit rot".

use crate::StoreError;

/// Magic prefix of every store blob.
pub const MAGIC: [u8; 4] = *b"AXST";

/// Current store format version. Bump on any codec layout change: the
/// version participates both in the header comparison and in the
/// content-address key salt, so old files are ignored rather than
/// misparsed.
pub const FORMAT_VERSION: u32 = 1;

const HEADER_LEN: usize = 20;

/// The container checksum: FNV-1a 64, good enough for corruption
/// *detection* (not tamper resistance, which an on-disk cache does not
/// need).
pub use autoax_exec::hash::fnv1a64;

fn seal_with_version(tag: [u8; 4], payload: Vec<u8>, version: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Wraps a payload in the sealed container format.
pub fn seal(tag: [u8; 4], payload: Vec<u8>) -> Vec<u8> {
    seal_with_version(tag, payload, FORMAT_VERSION)
}

/// Validates a sealed blob and returns a view of its payload.
///
/// # Errors
/// [`StoreError::BadMagic`], [`StoreError::Truncated`],
/// [`StoreError::Checksum`], [`StoreError::Version`] or
/// [`StoreError::Tag`] — in that order of precedence.
pub fn unseal(bytes: &[u8], expected_tag: [u8; 4]) -> Result<&[u8], StoreError> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(StoreError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let body = &bytes[..bytes.len() - 8];
    let stored_sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if fnv1a64(body) != stored_sum {
        return Err(StoreError::Checksum);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(StoreError::Version {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let tag: [u8; 4] = bytes[8..12].try_into().unwrap();
    if tag != expected_tag {
        return Err(StoreError::Tag {
            found: tag,
            expected: expected_tag,
        });
    }
    // The length field is any u64 that a matching checksum vouches for,
    // so it is compared with the payload's length, never added to.
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("an 8-byte field"));
    let payload = &bytes[HEADER_LEN..bytes.len() - 8];
    if payload.len() as u64 != len {
        return Err(StoreError::Invalid(format!(
            "payload length {len} disagrees with blob size {}",
            bytes.len()
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn seal_unseal_round_trip() {
        let blob = seal(*b"TEST", vec![1, 2, 3, 4, 5]);
        assert_eq!(unseal(&blob, *b"TEST").unwrap(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_payload_round_trips() {
        let blob = seal(*b"NULL", Vec::new());
        assert_eq!(unseal(&blob, *b"NULL").unwrap(), &[] as &[u8]);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Corruption of any bit — header, payload or checksum — must be
        // reported as an error of some kind, never silently accepted.
        let blob = seal(*b"PROP", vec![0xAB; 17]);
        for byte in 0..blob.len() {
            for bit in 0..8 {
                let mut c = blob.clone();
                c[byte] ^= 1 << bit;
                assert!(
                    unseal(&c, *b"PROP").is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn version_mismatch_is_reported_as_version() {
        let blob = seal_with_version(*b"VERS", vec![9, 9], FORMAT_VERSION + 1);
        match unseal(&blob, *b"VERS") {
            Err(StoreError::Version { found, expected }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn tag_mismatch_is_reported_as_tag() {
        let blob = seal(*b"AAAA", vec![1]);
        assert!(matches!(
            unseal(&blob, *b"BBBB"),
            Err(StoreError::Tag { .. })
        ));
    }

    #[test]
    fn wrong_magic_is_bad_magic() {
        let mut blob = seal(*b"TEST", vec![1]);
        blob[0] = b'Z';
        // magic is checked before the checksum
        assert!(matches!(unseal(&blob, *b"TEST"), Err(StoreError::BadMagic)));
    }

    #[test]
    fn truncated_blob_is_truncated() {
        let blob = seal(*b"TEST", vec![1, 2, 3]);
        assert!(matches!(
            unseal(&blob[..10], *b"TEST"),
            Err(StoreError::Truncated)
        ));
    }

    /// A valid blob whose header fields are replaced, with the checksum
    /// recomputed over the edited bytes.
    fn resealed(payload: &[u8], magic: [u8; 4], version: u32, tag: [u8; 4], len: u64) -> Vec<u8> {
        let mut out = seal(*b"TEST", payload.to_vec());
        out[0..4].copy_from_slice(&magic);
        out[4..8].copy_from_slice(&version.to_le_bytes());
        out[8..12].copy_from_slice(&tag);
        out[12..20].copy_from_slice(&len.to_le_bytes());
        let body = out.len() - 8;
        let sum = fnv1a64(&out[..body]);
        out[body..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn a_huge_length_field_is_an_error_not_an_overflow() {
        let blob = resealed(&[7; 5], MAGIC, FORMAT_VERSION, *b"TEST", u64::MAX - 3);
        assert!(matches!(
            unseal(&blob, *b"TEST"),
            Err(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn every_truncation_of_a_valid_blob_is_an_error() {
        let blob = seal(*b"TEST", (0..40).collect());
        for end in 0..blob.len() {
            assert!(
                unseal(&blob[..end], *b"TEST").is_err(),
                "truncated to {end}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes never panic `unseal`.
        #[test]
        fn unseal_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..80usize),
            tag in any::<u32>(),
        ) {
            let _ = unseal(&bytes, tag.to_le_bytes());
        }

        /// Valid blobs with arbitrary magic, version, tag and length
        /// fields and a recomputed checksum never panic, and come back
        /// only when every field is the expected one.
        #[test]
        fn unseal_never_panics_on_resealed_headers(
            payload in prop::collection::vec(any::<u8>(), 0..40usize),
            (real_magic, real_version, real_tag, real_len) in
                (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
            (magic, version, tag, len) in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u64>()),
        ) {
            let magic = if real_magic { MAGIC } else { magic.to_le_bytes() };
            let version = if real_version { FORMAT_VERSION } else { version };
            let tag = if real_tag { *b"TEST" } else { tag.to_le_bytes() };
            let len = if real_len { payload.len() as u64 } else { len };
            let blob = resealed(&payload, magic, version, tag, len);
            let valid = magic == MAGIC
                && version == FORMAT_VERSION
                && tag == *b"TEST"
                && len == payload.len() as u64;
            match unseal(&blob, *b"TEST") {
                Ok(p) => prop_assert!(valid && p == payload.as_slice()),
                Err(_) => prop_assert!(!valid),
            }
        }
    }

    #[test]
    fn fnv_reference_vector() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
