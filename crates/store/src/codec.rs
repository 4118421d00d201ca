//! Little-endian primitive encoder/decoder — the byte-level substrate of
//! every stored artifact.
//!
//! The format is deliberately boring: fixed-width little-endian integers,
//! IEEE-754 bit patterns for floats (so round-trips are *bitwise* exact,
//! which the warm-start guarantee depends on), and length-prefixed byte
//! strings. No varints, no alignment, no reflection.

use crate::StoreError;

/// Append-only byte encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A new empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bitwise exact,
    /// including NaN payloads and signed zeros).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a collection length (as `u64`).
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Sequential byte decoder over a borrowed slice.
///
/// Every `take_*` returns [`StoreError::Truncated`] instead of panicking
/// when the stream ends early.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless the stream was fully consumed (catches blobs with
    /// trailing garbage that still checksum-validate as a whole).
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StoreError::Invalid(format!(
                "{} unconsumed trailing bytes",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn take_u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn take_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn take_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is invalid.
    pub fn take_bool(&mut self) -> Result<bool, StoreError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StoreError::Invalid(format!("bad bool byte {b}"))),
        }
    }

    /// Reads a collection's element count. Every encoded element takes at
    /// least one byte, so a count above the remaining stream is corrupt.
    /// Callers still grow their collections as elements decode rather than
    /// reserve the claimed count, which a crafted blob controls.
    pub fn take_len(&mut self) -> Result<usize, StoreError> {
        let n = self.take_u64()?;
        if n > self.remaining() as u64 {
            return Err(StoreError::Invalid(format!("implausible length {n}")));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let n = self.take_u64()?;
        if n > self.remaining() as u64 {
            return Err(StoreError::Truncated);
        }
        self.take(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, StoreError> {
        let b = self.take_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| StoreError::Invalid("non-UTF-8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 3);
        e.put_f64(-0.0);
        e.put_f64(f64::NAN);
        e.put_bool(true);
        e.put_str("wmed");
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u16().unwrap(), 0xBEEF);
        assert_eq!(d.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.take_f64().unwrap().is_nan());
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_str().unwrap(), "wmed");
        assert_eq!(d.take_bytes().unwrap(), &[1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.put_u64(42);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..5]);
        assert!(matches!(d.take_u64(), Err(StoreError::Truncated)));
    }

    #[test]
    fn oversized_string_length_is_truncated_error() {
        let mut e = Encoder::new();
        e.put_u64(1 << 40); // a length far beyond the stream
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.take_bytes().is_err());
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let _ = d.take_u8().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn bad_bool_is_invalid() {
        let bytes = [9u8];
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.take_bool(), Err(StoreError::Invalid(_))));
    }
}
