//! Bit-exact bitstream writer and reader.
//!
//! The codec's entropy layer serializes into an MSB-first bit string, the
//! convention used by H.263 and every other ITU/MPEG codec. [`BitWriter`]
//! accumulates bits into a byte vector; [`BitReader`] consumes one.
//!
//! Besides raw fixed-width fields, both ends implement the unsigned and
//! signed **Exp-Golomb** universal codes (`ue(v)` / `se(v)`), which the
//! codec uses for headers and as the escape coding of its VLC tables.

use std::error::Error;
use std::fmt;

/// Error returned when a reader runs out of bits or a value is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// The reader reached the end of the buffer mid-value.
    UnexpectedEnd,
    /// An Exp-Golomb prefix was longer than any encodable value (corrupt
    /// stream).
    MalformedExpGolomb,
    /// A value exceeded the range the caller declared legal.
    ValueOutOfRange {
        /// What was being decoded.
        what: &'static str,
        /// The offending value.
        value: i64,
    },
}

impl fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitstreamError::UnexpectedEnd => write!(f, "unexpected end of bitstream"),
            BitstreamError::MalformedExpGolomb => write!(f, "malformed exp-golomb code"),
            BitstreamError::ValueOutOfRange { what, value } => {
                write!(f, "decoded {what} out of range: {value}")
            }
        }
    }
}

impl Error for BitstreamError {}

/// MSB-first bit writer.
///
/// # Example
///
/// ```rust
/// use pbpair_codec::bitstream::{BitReader, BitWriter};
///
/// # fn main() -> Result<(), pbpair_codec::bitstream::BitstreamError> {
/// let mut w = BitWriter::new();
/// w.put_bits(0b101, 3);
/// w.put_ue(17);
/// w.put_se(-4);
/// let bytes = w.finish();
///
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.get_bits(3)?, 0b101);
/// assert_eq!(r.get_ue()?, 17);
/// assert_eq!(r.get_se()?, -4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits pending in `acc`, 0..8.
    pending: u32,
    acc: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + self.pending as u64
    }

    /// Appends the `n` least-significant bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32` or if `value` has bits above bit `n`.
    pub fn put_bits(&mut self, value: u32, n: u32) {
        assert!(n <= 32, "cannot write more than 32 bits at once");
        assert!(
            n == 32 || value < (1u32 << n),
            "value {value} does not fit in {n} bits"
        );
        for i in (0..n).rev() {
            self.put_bit((value >> i) & 1 == 1);
        }
    }

    /// Appends a single bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.acc = (self.acc << 1) | bit as u8;
        self.pending += 1;
        if self.pending == 8 {
            self.bytes.push(self.acc);
            self.acc = 0;
            self.pending = 0;
        }
    }

    /// Appends an unsigned Exp-Golomb code: `v` is written as
    /// `leading_zeros(len(v+1)-1)` zero bits, then the binary of `v+1`.
    pub fn put_ue(&mut self, v: u32) {
        // v+1 may need 33 bits when v == u32::MAX; keep arithmetic in u64.
        let x = v as u64 + 1;
        let len = 64 - x.leading_zeros(); // number of significant bits
        for _ in 0..len - 1 {
            self.put_bit(false);
        }
        for i in (0..len).rev() {
            self.put_bit((x >> i) & 1 == 1);
        }
    }

    /// Appends a signed Exp-Golomb code using the H.264 zigzag mapping
    /// (0, 1, −1, 2, −2, …).
    pub fn put_se(&mut self, v: i32) {
        let mapped = if v > 0 {
            (v as u32) * 2 - 1
        } else {
            (-(v as i64) as u32) * 2
        };
        self.put_ue(mapped);
    }

    /// Pads with zero bits to the next byte boundary and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.pending > 0 {
            self.acc <<= 8 - self.pending;
            self.bytes.push(self.acc);
        }
        self.bytes
    }

    /// Clears the writer for reuse, keeping the byte buffer's capacity.
    pub fn reset(&mut self) {
        self.bytes.clear();
        self.pending = 0;
        self.acc = 0;
    }

    /// Pads to a byte boundary, moves the bytes into `out` (replacing its
    /// contents but reusing its capacity), and resets the writer. The
    /// allocation-free counterpart of [`BitWriter::finish`].
    pub fn finish_into(&mut self, out: &mut Vec<u8>) {
        if self.pending > 0 {
            self.bytes.push(self.acc << (8 - self.pending));
        }
        out.clear();
        out.extend_from_slice(&self.bytes);
        self.reset();
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Bits remaining in the buffer.
    pub fn remaining(&self) -> u64 {
        self.bytes.len() as u64 * 8 - self.pos
    }

    /// Current absolute bit position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::UnexpectedEnd`] at end of buffer.
    pub fn get_bit(&mut self) -> Result<bool, BitstreamError> {
        if self.pos >= self.bytes.len() as u64 * 8 {
            return Err(BitstreamError::UnexpectedEnd);
        }
        let byte = self.bytes[(self.pos / 8) as usize];
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `n` bits MSB first.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::UnexpectedEnd`] if fewer than `n` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn get_bits(&mut self, n: u32) -> Result<u32, BitstreamError> {
        assert!(n <= 32, "cannot read more than 32 bits at once");
        if self.remaining() < n as u64 {
            return Err(BitstreamError::UnexpectedEnd);
        }
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.get_bit()? as u32;
        }
        Ok(v)
    }

    /// Reads an unsigned Exp-Golomb code.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::UnexpectedEnd`] on truncation, or
    /// [`BitstreamError::MalformedExpGolomb`] if the zero prefix exceeds 32
    /// bits (which no writer produces).
    pub fn get_ue(&mut self) -> Result<u32, BitstreamError> {
        let mut zeros = 0u32;
        while !self.get_bit()? {
            zeros += 1;
            if zeros > 32 {
                return Err(BitstreamError::MalformedExpGolomb);
            }
        }
        if zeros == 0 {
            return Ok(0);
        }
        let rest = self.get_bits(zeros)? as u64;
        let x = (1u64 << zeros) | rest;
        Ok((x - 1) as u32)
    }

    /// Reads a signed Exp-Golomb code.
    ///
    /// # Errors
    ///
    /// Same as [`BitReader::get_ue`].
    pub fn get_se(&mut self) -> Result<i32, BitstreamError> {
        let v = self.get_ue()? as i64;
        let abs = (v + 1) / 2;
        Ok(if v % 2 == 1 {
            abs as i32
        } else {
            -(abs as i32)
        })
    }

    /// Skips forward to the next byte boundary (no-op when aligned).
    pub fn align(&mut self) {
        let rem = self.pos % 8;
        if rem != 0 {
            self.pos += 8 - rem;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bit(true);
        w.put_bit(false);
        w.put_bits(0b11011, 5);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(r.get_bit().unwrap());
        assert!(!r.get_bit().unwrap());
        assert_eq!(r.get_bits(5).unwrap(), 0b11011);
    }

    #[test]
    fn finish_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.put_bits(0b1, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn bit_len_tracks_pending_bits() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.put_bits(0, 3);
        assert_eq!(w.bit_len(), 3);
        w.put_bits(0, 13);
        assert_eq!(w.bit_len(), 16);
    }

    #[test]
    fn ue_known_codewords() {
        // Classic table: 0→"1", 1→"010", 2→"011", 3→"00100".
        let encode = |v: u32| {
            let mut w = BitWriter::new();
            w.put_ue(v);
            (w.bit_len(), w.finish())
        };
        assert_eq!(encode(0), (1, vec![0b1000_0000]));
        assert_eq!(encode(1), (3, vec![0b0100_0000]));
        assert_eq!(encode(2), (3, vec![0b0110_0000]));
        assert_eq!(encode(3), (5, vec![0b0010_0000]));
    }

    #[test]
    fn ue_se_roundtrip_sweep() {
        let mut w = BitWriter::new();
        for v in 0..300u32 {
            w.put_ue(v);
        }
        for v in -150..150i32 {
            w.put_se(v);
        }
        w.put_ue(u32::MAX - 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in 0..300u32 {
            assert_eq!(r.get_ue().unwrap(), v);
        }
        for v in -150..150i32 {
            assert_eq!(r.get_se().unwrap(), v);
        }
        assert_eq!(r.get_ue().unwrap(), u32::MAX - 1);
    }

    #[test]
    fn reading_past_end_errors() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.get_bits(8).unwrap(), 0xFF);
        assert_eq!(r.get_bit(), Err(BitstreamError::UnexpectedEnd));
        assert_eq!(r.get_ue(), Err(BitstreamError::UnexpectedEnd));
    }

    #[test]
    fn malformed_ue_detected() {
        // 40 zero bits: longer than any legal prefix.
        let bytes = vec![0u8; 5];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_ue(), Err(BitstreamError::MalformedExpGolomb));
    }

    #[test]
    fn align_skips_to_byte_boundary() {
        let mut r = BitReader::new(&[0b1010_0000, 0xAB]);
        let _ = r.get_bits(3).unwrap();
        r.align();
        assert_eq!(r.get_bits(8).unwrap(), 0xAB);
        r.align(); // already aligned: no-op
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn put_bits_rejects_oversized_value() {
        let mut w = BitWriter::new();
        w.put_bits(0b100, 2);
    }

    #[test]
    fn finish_into_matches_finish_and_resets() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_ue(9);
        let expected = w.clone().finish();
        let mut out = vec![0xDE, 0xAD];
        w.finish_into(&mut out);
        assert_eq!(out, expected);
        assert_eq!(w.bit_len(), 0, "writer must be reset");
        w.put_bit(true);
        assert_eq!(w.clone().finish(), vec![0b1000_0000]);
    }
}
