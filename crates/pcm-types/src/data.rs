//! Cache-line payloads and 64-bit data units.
//!
//! `LineData` is a fixed-capacity, stack-allocated buffer, so that a line
//! costs the write path no allocation. Lines up to 256 B (IBM
//! zEnterprise) are supported.

use std::fmt;

/// Maximum supported cache-line size in bytes.
pub const MAX_LINE_BYTES: usize = 256;
/// Maximum number of 64-bit data units per line (256 B / 8 B).
pub const MAX_UNITS_PER_LINE: usize = MAX_LINE_BYTES / 8;

/// One data unit: the 64-bit granularity at which write schemes count
/// SET/RESET demand (one row across the 4 × X16 chips of a bank).
pub type DataUnit = u64;

/// A cache line's payload: `len` bytes, fixed capacity, no heap.
#[derive(Clone, Copy)]
pub struct LineData {
    buf: [u8; MAX_LINE_BYTES],
    len: usize,
}

impl LineData {
    /// An all-zero line of `len` bytes.
    ///
    /// # Panics
    /// If `len` exceeds [`MAX_LINE_BYTES`] or is not a multiple of 8.
    pub fn zeroed(len: usize) -> Self {
        assert!(len <= MAX_LINE_BYTES, "line length {len} exceeds capacity");
        assert!(len % 8 == 0, "line length must be a multiple of 8 bytes");
        LineData {
            buf: [0; MAX_LINE_BYTES],
            len,
        }
    }

    /// Construct from a byte slice.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut l = Self::zeroed(bytes.len());
        l.buf[..bytes.len()].copy_from_slice(bytes);
        l
    }

    /// Construct from 64-bit data units (little-endian byte order).
    pub fn from_units(units: &[DataUnit]) -> Self {
        let mut l = Self::zeroed(units.len() * 8);
        for (i, u) in units.iter().enumerate() {
            l.buf[i * 8..i * 8 + 8].copy_from_slice(&u.to_le_bytes());
        }
        l
    }

    /// Payload length in bytes.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// True if the line has zero length.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 64-bit data units.
    pub const fn num_units(&self) -> usize {
        self.len / 8
    }

    /// Byte view of the payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// Mutable byte view of the payload.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.buf[..self.len]
    }

    /// Read data unit `i` (little-endian).
    pub fn unit(&self, i: usize) -> DataUnit {
        assert!(i < self.num_units(), "unit index {i} out of range");
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[i * 8..i * 8 + 8]);
        u64::from_le_bytes(b)
    }

    /// Write data unit `i`.
    pub fn set_unit(&mut self, i: usize, v: DataUnit) {
        assert!(i < self.num_units(), "unit index {i} out of range");
        self.buf[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Iterator over the data units.
    pub fn units(&self) -> impl Iterator<Item = DataUnit> + '_ {
        (0..self.num_units()).map(move |i| self.unit(i))
    }

    /// Bitwise NOT of every payload bit (data inversion).
    pub fn inverted(&self) -> LineData {
        let mut out = *self;
        for b in out.as_bytes_mut() {
            *b = !*b;
        }
        out
    }

    /// XOR unit `i` with a mask (used by tests and fault injection).
    pub fn xor_unit(&mut self, i: usize, mask: u64) {
        let v = self.unit(i);
        self.set_unit(i, v ^ mask);
    }

    /// Total number of '1' bits in the payload.
    pub fn popcount(&self) -> u32 {
        self.units().map(|u| u.count_ones()).sum()
    }
}

impl PartialEq for LineData {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for LineData {}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineData[{}B;", self.len)?;
        for u in self.units().take(4) {
            write!(f, " {u:016x}")?;
        }
        if self.num_units() > 4 {
            write!(f, " …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_roundtrip() {
        let mut l = LineData::zeroed(64);
        assert_eq!(l.num_units(), 8);
        l.set_unit(3, 0xDEAD_BEEF_0123_4567);
        assert_eq!(l.unit(3), 0xDEAD_BEEF_0123_4567);
        assert_eq!(l.unit(2), 0);
    }

    #[test]
    fn from_units_roundtrip() {
        let units = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let l = LineData::from_units(&units);
        assert_eq!(l.units().collect::<Vec<_>>(), units);
        let l2 = LineData::from_bytes(l.as_bytes());
        assert_eq!(l, l2);
    }

    #[test]
    fn inversion_is_involutive() {
        let l = LineData::from_units(&[0xFF00_FF00_1234_5678; 8]);
        assert_eq!(l.inverted().inverted(), l);
        assert_eq!(l.popcount() + l.inverted().popcount(), 64 * 8);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn odd_length_rejected() {
        let _ = LineData::zeroed(63);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversize_rejected() {
        let _ = LineData::zeroed(512);
    }

    #[test]
    fn xor_and_popcount() {
        let mut l = LineData::zeroed(64);
        l.xor_unit(0, 0b1011);
        assert_eq!(l.popcount(), 3);
        l.xor_unit(0, 0b0011);
        assert_eq!(l.popcount(), 1);
    }

    #[test]
    fn supports_256_byte_lines() {
        let l = LineData::zeroed(256);
        assert_eq!(l.num_units(), 32);
    }
}
