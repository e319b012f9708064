//! Physical-address decomposition.
//!
//! The controller interleaves consecutive cache lines across banks (line
//! interleaving maximizes bank-level parallelism for streaming traffic),
//! then across ranks, with the remaining bits forming the row/column within
//! a bank.

use crate::org::MemOrg;

/// A physical byte address.
pub type PhysAddr = u64;

/// A decoded physical address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// Rank index.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row within the bank (row-buffer granularity).
    pub row: u64,
    /// Cache-line column within the row.
    pub col: u32,
    /// Global cache-line index (address / line size).
    pub line: u64,
}

/// Address mapping: `line = addr / line_size`, then
/// `bank = line % banks`, `rank = (line / banks) % ranks`, and the rest
/// splits into row/col with `lines_per_row` columns per row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddrMap {
    org: MemOrg,
    /// Cache lines per row buffer (row size / line size).
    lines_per_row: u32,
}

impl AddrMap {
    /// Create a mapping with the given number of cache lines per row
    /// (row-buffer size = `lines_per_row × cache_line_bytes`).
    pub fn new(org: MemOrg, lines_per_row: u32) -> Result<Self, crate::PcmError> {
        org.validate()?;
        if lines_per_row == 0 || !lines_per_row.is_power_of_two() {
            return Err(crate::PcmError::config(
                "lines_per_row must be a non-zero power of two",
            ));
        }
        Ok(AddrMap { org, lines_per_row })
    }

    /// Default mapping: 4 KB rows (64 lines of 64 B).
    pub fn with_default_rows(org: MemOrg) -> Result<Self, crate::PcmError> {
        let lines_per_row = (4096 / org.cache_line_bytes).max(1);
        Self::new(org, lines_per_row)
    }

    /// The organization this map was built for.
    pub const fn org(&self) -> &MemOrg {
        &self.org
    }

    /// Row-buffer size in bytes.
    pub const fn row_bytes(&self) -> u32 {
        self.lines_per_row * self.org.cache_line_bytes
    }

    /// Decode a byte address (must be within capacity).
    pub fn decode(&self, addr: PhysAddr) -> Result<DecodedAddr, crate::PcmError> {
        if addr >= self.org.capacity_bytes {
            return Err(crate::PcmError::AddressOutOfRange {
                addr,
                capacity: self.org.capacity_bytes,
            });
        }
        let line = addr / self.org.cache_line_bytes as u64;
        let bank = (line % self.org.banks_per_rank as u64) as u32;
        let after_bank = line / self.org.banks_per_rank as u64;
        let rank = (after_bank % self.org.ranks as u64) as u32;
        let after_rank = after_bank / self.org.ranks as u64;
        let col = (after_rank % self.lines_per_row as u64) as u32;
        let row = after_rank / self.lines_per_row as u64;
        Ok(DecodedAddr {
            rank,
            bank,
            row,
            col,
            line,
        })
    }

    /// Encode rank/bank/row/col coordinates back into a byte address —
    /// the exact inverse of [`decode`][Self::decode]. The `line` field of
    /// the input is ignored; it is recomputed from the coordinates.
    pub fn encode(&self, d: &DecodedAddr) -> Result<PhysAddr, crate::PcmError> {
        Ok(self.recode(d)?.line * self.org.cache_line_bytes as u64)
    }

    /// `decode(encode(d))` in one step: check the coordinates against this
    /// map's geometry and recompute `line` from them (the input's `line`
    /// is ignored). Re-addressing a decode from a multi-rank map into a
    /// rank-local map is `recode` with `rank: 0`.
    pub fn recode(&self, d: &DecodedAddr) -> Result<DecodedAddr, crate::PcmError> {
        if d.rank >= self.org.ranks
            || d.bank >= self.org.banks_per_rank
            || d.col >= self.lines_per_row
        {
            return Err(crate::PcmError::config(
                "encode: coordinate exceeds organization geometry",
            ));
        }
        let line = d
            .row
            .checked_mul(self.lines_per_row as u64)
            .and_then(|v| v.checked_add(d.col as u64))
            .and_then(|v| v.checked_mul(self.org.ranks as u64))
            .and_then(|v| v.checked_add(d.rank as u64))
            .and_then(|v| v.checked_mul(self.org.banks_per_rank as u64))
            .and_then(|v| v.checked_add(d.bank as u64));
        let addr = line
            .and_then(|v| v.checked_mul(self.org.cache_line_bytes as u64))
            .unwrap_or(u64::MAX);
        match line {
            Some(line) if addr < self.org.capacity_bytes => Ok(DecodedAddr { line, ..*d }),
            _ => Err(crate::PcmError::AddressOutOfRange {
                addr,
                capacity: self.org.capacity_bytes,
            }),
        }
    }

    /// Align an address down to its cache-line base.
    pub const fn line_base(&self, addr: PhysAddr) -> PhysAddr {
        addr - addr % self.org.cache_line_bytes as u64
    }

    /// Flat bank identifier (rank-major) for indexing bank-state arrays.
    pub const fn flat_bank(&self, d: &DecodedAddr) -> usize {
        (d.rank * self.org.banks_per_rank + d.bank) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddrMap {
        AddrMap::with_default_rows(MemOrg::paper_baseline()).unwrap()
    }

    #[test]
    fn consecutive_lines_interleave_banks() {
        let m = map();
        for i in 0..16u64 {
            let d = m.decode(i * 64).unwrap();
            assert_eq!(d.bank, (i % 8) as u32);
            assert_eq!(d.rank, 0);
            assert_eq!(d.line, i);
        }
    }

    #[test]
    fn same_row_groups_lines() {
        let m = map();
        // Lines 0, 8, 16 … map to bank 0 with consecutive columns.
        let d0 = m.decode(0).unwrap();
        let d1 = m.decode(8 * 64).unwrap();
        assert_eq!(d0.bank, d1.bank);
        assert_eq!(d0.row, d1.row);
        assert_eq!(d1.col, d0.col + 1);
        // 64 columns per 4 KB row → line 8*64 jumps a row.
        let d_far = m.decode(8 * 64 * 64).unwrap();
        assert_eq!(d_far.bank, 0);
        assert_eq!(d_far.row, d0.row + 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let m = map();
        assert!(m.decode(4 << 30).is_err());
        assert!(m.decode((4 << 30) - 64).is_ok());
    }

    #[test]
    fn line_base_alignment() {
        let m = map();
        assert_eq!(m.line_base(0), 0);
        assert_eq!(m.line_base(63), 0);
        assert_eq!(m.line_base(64), 64);
        assert_eq!(m.line_base(130), 128);
    }

    #[test]
    fn decode_is_injective_on_a_window() {
        let m = map();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let d = m.decode(i * 64).unwrap();
            assert!(
                seen.insert((d.rank, d.bank, d.row, d.col)),
                "collision at line {i}"
            );
        }
    }

    #[test]
    fn rejects_bad_lines_per_row() {
        assert!(AddrMap::new(MemOrg::paper_baseline(), 0).is_err());
        assert!(AddrMap::new(MemOrg::paper_baseline(), 3).is_err());
    }

    #[test]
    fn encode_inverts_decode_baseline() {
        let m = map();
        for i in 0..4096u64 {
            let addr = i * 64;
            let d = m.decode(addr).unwrap();
            assert_eq!(m.encode(&d).unwrap(), addr);
        }
    }

    #[test]
    fn recode_is_decode_of_encode() {
        let global = AddrMap::with_default_rows(MemOrg {
            ranks: 4,
            ..MemOrg::paper_baseline()
        })
        .unwrap();
        let local = AddrMap::with_default_rows(MemOrg {
            ranks: 1,
            capacity_bytes: MemOrg::paper_baseline().capacity_bytes / 4,
            ..MemOrg::paper_baseline()
        })
        .unwrap();
        for i in (0..1u64 << 20).step_by(997) {
            let d = global.decode(i * 64).unwrap();
            let ld = DecodedAddr { rank: 0, ..d };
            let via_addr = local.decode(local.encode(&ld).unwrap()).unwrap();
            assert_eq!(local.recode(&ld).unwrap(), via_addr);
        }
        let past = DecodedAddr {
            row: u64::MAX / 2,
            ..local.decode(0).unwrap()
        };
        assert_eq!(
            local.recode(&past).unwrap_err().to_string(),
            local.encode(&past).unwrap_err().to_string()
        );
    }

    #[test]
    fn encode_rejects_bad_coordinates() {
        let m = map();
        let mut d = m.decode(0).unwrap();
        d.rank = 1; // baseline has a single rank
        assert!(m.encode(&d).is_err());
        let mut d = m.decode(0).unwrap();
        d.bank = 8;
        assert!(m.encode(&d).is_err());
        let mut d = m.decode(0).unwrap();
        d.row = u64::MAX / 2; // far past capacity
        assert!(m.encode(&d).is_err());
    }

    crate::propcheck! {
        /// decode → encode is the identity for every line-aligned address,
        /// across all rank/bank/row-width combinations.
        fn decode_encode_roundtrip(
            rank_bits in 0u32..=3,
            bank_bits in 0u32..=4,
            row_bits in 0u32..=3,
            line in 0u64..1u64 << 20
        ) {
            let org = MemOrg {
                ranks: 1 << rank_bits,
                banks_per_rank: 1 << bank_bits,
                capacity_bytes: 1 << 30,
                ..MemOrg::paper_baseline()
            };
            let m = AddrMap::new(org, 1 << (row_bits + 3)).unwrap();
            let addr = (line * 64) % org.capacity_bytes;
            let d = m.decode(addr).unwrap();
            crate::prop_assert!(d.rank < org.ranks && d.bank < org.banks_per_rank);
            crate::prop_assert_eq!(m.encode(&d).unwrap(), addr);
        }

        /// encode → decode recovers the coordinates for every in-range
        /// (rank, bank, row, col) tuple.
        fn encode_decode_roundtrip(
            rank_bits in 0u32..=3,
            bank_bits in 0u32..=4,
            row in 0u64..256,
            rank in 0u32..8,
            bank in 0u32..16,
            col in 0u32..8
        ) {
            let org = MemOrg {
                ranks: 1 << rank_bits,
                banks_per_rank: 1 << bank_bits,
                capacity_bytes: 1 << 30,
                ..MemOrg::paper_baseline()
            };
            let m = AddrMap::new(org, 8).unwrap();
            let d = DecodedAddr {
                rank: rank % org.ranks,
                bank: bank % org.banks_per_rank,
                row,
                col,
                line: 0,
            };
            let addr = m.encode(&d).unwrap();
            let back = m.decode(addr).unwrap();
            crate::prop_assert_eq!(back.rank, d.rank);
            crate::prop_assert_eq!(back.bank, d.bank);
            crate::prop_assert_eq!(back.row, d.row);
            crate::prop_assert_eq!(back.col, d.col);
        }
    }
}
