//! Cell blocks: the rows × columns arrays a chip is tiled from.
//!
//! A block stores up to 64 cells per row packed into one word, with per-cell
//! wear counters. Programming is differential at the mask level: callers
//! pass explicit SET and RESET masks and only those cells receive pulses.

use crate::cell::PcmCell;
use crate::pulse::{Pulse, PulseKind};
use pcm_types::PcmError;

/// A rows × cols array of PCM cells (cols ≤ 64).
#[derive(Clone, Debug)]
pub struct CellBlock {
    rows: usize,
    cols: usize,
    /// Packed logical bits, one word per row (bit `c` = column `c`).
    bits: Vec<u64>,
    /// Per-cell wear, row-major.
    wear: Vec<u32>,
}

impl CellBlock {
    /// Create a block of amorphous ('0') cells.
    ///
    /// # Errors
    /// If `cols` is 0 or exceeds 64, or `rows` is 0.
    pub fn new(rows: usize, cols: usize) -> Result<Self, PcmError> {
        if rows == 0 || cols == 0 || cols > 64 {
            return Err(PcmError::config(
                "CellBlock needs 1..=64 columns and ≥1 row",
            ));
        }
        Ok(CellBlock {
            rows,
            cols,
            bits: vec![0; rows],
            wear: vec![0; rows * cols],
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mask with a '1' for every valid column.
    pub fn col_mask(&self) -> u64 {
        if self.cols == 64 {
            u64::MAX
        } else {
            (1u64 << self.cols) - 1
        }
    }

    /// Sense an entire row (reads are wide and cheap; hundreds of cells can
    /// be read concurrently, per §II).
    pub fn read_row(&self, row: usize) -> Result<u64, PcmError> {
        self.check_row(row)?;
        Ok(self.bits[row])
    }

    /// Apply SET pulses to `set_mask` cells and RESET pulses to
    /// `reset_mask` cells of one row.
    ///
    /// # Errors
    /// If the row is out of range, a mask touches a nonexistent column, or
    /// the masks overlap (a cell cannot be SET and RESET simultaneously).
    pub fn program_row(
        &mut self,
        row: usize,
        set_mask: u64,
        reset_mask: u64,
    ) -> Result<(), PcmError> {
        self.check_row(row)?;
        if set_mask & reset_mask != 0 {
            return Err(PcmError::config("SET and RESET masks overlap"));
        }
        if (set_mask | reset_mask) & !self.col_mask() != 0 {
            return Err(PcmError::config("mask touches nonexistent column"));
        }
        self.bits[row] = (self.bits[row] | set_mask) & !reset_mask;
        let mut touched = set_mask | reset_mask;
        while touched != 0 {
            let c = touched.trailing_zeros() as usize;
            self.wear[row * self.cols + c] += 1;
            touched &= touched - 1;
        }
        Ok(())
    }

    /// View one cell (for tests/diagnostics).
    pub fn cell(&self, row: usize, col: usize) -> Result<PcmCell, PcmError> {
        self.check_row(row)?;
        if col >= self.cols {
            return Err(PcmError::config("column out of range"));
        }
        let bit = self.bits[row] >> col & 1 == 1;
        let mut c = PcmCell::new(bit);
        // Reconstruct wear by replaying the counter into the cell.
        for _ in 0..self.wear[row * self.cols + col] {
            let kind = if bit {
                PulseKind::Set
            } else {
                PulseKind::Reset
            };
            c.apply(Pulse {
                kind,
                duration: pcm_types::Ps::ZERO,
                amplitude: 0,
            });
        }
        Ok(c)
    }

    /// Wear of one cell.
    pub fn cell_wear(&self, row: usize, col: usize) -> u32 {
        self.wear[row * self.cols + col]
    }

    /// Maximum wear across the block (endurance-limiting cell).
    pub fn max_wear(&self) -> u32 {
        self.wear.iter().copied().max().unwrap_or(0)
    }

    /// Total programming pulses absorbed by the block.
    pub fn total_wear(&self) -> u64 {
        self.wear.iter().map(|&w| w as u64).sum()
    }

    fn check_row(&self, row: usize) -> Result<(), PcmError> {
        if row >= self.rows {
            return Err(PcmError::config(format!("row {row} out of range")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_types::propcheck::any_u64;
    use pcm_types::{prop_assert_eq, propcheck};

    #[test]
    fn program_and_read() {
        let mut b = CellBlock::new(4, 17).unwrap();
        b.program_row(2, 0b1_0101, 0).unwrap();
        assert_eq!(b.read_row(2).unwrap(), 0b1_0101);
        b.program_row(2, 0b0_1000, 0b1_0001).unwrap();
        assert_eq!(b.read_row(2).unwrap(), 0b0_1100);
    }

    #[test]
    fn wear_counts_only_programmed_cells() {
        let mut b = CellBlock::new(1, 8).unwrap();
        b.program_row(0, 0b11, 0).unwrap();
        b.program_row(0, 0, 0b01).unwrap();
        assert_eq!(b.cell_wear(0, 0), 2);
        assert_eq!(b.cell_wear(0, 1), 1);
        assert_eq!(b.cell_wear(0, 2), 0);
        assert_eq!(b.total_wear(), 3);
        assert_eq!(b.max_wear(), 2);
    }

    #[test]
    fn overlapping_masks_rejected() {
        let mut b = CellBlock::new(1, 8).unwrap();
        assert!(b.program_row(0, 0b1, 0b1).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = CellBlock::new(2, 16).unwrap();
        assert!(b.read_row(2).is_err());
        assert!(
            b.program_row(0, 1 << 16, 0).is_err(),
            "column 16 does not exist"
        );
        assert!(CellBlock::new(0, 8).is_err());
        assert!(CellBlock::new(8, 65).is_err());
    }

    #[test]
    fn full_width_block() {
        let mut b = CellBlock::new(1, 64).unwrap();
        assert_eq!(b.col_mask(), u64::MAX);
        b.program_row(0, u64::MAX, 0).unwrap();
        assert_eq!(b.read_row(0).unwrap(), u64::MAX);
    }

    propcheck! {
        fn program_is_masked_update(init in any_u64(), set in any_u64(), reset in any_u64()) {
            let set = set & !reset;
            let mut b = CellBlock::new(1, 64).unwrap();
            b.program_row(0, init, !init).unwrap();
            b.program_row(0, set, reset).unwrap();
            prop_assert_eq!(b.read_row(0).unwrap(), (init | set) & !reset);
        }

        fn wear_equals_popcounts(set in any_u64(), reset in any_u64()) {
            let set = set & !reset;
            let mut b = CellBlock::new(1, 64).unwrap();
            b.program_row(0, set, reset).unwrap();
            prop_assert_eq!(
                b.total_wear(),
                (set.count_ones() + reset.count_ones()) as u64
            );
        }
    }
}
