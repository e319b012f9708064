//! Per-data-unit write demand — the `NUM1[i]` / `NUM0[i]` counts that the
//! Tetris analysis stage (Algorithm 2) and the baseline schemes consume.

use crate::data::MAX_UNITS_PER_LINE;
use crate::flip::FlippedLine;

/// SET/RESET bit-write counts for one data unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnitDemand {
    /// Number of '1' bit-writes (`NUM1[i]`, slow low-current SETs).
    pub sets: u32,
    /// Number of '0' bit-writes (`NUM0[i]`, fast high-current RESETs).
    pub resets: u32,
}

impl UnitDemand {
    /// Construct from counts.
    pub const fn new(sets: u32, resets: u32) -> Self {
        UnitDemand { sets, resets }
    }

    /// Total changed bits.
    pub const fn total(&self) -> u32 {
        self.sets + self.resets
    }

    /// True if the unit needs no programming at all.
    pub const fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Instantaneous current of this unit's SETs, in SET-equivalents
    /// (`IN1[i] = NUM1[i]`).
    pub const fn set_current(&self) -> u32 {
        self.sets
    }

    /// Instantaneous current of this unit's RESETs (`IN0[i] = NUM0[i]·L`).
    pub const fn reset_current(&self, l_ratio: u32) -> u32 {
        self.resets * l_ratio
    }
}

/// Write demand for a whole cache line: one [`UnitDemand`] per data unit.
///
/// Fixed capacity: a demand lives on the stack whatever the line size, so
/// counting one never allocates. (Whether a whole write allocates is up to
/// its scheme's plan; Tetris's does not for the paper's lines — see
/// `tetris_write::analysis`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineDemand {
    units: [UnitDemand; MAX_UNITS_PER_LINE],
    len: usize,
}

impl LineDemand {
    /// Empty demand for `len` data units.
    ///
    /// # Panics
    /// If `len` exceeds [`MAX_UNITS_PER_LINE`].
    pub fn empty(len: usize) -> Self {
        assert!(len <= MAX_UNITS_PER_LINE, "too many data units");
        LineDemand {
            units: [UnitDemand::default(); MAX_UNITS_PER_LINE],
            len,
        }
    }

    /// Build from a slice of per-unit demands.
    pub fn from_units(units: &[UnitDemand]) -> Self {
        let mut d = Self::empty(units.len());
        d.units[..units.len()].copy_from_slice(units);
        d
    }

    /// Extract demand (flip cells included) from a flip-encoded line.
    pub fn from_flipped(fl: &FlippedLine) -> Self {
        let ds = fl.decisions();
        let mut d = Self::empty(ds.len());
        for (i, dec) in ds.iter().enumerate() {
            d.units[i] = UnitDemand::new(dec.num_sets(), dec.num_resets());
        }
        d
    }

    /// Number of data units.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// True if there are no data units.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-unit view.
    pub fn units(&self) -> &[UnitDemand] {
        &self.units[..self.len]
    }

    /// Mutable per-unit view.
    pub fn units_mut(&mut self) -> &mut [UnitDemand] {
        &mut self.units[..self.len]
    }

    /// Total SETs across the line.
    pub fn total_sets(&self) -> u32 {
        self.units().iter().map(|u| u.sets).sum()
    }

    /// Total RESETs across the line.
    pub fn total_resets(&self) -> u32 {
        self.units().iter().map(|u| u.resets).sum()
    }

    /// Total changed bits across the line.
    pub fn total_changed(&self) -> u32 {
        self.total_sets() + self.total_resets()
    }

    /// Number of units that need at least one SET.
    pub fn units_with_sets(&self) -> u32 {
        self.units().iter().filter(|u| u.sets > 0).count() as u32
    }

    /// Number of units that need at least one RESET.
    pub fn units_with_resets(&self) -> u32 {
        self.units().iter().filter(|u| u.resets > 0).count() as u32
    }

    /// Number of units that need any programming.
    pub fn dirty_units(&self) -> u32 {
        self.units().iter().filter(|u| !u.is_empty()).count() as u32
    }

    /// Concatenate several lines' demands into one flat demand (for
    /// batched scheduling across queued writes). Returns `None` if the
    /// combined unit count exceeds [`MAX_UNITS_PER_LINE`].
    pub fn concat(parts: &[&LineDemand]) -> Option<LineDemand> {
        let total: usize = parts.iter().map(|d| d.len()).sum();
        if total > MAX_UNITS_PER_LINE {
            return None;
        }
        let mut out = LineDemand::empty(total);
        let mut at = 0;
        for d in parts {
            out.units_mut()[at..at + d.len()].copy_from_slice(d.units());
            at += d.len();
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::LineData;
    use crate::flip::flip_units;

    #[test]
    fn totals() {
        let d = LineDemand::from_units(&[
            UnitDemand::new(3, 1),
            UnitDemand::new(0, 0),
            UnitDemand::new(0, 2),
        ]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.total_sets(), 3);
        assert_eq!(d.total_resets(), 3);
        assert_eq!(d.total_changed(), 6);
        assert_eq!(d.units_with_sets(), 1);
        assert_eq!(d.units_with_resets(), 2);
        assert_eq!(d.dirty_units(), 2);
    }

    #[test]
    fn currents_respect_asymmetry() {
        let u = UnitDemand::new(5, 3);
        assert_eq!(u.set_current(), 5);
        assert_eq!(u.reset_current(2), 6);
    }

    #[test]
    fn from_flipped_matches_decisions() {
        let old = LineData::zeroed(64);
        let mut new = LineData::zeroed(64);
        new.set_unit(0, 0b11); // 2 SETs
        new.set_unit(5, u64::MAX); // flip → 1 flip-bit SET only
        let fl = flip_units(&old, 0, &new);
        let d = LineDemand::from_flipped(&fl);
        assert_eq!(d.units()[0], UnitDemand::new(2, 0));
        assert_eq!(d.units()[5], UnitDemand::new(1, 0));
        assert_eq!(d.total_changed(), 3);
    }

    #[test]
    fn concat_flattens_and_caps() {
        let a = LineDemand::from_units(&[UnitDemand::new(1, 0); 8]);
        let b = LineDemand::from_units(&[UnitDemand::new(0, 2); 8]);
        let c = LineDemand::concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 16);
        assert_eq!(c.total_sets(), 8);
        assert_eq!(c.total_resets(), 16);
        assert_eq!(c.units()[0], UnitDemand::new(1, 0));
        assert_eq!(c.units()[8], UnitDemand::new(0, 2));
        // 5 lines of 8 units exceed the 32-unit buffer.
        assert!(LineDemand::concat(&[&a, &a, &a, &a, &a]).is_none());
    }

    #[test]
    fn empty_line() {
        let d = LineDemand::empty(8);
        assert_eq!(d.dirty_units(), 0);
        assert_eq!(d.total_changed(), 0);
    }
}
