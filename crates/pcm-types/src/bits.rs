//! SET/RESET transition counting.
//!
//! Writing `new` over `old` requires:
//! * a **SET** for every bit that goes `0 → 1` (`new & !old`),
//! * a **RESET** for every bit that goes `1 → 0` (`old & !new`),
//! * nothing for unchanged bits (data-comparison write).

use crate::data::{DataUnit, LineData};

/// The bit-transition masks between an old and a new data unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Transitions {
    /// Bits that must be SET (`0 → 1`).
    pub set_mask: DataUnit,
    /// Bits that must be RESET (`1 → 0`).
    pub reset_mask: DataUnit,
}

impl Transitions {
    /// Number of SET bit-writes.
    pub const fn num_sets(&self) -> u32 {
        self.set_mask.count_ones()
    }

    /// Number of RESET bit-writes.
    pub const fn num_resets(&self) -> u32 {
        self.reset_mask.count_ones()
    }

    /// Total changed bits (Hamming distance).
    pub const fn num_changed(&self) -> u32 {
        self.num_sets() + self.num_resets()
    }

    /// True if nothing changes.
    pub const fn is_empty(&self) -> bool {
        self.set_mask == 0 && self.reset_mask == 0
    }
}

/// Compute the transitions required to turn `old` into `new`.
///
/// ```
/// let t = pcm_types::transitions(0b1100, 0b1010);
/// assert_eq!(t.num_sets(), 1);   // bit 1: 0 → 1
/// assert_eq!(t.num_resets(), 1); // bit 2: 1 → 0
/// ```
pub const fn transitions(old: DataUnit, new: DataUnit) -> Transitions {
    Transitions {
        set_mask: new & !old,
        reset_mask: old & !new,
    }
}

/// Hamming distance between two 64-bit units.
pub const fn hamming_unit(a: DataUnit, b: DataUnit) -> u32 {
    (a ^ b).count_ones()
}

/// Hamming distance between two equal-length lines.
///
/// # Panics
/// If the lines differ in length.
pub fn hamming(a: &LineData, b: &LineData) -> u32 {
    assert_eq!(a.len(), b.len(), "hamming over unequal line lengths");
    a.units()
        .zip(b.units())
        .map(|(x, y)| hamming_unit(x, y))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::any_u64;
    use crate::{prop_assert_eq, propcheck};

    #[test]
    fn simple_transitions() {
        let t = transitions(0b1100, 0b1010);
        assert_eq!(t.set_mask, 0b0010);
        assert_eq!(t.reset_mask, 0b0100);
        assert_eq!(t.num_sets(), 1);
        assert_eq!(t.num_resets(), 1);
        assert_eq!(t.num_changed(), 2);
    }

    #[test]
    fn identical_units_need_nothing() {
        let t = transitions(0xABCD, 0xABCD);
        assert!(t.is_empty());
    }

    #[test]
    fn hamming_over_lines() {
        let a = LineData::from_units(&[0, 0, 0, 0, 0, 0, 0, 0]);
        let b = LineData::from_units(&[1, 3, 0, 0, 0, 0, 0, 7]);
        assert_eq!(hamming(&a, &b), 1 + 2 + 3);
    }

    propcheck! {
        fn masks_are_disjoint_and_cover_xor(old in any_u64(), new in any_u64()) {
            let t = transitions(old, new);
            prop_assert_eq!(t.set_mask & t.reset_mask, 0);
            prop_assert_eq!(t.set_mask | t.reset_mask, old ^ new);
            prop_assert_eq!(t.num_changed(), hamming_unit(old, new));
        }

        fn applying_transitions_yields_new(old in any_u64(), new in any_u64()) {
            let t = transitions(old, new);
            let result = (old | t.set_mask) & !t.reset_mask;
            prop_assert_eq!(result, new);
        }

        fn transitions_reverse_swaps_roles(old in any_u64(), new in any_u64()) {
            let fwd = transitions(old, new);
            let rev = transitions(new, old);
            prop_assert_eq!(fwd.set_mask, rev.reset_mask);
            prop_assert_eq!(fwd.reset_mask, rev.set_mask);
        }
    }
}
