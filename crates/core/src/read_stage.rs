//! The read stage — Algorithm 1.
//!
//! Read the old data and flip tags (`{D', F'}`), invert any unit whose
//! Hamming distance to the new data exceeds half the unit width, and count
//! the '1's and '0's that remain to be written (`N1`, `N0`). In hardware
//! the counts land in the chip's Reg1/Reg0 registers; here they come back
//! as a [`pcm_types::LineDemand`].

use pcm_schemes::WriteCtx;
use pcm_types::{flip_encode, flip_units, FlippedLine, LineData, LineDemand, UnitDemand};

/// Output of the read stage.
#[derive(Clone, Debug)]
pub struct ReadStageOutput {
    /// Flip-encoded line (stored bits + per-unit decisions).
    pub flipped: FlippedLine,
    /// Per-unit SET/RESET demand including flip cells (Reg1/Reg0 contents).
    pub demand: LineDemand,
}

impl ReadStageOutput {
    /// The bits that will be stored.
    pub fn stored(&self) -> &LineData {
        &self.flipped.stored
    }

    /// The new flip-tag bitmask.
    pub fn flips(&self) -> u32 {
        self.flipped.flips
    }
}

/// Run Algorithm 1 for one cache-line write.
pub fn read_stage(ctx: &WriteCtx<'_>) -> ReadStageOutput {
    let flipped = flip_units(ctx.old_stored, ctx.old_flips, ctx.new_logical);
    let demand = LineDemand::from_flipped(&flipped);
    ReadStageOutput { flipped, demand }
}

/// Algorithm 1 reduced to what a write plan keeps: the stored bits, the
/// new flip-tag bitmask and the demand — [`read_stage`]'s results without
/// its per-unit decision record.
pub(crate) fn read_counts(ctx: &WriteCtx<'_>) -> (LineData, u32, LineDemand) {
    let (old, new) = (ctx.old_stored, ctx.new_logical);
    assert_eq!(old.len(), new.len(), "read stage over unequal lines");
    let mut stored = *new;
    let mut flips = 0u32;
    let mut demand = LineDemand::empty(new.num_units());
    for (i, u) in demand.units_mut().iter_mut().enumerate() {
        let d = flip_encode(old.unit(i), ctx.old_flips & (1 << i) != 0, new.unit(i));
        stored.set_unit(i, d.stored);
        flips |= (d.flip as u32) << i;
        *u = UnitDemand::new(d.num_sets(), d.num_resets());
    }
    (stored, flips, demand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_schemes::SchemeConfig;
    use pcm_types::propcheck::{any_u64, one_of, vec_of};
    use pcm_types::{prop_assert_eq, propcheck};

    #[test]
    fn counts_match_paper_semantics() {
        let cfg = SchemeConfig::paper_baseline();
        let old = LineData::zeroed(64);
        let mut new = LineData::zeroed(64);
        new.set_unit(0, 0b0111); // N1 = 3, N0 = 0
        new.set_unit(1, u64::MAX); // inverted → only the flip-bit SET
        let ctx = WriteCtx {
            old_stored: &old,
            old_flips: 0,
            new_logical: &new,
            cfg: &cfg,
        };
        let out = read_stage(&ctx);
        assert_eq!(out.demand.units()[0], UnitDemand::new(3, 0));
        assert_eq!(out.demand.units()[1], UnitDemand::new(1, 0));
        assert_eq!(out.flips(), 0b10);
        assert_eq!(out.stored().unit(1), 0, "stored inverted");
    }

    #[test]
    fn demand_is_bounded_by_half_per_unit() {
        let cfg = SchemeConfig::paper_baseline();
        let old = LineData::from_units(&[0x0F0F_0F0F_0F0F_0F0F; 8]);
        let new = LineData::from_units(&[0xF0F0_F0F0_F0F0_F0F0; 8]);
        let ctx = WriteCtx {
            old_stored: &old,
            old_flips: 0,
            new_logical: &new,
            cfg: &cfg,
        };
        let out = read_stage(&ctx);
        for u in out.demand.units() {
            assert!(u.total() <= 32 + 1, "flip bound violated: {u:?}");
        }
    }

    propcheck! {
        /// The plan's reduced read stage keeps exactly what the full one
        /// records: stored bits, flip tags and demand.
        fn read_counts_match_read_stage(
            olds in vec_of(any_u64(), 32),
            news in vec_of(any_u64(), 32),
            old_flips in any_u64(),
            units in one_of(&[8usize, 16, 32]),
        ) {
            let cfg = SchemeConfig::paper_baseline();
            let old = LineData::from_units(&olds[..units]);
            let new = LineData::from_units(&news[..units]);
            let ctx = WriteCtx {
                old_stored: &old,
                old_flips: old_flips as u32,
                new_logical: &new,
                cfg: &cfg,
            };
            let full = read_stage(&ctx);
            let (stored, flips, demand) = read_counts(&ctx);
            prop_assert_eq!(&stored, full.stored());
            prop_assert_eq!(flips, full.flips());
            prop_assert_eq!(demand, full.demand);
        }
    }

    #[test]
    fn reset_demand_counted() {
        let cfg = SchemeConfig::paper_baseline();
        let old = LineData::from_units(&[0b1111, 0, 0, 0, 0, 0, 0, 0]);
        let new = LineData::from_units(&[0b0011, 0, 0, 0, 0, 0, 0, 0]);
        let ctx = WriteCtx {
            old_stored: &old,
            old_flips: 0,
            new_logical: &new,
            cfg: &cfg,
        };
        let out = read_stage(&ctx);
        assert_eq!(out.demand.units()[0], UnitDemand::new(0, 2));
    }
}
