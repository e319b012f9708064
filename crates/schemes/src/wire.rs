//! WIRE — restricted coset coding (Seyedzadeh et al.), a sibling of
//! Flip-N-Write with a wider codebook.
//!
//! Flip-N-Write gives each data unit two encodings (plain / inverted) and
//! one tag bit. WIRE keeps the per-unit tag bit but lets the whole line
//! choose one of [`COSET_ROWS`] XOR masks for what
//! "flipped" means — row 0 is the full inversion (so WIRE's row-0 plan is
//! Flip-N-Write's plan), rows 1–3 capture half-word and striped update
//! shapes. Per write, the encoder scores every row by the
//! lexicographic `(cell SETs, changed cells)` cost — SETs are the slow,
//! endurance-limited pulses, so they dominate — including the tag-cell
//! transitions, and keeps the cheapest *feasible* row (every unit's
//! changed cells must stay ≤ half, preserving the flip-bounded staged
//! timing). Row 0 is always feasible, so WIRE's chosen cost is never
//! above Flip-N-Write's.
//!
//! Timing and energy follow Three-Stage-Write (read, then a bounded
//! RESET stage, then a bounded SET stage); the row index is stored in the
//! tag word's top bits (see [`pcm_types::coset`]), which the decode path
//! already understands. Lines with more than 30 data units have no spare
//! tag bits and degenerate to row 0, i.e. exactly Flip-N-Write's encoding.

use crate::traits::{
    worst_case_reset_concurrency, worst_case_set_concurrency, SchemeConfig, WriteCtx, WritePlan,
    WriteScheme,
};
use pcm_types::{
    coset_row, coset_rows_available, coset_unit_flips, with_coset_row, COSET_PATTERNS, COSET_ROWS,
    MAX_UNITS_PER_LINE,
};

/// Cost of storing `word` with tag `flip` over `old` with tag `old_flip`:
/// `(cell SETs, changed cells)`, tag cell included. Its RESETs are the
/// difference.
fn unit_cost(old: u64, old_flip: bool, word: u64, flip: bool) -> (u32, u32) {
    let sets = (word & !old).count_ones() + (flip & !old_flip) as u32;
    let changed = (old ^ word).count_ones() + (flip != old_flip) as u32;
    (sets, changed)
}

/// One coset row's encoding, kept as its tag bits and cost; the stored
/// line is built only for the winning row.
#[derive(Clone, Copy)]
struct RowScore {
    row: usize,
    unit_flips: u32,
    sets: u32,
    changed: u32,
}

/// WIRE restricted coset coding.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireWrite;

impl WriteScheme for WireWrite {
    fn name(&self) -> &'static str {
        "WIRE"
    }

    fn uses_flip_bits(&self) -> bool {
        true
    }

    fn plan(&self, ctx: &WriteCtx<'_>) -> WritePlan {
        let cfg: &SchemeConfig = ctx.cfg;
        let (old, new) = (ctx.old_stored, ctx.new_logical);
        let num_units = new.num_units();
        let rows_live = coset_rows_available(num_units);
        let (rows, old_row, old_unit_flips) = if rows_live {
            (
                COSET_ROWS,
                coset_row(ctx.old_flips),
                coset_unit_flips(ctx.old_flips),
            )
        } else {
            (1, 0, ctx.old_flips)
        };
        // A unit's changed cells, tag included, must stay within half the
        // unit (the flip bound the staged timing relies on).
        let bound = cfg.org.data_unit_bits / 2;
        let old_flip = |i: usize| old_unit_flips & (1 << i) != 0;

        // The plain candidate `(new, false)` is the same under every row.
        let mut plain = [(0u32, 0u32); MAX_UNITS_PER_LINE];
        for (i, cost) in plain.iter_mut().enumerate().take(num_units) {
            *cost = unit_cost(old.unit(i), old_flip(i), new.unit(i), false);
        }

        let mut best: Option<RowScore> = None;
        'rows: for (row, &pattern) in COSET_PATTERNS.iter().enumerate().take(rows) {
            let mut score = RowScore {
                row,
                unit_flips: 0,
                sets: 0,
                changed: 0,
            };
            for (i, &plain_cost) in plain.iter().enumerate().take(num_units) {
                let coset = unit_cost(old.unit(i), old_flip(i), new.unit(i) ^ pattern, true);
                // Lexicographic (SETs, changed cells); a tie keeps the
                // plain word.
                let flip = match (plain_cost.1 <= bound, coset.1 <= bound) {
                    (true, true) => coset < plain_cost,
                    (plain_ok, coset_ok) if plain_ok || coset_ok => coset_ok,
                    _ => continue 'rows,
                };
                let (sets, changed) = if flip { coset } else { plain_cost };
                score.unit_flips |= (flip as u32) << i;
                score.sets += sets;
                score.changed += changed;
            }
            // The 2-bit row field is itself made of cells.
            if rows_live {
                let (sets, changed) = unit_cost(old_row as u64, false, row as u64, false);
                score.sets += sets;
                score.changed += changed;
            }
            // A tie keeps the lower row.
            if best.is_none_or(|b| (score.sets, score.changed) < (b.sets, b.changed)) {
                best = Some(score);
            }
        }
        let enc = best.expect("row 0 (full inversion) is always feasible");
        let mut stored = *new;
        for i in 0..num_units {
            if enc.unit_flips & (1 << i) != 0 {
                stored.set_unit(i, new.unit(i) ^ COSET_PATTERNS[enc.row]);
            }
        }
        let resets = enc.changed - enc.sets;

        // Three-Stage-Write staging: the flip bound holds for every row.
        let c0 = worst_case_reset_concurrency(cfg, true) as u64;
        let c1 = worst_case_set_concurrency(cfg, true) as u64;
        let units = cfg.org.write_units_per_line() as u64;
        let write_time =
            cfg.timings.t_reset * units.div_ceil(c0) + cfg.timings.t_set * units.div_ceil(c1);
        let service = cfg.timings.t_read + write_time;
        let equiv = write_time.as_ps() as f64 / cfg.timings.t_set.as_ps() as f64;

        let flips = if rows > 1 {
            with_coset_row(enc.unit_flips, enc.row)
        } else {
            enc.unit_flips
        };
        let read_energy = cfg.energy.read_energy(cfg.org.data_units_per_line() as u64);
        WritePlan {
            service_time: service,
            energy: cfg.energy.write_energy(enc.sets as u64, resets as u64) + read_energy,
            write_units_equiv: equiv,
            stored,
            flips,
            cell_sets: enc.sets,
            cell_resets: resets,
            read_before_write: true,
            partitions_used: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlipNWrite;
    use pcm_types::propcheck::{any_u64, vec_of};
    use pcm_types::LineData;
    use pcm_types::{prop_assert, prop_assert_eq, propcheck, Ps};

    fn plan(old: &LineData, flips: u32, new: &LineData) -> WritePlan {
        let cfg = SchemeConfig::paper_baseline();
        WireWrite.plan(&WriteCtx {
            old_stored: old,
            old_flips: flips,
            new_logical: new,
            cfg: &cfg,
        })
    }

    #[test]
    fn timing_matches_three_stage() {
        let old = LineData::zeroed(64);
        let p = plan(&old, 0, &old);
        assert_eq!(p.service_time, Ps::from_ns(50 + 4 * 53 + 2 * 430));
        assert!(p.read_before_write);
    }

    #[test]
    fn upper_half_update_picks_a_cheap_row() {
        // Writing the upper-half mask over zeros: plain costs 32 SETs,
        // full inversion costs 32 RESETs + tag; row 1 (upper half) stores
        // zero data bits — just the tag cells.
        let old = LineData::zeroed(64);
        let new = LineData::from_units(&[0xFFFF_FFFF_0000_0000u64; 8]);
        let p = plan(&old, 0, &new);
        assert_eq!(pcm_types::coset_row(p.flips), 1, "upper-half row");
        // 8 unit tags SET + row field 0→1 (one SET).
        assert_eq!(p.cell_sets, 9);
        assert_eq!(p.cell_resets, 0);
        assert!(p.check_decodes_to(&new).is_ok());
    }

    #[test]
    fn striped_update_uses_the_alternating_row() {
        let old = LineData::zeroed(64);
        let new = LineData::from_units(&[0x5555_5555_5555_5555u64; 8]);
        let p = plan(&old, 0, &new);
        assert_eq!(pcm_types::coset_row(p.flips), 3, "alternating row");
        assert!(p.check_decodes_to(&new).is_ok());
        // FNW would invert nothing (32 = half, no flip) and SET 32 bits
        // per unit; WIRE stores only tag cells.
        assert!(p.cell_sets < 8 * 32);
    }

    #[test]
    fn decodes_after_row_changes() {
        // Write 1: striped data lands on row 3. Write 2: dense data over
        // it must re-encode (row changes) and still decode.
        let old = LineData::zeroed(64);
        let striped = LineData::from_units(&[0x5555_5555_5555_5555u64; 8]);
        let p1 = plan(&old, 0, &striped);
        let dense = LineData::from_units(&[u64::MAX; 8]);
        let p2 = plan(&p1.stored, p1.flips, &dense);
        assert!(p2.check_decodes_to(&dense).is_ok());
    }

    propcheck! {
        /// WIRE never pays more (SETs, then changed cells) than
        /// Flip-N-Write on the same transition: row 0 *is* FNW's choice
        /// space, and rows only replace it when strictly cheaper.
        fn never_costlier_than_fnw(olds in vec_of(any_u64(), 8), news in vec_of(any_u64(), 8)) {
            let cfg = SchemeConfig::paper_baseline();
            let old = LineData::from_units(&olds);
            let new = LineData::from_units(&news);
            let ctx = WriteCtx { old_stored: &old, old_flips: 0, new_logical: &new, cfg: &cfg };
            let wire = WireWrite.plan(&ctx);
            let fnw = FlipNWrite.plan(&ctx);
            prop_assert!(wire.cell_sets <= fnw.cell_sets,
                "wire {} > fnw {}", wire.cell_sets, fnw.cell_sets);
            prop_assert!(wire.check_decodes_to(&new).is_ok());
        }

        /// Round-trip through arbitrary prior WIRE state: whatever tag
        /// word a previous write left, the next plan decodes correctly.
        fn decodes_from_any_tag_state(olds in vec_of(any_u64(), 8),
                                      news in vec_of(any_u64(), 8),
                                      unit_flips in 0u32..256,
                                      row in 0usize..4) {
            let cfg = SchemeConfig::paper_baseline();
            let old = LineData::from_units(&olds);
            let new = LineData::from_units(&news);
            let flips = pcm_types::with_coset_row(unit_flips, row);
            let p = WireWrite.plan(&WriteCtx {
                old_stored: &old, old_flips: flips, new_logical: &new, cfg: &cfg,
            });
            prop_assert!(p.check_decodes_to(&new).is_ok());
            prop_assert_eq!(p.service_time, Ps::from_ns(50 + 4 * 53 + 2 * 430));
        }
    }
}
