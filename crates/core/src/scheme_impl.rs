//! [`TetrisWrite`] — the three stages packaged as a [`WriteScheme`].

use crate::analysis::{analyze, pack_counts, AnalysisResult, PackCounts};
use crate::batch::analyze_batch;
use crate::config::TetrisConfig;
use crate::read_stage::{read_counts, read_stage, ReadStageOutput};
use pcm_schemes::{BatchPlan, WriteCtx, WritePlan, WriteScheme};
use pcm_types::{LineData, LineDemand, Ps};

/// The Tetris Write scheme.
///
/// Service time = `Tread + Tanalysis + (result + subresult/K) · Tset`
/// (read stage, analysis stage, Eq. 5). Energy is differential like
/// Flip-N-Write / Three-Stage-Write: only changed cells are pulsed.
///
/// ```
/// use pcm_schemes::{SchemeConfig, WriteCtx, WriteScheme};
/// use pcm_types::LineData;
/// use tetris_write::TetrisWrite;
///
/// let cfg = SchemeConfig::paper_baseline();
/// let old = LineData::zeroed(64);
/// let new = LineData::from_units(&[0b111; 8]); // 3 SETs per unit
/// let ctx = WriteCtx { old_stored: &old, old_flips: 0, new_logical: &new, cfg: &cfg };
///
/// let plan = TetrisWrite::paper_baseline().plan(&ctx);
/// assert_eq!(plan.write_units_equiv, 1.0);
/// plan.check_decodes_to(&new).unwrap();
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct TetrisWrite {
    cfg: TetrisConfig,
}

impl TetrisWrite {
    /// Tetris Write with the given configuration.
    pub fn new(cfg: TetrisConfig) -> Self {
        TetrisWrite { cfg }
    }

    /// Paper-baseline Tetris Write.
    pub fn paper_baseline() -> Self {
        Self::new(TetrisConfig::paper_baseline())
    }

    /// The configuration in use.
    pub fn config(&self) -> &TetrisConfig {
        &self.cfg
    }

    /// Run the read + analysis stages and return all intermediate state
    /// (for experiments, Gantt rendering and FSM validation).
    ///
    /// The embedded `TetrisConfig` is used for packing; the `WriteCtx`'s
    /// scheme config supplies the geometry the caller planned against.
    pub fn plan_detailed(
        &self,
        ctx: &WriteCtx<'_>,
    ) -> (WritePlan, AnalysisResult, ReadStageOutput) {
        let cfg = self.packing_config(ctx);
        let read_out = read_stage(ctx);
        let analysis = analyze(&read_out.demand, &cfg)
            .expect("analysis failed: configuration invalid for demand");
        let plan = write_plan(
            &cfg,
            *read_out.stored(),
            read_out.flips(),
            &read_out.demand,
            analysis.counts(),
        );
        (plan, analysis, read_out)
    }

    /// The packing knobs of this scheme over the geometry `ctx` plans
    /// against.
    fn packing_config(&self, ctx: &WriteCtx<'_>) -> TetrisConfig {
        let mut cfg = self.cfg;
        cfg.scheme = *ctx.cfg;
        cfg
    }

    /// Total fixed overhead added to every write (read + analysis).
    pub fn fixed_overhead(&self) -> Ps {
        self.cfg.scheme.timings.t_read + self.cfg.analysis_overhead
    }
}

/// A single line's plan: the read, the analysis and Eq. 5's write phase
/// in series; differential energy over `demand` plus the read.
fn write_plan(
    cfg: &TetrisConfig,
    stored: LineData,
    flips: u32,
    demand: &LineDemand,
    counts: PackCounts,
) -> WritePlan {
    let write_time = counts.write_time(cfg.scheme.timings.t_set);
    let service = cfg.scheme.timings.t_read + cfg.analysis_overhead + write_time;
    let (sets, resets) = (demand.total_sets(), demand.total_resets());
    let energy = cfg.scheme.energy.write_energy(sets as u64, resets as u64)
        + cfg
            .scheme
            .energy
            .read_energy(cfg.scheme.org.data_units_per_line() as u64);
    WritePlan {
        service_time: service,
        energy,
        write_units_equiv: counts.write_units_equiv(),
        stored,
        flips,
        cell_sets: sets,
        cell_resets: resets,
        read_before_write: true,
        partitions_used: 0,
    }
}

impl WriteScheme for TetrisWrite {
    fn name(&self) -> &'static str {
        "Tetris Write"
    }

    fn uses_flip_bits(&self) -> bool {
        true
    }

    /// [`TetrisWrite::plan_detailed`]'s plan from the two counts alone:
    /// no placement, decision record or slot vector is kept.
    fn plan(&self, ctx: &WriteCtx<'_>) -> WritePlan {
        let cfg = self.packing_config(ctx);
        let (stored, flips, demand) = read_counts(ctx);
        let counts =
            pack_counts(&demand, &cfg).expect("analysis failed: configuration invalid for demand");
        write_plan(&cfg, stored, flips, &demand, counts)
    }

    /// Inter-line batching: flip-encode every line, concatenate their
    /// demands, and pack them together. The reads of all lines proceed in
    /// parallel (array reads are wide), one analysis pass covers the
    /// batch, and every line completes at the shared write time.
    fn plan_batched(&self, ctxs: &[WriteCtx<'_>]) -> Option<BatchPlan> {
        if ctxs.is_empty() {
            return None;
        }
        let cfg = self.packing_config(&ctxs[0]);
        let outs: Vec<_> = ctxs.iter().map(read_stage).collect();
        let demands: Vec<_> = outs.iter().map(|o| o.demand).collect();
        let batch = analyze_batch(&demands, &cfg).ok()?;
        let write_time = batch.write_time(cfg.scheme.timings.t_set);
        let total = cfg.scheme.timings.t_read + cfg.analysis_overhead + write_time;
        // Every line completes at the batch's shared write time (`total`)
        // and is charged its share of the batch's write units.
        let plans = outs
            .iter()
            .map(|o| WritePlan {
                write_units_equiv: batch.write_units_per_line(),
                ..write_plan(
                    &cfg,
                    *o.stored(),
                    o.flips(),
                    &o.demand,
                    batch.analysis.counts(),
                )
            })
            .collect();
        Some(BatchPlan {
            service_time: total,
            plans,
            pack: Some(batch.analysis.pack_stats()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_schemes::{
        analytic, DcwWrite, FlipNWrite, SchemeConfig, ThreeStageWrite, TwoStageWrite,
    };
    use pcm_types::propcheck::{any_u64, one_of, vec_of};
    use pcm_types::rng::{Rng, StdRng};
    use pcm_types::{prop_assert_eq, propcheck};

    fn sparse_line(
        rng: &mut StdRng,
        old: &LineData,
        sets_per_unit: u32,
        resets_per_unit: u32,
    ) -> LineData {
        let mut new = *old;
        for i in 0..old.num_units() {
            let mut u = old.unit(i);
            let mut sets = 0;
            while sets < sets_per_unit {
                let b = 1u64 << rng.gen_range(0..64);
                if u & b == 0 {
                    u |= b;
                    sets += 1;
                }
            }
            let mut resets = 0;
            while resets < resets_per_unit {
                let b = 1u64 << rng.gen_range(0..64);
                if u & b != 0 && old.unit(i) & b != 0 {
                    u &= !b;
                    resets += 1;
                }
            }
            new.set_unit(i, u);
        }
        new
    }

    #[test]
    fn typical_line_takes_about_one_write_unit() {
        // Observation 1 statistics: ~6.7 SETs + ~2.9 RESETs per unit.
        let cfg = SchemeConfig::paper_baseline();
        let mut rng = StdRng::seed_from_u64(7);
        let old = LineData::from_units(&[u64::MAX >> 20; 8]);
        let new = sparse_line(&mut rng, &old, 7, 3);
        let ctx = WriteCtx {
            old_stored: &old,
            old_flips: 0,
            new_logical: &new,
            cfg: &cfg,
        };
        let scheme = TetrisWrite::paper_baseline();
        let (plan, analysis, _) = scheme.plan_detailed(&ctx);
        assert_eq!(analysis.result, 1);
        assert_eq!(analysis.subresult, 0);
        assert_eq!(plan.write_units_equiv, 1.0);
        assert!(plan.check_decodes_to(&new).is_ok());
        // Service = 50 ns read + 102.5 ns analysis + 430 ns write.
        assert_eq!(
            plan.service_time,
            Ps::from_ns(50) + Ps(102_500) + Ps::from_ns(430)
        );
    }

    #[test]
    fn beats_every_baseline_on_typical_content() {
        let cfg = SchemeConfig::paper_baseline();
        let mut rng = StdRng::seed_from_u64(11);
        let old = LineData::from_units(&[0xAAAA_5555_FFFF_0000; 8]);
        let new = sparse_line(&mut rng, &old, 7, 3);
        let ctx = WriteCtx {
            old_stored: &old,
            old_flips: 0,
            new_logical: &new,
            cfg: &cfg,
        };
        let tetris = TetrisWrite::paper_baseline().plan(&ctx);
        let dcw = DcwWrite.plan(&ctx);
        let fnw = FlipNWrite.plan(&ctx);
        let two = TwoStageWrite.plan(&ctx);
        let three = ThreeStageWrite.plan(&ctx);
        assert!(tetris.service_time < three.service_time);
        assert!(three.service_time < two.service_time);
        assert!(two.service_time < fnw.service_time);
        assert!(fnw.service_time < dcw.service_time);
    }

    #[test]
    fn energy_differential_unlike_two_stage() {
        let cfg = SchemeConfig::paper_baseline();
        let old = LineData::from_units(&[0xFFFF; 8]);
        let mut new = old;
        new.set_unit(0, 0xFFFE); // single RESET
        let ctx = WriteCtx {
            old_stored: &old,
            old_flips: 0,
            new_logical: &new,
            cfg: &cfg,
        };
        let tetris = TetrisWrite::paper_baseline().plan(&ctx);
        let two = TwoStageWrite.plan(&ctx);
        assert_eq!(tetris.cell_sets + tetris.cell_resets, 1);
        assert!(tetris.energy < two.energy, "2SW programs every bit");
    }

    #[test]
    fn worst_case_still_at_least_matches_three_stage_write_time() {
        // All units at the flip bound, all SETs: Tetris needs 2 write units
        // (860 ns) vs 3SW's 4·Treset + 2·Tset (1072 ns).
        let cfg = SchemeConfig::paper_baseline();
        let old = LineData::zeroed(64);
        let new = LineData::from_units(&[0xFFFF_FFFFu64; 8]);
        let ctx = WriteCtx {
            old_stored: &old,
            old_flips: 0,
            new_logical: &new,
            cfg: &cfg,
        };
        let scheme = TetrisWrite::paper_baseline();
        let (plan, analysis, _) = scheme.plan_detailed(&ctx);
        assert_eq!(analysis.result, 2);
        let write_time = plan.service_time - scheme.fixed_overhead();
        assert!(write_time < analytic::t_three_stage(&cfg) - cfg.timings.t_read);
    }

    #[test]
    fn batched_planning_shares_write_units() {
        let cfg = SchemeConfig::paper_baseline();
        let old = LineData::zeroed(64);
        let a = LineData::from_units(&[0x7F; 8]); // 7 SETs per unit
        let b = LineData::from_units(&[0x0F; 8]); // 4 SETs per unit
        let ctxs = [
            WriteCtx {
                old_stored: &old,
                old_flips: 0,
                new_logical: &a,
                cfg: &cfg,
            },
            WriteCtx {
                old_stored: &old,
                old_flips: 0,
                new_logical: &b,
                cfg: &cfg,
            },
        ];
        let scheme = TetrisWrite::paper_baseline();
        let batch = scheme
            .plan_batched(&ctxs)
            .expect("tetris supports batching");
        assert_eq!(batch.plans.len(), 2);
        // 88 SET-equivalents fit one shared write unit: 0.5 units/line.
        assert_eq!(batch.plans[0].write_units_equiv, 0.5);
        let pack = batch.pack.expect("tetris reports packing stats");
        assert_eq!(pack.write_units_equiv, 1.0, "one shared write unit");
        assert!(pack.utilization > 0.0);
        for (plan, new) in batch.plans.iter().zip([&a, &b]) {
            assert_eq!(plan.service_time, batch.service_time);
            assert!(plan.check_decodes_to(new).is_ok());
        }
        // A single line alone costs a full unit; the batch total matches
        // one write unit plus fixed overheads.
        let single = scheme.plan(&ctxs[0]);
        assert_eq!(single.service_time, batch.service_time);

        // Oversized batches fall back to None (serial service).
        let many = vec![ctxs[0]; 5];
        assert!(scheme.plan_batched(&many).is_none());
        assert!(scheme.plan_batched(&[]).is_none());
    }

    #[test]
    fn plan_uses_ctx_geometry() {
        // A 128 B line through the trait still decodes correctly.
        let mut cfg = SchemeConfig::paper_baseline();
        cfg.org.cache_line_bytes = 128;
        let old = LineData::zeroed(128);
        let new = LineData::from_units(&[5u64; 16]);
        let ctx = WriteCtx {
            old_stored: &old,
            old_flips: 0,
            new_logical: &new,
            cfg: &cfg,
        };
        let plan = TetrisWrite::paper_baseline().plan(&ctx);
        assert!(plan.check_decodes_to(&new).is_ok());
        assert_eq!(plan.write_units_equiv, 1.0, "16 × 2 SETs trivially pack");
    }

    propcheck! {
        /// `plan` (reduced read stage, count-only packer) is
        /// `plan_detailed`'s plan field for field, `write_units_equiv`
        /// bit for bit, whatever the data, prior flip tags, line size,
        /// budget (down to the chunked X2-scale ones) and packing knobs.
        fn plan_matches_plan_detailed(
            olds in vec_of(any_u64(), 32),
            masks in (vec_of(any_u64(), 32), vec_of(any_u64(), 32)),
            shape in (0u32..3, any_u64()),
            line_bytes in one_of(&[64u32, 128, 256]),
            budget in one_of(&[128u32, 64, 32, 16, 8, 2]),
            knobs in 0u32..8,
        ) {
            let (xs, ys) = masks;
            let (density, old_flips) = shape;
            let mut cfg = SchemeConfig::paper_baseline();
            cfg.org.cache_line_bytes = line_bytes;
            cfg.power.budget_per_bank = budget;
            let units = line_bytes as usize / 8;
            // Dense (random), half-sparse and quarter-sparse updates.
            let news: Vec<u64> = (0..units)
                .map(|i| match density {
                    0 => xs[i],
                    1 => olds[i] ^ (xs[i] & ys[i]),
                    _ => olds[i] ^ (xs[i] & ys[i] & (xs[i] >> 7)),
                })
                .collect();
            let old = LineData::from_units(&olds[..units]);
            let new = LineData::from_units(&news);
            let ctx = WriteCtx {
                old_stored: &old,
                old_flips: old_flips as u32,
                new_logical: &new,
                cfg: &cfg,
            };
            let scheme = TetrisWrite::new(TetrisConfig {
                sort_decreasing: knobs & 1 != 0,
                steal_write0_slack: knobs & 2 != 0,
                min_one_write_unit: knobs & 4 != 0,
                ..TetrisConfig::paper_baseline()
            });
            let fast = scheme.plan(&ctx);
            let (full, _, _) = scheme.plan_detailed(&ctx);
            prop_assert_eq!(fast.service_time, full.service_time);
            prop_assert_eq!(fast.energy, full.energy);
            prop_assert_eq!(
                fast.write_units_equiv.to_bits(),
                full.write_units_equiv.to_bits()
            );
            prop_assert_eq!(&fast.stored, &full.stored);
            prop_assert_eq!(fast.flips, full.flips);
            prop_assert_eq!(fast.cell_sets, full.cell_sets);
            prop_assert_eq!(fast.cell_resets, full.cell_resets);
            prop_assert_eq!(fast.read_before_write, full.read_before_write);
            prop_assert_eq!(fast.partitions_used, full.partitions_used);
        }
    }
}
