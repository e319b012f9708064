//! The analysis stage — Algorithm 2.
//!
//! Given per-unit demand counts, compute currents (`IN1[i] = NUM1[i]`,
//! `IN0[i] = NUM0[i] · L`), then:
//!
//! 1. **Pack write-1s** into write units, first-fit-decreasing: each SET
//!    pulse occupies all `K` sub-slots of its write unit, so a write unit
//!    accepts a unit's SETs iff *every* one of its sub-slots has headroom.
//!    Units that don't fit anywhere open a new write unit (`result`).
//! 2. **Pack write-0s** into individual sub-slots, first-fit-decreasing
//!    over *all* existing sub-slots — the headroom left by the write-1s is
//!    stolen, like dropping short Tetris pieces into the gaps. Write-0s
//!    that fit nowhere append overflow sub-units (`subresult`).
//!
//! The resulting service time is Eq. 5: `(result + subresult/K) · Tset`.
//!
//! ### Deviation from the paper's pseudocode
//! The paper's Algorithm 2 listing has indexing bugs (its `j = result−1`
//! guard cannot fire on the first unit and its `WUp[k]` update loop writes
//! *every* earlier unit's slots). We implement what the prose and the
//! worked example (Fig. 4) describe; the literal transcription is kept in
//! [`crate::paper_literal`] for comparison.
//!
//! Demands larger than the whole budget (possible under mobile X4/X2
//! budgets) are split into serial chunks — the paper assumes they never
//! occur; chunking generalizes the algorithm without changing behaviour in
//! the paper's regime.
//!
//! ### One packer, two consumers
//! The first-fit-decreasing loops exist once, in a packer that hands each
//! placement to a caller-supplied sink. [`analyze`] keeps every placement
//! and the per-sub-slot current (Gantt charts, FSM jobs, validation);
//! [`TetrisWrite::plan`](crate::TetrisWrite) keeps only `result` and
//! `subresult`, which is all a write's service time needs, and allocates
//! nothing for the lines the paper's configurations produce.

use crate::config::TetrisConfig;
use pcm_types::{LineDemand, PcmError, Ps, UnitDemand, MAX_UNITS_PER_LINE};

/// Which FSM a pulse belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PulsePhase {
    /// Write-1 (SET, FSM1): spans `K` sub-slots.
    Write1,
    /// Write-0 (RESET, FSM0): spans 1 sub-slot.
    Write0,
}

/// One scheduled pulse (or chunk of one) for one data unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Data-unit index within the cache line.
    pub unit: usize,
    /// SET or RESET phase.
    pub phase: PulsePhase,
    /// Global sub-slot index where the pulse begins (write-1 placements
    /// always start on a write-unit boundary, `j·K`).
    pub start_slot: usize,
    /// Bit-writes in this pulse.
    pub bits: u32,
    /// Instantaneous current drawn, in SET-equivalents.
    pub current: u32,
}

/// Output of the analysis stage.
#[derive(Clone, Debug)]
pub struct AnalysisResult {
    /// Write units consumed by write-1s (the paper's `result`).
    pub result: u32,
    /// Overflow sub-write-units appended for write-0s (`subresult`).
    pub subresult: u32,
    /// All placements — the contents of the write-1 and write-0 queues.
    pub placements: Vec<Placement>,
    /// Current drawn in each sub-slot (`WUp`), length `result·K + subresult`.
    pub slot_usage: Vec<u32>,
    /// Sub-slots per write unit (`K`).
    pub k: usize,
    /// Power asymmetry (`L`).
    pub l: u32,
    /// Budget enforced (`PBmax`).
    pub budget: u32,
}

impl AnalysisResult {
    /// The schedule's two counts.
    pub(crate) fn counts(&self) -> PackCounts {
        PackCounts {
            result: self.result,
            subresult: self.subresult,
            k: self.k,
        }
    }

    /// Fig. 10's metric: `result + subresult / K` serial write units.
    pub fn write_units_equiv(&self) -> f64 {
        self.counts().write_units_equiv()
    }

    /// Eq. 5 service time of the write phase (excludes read/analysis).
    pub fn write_time(&self, t_set: Ps) -> Ps {
        self.counts().write_time(t_set)
    }

    /// Peak instantaneous current across all sub-slots.
    pub fn peak_current(&self) -> u32 {
        self.slot_usage.iter().copied().max().unwrap_or(0)
    }

    /// Mean budget utilization across the makespan, in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.slot_usage.is_empty() || self.budget == 0 {
            return 0.0;
        }
        let used: u64 = self.slot_usage.iter().map(|&u| u as u64).sum();
        used as f64 / (self.budget as u64 * self.slot_usage.len() as u64) as f64
    }

    /// Write0 (RESET) placements dropped into the write-1 region's slack
    /// — sub-slots `< result·K` — rather than into overflow
    /// sub-write-units. These are the "short Tetris pieces" the scheme
    /// exists to hide; a schedule with zero stolen jobs degenerates to
    /// Three-Stage-Write behaviour.
    pub fn stolen_write0_jobs(&self) -> u32 {
        let boundary = self.result as usize * self.k;
        self.write0_queue()
            .filter(|p| p.start_slot < boundary)
            .count() as u32
    }

    /// Packing quality in the shape the memory controller's telemetry
    /// consumes.
    pub fn pack_stats(&self) -> pcm_schemes::PackStats {
        pcm_schemes::PackStats {
            stolen_write0s: self.stolen_write0_jobs(),
            utilization: self.utilization(),
            write_units_equiv: self.write_units_equiv(),
        }
    }

    /// The write-1 queue (FSM1's input), in placement order.
    pub fn write1_queue(&self) -> impl Iterator<Item = &Placement> {
        self.placements
            .iter()
            .filter(|p| p.phase == PulsePhase::Write1)
    }

    /// The write-0 queue (FSM0's input), in placement order.
    pub fn write0_queue(&self) -> impl Iterator<Item = &Placement> {
        self.placements
            .iter()
            .filter(|p| p.phase == PulsePhase::Write0)
    }

    /// Verify the schedule is complete and feasible:
    /// every demanded bit is placed exactly once, no placement overruns the
    /// timeline, and recomputed slot usage stays within budget and matches
    /// `slot_usage`.
    pub fn validate(&self, demand: &LineDemand) -> Result<(), PcmError> {
        check_schedule(
            &self.placements,
            &self.slot_usage,
            self.counts(),
            self.l,
            self.budget,
            demand,
        )
    }
}

/// Algorithm 2's two counts: write units taken by write-1s (`result`) and
/// overflow sub-write-units appended for write-0s (`subresult`), with the
/// `K` that converts between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PackCounts {
    pub(crate) result: u32,
    pub(crate) subresult: u32,
    pub(crate) k: usize,
}

impl PackCounts {
    /// Fig. 10's metric: `result + subresult / K` serial write units.
    pub(crate) fn write_units_equiv(self) -> f64 {
        self.result as f64 + self.subresult as f64 / self.k as f64
    }

    /// Eq. 5 service time of the write phase (excludes read/analysis).
    pub(crate) fn write_time(self, t_set: Ps) -> Ps {
        t_set * self.result as u64 + (t_set / self.k as u64) * self.subresult as u64
    }

    /// Sub-slots on the timeline: `result·K + subresult`.
    fn slots(self) -> usize {
        self.result as usize * self.k + self.subresult as usize
    }
}

/// [`AnalysisResult::validate`] over borrowed parts, so that a schedule
/// recorded without an [`AnalysisResult`] can be checked too. Allocates
/// only on failure, or for a timeline longer than [`INLINE_SLOTS`].
fn check_schedule(
    placements: &[Placement],
    slot_usage: &[u32],
    counts: PackCounts,
    l: u32,
    budget: u32,
    demand: &LineDemand,
) -> Result<(), PcmError> {
    let (k, slots) = (counts.k, counts.slots());
    if slot_usage.len() != slots {
        return Err(PcmError::IncompleteSchedule(format!(
            "slot_usage length {} ≠ {slots}",
            slot_usage.len()
        )));
    }
    let mut recomputed = InlineVec::<u32, INLINE_SLOTS>::filled(0, slots);
    let recomputed = recomputed.as_mut_slice();
    let mut placed_sets = [0u32; MAX_UNITS_PER_LINE];
    let mut placed_resets = [0u32; MAX_UNITS_PER_LINE];
    for p in placements {
        if p.unit >= demand.len() {
            return Err(PcmError::IncompleteSchedule(format!(
                "placement names unit {} of a {}-unit line",
                p.unit,
                demand.len()
            )));
        }
        let span = match p.phase {
            PulsePhase::Write1 => {
                if p.start_slot % k != 0 {
                    return Err(PcmError::IncompleteSchedule(format!(
                        "write-1 of unit {} not aligned to a write unit",
                        p.unit
                    )));
                }
                placed_sets[p.unit] += p.bits;
                debug_assert_eq!(p.current, p.bits);
                k
            }
            PulsePhase::Write0 => {
                placed_resets[p.unit] += p.bits;
                debug_assert_eq!(p.current, p.bits * l);
                1
            }
        };
        if p.start_slot + span > slots {
            return Err(PcmError::IncompleteSchedule(format!(
                "placement of unit {} overruns the timeline",
                p.unit
            )));
        }
        #[allow(clippy::needless_range_loop)] // slot indices appear in the error
        for s in p.start_slot..p.start_slot + span {
            recomputed[s] += p.current;
            if recomputed[s] > budget {
                return Err(PcmError::PowerBudgetViolation {
                    slot: s,
                    demand: recomputed[s],
                    budget,
                });
            }
        }
    }
    if recomputed != slot_usage {
        return Err(PcmError::IncompleteSchedule(
            "slot usage does not match placements".into(),
        ));
    }
    for (i, u) in demand.units().iter().enumerate() {
        if placed_sets[i] != u.sets || placed_resets[i] != u.resets {
            return Err(PcmError::IncompleteSchedule(format!(
                "unit {i}: placed {}S/{}R, demanded {}S/{}R",
                placed_sets[i], placed_resets[i], u.sets, u.resets
            )));
        }
    }
    Ok(())
}

/// Sub-slots the packer keeps on the stack. Enough for any line of up to
/// 256 B at the baseline budget (128): first fit opens a write unit only
/// when every open one is more than `128 − 32` full, so 32 flip-bounded
/// units need at most 12 write units (96 sub-slots), and their write-0s
/// at most 32 overflow sub-units. Longer timelines (the chunked demands of
/// X2/X4-scale budgets) move to the heap through the same code.
const INLINE_SLOTS: usize = 128;

/// Write units the write-1 phase keeps on the stack (`INLINE_SLOTS / K`
/// at the baseline `K = 8`, rounded up).
const INLINE_WRITE_UNITS: usize = 16;

/// A growable buffer whose first `N` elements live inline; pushing past
/// `N` moves the contents to the heap once, after which it behaves as a
/// `Vec`.
struct InlineVec<T: Copy, const N: usize> {
    inline: [T; N],
    len: usize,
    heap: Vec<T>,
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// `len` copies of `fill`.
    fn filled(fill: T, len: usize) -> Self {
        let mut v = InlineVec {
            inline: [fill; N],
            len: len.min(N),
            heap: Vec::new(),
        };
        for _ in N..len {
            v.push(fill);
        }
        v
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, x: T) {
        if self.len < N {
            self.inline[self.len] = x;
        } else {
            if self.len == N {
                self.heap.extend_from_slice(&self.inline);
            }
            self.heap.push(x);
        }
        self.len += 1;
    }

    fn as_slice(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len <= N {
            &mut self.inline[..self.len]
        } else {
            &mut self.heap
        }
    }
}

/// The units with a nonzero `count`, in index order — or, with
/// `decreasing`, stably sorted by decreasing count, so that ties keep
/// index order (first-fit-*decreasing*). Returns the indices and how many
/// there are.
fn unit_order(
    units: &[UnitDemand],
    count: impl Fn(&UnitDemand) -> u32,
    decreasing: bool,
) -> ([u8; MAX_UNITS_PER_LINE], usize) {
    let mut order = [0u8; MAX_UNITS_PER_LINE];
    let mut n = 0;
    for (i, u) in units.iter().enumerate() {
        if count(u) > 0 {
            order[n] = i as u8;
            n += 1;
        }
    }
    if decreasing {
        // Insertion sort: at most 32 keys, stable, allocation-free.
        for i in 1..n {
            let x = order[i];
            let key = count(&units[x as usize]);
            let mut j = i;
            while j > 0 && count(&units[order[j - 1] as usize]) < key {
                order[j] = order[j - 1];
                j -= 1;
            }
            order[j] = x;
        }
    }
    (order, n)
}

/// What the packer leaves besides its placements.
struct Packed {
    counts: PackCounts,
    /// Current drawn in each sub-slot (`WUp`).
    slots: InlineVec<u32, INLINE_SLOTS>,
}

/// Algorithm 2 — the one copy of its first-fit-decreasing loops. Every
/// placement goes to `place`, in queue order; the caller decides whether
/// to keep it.
fn pack(
    demand: &LineDemand,
    cfg: &TetrisConfig,
    mut place: impl FnMut(Placement),
) -> Result<Packed, PcmError> {
    let power = &cfg.scheme.power;
    let k = cfg.scheme.timings.k_ratio() as usize;
    let l = power.l_ratio;
    let budget = power.budget_per_bank;
    if budget < l {
        return Err(PcmError::config("budget cannot source even one RESET"));
    }
    let units = demand.units();

    // ---- write-1 packing (write-unit granularity) ----
    // A SET chunk occupies all K sub-slots of its write unit, so until the
    // write-0s arrive every sub-slot of a write unit carries the same
    // current: one usage per write unit is the whole state.
    let mut unit_usage = InlineVec::<u32, INLINE_WRITE_UNITS>::filled(0, 0);
    let (order, n) = unit_order(units, |u| u.sets, cfg.sort_decreasing);
    for &i in &order[..n] {
        let i = i as usize;
        let mut remaining = units[i].sets;
        while remaining > 0 {
            let chunk = remaining.min(budget);
            // First write unit whose headroom fits the chunk.
            let fit = unit_usage
                .as_slice()
                .iter()
                .position(|&u| budget - u >= chunk);
            let j = fit.unwrap_or_else(|| {
                unit_usage.push(0);
                unit_usage.len() - 1
            });
            unit_usage.as_mut_slice()[j] += chunk;
            place(Placement {
                unit: i,
                phase: PulsePhase::Write1,
                start_slot: j * k,
                bits: chunk,
                current: chunk,
            });
            remaining -= chunk;
        }
    }

    // Paper's Algorithm 2 initializes `result ← 1`: a write always occupies
    // at least one write unit.
    if cfg.min_one_write_unit && unit_usage.len() == 0 {
        unit_usage.push(0);
    }
    let result = unit_usage.len() as u32;

    // ---- write-0 packing (sub-slot granularity) ----
    let mut slots = InlineVec::<u32, INLINE_SLOTS>::filled(0, 0);
    for &u in unit_usage.as_slice() {
        for _ in 0..k {
            slots.push(u);
        }
    }
    // Ablation: without slack stealing, only overflow slots (after the
    // write-1 region) may host write-0s.
    let first = if cfg.steal_write0_slack {
        0
    } else {
        result as usize * k
    };
    let max_resets_per_slot = (budget / l).max(1);
    let (order, n) = unit_order(units, |u| u.resets, cfg.sort_decreasing);
    for &i in &order[..n] {
        let i = i as usize;
        let mut remaining = units[i].resets;
        while remaining > 0 {
            let chunk_bits = remaining.min(max_resets_per_slot);
            let need = chunk_bits * l;
            let fit = slots.as_slice()[first..]
                .iter()
                .position(|&u| budget - u >= need);
            let s = fit.map_or_else(
                || {
                    slots.push(0);
                    slots.len() - 1
                },
                |p| p + first,
            );
            slots.as_mut_slice()[s] += need;
            place(Placement {
                unit: i,
                phase: PulsePhase::Write0,
                start_slot: s,
                bits: chunk_bits,
                current: need,
            });
            remaining -= chunk_bits;
        }
    }

    let subresult = (slots.len() - result as usize * k) as u32;
    Ok(Packed {
        counts: PackCounts {
            result,
            subresult,
            k,
        },
        slots,
    })
}

/// Algorithm 2's counts alone — what a write's Eq. 5 service time needs.
/// Runs the same packer as [`analyze`] but keeps no placement, so it
/// allocates nothing for timelines of up to [`INLINE_SLOTS`] sub-slots.
///
/// Debug builds also record the schedule (on the stack, for such lines),
/// validate it and check that it gives the same counts.
pub(crate) fn pack_counts(demand: &LineDemand, cfg: &TetrisConfig) -> Result<PackCounts, PcmError> {
    let counts = pack(demand, cfg, |_| {})?.counts;
    #[cfg(debug_assertions)]
    {
        let empty = Placement {
            unit: 0,
            phase: PulsePhase::Write1,
            start_slot: 0,
            bits: 0,
            current: 0,
        };
        let mut placed = InlineVec::<Placement, { 2 * MAX_UNITS_PER_LINE }>::filled(empty, 0);
        let recorded = pack(demand, cfg, |p| placed.push(p))?;
        assert_eq!(recorded.counts, counts, "recording changed the packing");
        let power = &cfg.scheme.power;
        let check = check_schedule(
            placed.as_slice(),
            recorded.slots.as_slice(),
            counts,
            power.l_ratio,
            power.budget_per_bank,
            demand,
        );
        assert!(
            check.is_ok(),
            "analysis produced invalid schedule: {check:?}"
        );
    }
    Ok(counts)
}

/// Run Algorithm 2 over a line's demand.
///
/// ```
/// use pcm_types::{LineDemand, UnitDemand};
/// use tetris_write::{analyze, TetrisConfig};
///
/// // Typical content (paper Observation 1): ~7 SETs + ~3 RESETs per unit.
/// let demand = LineDemand::from_units(&[UnitDemand::new(7, 3); 8]);
/// let a = analyze(&demand, &TetrisConfig::paper_baseline()).unwrap();
/// assert_eq!(a.result, 1);      // all 56 SETs fit one write unit
/// assert_eq!(a.subresult, 0);   // the RESETs hide in its slack
/// assert_eq!(a.write_units_equiv(), 1.0);
/// ```
pub fn analyze(demand: &LineDemand, cfg: &TetrisConfig) -> Result<AnalysisResult, PcmError> {
    let mut placements = Vec::with_capacity(demand.len() * 2);
    let packed = pack(demand, cfg, |p| placements.push(p))?;
    let power = &cfg.scheme.power;
    let out = AnalysisResult {
        result: packed.counts.result,
        subresult: packed.counts.subresult,
        placements,
        slot_usage: packed.slots.as_slice().to_vec(),
        k: packed.counts.k,
        l: power.l_ratio,
        budget: power.budget_per_bank,
    };
    debug_assert!(
        out.validate(demand).is_ok(),
        "analysis produced invalid schedule"
    );
    Ok(out)
}

/// Reference Algorithm 2 that the shared [`pack`] is tested against: heap
/// `Vec`s for both orders and the slot usage, and each write unit's
/// headroom taken as the minimum over its `K` sub-slots.
#[cfg(test)]
fn analyze_oracle(demand: &LineDemand, cfg: &TetrisConfig) -> Result<AnalysisResult, PcmError> {
    let power = &cfg.scheme.power;
    let k = cfg.scheme.timings.k_ratio() as usize;
    let l = power.l_ratio;
    let budget = power.budget_per_bank;
    if budget < l {
        return Err(PcmError::config("budget cannot source even one RESET"));
    }

    let mut placements = Vec::with_capacity(demand.len() * 2);
    let mut slot_usage: Vec<u32> = Vec::with_capacity(2 * k);
    let mut result: u32 = 0;

    // ---- write-1 packing (write-unit granularity) ----
    let mut order1: Vec<usize> = (0..demand.len())
        .filter(|&i| demand.units()[i].sets > 0)
        .collect();
    if cfg.sort_decreasing {
        order1.sort_by_key(|&i| std::cmp::Reverse(demand.units()[i].sets));
    }
    for &i in &order1 {
        let mut remaining = demand.units()[i].sets;
        while remaining > 0 {
            let chunk = remaining.min(budget);
            // First write unit whose *minimum* sub-slot headroom fits the chunk.
            let mut target = None;
            for j in 0..result as usize {
                let headroom = slot_usage[j * k..(j + 1) * k]
                    .iter()
                    .map(|&u| budget - u)
                    .min()
                    .unwrap_or(0);
                if headroom >= chunk {
                    target = Some(j);
                    break;
                }
            }
            let j = target.unwrap_or_else(|| {
                result += 1;
                slot_usage.extend(std::iter::repeat_n(0, k));
                result as usize - 1
            });
            for slot in slot_usage.iter_mut().take((j + 1) * k).skip(j * k) {
                *slot += chunk;
            }
            placements.push(Placement {
                unit: i,
                phase: PulsePhase::Write1,
                start_slot: j * k,
                bits: chunk,
                current: chunk,
            });
            remaining -= chunk;
        }
    }

    // Paper's Algorithm 2 initializes `result ← 1`: a write always occupies
    // at least one write unit.
    if cfg.min_one_write_unit && result == 0 {
        result = 1;
        slot_usage.extend(std::iter::repeat_n(0, k));
    }

    // ---- write-0 packing (sub-slot granularity) ----
    let mut subresult: u32 = 0;
    let mut order0: Vec<usize> = (0..demand.len())
        .filter(|&i| demand.units()[i].resets > 0)
        .collect();
    if cfg.sort_decreasing {
        order0.sort_by_key(|&i| std::cmp::Reverse(demand.units()[i].resets));
    }
    let max_resets_per_slot = (budget / l).max(1);
    for &i in &order0 {
        let mut remaining = demand.units()[i].resets;
        while remaining > 0 {
            let chunk_bits = remaining.min(max_resets_per_slot);
            let need = chunk_bits * l;
            let slot = if cfg.steal_write0_slack {
                slot_usage.iter().position(|&u| budget - u >= need)
            } else {
                // Ablation: only overflow slots (after the write-1 region)
                // may host write-0s.
                slot_usage[result as usize * k..]
                    .iter()
                    .position(|&u| budget - u >= need)
                    .map(|p| p + result as usize * k)
            };
            let s = slot.unwrap_or_else(|| {
                subresult += 1;
                slot_usage.push(0);
                slot_usage.len() - 1
            });
            slot_usage[s] += need;
            placements.push(Placement {
                unit: i,
                phase: PulsePhase::Write0,
                start_slot: s,
                bits: chunk_bits,
                current: need,
            });
            remaining -= chunk_bits;
        }
    }

    let out = AnalysisResult {
        result,
        subresult,
        placements,
        slot_usage,
        k,
        l,
        budget,
    };
    debug_assert!(
        out.validate(demand).is_ok(),
        "analysis produced invalid schedule"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_types::propcheck::{any_bool, one_of, vec_of};
    use pcm_types::{prop_assert, prop_assert_eq, propcheck};
    use pcm_types::{PowerParams, UnitDemand};

    fn cfg_with_budget(budget: u32) -> TetrisConfig {
        let mut cfg = TetrisConfig::paper_baseline();
        cfg.scheme.power = PowerParams {
            l_ratio: 2,
            budget_per_bank: budget,
            chips_per_bank: 4,
        };
        cfg
    }

    fn demand(units: &[(u32, u32)]) -> LineDemand {
        LineDemand::from_units(
            &units
                .iter()
                .map(|&(s, r)| UnitDemand::new(s, r))
                .collect::<Vec<_>>(),
        )
    }

    /// The paper's Fig. 4 worked example: budget 32, write-1 loads
    /// 8,7,7,6,6,6,5,3 and write-0 loads 0,1,1,2,3,2,2,5. Tetris finishes
    /// in two write units with no overflow (T1 = 2 · Tset after the read).
    #[test]
    fn fig4_worked_example() {
        let cfg = cfg_with_budget(32);
        let d = demand(&[
            (8, 0),
            (7, 1),
            (7, 1),
            (6, 2),
            (6, 3),
            (6, 2),
            (5, 2),
            (3, 5),
        ]);
        let a = analyze(&d, &cfg).unwrap();
        a.validate(&d).unwrap();
        assert_eq!(a.result, 2, "write-1s fill exactly two write units");
        assert_eq!(a.subresult, 0, "all write-0s hide in the slack");
        assert_eq!(a.write_units_equiv(), 2.0);
        assert!(a.peak_current() <= 32);
        // First write unit packs 8+7+7+6+3 = 31 (units 0,1,2,3 + the 3-SET unit).
        assert_eq!(a.slot_usage[0..8].iter().max(), Some(&31));
    }

    #[test]
    fn pack_stats_count_stolen_write0s() {
        // Fig. 4 shape: every write-0 hides inside the two write-1 units,
        // so each write-0 placement counts as stolen.
        let cfg = cfg_with_budget(32);
        let d = demand(&[
            (8, 0),
            (7, 1),
            (7, 1),
            (6, 2),
            (6, 3),
            (6, 2),
            (5, 2),
            (3, 5),
        ]);
        let a = analyze(&d, &cfg).unwrap();
        let stolen = a.stolen_write0_jobs();
        assert_eq!(
            stolen,
            a.write0_queue().count() as u32,
            "no overflow slots → every write-0 was stolen into slack"
        );
        assert!(stolen >= 7, "seven units carry write-0 demand");
        let ps = a.pack_stats();
        assert_eq!(ps.stolen_write0s, stolen);
        assert_eq!(ps.write_units_equiv, 2.0);
        assert!(ps.utilization > 0.0 && ps.utilization <= 1.0);

        // Ablation: with slack stealing off, write-0s land in overflow
        // sub-units past the write-1 region — none count as stolen.
        let mut no_steal = cfg;
        no_steal.steal_write0_slack = false;
        let b = analyze(&d, &no_steal).unwrap();
        assert_eq!(b.stolen_write0_jobs(), 0);
        assert!(b.subresult > 0, "write-0s forced into overflow slots");
        assert!(b.pack_stats().write_units_equiv > a.pack_stats().write_units_equiv);
    }

    #[test]
    fn set_dominant_line_fits_one_unit() {
        // Paper Observation 1: ~6.7 SETs + 2.9 RESETs per unit → all eight
        // units' SETs (≤ 54 current) share one write unit, write-0s hide.
        let cfg = TetrisConfig::paper_baseline(); // budget 128
        let d = demand(&[(7, 3); 8]);
        let a = analyze(&d, &cfg).unwrap();
        a.validate(&d).unwrap();
        assert_eq!(a.result, 1);
        assert_eq!(a.subresult, 0);
        assert_eq!(a.write_units_equiv(), 1.0);
    }

    #[test]
    fn empty_demand_occupies_min_one_unit() {
        let cfg = TetrisConfig::paper_baseline();
        let d = demand(&[(0, 0); 8]);
        let a = analyze(&d, &cfg).unwrap();
        assert_eq!(a.result, 1, "paper initializes result ← 1");
        assert_eq!(a.write_units_equiv(), 1.0);

        let mut cfg2 = cfg;
        cfg2.min_one_write_unit = false;
        let a2 = analyze(&d, &cfg2).unwrap();
        assert_eq!(a2.result, 0);
        assert_eq!(a2.write_units_equiv(), 0.0);
    }

    #[test]
    fn worst_case_degenerates_to_flip_n_write() {
        // All units at the flip bound (32 SETs): 128/32 = 4 per write unit
        // → 2 write units, like FNW's halved unit count.
        let cfg = TetrisConfig::paper_baseline();
        let d = demand(&[(32, 0); 8]);
        let a = analyze(&d, &cfg).unwrap();
        a.validate(&d).unwrap();
        assert_eq!(a.result, 2);
    }

    #[test]
    fn reset_only_line_uses_sub_units() {
        let cfg = TetrisConfig::paper_baseline();
        // 8 units × 20 RESETs = 40 current each; 3 per slot (120 ≤ 128).
        let d = demand(&[(0, 20); 8]);
        let a = analyze(&d, &cfg).unwrap();
        a.validate(&d).unwrap();
        assert_eq!(a.result, 1, "min-one write unit opens 8 free sub-slots");
        assert_eq!(a.subresult, 0, "8 write-0s fit in the 8 empty sub-slots");
        // Each slot holds up to 3 such write-0s, so they spread across 3 slots.
        assert!(a.peak_current() <= 128);
    }

    #[test]
    fn overflow_subunits_appended_when_slack_exhausted() {
        // Budget 32: one unit with 31 SETs fills the write unit almost
        // completely; 8 units of 10 RESETs (20 current) each need overflow.
        let cfg = cfg_with_budget(32);
        let d = demand(&[
            (31, 10),
            (0, 10),
            (0, 10),
            (0, 10),
            (0, 10),
            (0, 10),
            (0, 10),
            (0, 10),
        ]);
        let a = analyze(&d, &cfg).unwrap();
        a.validate(&d).unwrap();
        assert_eq!(a.result, 1);
        assert!(
            a.subresult >= 8,
            "no slack inside the write unit: {}",
            a.subresult
        );
        assert!(a.write_units_equiv() > 1.0);
    }

    #[test]
    fn chunking_handles_demand_above_budget() {
        // Mobile X2-scale budget: 8 < one unit's 20 SETs → chunked serially.
        let cfg = cfg_with_budget(8);
        let d = demand(&[(20, 6), (1, 0)]);
        let a = analyze(&d, &cfg).unwrap();
        a.validate(&d).unwrap();
        // 20 SETs in chunks of 8: 8+8+4 → 3 write units (the 4-chunk shares
        // with the 1-SET unit).
        assert!(a.result >= 3);
        assert!(a.peak_current() <= 8);
    }

    #[test]
    fn sorting_ablation_changes_packing() {
        // Decreasing-order packing fits loads {9,8,7,4,4} + {3,1} into two
        // 16-budget units; insertion order wastes space.
        let cfg = cfg_with_budget(16);
        let d = demand(&[
            (9, 0),
            (3, 0),
            (8, 0),
            (1, 0),
            (7, 0),
            (4, 0),
            (4, 0),
            (0, 0),
        ]);
        let sorted = analyze(&d, &cfg).unwrap();
        let mut cfg_nosort = cfg;
        cfg_nosort.sort_decreasing = false;
        let unsorted = analyze(&d, &cfg_nosort).unwrap();
        sorted.validate(&d).unwrap();
        unsorted.validate(&d).unwrap();
        assert!(
            sorted.result <= unsorted.result,
            "FFD never packs worse than FF ({} vs {})",
            sorted.result,
            unsorted.result
        );
    }

    #[test]
    fn steal_ablation_forces_overflow() {
        let cfg = TetrisConfig::paper_baseline();
        let d = demand(&[(7, 3); 8]);
        let mut cfg_nosteal = cfg;
        cfg_nosteal.steal_write0_slack = false;
        let no_steal = analyze(&d, &cfg_nosteal).unwrap();
        no_steal.validate(&d).unwrap();
        let steal = analyze(&d, &cfg).unwrap();
        assert!(no_steal.write_units_equiv() > steal.write_units_equiv());
    }

    #[test]
    fn queues_partition_placements() {
        let cfg = TetrisConfig::paper_baseline();
        let d = demand(&[
            (5, 2),
            (3, 1),
            (0, 4),
            (6, 0),
            (0, 0),
            (1, 1),
            (2, 2),
            (4, 4),
        ]);
        let a = analyze(&d, &cfg).unwrap();
        let q1 = a.write1_queue().count();
        let q0 = a.write0_queue().count();
        assert_eq!(q1 + q0, a.placements.len());
        assert_eq!(q1, 6, "six units have SETs");
        assert_eq!(q0, 6, "six units have RESETs");
    }

    #[test]
    fn spilled_timeline_matches_oracle() {
        // Budget 8: each unit's 40 SETs take five full write units, so 40
        // write units (320 sub-slots) outgrow both inline buffers.
        let cfg = cfg_with_budget(8);
        let d = demand(&[(40, 40); 8]);
        let got = analyze(&d, &cfg).unwrap();
        let want = analyze_oracle(&d, &cfg).unwrap();
        assert!(got.slot_usage.len() > INLINE_SLOTS);
        assert!(got.result as usize > INLINE_WRITE_UNITS);
        assert_eq!(got.placements, want.placements);
        assert_eq!(got.slot_usage, want.slot_usage);
        assert_eq!(pack_counts(&d, &cfg).unwrap(), want.counts());
    }

    #[test]
    fn rejects_budget_below_one_reset() {
        let mut cfg = TetrisConfig::paper_baseline();
        cfg.scheme.power.budget_per_bank = 1; // < L = 2
        let d = demand(&[(1, 1)]);
        assert!(analyze(&d, &cfg).is_err());
    }

    #[test]
    fn validate_catches_tampered_schedules() {
        let cfg = TetrisConfig::paper_baseline();
        let d = demand(&[(5, 2); 8]);
        let a = analyze(&d, &cfg).unwrap();

        let mut missing = a.clone();
        missing.placements.pop();
        assert!(missing.validate(&d).is_err(), "missing placement detected");

        let mut misaligned = a.clone();
        for p in &mut misaligned.placements {
            if p.phase == PulsePhase::Write1 {
                p.start_slot += 1;
                break;
            }
        }
        assert!(misaligned.validate(&d).is_err(), "misalignment detected");

        let mut foreign = a.clone();
        foreign.placements[0].unit = d.len();
        assert!(foreign.validate(&d).is_err(), "unit outside the line");
    }

    propcheck! {
        /// The shared packer places exactly what the reference packer
        /// places — same counts, same placements in the same order, same
        /// slot usage — and its count-only run agrees. Demands reach 64
        /// bits per unit and budgets fall to 2, so many timelines overflow
        /// the inline buffers onto the heap.
        fn packer_matches_oracle(
            units in vec_of((0u32..=64, 0u32..=64), 1..=16),
            budget in one_of(&[128u32, 64, 32, 16, 8, 2]),
            knobs in 0u32..8,
        ) {
            let mut cfg = cfg_with_budget(budget);
            cfg.sort_decreasing = knobs & 1 != 0;
            cfg.steal_write0_slack = knobs & 2 != 0;
            cfg.min_one_write_unit = knobs & 4 != 0;
            let d = demand(&units);
            let got = analyze(&d, &cfg).unwrap();
            let want = analyze_oracle(&d, &cfg).unwrap();
            prop_assert_eq!(got.result, want.result);
            prop_assert_eq!(got.subresult, want.subresult);
            prop_assert_eq!(&got.placements, &want.placements);
            prop_assert_eq!(&got.slot_usage, &want.slot_usage);
            prop_assert_eq!(pack_counts(&d, &cfg).unwrap(), got.counts());
        }

        /// Any demand with per-unit totals within the flip bound yields a
        /// valid schedule whose peak respects the budget.
        fn analysis_always_valid(
            units in vec_of((0u32..=33, 0u32..=33), 1..=8),
            budget in one_of(&[128u32, 64, 32, 16]),
            sort in any_bool(),
            steal in any_bool(),
        ) {
            let mut cfg = cfg_with_budget(budget);
            cfg.sort_decreasing = sort;
            cfg.steal_write0_slack = steal;
            let d = demand(&units);
            let a = analyze(&d, &cfg).unwrap();
            prop_assert!(a.validate(&d).is_ok());
            prop_assert!(a.peak_current() <= budget);
            // Eq. 5 consistency.
            let t = a.write_time(cfg.scheme.timings.t_set);
            let expect = cfg.scheme.timings.t_set * a.result as u64
                + (cfg.scheme.timings.t_set / 8) * a.subresult as u64;
            prop_assert_eq!(t, expect);
        }

        /// FFD with slack stealing never does worse than the per-unit
        /// serial lower bound and never better than physics allows.
        fn write_units_bounded(
            units in vec_of((0u32..=33, 0u32..=33), 8),
        ) {
            let cfg = TetrisConfig::paper_baseline();
            let d = demand(&units);
            let a = analyze(&d, &cfg).unwrap();
            // Lower bound: total SET current / budget write units.
            let total1: u32 = d.units().iter().map(|u| u.sets).sum();
            let lb = (total1 as f64 / 128.0).ceil().max(1.0);
            prop_assert!(a.result as f64 >= lb);
            // Upper bound: one write unit per SET-bearing unit plus one
            // sub-unit per RESET-bearing unit.
            let ub = d.units_with_sets().max(1) + d.units_with_resets();
            prop_assert!(a.write_units_equiv() <= ub as f64);
        }
    }
}
