//! The PCM main memory: a sparse 4 GB backing store whose every line write
//! is planned by a pluggable [`WriteScheme`].
//!
//! Each touched line stores its array bits, flip-tag mask and wear counter.
//! Untouched lines read as zero (freshly manufactured cells are amorphous).
//!
//! The store is one `LineTable`: an open-addressed index from line
//! number to a dense slot number, and per-slot columns for the line's words,
//! flip tag and wear. A write probes the index once (get-or-insert), then
//! reads the old line and stores the new one in place. The word column
//! holds `cache_line_bytes / 8` words per slot, not a [`LineData`], which
//! reserves [`pcm_types::MAX_LINE_BYTES`] whatever the configured width: a
//! resident 64 B line costs 76 B of columns plus 16 B index entries at no
//! more than 3/4 load, instead of a 264 B `LineData` and its tag and wear.

use pcm_schemes::{PackStats, SchemeConfig, WriteCtx, WritePlan, WriteScheme};
use pcm_types::{
    coset_decode_unit, coset_row, coset_rows_available, AddrMap, LineData, PcmError, PhysAddr,
    PicoJoules, Ps,
};

/// Index key of a free entry. Line indices stay below `total_lines()`,
/// so no line reaches it.
const EMPTY: u64 = u64::MAX;

/// The resident lines of one memory.
///
/// `index` maps a line number to its slot with linear probing under a
/// Fibonacci-multiply hash, and doubles at 3/4 load. The columns are
/// indexed by slot and only ever append, so a slot number stays valid
/// while the index grows. Nothing is allocated before the first insert.
struct LineTable {
    /// Words per line (`cache_line_bytes / 8`).
    width: usize,
    /// `(line, slot)` entries, `line == EMPTY` when free; empty or a
    /// power of two long.
    index: Vec<(u64, u32)>,
    /// `64 - log2(index.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Stored array bits, `width` words per slot.
    words: Vec<u64>,
    /// Flip-tag mask per slot.
    flips: Vec<u32>,
    /// Programming pulses absorbed per slot.
    wear: Vec<u64>,
}

impl LineTable {
    fn new(width: usize) -> Self {
        LineTable {
            width,
            index: Vec::new(),
            shift: 64,
            words: Vec::new(),
            flips: Vec::new(),
            wear: Vec::new(),
        }
    }

    /// Resident lines.
    fn len(&self) -> usize {
        self.flips.len()
    }

    /// The index entry holding `line`, or the free entry where it belongs.
    fn probe(&self, line: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut i = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.index[i].0 != line && self.index[i].0 != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// The slot of `line`, if resident.
    fn get(&self, line: u64) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let (key, slot) = self.index[self.probe(line)];
        (key == line).then_some(slot as usize)
    }

    /// The slot of `line`, appending an all-zero slot (untouched cells)
    /// when it is not resident yet.
    fn get_or_insert(&mut self, line: u64) -> Result<usize, PcmError> {
        debug_assert_ne!(line, EMPTY, "line index collides with the free key");
        if let Some(slot) = self.get(line) {
            return Ok(slot);
        }
        let slot = self.len();
        let tag = u32::try_from(slot)
            .map_err(|_| PcmError::config("backing store holds at most u32::MAX lines"))?;
        if (slot + 1) * 4 > self.index.len() * 3 {
            self.grow();
        }
        let i = self.probe(line);
        self.index[i] = (line, tag);
        self.words.resize(self.words.len() + self.width, 0);
        self.flips.push(0);
        self.wear.push(0);
        Ok(slot)
    }

    /// Double the index (16 entries on first use) and re-place every entry.
    fn grow(&mut self) {
        let len = (self.index.len() * 2).max(16);
        let old = std::mem::replace(&mut self.index, vec![(EMPTY, 0); len]);
        self.shift = 64 - len.trailing_zeros();
        for (line, slot) in old {
            if line != EMPTY {
                let i = self.probe(line);
                self.index[i] = (line, slot);
            }
        }
    }

    /// The stored words of `slot`.
    fn line(&self, slot: usize) -> &[u64] {
        &self.words[slot * self.width..(slot + 1) * self.width]
    }

    /// Stored contents of `slot` as a line.
    fn stored(&self, slot: usize) -> LineData {
        LineData::from_units(self.line(slot))
    }

    /// Overwrite `slot` with a plan's stored bits and tag; charge `pulses`.
    fn store(&mut self, slot: usize, data: &LineData, flips: u32, pulses: u64) {
        debug_assert_eq!(data.num_units(), self.width, "stored line width");
        let w = self.width;
        for (dst, unit) in self.words[slot * w..(slot + 1) * w]
            .iter_mut()
            .zip(data.units())
        {
            *dst = unit;
        }
        self.flips[slot] = flips;
        self.wear[slot] += pulses;
    }
}

/// Outcome of one serviced line write.
#[derive(Clone, Copy, Debug)]
pub struct WriteOutcome {
    /// Bank service time for this write.
    pub service_time: Ps,
    /// Energy consumed.
    pub energy: PicoJoules,
    /// Write units consumed (Fig. 10 metric).
    pub write_units_equiv: f64,
    /// SET pulses delivered to cells.
    pub cell_sets: u32,
    /// RESET pulses delivered to cells.
    pub cell_resets: u32,
    /// Intra-bank partitions the write drove concurrently (0 for schemes
    /// without a partition model).
    pub partitions_used: u32,
    /// Coset row the stored encoding landed on, for flip-bit schemes on
    /// lines with spare tag bits (`None` otherwise). Row 0 is plain
    /// Flip-N-Write inversion; WIRE spreads across rows 0–3.
    pub coset_row: Option<u32>,
}

/// Outcome of one batched write service.
#[derive(Clone, Copy, Debug)]
pub struct BatchOutcome {
    /// Total bank-busy time for the whole batch.
    pub service_time: Ps,
    /// Packing quality, when the scheme reports it (batched Tetris plans).
    pub pack: Option<PackStats>,
    /// Most intra-bank partitions any write in the batch drove (0 for
    /// schemes without a partition model).
    pub partitions_used: u32,
    /// How many lines of the batch landed on each coset row (all zero for
    /// schemes without flip bits or lines without spare tag bits).
    pub coset_rows: [u32; 4],
}

/// Aggregate memory statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryStats {
    /// Serviced line writes.
    pub writes: u64,
    /// Serviced line reads.
    pub reads: u64,
    /// Sum of write-unit counts (for the Fig. 10 average).
    pub write_units_sum: f64,
    /// Total energy.
    pub energy: PicoJoules,
    /// Total SET pulses.
    pub cell_sets: u64,
    /// Total RESET pulses.
    pub cell_resets: u64,
}

/// The PCM main memory.
///
/// Resident lines live in one line-width table (see the module docs); a
/// fresh memory allocates nothing for them until its first write.
///
/// ```
/// use pcm_memsim::PcmMainMemory;
/// use pcm_schemes::{DcwWrite, SchemeConfig};
/// use pcm_types::LineData;
///
/// let mut mem = PcmMainMemory::new(
///     SchemeConfig::paper_baseline(), Box::new(DcwWrite)).unwrap();
/// let line = LineData::from_units(&[42; 8]);
/// let outcome = mem.write_line(0x40, &line).unwrap();
/// assert!(outcome.service_time > pcm_types::Ps::ZERO);
/// assert_eq!(mem.read_line(0x40).unwrap(), line);
/// ```
pub struct PcmMainMemory {
    map: AddrMap,
    cfg: SchemeConfig,
    scheme: Box<dyn WriteScheme>,
    lines: LineTable,
    stats: MemoryStats,
}

impl PcmMainMemory {
    /// A memory of `cfg.org` geometry written through `scheme`.
    pub fn new(cfg: SchemeConfig, scheme: Box<dyn WriteScheme>) -> Result<Self, PcmError> {
        cfg.validate()?;
        Ok(PcmMainMemory {
            map: AddrMap::with_default_rows(cfg.org)?,
            lines: LineTable::new(cfg.org.cache_line_bytes as usize / 8),
            cfg,
            scheme,
            stats: MemoryStats::default(),
        })
    }

    /// The address map in use.
    pub fn addr_map(&self) -> &AddrMap {
        &self.map
    }

    /// The scheme's display name.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.name()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Line size in bytes.
    fn line_len(&self) -> usize {
        self.cfg.org.cache_line_bytes as usize
    }

    /// Logical contents of the line containing `addr` (without counting a
    /// device read — used by content synthesis and tests).
    pub fn peek_line(&self, addr: PhysAddr) -> Result<LineData, PcmError> {
        let d = self.map.decode(addr)?;
        let mut out = LineData::zeroed(self.line_len());
        if let Some(slot) = self.lines.get(d.line) {
            let (stored, flips) = (self.lines.line(slot), self.lines.flips[slot]);
            let n = stored.len();
            for (i, &unit) in stored.iter().enumerate() {
                out.set_unit(i, coset_decode_unit(unit, flips, i, n));
            }
        }
        Ok(out)
    }

    /// Service a line read.
    pub fn read_line(&mut self, addr: PhysAddr) -> Result<LineData, PcmError> {
        let line = self.peek_line(addr)?;
        self.stats.reads += 1;
        Ok(line)
    }

    /// Count one serviced line read whose contents the caller does not
    /// need (the controller's read path models timing only).
    pub fn count_read(&mut self) {
        self.stats.reads += 1;
    }

    /// Service a line write with the configured scheme; returns its cost.
    pub fn write_line(&mut self, addr: PhysAddr, new: &LineData) -> Result<WriteOutcome, PcmError> {
        if new.len() != self.line_len() {
            return Err(PcmError::LineSizeMismatch {
                expected: self.line_len(),
                actual: new.len(),
            });
        }
        let d = self.map.decode(addr)?;
        let slot = self.lines.get_or_insert(d.line)?;
        let old_stored = self.lines.stored(slot);
        let ctx = WriteCtx {
            old_stored: &old_stored,
            old_flips: self.lines.flips[slot],
            new_logical: new,
            cfg: &self.cfg,
        };
        let plan: WritePlan = self.scheme.plan(&ctx);
        debug_assert!(
            plan.check_decodes_to(new).is_ok(),
            "scheme broke the decode invariant"
        );

        let changed = (plan.cell_sets + plan.cell_resets) as u64;
        self.lines.store(slot, &plan.stored, plan.flips, changed);
        self.stats.writes += 1;
        self.stats.write_units_sum += plan.write_units_equiv;
        self.stats.energy += plan.energy;
        self.stats.cell_sets += plan.cell_sets as u64;
        self.stats.cell_resets += plan.cell_resets as u64;
        Ok(WriteOutcome {
            service_time: plan.service_time,
            energy: plan.energy,
            write_units_equiv: plan.write_units_equiv,
            cell_sets: plan.cell_sets,
            cell_resets: plan.cell_resets,
            partitions_used: plan.partitions_used,
            coset_row: self.plan_coset_row(&plan),
        })
    }

    /// The coset row a plan's tag word selects, when the scheme stores
    /// flip bits and the line has spare tag bits for a row field.
    fn plan_coset_row(&self, plan: &WritePlan) -> Option<u32> {
        if self.scheme.uses_flip_bits() && coset_rows_available(plan.stored.num_units()) {
            Some(coset_row(plan.flips) as u32)
        } else {
            None
        }
    }

    /// Service several line writes as one batched operation (shared bank
    /// occupancy). Falls back to serial service when the scheme has no
    /// batched mode. Returns the total bank-busy time and, for schemes
    /// that report it, the batch's packing quality.
    pub fn write_lines_batch(
        &mut self,
        writes: &[(PhysAddr, LineData)],
    ) -> Result<BatchOutcome, PcmError> {
        if writes.len() == 1 {
            let one = self.write_line(writes[0].0, &writes[0].1)?;
            let mut coset_rows = [0u32; 4];
            if let Some(r) = one.coset_row {
                coset_rows[r as usize] += 1;
            }
            return Ok(BatchOutcome {
                service_time: one.service_time,
                pack: None,
                partitions_used: one.partitions_used,
                coset_rows,
            });
        }
        // Gather the old state of every line up front (ctxs borrow it).
        let mut lines = Vec::with_capacity(writes.len());
        let mut olds = Vec::with_capacity(writes.len());
        for (addr, new) in writes {
            if new.len() != self.line_len() {
                return Err(PcmError::LineSizeMismatch {
                    expected: self.line_len(),
                    actual: new.len(),
                });
            }
            let d = self.map.decode(*addr)?;
            let (stored, flips) = match self.lines.get(d.line) {
                None => (LineData::zeroed(self.line_len()), 0),
                Some(slot) => (self.lines.stored(slot), self.lines.flips[slot]),
            };
            lines.push(d.line);
            olds.push((stored, flips));
        }
        let ctxs: Vec<WriteCtx<'_>> = writes
            .iter()
            .zip(&olds)
            .map(|((_, new), (stored, flips))| WriteCtx {
                old_stored: stored,
                old_flips: *flips,
                new_logical: new,
                cfg: &self.cfg,
            })
            .collect();
        match self.scheme.plan_batched(&ctxs) {
            Some(batch) => {
                let mut partitions_used = 0;
                let mut coset_rows = [0u32; 4];
                for ((plan, line), (_, new)) in batch.plans.iter().zip(&lines).zip(writes) {
                    debug_assert!(plan.check_decodes_to(new).is_ok());
                    partitions_used = partitions_used.max(plan.partitions_used);
                    if let Some(r) = self.plan_coset_row(plan) {
                        coset_rows[r as usize] += 1;
                    }
                    let changed = (plan.cell_sets + plan.cell_resets) as u64;
                    let slot = self.lines.get_or_insert(*line)?;
                    self.lines.store(slot, &plan.stored, plan.flips, changed);
                    self.stats.writes += 1;
                    self.stats.write_units_sum += plan.write_units_equiv;
                    self.stats.energy += plan.energy;
                    self.stats.cell_sets += plan.cell_sets as u64;
                    self.stats.cell_resets += plan.cell_resets as u64;
                }
                Ok(BatchOutcome {
                    service_time: batch.service_time,
                    pack: batch.pack,
                    partitions_used,
                    coset_rows,
                })
            }
            None => {
                // Serial fallback: sum of individual services.
                let mut total = Ps::ZERO;
                let mut partitions_used = 0;
                let mut coset_rows = [0u32; 4];
                for (addr, new) in writes {
                    let one = self.write_line(*addr, new)?;
                    total += one.service_time;
                    partitions_used = partitions_used.max(one.partitions_used);
                    if let Some(r) = one.coset_row {
                        coset_rows[r as usize] += 1;
                    }
                }
                Ok(BatchOutcome {
                    service_time: total,
                    pack: None,
                    partitions_used,
                    coset_rows,
                })
            }
        }
    }

    /// Wear (total programming pulses) of the line containing `addr`.
    pub fn line_wear(&self, addr: PhysAddr) -> Result<u64, PcmError> {
        let d = self.map.decode(addr)?;
        Ok(self
            .lines
            .get(d.line)
            .map_or(0, |slot| self.lines.wear[slot]))
    }

    /// Highest wear across touched lines.
    pub fn max_line_wear(&self) -> u64 {
        self.lines.wear.iter().copied().max().unwrap_or(0)
    }

    /// Number of lines written so far.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// Mean write units per serviced write (Fig. 10).
    pub fn avg_write_units(&self) -> f64 {
        if self.stats.writes == 0 {
            0.0
        } else {
            self.stats.write_units_sum / self.stats.writes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_schemes::{DcwWrite, FlipNWrite, WireWrite};
    use pcm_types::propcheck::{any_u64, one_of, vec_of};
    use pcm_types::rng::SplitMix64;
    use pcm_types::{prop_assert, prop_assert_eq, propcheck};
    use tetris_write::{TetrisConfig, TetrisWrite};

    fn mem(scheme: Box<dyn WriteScheme>) -> PcmMainMemory {
        PcmMainMemory::new(SchemeConfig::paper_baseline(), scheme).unwrap()
    }

    /// The store before the line table: two SipHash maps keyed by line, one full-capacity `LineData` per resident line. Kept as the
    /// reference model the table is checked against; only the two map
    /// fields are renamed, so the name-based `no-unordered-iteration` lint
    /// does not take the table's `wear` column for a hash map.
    mod oracle {
        use super::*;
        use std::collections::HashMap;

        #[derive(Clone, Debug)]
        struct StoredLine {
            data: LineData,
            flips: u32,
        }

        pub(super) struct HashMapMemory {
            map: AddrMap,
            cfg: SchemeConfig,
            scheme: Box<dyn WriteScheme>,
            line_map: HashMap<u64, StoredLine>,
            wear_map: HashMap<u64, u64>,
            pub(super) stats: MemoryStats,
        }

        impl HashMapMemory {
            pub(super) fn new(cfg: SchemeConfig, scheme: Box<dyn WriteScheme>) -> Self {
                HashMapMemory {
                    map: AddrMap::with_default_rows(cfg.org).unwrap(),
                    cfg,
                    scheme,
                    line_map: HashMap::new(),
                    wear_map: HashMap::new(),
                    stats: MemoryStats::default(),
                }
            }

            fn line_len(&self) -> usize {
                self.cfg.org.cache_line_bytes as usize
            }

            pub(super) fn peek_line(&self, addr: PhysAddr) -> Result<LineData, PcmError> {
                let d = self.map.decode(addr)?;
                Ok(match self.line_map.get(&d.line) {
                    None => LineData::zeroed(self.line_len()),
                    Some(s) => {
                        let mut out = s.data;
                        let n = out.num_units();
                        for i in 0..n {
                            out.set_unit(i, coset_decode_unit(s.data.unit(i), s.flips, i, n));
                        }
                        out
                    }
                })
            }

            pub(super) fn read_line(&mut self, addr: PhysAddr) -> Result<LineData, PcmError> {
                let line = self.peek_line(addr)?;
                self.stats.reads += 1;
                Ok(line)
            }

            pub(super) fn write_line(
                &mut self,
                addr: PhysAddr,
                new: &LineData,
            ) -> Result<WriteOutcome, PcmError> {
                let d = self.map.decode(addr)?;
                let (old_stored, old_flips) = match self.line_map.get(&d.line) {
                    None => (LineData::zeroed(self.line_len()), 0),
                    Some(s) => (s.data, s.flips),
                };
                let ctx = WriteCtx {
                    old_stored: &old_stored,
                    old_flips,
                    new_logical: new,
                    cfg: &self.cfg,
                };
                let plan = self.scheme.plan(&ctx);
                let changed = (plan.cell_sets + plan.cell_resets) as u64;
                self.line_map.insert(
                    d.line,
                    StoredLine {
                        data: plan.stored,
                        flips: plan.flips,
                    },
                );
                *self.wear_map.entry(d.line).or_insert(0) += changed;
                self.stats.writes += 1;
                self.stats.write_units_sum += plan.write_units_equiv;
                self.stats.energy += plan.energy;
                self.stats.cell_sets += plan.cell_sets as u64;
                self.stats.cell_resets += plan.cell_resets as u64;
                Ok(WriteOutcome {
                    service_time: plan.service_time,
                    energy: plan.energy,
                    write_units_equiv: plan.write_units_equiv,
                    cell_sets: plan.cell_sets,
                    cell_resets: plan.cell_resets,
                    partitions_used: plan.partitions_used,
                    coset_row: self.plan_coset_row(&plan),
                })
            }

            fn plan_coset_row(&self, plan: &WritePlan) -> Option<u32> {
                if self.scheme.uses_flip_bits() && coset_rows_available(plan.stored.num_units()) {
                    Some(coset_row(plan.flips) as u32)
                } else {
                    None
                }
            }

            pub(super) fn write_lines_batch(
                &mut self,
                writes: &[(PhysAddr, LineData)],
            ) -> Result<BatchOutcome, PcmError> {
                if writes.len() == 1 {
                    let one = self.write_line(writes[0].0, &writes[0].1)?;
                    let mut coset_rows = [0u32; 4];
                    if let Some(r) = one.coset_row {
                        coset_rows[r as usize] += 1;
                    }
                    return Ok(BatchOutcome {
                        service_time: one.service_time,
                        pack: None,
                        partitions_used: one.partitions_used,
                        coset_rows,
                    });
                }
                let mut lines = Vec::with_capacity(writes.len());
                let mut olds = Vec::with_capacity(writes.len());
                for (addr, _) in writes {
                    let d = self.map.decode(*addr)?;
                    let (stored, flips) = match self.line_map.get(&d.line) {
                        None => (LineData::zeroed(self.line_len()), 0),
                        Some(s) => (s.data, s.flips),
                    };
                    lines.push(d.line);
                    olds.push((stored, flips));
                }
                let ctxs: Vec<WriteCtx<'_>> = writes
                    .iter()
                    .zip(&olds)
                    .map(|((_, new), (stored, flips))| WriteCtx {
                        old_stored: stored,
                        old_flips: *flips,
                        new_logical: new,
                        cfg: &self.cfg,
                    })
                    .collect();
                match self.scheme.plan_batched(&ctxs) {
                    Some(batch) => {
                        let mut partitions_used = 0;
                        let mut coset_rows = [0u32; 4];
                        for (plan, line) in batch.plans.iter().zip(&lines) {
                            partitions_used = partitions_used.max(plan.partitions_used);
                            if let Some(r) = self.plan_coset_row(plan) {
                                coset_rows[r as usize] += 1;
                            }
                            let changed = (plan.cell_sets + plan.cell_resets) as u64;
                            self.line_map.insert(
                                *line,
                                StoredLine {
                                    data: plan.stored,
                                    flips: plan.flips,
                                },
                            );
                            *self.wear_map.entry(*line).or_insert(0) += changed;
                            self.stats.writes += 1;
                            self.stats.write_units_sum += plan.write_units_equiv;
                            self.stats.energy += plan.energy;
                            self.stats.cell_sets += plan.cell_sets as u64;
                            self.stats.cell_resets += plan.cell_resets as u64;
                        }
                        Ok(BatchOutcome {
                            service_time: batch.service_time,
                            pack: batch.pack,
                            partitions_used,
                            coset_rows,
                        })
                    }
                    None => {
                        let mut total = Ps::ZERO;
                        let mut partitions_used = 0;
                        let mut coset_rows = [0u32; 4];
                        for (addr, new) in writes {
                            let one = self.write_line(*addr, new)?;
                            total += one.service_time;
                            partitions_used = partitions_used.max(one.partitions_used);
                            if let Some(r) = one.coset_row {
                                coset_rows[r as usize] += 1;
                            }
                        }
                        Ok(BatchOutcome {
                            service_time: total,
                            pack: None,
                            partitions_used,
                            coset_rows,
                        })
                    }
                }
            }

            pub(super) fn line_wear(&self, addr: PhysAddr) -> Result<u64, PcmError> {
                let d = self.map.decode(addr)?;
                Ok(self.wear_map.get(&d.line).copied().unwrap_or(0))
            }

            pub(super) fn max_line_wear(&self) -> u64 {
                self.wear_map.values().copied().max().unwrap_or(0)
            }

            pub(super) fn resident_lines(&self) -> usize {
                self.line_map.len()
            }
        }
    }

    /// Logical lines of the differential test's memories.
    const DIFF_LINES: u64 = 512;

    /// Line `seed` writes over `old`: dense random, sparse random, or a
    /// few bits flipped in place (the differential-write common case).
    fn synth_line(seed: u64, old: &LineData) -> LineData {
        let mut rng = SplitMix64::new(seed);
        let mut out = *old;
        for i in 0..out.num_units() {
            let r = rng.next_u64();
            out.set_unit(
                i,
                match seed % 3 {
                    0 => r,
                    1 => r & rng.next_u64() & rng.next_u64(),
                    _ => old.unit(i) ^ (r & rng.next_u64() & rng.next_u64() & rng.next_u64()),
                },
            );
        }
        out
    }

    /// The same scheme twice: one for the table, one for the oracle.
    fn scheme_pair(which: usize, cfg: SchemeConfig) -> [Box<dyn WriteScheme>; 2] {
        let make = || -> Box<dyn WriteScheme> {
            match which {
                0 => Box::new(DcwWrite),
                1 => Box::new(FlipNWrite),
                2 => Box::new(WireWrite),
                _ => Box::new(TetrisWrite::new(TetrisConfig {
                    scheme: cfg,
                    ..TetrisConfig::paper_baseline()
                })),
            }
        };
        [make(), make()]
    }

    propcheck! {
        cases = 48;
        /// Random op sequences give the same outcomes, contents, wear and
        /// stats on the line table as on the two-map store it replaced,
        /// across line widths and schemes (Tetris batches through
        /// `plan_batched`, DCW through the serial fallback).
        fn line_table_matches_hashmap_store(
            line_bytes in one_of(&[64u32, 128, 256]),
            which in 0usize..4,
            ops in vec_of((0u8..7, 0u64..DIFF_LINES, any_u64()), 150..=400),
        ) {
            let mut cfg = SchemeConfig::paper_baseline();
            cfg.org.cache_line_bytes = line_bytes;
            cfg.org.capacity_bytes = DIFF_LINES * line_bytes as u64;
            let [a, b] = scheme_pair(which, cfg);
            let mut table = PcmMainMemory::new(cfg, a).unwrap();
            let mut maps = oracle::HashMapMemory::new(cfg, b);
            let addr = |line: u64| line * line_bytes as u64;
            for &(op, line, seed) in &ops {
                match op {
                    0..=2 => {
                        let new = synth_line(seed, &maps.peek_line(addr(line)).unwrap());
                        let got = table.write_line(addr(line), &new).unwrap();
                        let want = maps.write_line(addr(line), &new).unwrap();
                        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                    }
                    3 => {
                        let batch: Vec<(PhysAddr, LineData)> = (0..2 + seed % 3)
                            .map(|k| {
                                let at = addr((line + k * 7) % DIFF_LINES);
                                (at, synth_line(seed ^ k, &maps.peek_line(at).unwrap()))
                            })
                            .collect();
                        let got = table.write_lines_batch(&batch).unwrap();
                        let want = maps.write_lines_batch(&batch).unwrap();
                        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                    }
                    4 => prop_assert_eq!(
                        table.peek_line(addr(line)).unwrap(),
                        maps.peek_line(addr(line)).unwrap()
                    ),
                    5 => prop_assert_eq!(
                        table.read_line(addr(line)).unwrap(),
                        maps.read_line(addr(line)).unwrap()
                    ),
                    _ => prop_assert_eq!(
                        table.line_wear(addr(line)).unwrap(),
                        maps.line_wear(addr(line)).unwrap()
                    ),
                }
            }
            for line in 0..DIFF_LINES {
                prop_assert_eq!(
                    table.peek_line(addr(line)).unwrap(),
                    maps.peek_line(addr(line)).unwrap()
                );
                prop_assert_eq!(
                    table.line_wear(addr(line)).unwrap(),
                    maps.line_wear(addr(line)).unwrap()
                );
            }
            prop_assert_eq!(table.max_line_wear(), maps.max_line_wear());
            prop_assert_eq!(table.resident_lines(), maps.resident_lines());
            prop_assert_eq!(format!("{:?}", table.stats()), format!("{:?}", maps.stats));
            // Past three doublings of the 16-entry first index.
            prop_assert!(table.resident_lines() > 48 && table.lines.index.len() >= 128);
        }
    }

    #[test]
    fn fresh_memory_allocates_no_table() {
        let m = mem(Box::new(DcwWrite));
        let t = &m.lines;
        assert_eq!(
            [
                t.index.capacity(),
                t.words.capacity(),
                t.flips.capacity(),
                t.wear.capacity()
            ],
            [0; 4]
        );
        assert_eq!(m.max_line_wear(), 0);
        assert_eq!(m.line_wear(0x40).unwrap(), 0);
    }

    #[test]
    fn table_slots_survive_index_growth() {
        let mut t = LineTable::new(4);
        // Sequential, strided and top-of-range keys, interleaved.
        let key = |i: u64| match i % 3 {
            0 => i,
            1 => i << 20,
            _ => u64::MAX - 1 - i,
        };
        for i in 0..1_000u64 {
            assert_eq!(t.get_or_insert(key(i)).unwrap(), i as usize, "slots append");
            t.words[i as usize * 4] = i;
            assert!(t.len() * 4 <= t.index.len() * 3, "load stays at most 3/4");
        }
        assert_eq!(t.index.len(), 2_048);
        for i in 0..1_000u64 {
            assert_eq!(t.get(key(i)), Some(i as usize));
            assert_eq!(
                t.get_or_insert(key(i)).unwrap(),
                i as usize,
                "hit keeps the slot"
            );
            assert_eq!(t.line(i as usize)[0], i, "columns follow the slot");
        }
        assert_eq!(t.len(), 1_000);
        assert_eq!(t.get(3_000), None);
        assert_eq!(
            t.words.len(),
            4_000,
            "four words per line, not a full LineData"
        );
    }

    #[test]
    fn fresh_memory_reads_zero() {
        let mut m = mem(Box::new(DcwWrite));
        let l = m.read_line(0x1000).unwrap();
        assert_eq!(l.popcount(), 0);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn write_then_read_roundtrip_dcw() {
        let mut m = mem(Box::new(DcwWrite));
        let line = LineData::from_units(&[0xDEAD, 0xBEEF, 1, 2, 3, 4, 5, u64::MAX]);
        let out = m.write_line(0x40, &line).unwrap();
        assert!(out.service_time > Ps::ZERO);
        assert_eq!(m.read_line(0x40).unwrap(), line);
        assert_eq!(m.resident_lines(), 1);
    }

    #[test]
    fn write_then_read_roundtrip_with_flip_schemes() {
        for scheme in [
            Box::new(FlipNWrite) as Box<dyn WriteScheme>,
            Box::new(TetrisWrite::paper_baseline()),
        ] {
            let mut m = mem(scheme);
            // Dense line forces inversions.
            let line = LineData::from_units(&[u64::MAX; 8]);
            m.write_line(0x80, &line).unwrap();
            assert_eq!(m.read_line(0x80).unwrap(), line);
            // Overwrite with sparse data (forces un-flip decisions).
            let line2 = LineData::from_units(&[1; 8]);
            m.write_line(0x80, &line2).unwrap();
            assert_eq!(m.read_line(0x80).unwrap(), line2);
        }
    }

    #[test]
    fn wear_accumulates_with_changed_bits() {
        let mut m = mem(Box::new(DcwWrite));
        let mut line = LineData::zeroed(64);
        line.set_unit(0, 0b11);
        m.write_line(0, &line).unwrap();
        assert_eq!(m.line_wear(0).unwrap(), 2);
        m.write_line(0, &line).unwrap();
        assert_eq!(m.line_wear(0).unwrap(), 2, "identical rewrite adds no wear");
    }

    #[test]
    fn stats_track_write_units() {
        let mut m = mem(Box::new(DcwWrite));
        let line = LineData::from_units(&[1; 8]);
        m.write_line(0, &line).unwrap();
        m.write_line(64, &line).unwrap();
        assert_eq!(m.stats().writes, 2);
        assert_eq!(m.avg_write_units(), 8.0, "DCW always costs N/M units");
    }

    #[test]
    fn tetris_write_units_reflect_content() {
        let mut m = mem(Box::new(TetrisWrite::paper_baseline()));
        let mut line = LineData::zeroed(64);
        for i in 0..8 {
            line.set_unit(i, 0x7F); // 7 SETs per unit
        }
        m.write_line(0, &line).unwrap();
        assert_eq!(
            m.avg_write_units(),
            1.0,
            "56 SET-equivalents pack into one unit"
        );
    }

    #[test]
    fn wrong_line_size_rejected() {
        let mut m = mem(Box::new(DcwWrite));
        let line = LineData::zeroed(128);
        assert!(matches!(
            m.write_line(0, &line),
            Err(PcmError::LineSizeMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = mem(Box::new(DcwWrite));
        assert!(m.read_line(u64::MAX).is_err());
    }
}
