//! The hybrid DRAM write-cache tier: a buffer-pool-style frame table in
//! front of the PCM banks.
//!
//! A real PCM main memory sits behind a managed DRAM tier that absorbs
//! the write stream before it ever reaches the banks. The model here is
//! a database buffer pool scaled to cache lines: a **fixed budget of
//! frames** (one dirty line each, fully associative), **dirty-line
//! coalescing** (a write to a cached line merges in DRAM — the line will
//! drain to PCM once, no matter how many times it was rewritten), and a
//! **watermark-triggered background drain** that trickles victims into
//! the controller write queues while room exists. Which frame to give up
//! is the [`ReplacementPolicy`]'s decision — the same trait the demand
//! hierarchy uses, selected per cache by [`PolicySelect`].
//!
//! The tier is *engine-agnostic*: it never touches the event queue or
//! telemetry. [`crate::RankCore`] drives it (admission, read hits, the
//! watermark drain and the telemetry of each) for both [`crate::System`]
//! and `pcm-serve`'s engine; this module owns only the frame table.
//! `frames = 0` systems never construct a `WriteCache` at all — the
//! pipeline is bit-for-bit the paper's.
//!
//! [`PolicySelect`]: crate::replacement::PolicySelect

use crate::config::WriteCacheConfig;
use crate::replacement::ReplacementPolicy;
use pcm_types::{PcmError, PhysAddr};

/// One DRAM frame: a line-aligned dirty address, or empty.
#[derive(Clone, Copy, Debug, Default)]
struct Frame {
    valid: bool,
    line: PhysAddr,
}

/// Counters for hit/coalesce/drain accounting. Conservation invariant:
/// `admitted == drained` once the cache is flushed, and every trace write
/// is either `coalesced` or `admitted`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteCacheStats {
    /// Writes absorbed by an already-cached line (merged in DRAM).
    pub coalesced: u64,
    /// Writes that claimed a frame (first write to the line since it
    /// last drained).
    pub admitted: u64,
    /// Reads served from a cached dirty line at DRAM speed.
    pub read_hits: u64,
    /// Lines handed to the controller (watermark drains, capacity
    /// evictions and the final flush).
    pub drained: u64,
}

impl WriteCacheStats {
    /// Fraction of writes absorbed in DRAM, in `[0, 1]`.
    pub fn coalesce_ratio(&self) -> f64 {
        let total = self.coalesced + self.admitted;
        if total == 0 {
            0.0
        } else {
            self.coalesced as f64 / total as f64
        }
    }
}

impl std::ops::Add for WriteCacheStats {
    type Output = WriteCacheStats;

    /// Field-wise sum (combining several ranks' slices of the tier).
    fn add(self, o: WriteCacheStats) -> WriteCacheStats {
        WriteCacheStats {
            coalesced: self.coalesced + o.coalesced,
            admitted: self.admitted + o.admitted,
            read_hits: self.read_hits + o.read_hits,
            drained: self.drained + o.drained,
        }
    }
}

/// What [`WriteCache::write`] did with a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteAdmit {
    /// The line was already cached; the write merged into its frame.
    Coalesced,
    /// The line claimed a frame; if the budget was exhausted, `evicted`
    /// is the victim line the caller must enqueue at the controller.
    Admitted {
        /// Victim displaced to make room (`None` while frames are free).
        evicted: Option<PhysAddr>,
    },
}

/// The frame table. See the module docs for the model; see
/// [`crate::RankCore`] for the drain built on top.
#[derive(Clone, Debug)]
pub struct WriteCache {
    frames: Vec<Frame>,
    policy: Box<dyn ReplacementPolicy>,
    line_bytes: u64,
    drain_watermark: usize,
    occupancy: usize,
    stats: WriteCacheStats,
}

impl WriteCache {
    /// Build the tier from validated knobs and the system's line size.
    /// `cfg.frames` must be non-zero — a disabled tier is represented by
    /// *not constructing* a `WriteCache`.
    pub fn new(cfg: WriteCacheConfig, line_bytes: u32) -> Result<Self, PcmError> {
        cfg.validate()?;
        if cfg.frames == 0 {
            return Err(PcmError::config(
                "a disabled write cache (frames = 0) must not be constructed",
            ));
        }
        if line_bytes == 0 || !line_bytes.is_power_of_two() {
            return Err(PcmError::config("bad write-cache line size"));
        }
        Ok(WriteCache {
            frames: vec![Frame::default(); cfg.frames],
            // Fully associative: one set, `frames` ways.
            policy: cfg.policy.instantiate(1, cfg.frames),
            line_bytes: line_bytes as u64,
            drain_watermark: cfg.drain_watermark,
            occupancy: 0,
            stats: WriteCacheStats::default(),
        })
    }

    fn align(&self, addr: PhysAddr) -> PhysAddr {
        addr & !(self.line_bytes - 1)
    }

    fn find(&self, line: PhysAddr) -> Option<usize> {
        self.frames.iter().position(|f| f.valid && f.line == line)
    }

    /// Dirty frames currently held.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Total frame budget.
    pub fn frames(&self) -> usize {
        self.frames.len()
    }

    /// The configured background-drain threshold.
    pub fn drain_watermark(&self) -> usize {
        self.drain_watermark
    }

    /// Is the background drain due?
    pub fn over_watermark(&self) -> bool {
        self.occupancy >= self.drain_watermark
    }

    /// Counters so far.
    pub fn stats(&self) -> &WriteCacheStats {
        &self.stats
    }

    /// Absorb one write. Coalesces into an existing frame when the line
    /// is cached; otherwise claims a frame, evicting the policy's victim
    /// if the budget is exhausted. Callers that cannot take an eviction
    /// right now (controller queue full) must check [`Self::full`] first
    /// and apply backpressure instead of calling.
    pub fn write(&mut self, addr: PhysAddr) -> WriteAdmit {
        let line = self.align(addr);
        if let Some(w) = self.find(line) {
            self.policy.touch(0, w);
            self.stats.coalesced += 1;
            return WriteAdmit::Coalesced;
        }
        self.stats.admitted += 1;
        let (slot, evicted) = match self.frames.iter().position(|f| !f.valid) {
            Some(free) => (free, None),
            None => {
                let v = self.policy.victim(0);
                let out = self.frames[v].line;
                self.stats.drained += 1;
                self.occupancy -= 1;
                (v, Some(out))
            }
        };
        self.frames[slot] = Frame { valid: true, line };
        self.policy.insert(0, slot);
        self.occupancy += 1;
        evicted
            .map(|out| WriteAdmit::Admitted { evicted: Some(out) })
            .unwrap_or(WriteAdmit::Admitted { evicted: None })
    }

    /// Is every frame occupied (the next admit must evict)?
    pub fn full(&self) -> bool {
        self.occupancy == self.frames.len()
    }

    /// Serve a read from a cached dirty line, refreshing its recency.
    /// Returns `true` on a hit (the caller completes the read at DRAM
    /// latency instead of enqueueing it).
    pub fn read_hit(&mut self, addr: PhysAddr) -> bool {
        let line = self.align(addr);
        let Some(w) = self.find(line) else {
            return false;
        };
        self.policy.touch(0, w);
        self.stats.read_hits += 1;
        true
    }

    /// Pop one line for the background drain: the policy's victim leaves
    /// its frame and must be enqueued at the controller by the caller.
    /// Returns `None` when the cache is empty.
    pub fn drain_one(&mut self) -> Option<PhysAddr> {
        if self.occupancy == 0 {
            return None;
        }
        let v = self.policy.victim(0);
        if !self.frames[v].valid {
            return None;
        }
        let line = self.frames[v].line;
        self.frames[v].valid = false;
        self.policy.evict(0, v);
        self.occupancy -= 1;
        self.stats.drained += 1;
        Some(line)
    }

    /// Empty every frame in deterministic frame order (end-of-run flush);
    /// the caller enqueues the returned lines.
    pub fn flush(&mut self) -> Vec<PhysAddr> {
        let mut out = Vec::with_capacity(self.occupancy);
        for (w, f) in self.frames.iter_mut().enumerate() {
            if f.valid {
                f.valid = false;
                self.policy.evict(0, w);
                out.push(f.line);
            }
        }
        self.occupancy = 0;
        self.stats.drained += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::PolicySelect;

    fn cache(frames: usize, watermark: usize, policy: PolicySelect) -> WriteCache {
        WriteCache::new(
            WriteCacheConfig {
                frames,
                drain_watermark: watermark,
                policy,
            },
            64,
        )
        .unwrap()
    }

    #[test]
    fn construction_rejects_disabled_and_bad_lines() {
        assert!(WriteCache::new(WriteCacheConfig::disabled(), 64).is_err());
        let cfg = WriteCacheConfig::with_frames(8, PolicySelect::Lru);
        assert!(WriteCache::new(cfg, 48).is_err());
        assert!(WriteCache::new(cfg, 64).is_ok());
    }

    #[test]
    fn repeated_writes_coalesce_into_one_frame() {
        let mut c = cache(8, 6, PolicySelect::Lru);
        assert_eq!(c.write(0x1000), WriteAdmit::Admitted { evicted: None });
        // Same line, any offset: merged in DRAM.
        assert_eq!(c.write(0x1004), WriteAdmit::Coalesced);
        assert_eq!(c.write(0x103F), WriteAdmit::Coalesced);
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.stats().coalesced, 2);
        assert_eq!(c.stats().admitted, 1);
        assert!((c.stats().coalesce_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn full_cache_evicts_via_policy() {
        let mut c = cache(2, 2, PolicySelect::Lru);
        c.write(0x0);
        c.write(0x40);
        assert!(c.full());
        // LRU victim is the first line.
        assert_eq!(c.write(0x80), WriteAdmit::Admitted { evicted: Some(0x0) });
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.stats().drained, 1);
    }

    #[test]
    fn reads_hit_cached_lines_and_refresh_recency() {
        let mut c = cache(2, 2, PolicySelect::Lru);
        c.write(0x0);
        c.write(0x40);
        assert!(c.read_hit(0x4), "offset within the cached line");
        assert!(!c.read_hit(0x80));
        // The read refreshed line 0; the victim is now line 0x40.
        assert_eq!(
            c.write(0x80),
            WriteAdmit::Admitted {
                evicted: Some(0x40)
            }
        );
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn drain_one_pops_policy_victims_until_empty() {
        let mut c = cache(4, 2, PolicySelect::Lru);
        for i in 0..3u64 {
            c.write(i * 64);
        }
        assert!(c.over_watermark());
        assert_eq!(c.drain_one(), Some(0));
        assert_eq!(c.drain_one(), Some(64));
        assert!(!c.over_watermark());
        assert_eq!(c.drain_one(), Some(128));
        assert_eq!(c.drain_one(), None);
        assert_eq!(c.stats().drained, 3);
    }

    #[test]
    fn flush_returns_everything_in_frame_order() {
        let mut c = cache(4, 4, PolicySelect::TwoQ);
        c.write(0x100);
        c.write(0x40);
        c.write(0x1C0);
        assert_eq!(c.flush(), vec![0x100, 0x40, 0x1C0]);
        assert_eq!(c.occupancy(), 0);
        assert!(c.flush().is_empty(), "second flush finds nothing");
    }

    #[test]
    fn conservation_holds_for_every_policy() {
        for policy in PolicySelect::ALL {
            let mut c = cache(8, 6, policy);
            let mut writes = 0u64;
            let mut background = 0u64;
            // A skewed stream: lines 0..16, with heavy re-writes of 0..4.
            for i in 0..200u64 {
                c.write((i % 16) * 64);
                c.write((i % 4) * 64);
                writes += 2;
                while c.over_watermark() {
                    assert!(c.drain_one().is_some());
                    background += 1;
                }
                assert!(c.occupancy() <= c.frames(), "{policy}: budget exceeded");
            }
            let flushed = c.flush().len() as u64;
            let s = *c.stats();
            assert_eq!(s.coalesced + s.admitted, writes, "{policy}");
            assert_eq!(s.drained, s.admitted, "{policy}: every admit drains once");
            assert!(background + flushed == s.drained, "{policy}");
            assert!(s.coalesce_ratio() > 0.0, "{policy}: rewrites must coalesce");
        }
    }
}
