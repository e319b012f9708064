//! One PCM rank's core: how a line reaches the rank's banks.
//!
//! A [`RankCore`] owns the rank's FR-FCFS [`MemoryController`], its
//! [`PcmMainMemory`] (whose map is the rank-local address map) and the
//! rank's slice of the DRAM [`WriteCache`] tier, if any. It builds the
//! rank, decodes addresses onto banks, enqueues requests, moves lines
//! through the write cache and records the telemetry of each step.
//! [`crate::System`] (so every [`crate::Rank`]) and each rank of
//! `pcm-serve`'s engine drive one and keep only their own policy.
//!
//! The core owns no clock, content model or sink: callers pass the time
//! and lend content and telemetry as `&mut dyn`, as
//! [`MemoryController::try_issue`] takes them. Callers also name the
//! request of each line leaving the write cache.

use crate::config::{ConfigError, SystemConfig};
use crate::content::WriteContent;
use crate::controller::{Issued, MemoryController, ReadEnqueue, Serviced};
use crate::memory::PcmMainMemory;
use crate::request::MemRequest;
use crate::writecache::{WriteAdmit, WriteCache, WriteCacheStats};
use pcm_schemes::{SchemeSelect, WriteScheme};
use pcm_telemetry::{OpKind, Telemetry, TelemetryEvent, TraceDetail};
use pcm_types::{AddrMap, DecodedAddr, PhysAddr, Ps};

/// What the DRAM tier did with one write ([`RankCore::cache_write`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachedWrite {
    /// The line was already cached; the write merged into its frame.
    Coalesced,
    /// The line claimed a free frame.
    Admitted,
    /// The line displaced a victim into the controller's write queue.
    Displaced,
}

/// One rank: controller, banks, optional write-cache slice and address
/// map. See the module docs.
pub struct RankCore {
    ctrl: MemoryController,
    memory: PcmMainMemory,
    cache: Option<WriteCache>,
    /// What the last [`Self::issue`] issued; reused by every call.
    issued: Vec<Issued>,
}

impl RankCore {
    /// Build a rank from a validated configuration: `cfg.mem.select`'s
    /// scheme (Tetris with `cfg.tetris`'s knobs), a controller over every
    /// bank of `cfg.mem.org`, and the write cache if enabled. Its lanes
    /// record as rank `trace_rank` of the cores sharing one trace.
    pub fn build(cfg: &SystemConfig, trace_rank: u32) -> Result<RankCore, ConfigError> {
        tetris_write::register_scheme_factory();
        let scheme: Box<dyn WriteScheme> = if cfg.mem.select == SchemeSelect::Tetris {
            // Route through cfg.tetris so custom packing knobs apply; the
            // registered factory would use paper-baseline knobs.
            let mut t = cfg.tetris;
            t.scheme = cfg.mem;
            Box::new(tetris_write::TetrisWrite::new(t))
        } else {
            cfg.mem.instantiate()
        };
        let memory = PcmMainMemory::new(cfg.mem, scheme)?;
        let mut ctrl = MemoryController::new(
            cfg.controller,
            cfg.mem.timings,
            cfg.mem.org.total_banks() as usize,
        );
        ctrl.set_trace_rank(trace_rank);
        let cache = if cfg.write_cache.enabled() {
            Some(WriteCache::new(
                cfg.write_cache,
                cfg.mem.org.cache_line_bytes,
            )?)
        } else {
            None
        };
        Ok(RankCore {
            ctrl,
            memory,
            cache,
            issued: Vec::new(),
        })
    }

    /// The rank's controller.
    #[inline]
    pub fn ctrl(&self) -> &MemoryController {
        &self.ctrl
    }

    /// The rank's PCM store.
    #[inline]
    pub fn memory(&self) -> &PcmMainMemory {
        &self.memory
    }

    /// The rank-local address map.
    #[inline]
    pub fn addr_map(&self) -> &AddrMap {
        self.memory.addr_map()
    }

    /// Put the controller in drain mode if it holds writes.
    #[inline]
    pub fn force_drain(&mut self) {
        self.ctrl.force_drain();
    }

    /// Decode a rank-local address onto its bank, row and column.
    ///
    /// # Panics
    /// If `addr` lies outside the rank; callers' addresses are in range by
    /// construction (see the waiver in `lint-allow.txt`).
    #[inline]
    pub fn locate(&self, addr: PhysAddr) -> DecodedAddr {
        self.memory
            .addr_map()
            .decode(addr)
            .expect("rank-local address in range")
    }

    /// Queue a read at `d` (the read queue must have room); `Some(t)` when
    /// the write queue forwards it at `t` instead.
    #[inline]
    pub fn enqueue_read(&mut self, req: MemRequest, d: &DecodedAddr) -> Option<Ps> {
        let bank = self.memory.addr_map().flat_bank(d);
        match self.ctrl.enqueue_read(req, d, bank) {
            ReadEnqueue::Forwarded(t) => Some(t),
            ReadEnqueue::Queued => None,
        }
    }

    /// Queue a write at `d` (the write queue must have room).
    #[inline]
    pub fn enqueue_write(&mut self, req: MemRequest, d: &DecodedAddr, tel: &mut dyn Telemetry) {
        let bank = self.memory.addr_map().flat_bank(d);
        self.ctrl.enqueue_write(req, d, bank, tel);
    }

    /// [`Self::enqueue_write`] at the request's own address.
    #[inline]
    pub fn enqueue_line(&mut self, req: MemRequest, tel: &mut dyn Telemetry) {
        let d = self.locate(req.addr);
        self.enqueue_write(req, &d, tel);
    }

    /// Fill the free banks at `now`; the caller schedules the completions
    /// of the returned issues. The slice lives in a buffer the core reuses
    /// on every call.
    #[inline]
    pub fn issue(
        &mut self,
        now: Ps,
        content: &mut dyn WriteContent,
        tel: &mut dyn Telemetry,
    ) -> &[Issued] {
        self.issued.clear();
        self.ctrl
            .try_issue(now, &mut self.memory, content, tel, &mut self.issued);
        &self.issued
    }

    /// A bank completion fired at `at`: its requests (`None` if stale),
    /// recording `BankIdle`.
    #[inline]
    pub fn complete(
        &mut self,
        bank: usize,
        epoch: u64,
        at: Ps,
        tel: &mut dyn Telemetry,
    ) -> Option<Serviced> {
        let reqs = self.ctrl.complete(bank, epoch);
        if reqs.is_some() && tel.wants(TraceDetail::Fine) {
            tel.record(&TelemetryEvent::BankIdle {
                at,
                bank: self.ctrl.trace_lane(bank),
            });
        }
        reqs
    }

    /// Record the run's `RunMeta` for `workload`: this rank's scheme and
    /// the lanes of `ranks` such ranks sharing the trace.
    pub fn record_run_meta(&self, workload: &str, ranks: u32, tel: &mut dyn Telemetry) {
        if tel.wants(TraceDetail::Coarse) {
            tel.record(&TelemetryEvent::RunMeta {
                workload: workload.to_string(),
                scheme: self.memory.scheme_name().to_string(),
                banks: ranks * self.ctrl.lanes(),
            });
        }
    }

    /// Record the controller's queue depths at `at` (fine detail only).
    #[inline]
    pub fn sample_queue_depths(&self, at: Ps, tel: &mut dyn Telemetry) {
        if tel.wants(TraceDetail::Fine) {
            let (r, w) = self.ctrl.queue_depths();
            tel.record(&TelemetryEvent::QueueDepth {
                at,
                reads: r as u32,
                writes: w as u32,
            });
        }
    }

    /// Does the rank have a write-cache slice?
    #[inline]
    pub fn has_write_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// Must a write wait, given the caller's `queue_full` test? With a
    /// write cache, only if its frame table is full too.
    #[inline]
    pub fn write_blocked(&self, queue_full: bool) -> bool {
        queue_full && self.cache.as_ref().is_none_or(WriteCache::full)
    }

    /// Answer a read from a dirty cached line, recording
    /// `WriteCacheHit{read}` at `at`; `false` sends it to the banks.
    #[inline]
    pub fn cache_read_hit(&mut self, addr: PhysAddr, at: Ps, tel: &mut dyn Telemetry) -> bool {
        let hit = self.cache.as_mut().is_some_and(|wc| wc.read_hit(addr));
        if hit && tel.wants(TraceDetail::Fine) {
            tel.record(&TelemetryEvent::WriteCacheHit {
                at,
                kind: OpKind::Read,
            });
        }
        hit
    }

    /// Absorb a write in the write cache (the caller checked
    /// [`Self::write_blocked`]). A coalesce records `WriteCacheHit{write}`
    /// at `at`; a displaced victim is queued as `victim(line)`.
    pub fn cache_write(
        &mut self,
        addr: PhysAddr,
        at: Ps,
        victim: &mut dyn FnMut(PhysAddr) -> MemRequest,
        tel: &mut dyn Telemetry,
    ) -> CachedWrite {
        let Some(wc) = self.cache.as_mut() else {
            unreachable!("cache_write on a rank without a write cache");
        };
        match wc.write(addr) {
            WriteAdmit::Coalesced => {
                if tel.wants(TraceDetail::Fine) {
                    tel.record(&TelemetryEvent::WriteCacheHit {
                        at,
                        kind: OpKind::Write,
                    });
                }
                CachedWrite::Coalesced
            }
            WriteAdmit::Admitted { evicted: None } => CachedWrite::Admitted,
            WriteAdmit::Admitted {
                evicted: Some(line),
            } => {
                self.enqueue_line(victim(line), tel);
                CachedWrite::Displaced
            }
        }
    }

    /// Queue cached lines as `line_write(line)` while the write queue has
    /// room, down to the watermark (or empty, `to_empty`); a burst records
    /// one `WriteCacheDrain` at `at`. Returns the lines moved.
    pub fn drain_cache(
        &mut self,
        to_empty: bool,
        at: Ps,
        line_write: &mut dyn FnMut(PhysAddr) -> MemRequest,
        tel: &mut dyn Telemetry,
    ) -> u32 {
        let mut lines = 0u32;
        while self
            .cache
            .as_ref()
            .is_some_and(|wc| to_empty || wc.over_watermark())
            && !self.ctrl.write_queue_full()
        {
            let Some(line) = self.cache.as_mut().and_then(WriteCache::drain_one) else {
                break;
            };
            self.enqueue_line(line_write(line), tel);
            lines += 1;
        }
        if lines > 0 && tel.wants(TraceDetail::Coarse) {
            tel.record(&TelemetryEvent::WriteCacheDrain {
                at,
                lines,
                depth: self.cache.as_ref().map_or(0, |wc| wc.occupancy() as u32),
            });
        }
        lines
    }

    /// Empty the write cache at once, recording one `WriteCacheDrain` at
    /// `at`; the caller queues the lines as room allows.
    pub fn flush_cache(&mut self, at: Ps, tel: &mut dyn Telemetry) -> Vec<PhysAddr> {
        let lines = self.cache.as_mut().map_or_else(Vec::new, WriteCache::flush);
        if !lines.is_empty() && tel.wants(TraceDetail::Coarse) {
            tel.record(&TelemetryEvent::WriteCacheDrain {
                at,
                lines: lines.len() as u32,
                depth: 0,
            });
        }
        lines
    }

    /// The write cache's counters (`None` without one).
    pub fn write_cache_stats(&self) -> Option<WriteCacheStats> {
        self.cache.as_ref().map(|wc| *wc.stats())
    }
}
