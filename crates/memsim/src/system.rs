//! Full-system wiring: trace-driven cores → (optional cache hierarchy) →
//! one [`RankCore`] (FRFCFS controller, PCM banks, optional DRAM write
//! cache), driven by the discrete-event engine. The core decides how a
//! line reaches the banks; `System` keeps the cores, the hierarchy, the
//! event queue and backpressure stalls.
//!
//! Two trace levels:
//!
//! * [`TraceLevel::MemoryLevel`] — ops are post-LLC memory accesses with
//!   instruction gaps, directly calibrated to Table III RPKI/WPKI. Used for
//!   the paper's figures.
//! * [`TraceLevel::CpuLevel`] — ops are CPU accesses filtered through the
//!   L1/L2/L3 hierarchy; LLC misses and write-backs reach the PCM.

use crate::config::{ConfigError, SystemConfig};
use crate::content::{UniformRandomContent, WriteContent};
use crate::cpu::{Core, CorePhase, RequestSource, VecTrace};
use crate::engine::{Event, EventQueue};
use crate::hierarchy::{CacheHierarchy, HitLevel};
use crate::memory::PcmMainMemory;
use crate::rank::{CachedWrite, RankCore};
use crate::request::{AccessKind, MemRequest};
use crate::stats::{LatencyStats, SimResult};
use crate::writecache::WriteCacheStats;
use pcm_telemetry::{NullSink, Telemetry};
use pcm_types::{PhysAddr, Ps};
use std::collections::VecDeque;

/// Which abstraction level the trace describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceLevel {
    /// Post-LLC memory trace (gaps calibrated to memory RPKI/WPKI).
    MemoryLevel,
    /// CPU-level trace filtered through the cache hierarchy.
    CpuLevel,
}

/// The simulated system.
pub struct System {
    cfg: SystemConfig,
    level: TraceLevel,
    cores: Vec<Core>,
    trace: Box<dyn RequestSource>,
    content: Box<dyn WriteContent>,
    /// Controller, banks and (with `cfg.write_cache.frames > 0`) the DRAM
    /// write-cache tier.
    rank: RankCore,
    hierarchy: Option<CacheHierarchy>,
    queue: EventQueue,
    now: Ps,
    next_req_id: u64,
    stalled_write: Vec<usize>,
    stalled_read: Vec<usize>,
    /// Per-core write-backs awaiting queue space (CPU mode).
    backlog: Vec<VecDeque<PhysAddr>>,
    /// Per-core memory read awaiting read-queue space (CPU mode).
    pending_mem_read: Vec<Option<PhysAddr>>,
    read_lat: LatencyStats,
    write_lat: LatencyStats,
    workload_name: String,
    tel: Box<dyn Telemetry>,
}

impl System {
    /// Build a system from one validated configuration — the single
    /// construction entry point. The rank (scheme, controller, write
    /// cache) comes from [`RankCore::build`]; the trace level from
    /// `cfg.level`.
    ///
    /// The fresh system has an empty trace, seed-0 random write content,
    /// and the zero-cost [`pcm_telemetry::NullSink`]; chain
    /// [`System::with_trace`] / [`System::with_content`] /
    /// [`System::with_telemetry`] to replace them.
    pub fn build(cfg: SystemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let rank = RankCore::build(&cfg, 0)?;
        let hierarchy = match cfg.level {
            TraceLevel::MemoryLevel => None,
            TraceLevel::CpuLevel => Some(CacheHierarchy::new(&cfg)?),
        };
        Ok(System {
            cores: (0..cfg.cores).map(Core::new).collect(),
            backlog: vec![VecDeque::new(); cfg.cores],
            pending_mem_read: vec![None; cfg.cores],
            level: cfg.level,
            trace: Box::new(VecTrace::new(vec![Vec::new(); cfg.cores])),
            content: Box::new(UniformRandomContent::new(0)),
            cfg,
            rank,
            hierarchy,
            queue: EventQueue::new(),
            now: Ps::ZERO,
            next_req_id: 0,
            stalled_write: Vec::new(),
            stalled_read: Vec::new(),
            read_lat: LatencyStats::default(),
            write_lat: LatencyStats::default(),
            workload_name: String::new(),
            tel: Box::new(NullSink),
        })
    }

    /// Replace the trace source (chainable after [`System::build`]).
    pub fn with_trace(mut self, trace: Box<dyn RequestSource>) -> Self {
        self.trace = trace;
        self
    }

    /// Replace the write-content model (chainable after [`System::build`]).
    pub fn with_content(mut self, content: Box<dyn WriteContent>) -> Self {
        self.content = content;
        self
    }

    /// Install a telemetry sink (chainable form of
    /// [`System::set_telemetry`]).
    pub fn with_telemetry(mut self, tel: Box<dyn Telemetry>) -> Self {
        self.tel = tel;
        self
    }

    /// Replace the write-content model in place (mutating form of
    /// [`System::with_content`]).
    pub fn set_content(&mut self, content: Box<dyn WriteContent>) {
        self.content = content;
    }

    /// Label the run's workload in the result.
    pub fn set_workload_name(&mut self, name: impl Into<String>) {
        self.workload_name = name.into();
    }

    /// Install a telemetry sink; every subsequent [`System::run`] records
    /// its events there. The default is the zero-cost
    /// [`pcm_telemetry::NullSink`].
    pub fn set_telemetry(&mut self, tel: Box<dyn Telemetry>) {
        self.tel = tel;
    }

    /// Access the memory model (stats, contents).
    pub fn memory(&self) -> &PcmMainMemory {
        self.rank.memory()
    }

    /// Access the cache hierarchy (CPU-level runs).
    pub fn hierarchy(&self) -> Option<&CacheHierarchy> {
        self.hierarchy.as_ref()
    }

    /// Cumulative busy time per bank lane — the ground truth a recorded
    /// trace's per-bank utilization should reproduce.
    pub fn bank_busy_totals(&self) -> Vec<Ps> {
        self.rank.ctrl().bank_busy_totals()
    }

    /// The controller's counters (drains, pauses, scheduling decisions).
    pub fn ctrl_stats(&self) -> crate::controller::CtrlStats {
        self.rank.ctrl().stats
    }

    /// The DRAM write-cache tier's hit/coalesce/drain counters (`None`
    /// when the tier is disabled, i.e. `write_cache.frames == 0`).
    pub fn write_cache_stats(&self) -> Option<WriteCacheStats> {
        self.rank.write_cache_stats()
    }

    fn cycle(&self) -> Ps {
        self.cfg.cycle()
    }

    fn make_req(&mut self, core: usize, addr: PhysAddr, kind: AccessKind) -> MemRequest {
        request(&mut self.next_req_id, core, addr, kind, self.now)
    }

    /// Issue whatever the banks can take, schedule completions, and wake
    /// cores stalled on queue space.
    fn issue_and_wake(&mut self) {
        let issued = self
            .rank
            .issue(self.now, self.content.as_mut(), self.tel.as_mut());
        for i in issued {
            self.queue.push(
                i.completion,
                Event::BankComplete {
                    bank: i.bank,
                    epoch: i.epoch,
                },
            );
        }
        if !self.rank.ctrl().write_queue_full() {
            let mut stalled = std::mem::take(&mut self.stalled_write);
            for core in stalled.drain(..) {
                self.wake(core);
            }
            // Waking stalls no core, so the list is still empty: hand its
            // buffer back for the next stall.
            self.stalled_write = stalled;
        }
        if !self.rank.ctrl().read_queue_full() {
            let mut stalled = std::mem::take(&mut self.stalled_read);
            for core in stalled.drain(..) {
                self.wake(core);
            }
            self.stalled_read = stalled;
        }
    }

    /// Resume a core stalled on queue space, charging the stall.
    fn wake(&mut self, core: usize) {
        let c = &mut self.cores[core];
        match c.phase {
            CorePhase::WaitingWriteSlot { since } => c.write_stall += self.now - since,
            CorePhase::WaitingReadSlot { since } => c.read_stall += self.now - since,
            _ => {}
        }
        c.phase = CorePhase::Ready;
        self.queue.push(self.now, Event::CoreStep { core });
    }

    /// Enqueue one write; returns false (and stalls the core) on
    /// backpressure. With the DRAM write-cache tier enabled the write is
    /// absorbed there instead and dirty lines reach the controller only
    /// through drains; the core then stalls only when both the frame
    /// table and the controller write queue are full.
    fn try_enqueue_write(&mut self, core: usize, addr: PhysAddr) -> bool {
        if self.rank.write_blocked(self.rank.ctrl().write_queue_full()) {
            self.cores[core].phase = CorePhase::WaitingWriteSlot { since: self.now };
            self.stalled_write.push(core);
            return false;
        }
        if self.rank.has_write_cache() {
            self.write_via_cache(core, addr);
        } else {
            let req = self.make_req(core, addr, AccessKind::Write);
            self.rank.enqueue_line(req, self.tel.as_mut());
            self.wrote_to_queue();
        }
        true
    }

    /// Write path with the DRAM tier in front: coalesce into a cached
    /// frame, else claim one (displacing a victim to the controller when
    /// the budget is exhausted), then drain past the watermark. Lines
    /// leaving the tier take fresh request ids and `core`.
    fn write_via_cache(&mut self, core: usize, addr: PhysAddr) {
        let (now, w) = (self.now, AccessKind::Write);
        let next = &mut self.next_req_id;
        let admit = self.rank.cache_write(
            addr,
            now,
            &mut |line| request(next, core, line, w, now),
            self.tel.as_mut(),
        );
        if admit == CachedWrite::Coalesced {
            return;
        }
        if admit == CachedWrite::Displaced {
            self.wrote_to_queue();
        }
        let next = &mut self.next_req_id;
        let lines = self.rank.drain_cache(
            false,
            now,
            &mut |line| request(next, core, line, w, now),
            self.tel.as_mut(),
        );
        if lines > 0 {
            self.wrote_to_queue();
        }
    }

    /// After writes entered the controller queue: sample its depth, and
    /// issue if they tipped it into a drain.
    fn wrote_to_queue(&mut self) {
        self.rank.sample_queue_depths(self.now, self.tel.as_mut());
        if self.rank.ctrl().draining() {
            self.issue_and_wake();
        }
    }

    /// Issue a blocking memory read; returns false (and stalls) if the read
    /// queue is full. On success the core is left in `WaitingRead` or
    /// scheduled to resume (forwarded).
    fn issue_mem_read(&mut self, core: usize, addr: PhysAddr) -> bool {
        // A load whose line sits dirty in the DRAM tier is answered there
        // at bus speed, like store-to-load forwarding from the write queue.
        let done = if self.rank.cache_read_hit(addr, self.now, self.tel.as_mut()) {
            self.now + self.cfg.controller.t_bus
        } else if self.rank.ctrl().read_queue_full() {
            self.cores[core].phase = CorePhase::WaitingReadSlot { since: self.now };
            self.stalled_read.push(core);
            return false;
        } else {
            let req = self.make_req(core, addr, AccessKind::Read);
            let d = self.rank.locate(addr);
            let Some(forwarded) = self.rank.enqueue_read(req, &d) else {
                self.cores[core].phase = CorePhase::WaitingRead {
                    req_id: req.id,
                    since: self.now,
                };
                self.rank.sample_queue_depths(self.now, self.tel.as_mut());
                self.issue_and_wake();
                return true;
            };
            forwarded
        };
        self.read_lat.record(done - self.now);
        self.cores[core].phase = CorePhase::Computing;
        self.queue.push(done, Event::CoreStep { core });
        true
    }

    /// Run one core until it blocks, finishes, or schedules a future step.
    fn step_core(&mut self, core: usize) {
        loop {
            // Drain any pending write-backs first (CPU mode).
            while let Some(&wb) = self.backlog[core].front() {
                if !self.try_enqueue_write(core, wb) {
                    return;
                }
                self.backlog[core].pop_front();
            }
            // Then any memory read that was waiting for queue space.
            if let Some(addr) = self.pending_mem_read[core] {
                self.pending_mem_read[core] = None;
                if !self.issue_mem_read(core, addr) {
                    self.pending_mem_read[core] = Some(addr);
                }
                return;
            }

            match self.cores[core].phase {
                CorePhase::Done
                | CorePhase::WaitingRead { .. }
                | CorePhase::WaitingWriteSlot { .. }
                | CorePhase::WaitingReadSlot { .. } => return,
                CorePhase::Computing => {
                    self.cores[core].phase = CorePhase::Ready;
                }
                CorePhase::Ready => {}
            }

            // Fetch the next op if none is pending.
            if self.cores[core].pending.is_none() {
                match self.trace.next(core) {
                    None => {
                        self.cores[core].phase = CorePhase::Done;
                        self.cores[core].finish_time = self.now;
                        return;
                    }
                    Some(op) => {
                        self.cores[core].instructions += op.gap as u64;
                        self.cores[core].pending = Some(op);
                        if op.gap > 0 {
                            let wake = self.now + self.cycle() * op.gap as u64;
                            self.cores[core].phase = CorePhase::Computing;
                            self.cores[core].finish_time = wake;
                            self.queue.push(wake, Event::CoreStep { core });
                            return;
                        }
                    }
                }
            }

            let op = self.cores[core].pending.expect("op pending");
            match self.level {
                TraceLevel::MemoryLevel => match op.kind {
                    AccessKind::Read => {
                        self.cores[core].pending = None;
                        self.cores[core].instructions += 1;
                        if !self.issue_mem_read(core, op.addr) {
                            self.pending_mem_read[core] = Some(op.addr);
                        }
                        return;
                    }
                    AccessKind::Write => {
                        if !self.try_enqueue_write(core, op.addr) {
                            return;
                        }
                        self.cores[core].pending = None;
                        self.cores[core].instructions += 1;
                        self.cores[core].finish_time = self.now;
                    }
                },
                TraceLevel::CpuLevel => {
                    let h = self.hierarchy.as_mut().expect("hierarchy in CPU mode");
                    let out = h.access(core, op.addr, op.kind == AccessKind::Write);
                    self.cores[core].pending = None;
                    self.cores[core].instructions += 1;
                    self.backlog[core].extend(out.memory_writebacks);
                    let resume = self.now + self.cycle() * out.latency_cycles as u64;
                    self.cores[core].finish_time = resume;
                    if out.level == HitLevel::Memory {
                        // Write-allocate: both loads and stores fetch the
                        // line; the store's dirty data departs later as a
                        // write-back.
                        self.pending_mem_read[core] = Some(op.addr);
                        continue;
                    }
                    if resume > self.now {
                        self.cores[core].phase = CorePhase::Computing;
                        self.queue.push(resume, Event::CoreStep { core });
                        return;
                    }
                }
            }
        }
    }

    /// Pump events until the controller write queue has room — the
    /// final-flush path, where cores are quiescent and backpressure
    /// accounting no longer applies.
    fn pump_for_write_slot(&mut self) {
        while self.rank.ctrl().write_queue_full() {
            self.rank.force_drain();
            self.issue_and_wake();
            if let Some((t, e)) = self.queue.pop() {
                self.now = t;
                match e {
                    Event::CoreStep { core } => self.step_core(core),
                    Event::BankComplete { bank, epoch } => self.handle_bank_complete(bank, epoch),
                }
            } else {
                unreachable!("full write queue with no pending events");
            }
        }
    }

    fn handle_bank_complete(&mut self, bank: usize, epoch: u64) {
        // `None` is a stale completion of a paused write; the resumed
        // instance will deliver its own event. Either way, completing (or
        // skipping) is a scheduling opportunity.
        let reqs = self.rank.complete(bank, epoch, self.now, self.tel.as_mut());
        for req in reqs.into_iter().flatten() {
            let latency = self.now - req.arrival;
            match req.kind {
                AccessKind::Read => {
                    self.read_lat.record(latency);
                    // Only `issue_mem_read` queues reads, and a core has at
                    // most one outstanding: the issuing core is the waiter.
                    let core = req.core;
                    if let CorePhase::WaitingRead { req_id, since } = self.cores[core].phase {
                        debug_assert_eq!(req_id, req.id, "core {core} waits on another read");
                        self.cores[core].read_stall += self.now - since;
                    }
                    self.cores[core].phase = CorePhase::Ready;
                    self.cores[core].finish_time = self.now;
                    self.queue.push(self.now, Event::CoreStep { core });
                }
                AccessKind::Write => {
                    self.write_lat.record(latency);
                }
            }
        }
        self.issue_and_wake();
    }

    /// Run the simulation to completion and return the statistics. Any
    /// installed telemetry sink receives the run's events and is flushed
    /// before returning.
    pub fn run(&mut self) -> SimResult {
        self.rank
            .record_run_meta(&self.workload_name, 1, self.tel.as_mut());
        for core in 0..self.cores.len() {
            self.queue.push(Ps::ZERO, Event::CoreStep { core });
        }
        loop {
            while let Some((t, e)) = self.queue.pop() {
                debug_assert!(t >= self.now, "time went backwards");
                self.now = t;
                match e {
                    Event::CoreStep { core } => self.step_core(core),
                    Event::BankComplete { bank, epoch } => self.handle_bank_complete(bank, epoch),
                }
            }
            // Cores are quiescent; flush leftover work (CPU-mode dirty
            // lines, then the write queue).
            if self.cores.iter().all(|c| c.is_done()) {
                let mut lines = match self.hierarchy.as_mut() {
                    Some(h) => h.flush_all(),
                    None => Vec::new(),
                };
                // Once the hierarchy is clean, empty the DRAM tier (every
                // admitted line must drain exactly once).
                if lines.is_empty() {
                    lines = self.rank.flush_cache(self.now, self.tel.as_mut());
                }
                if !lines.is_empty() {
                    for addr in lines {
                        // Final flush bypasses backpressure accounting.
                        self.pump_for_write_slot();
                        let req = self.make_req(0, addr, AccessKind::Write);
                        self.rank.enqueue_line(req, self.tel.as_mut());
                    }
                    continue;
                }
            }
            if self.rank.ctrl().has_pending() {
                self.rank.force_drain();
                self.issue_and_wake();
                if self.queue.is_empty() {
                    break;
                }
            } else {
                break;
            }
        }

        if let Err(e) = self.tel.flush() {
            eprintln!("warning: telemetry flush failed: {e}");
        }
        let (row_hits, row_misses) = self.rank.ctrl().row_stats();
        let mem = self.rank.memory().stats();
        SimResult {
            scheme: self.rank.memory().scheme_name().to_string(),
            workload: self.workload_name.clone(),
            runtime: self
                .cores
                .iter()
                .map(|c| c.finish_time)
                .max()
                .unwrap_or(Ps::ZERO),
            instructions: self.cores.iter().map(|c| c.instructions).collect(),
            cycles: self
                .cores
                .iter()
                .map(|c| c.cycles(self.cfg.cpu_freq_mhz))
                .collect(),
            read_latency: self.read_lat.clone(),
            write_latency: self.write_lat.clone(),
            read_forwards: self.rank.ctrl().stats.read_forwards,
            row_hits,
            row_misses,
            mem_writes: mem.writes,
            mem_reads: mem.reads,
            avg_write_units: self.rank.memory().avg_write_units(),
            energy: mem.energy,
            cell_sets: mem.cell_sets,
            cell_resets: mem.cell_resets,
            read_stall: self.cores.iter().map(|c| c.read_stall).sum(),
            write_stall: self.cores.iter().map(|c| c.write_stall).sum(),
        }
    }
}

/// A request from `core` arriving at `at`, with the next id of `next_id`.
fn request(next_id: &mut u64, core: usize, addr: PhysAddr, kind: AccessKind, at: Ps) -> MemRequest {
    let id = *next_id;
    *next_id += 1;
    MemRequest {
        id,
        addr,
        kind,
        core,
        arrival: at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::TraceOp;
    use pcm_schemes::SchemeSelect;
    use pcm_telemetry::{TelemetryEvent, TraceDetail};

    fn mem_trace_ops(n: usize, gap: u32, write_every: usize, stride: u64) -> Vec<TraceOp> {
        (0..n)
            .map(|i| TraceOp {
                gap,
                kind: if write_every > 0 && i % write_every == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                addr: i as u64 * stride,
            })
            .collect()
    }

    fn run(select: SchemeSelect, ops_per_core: Vec<Vec<TraceOp>>) -> SimResult {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.cores = ops_per_core.len();
        cfg.mem.select = select;
        let mut sys = System::build(cfg)
            .unwrap()
            .with_trace(Box::new(VecTrace::new(ops_per_core)))
            .with_content(Box::new(UniformRandomContent::new(3)));
        sys.run()
    }

    #[test]
    fn read_only_trace_completes_with_sane_latency() {
        let r = run(SchemeSelect::Dcw, vec![mem_trace_ops(100, 10, 0, 64)]);
        assert_eq!(r.mem_reads, 100);
        assert_eq!(r.mem_writes, 0);
        assert_eq!(r.instructions[0], 100 * 10 + 100);
        // Unloaded read ≈ 60 ns.
        assert!(
            r.read_latency.mean_ns() >= 15.0 && r.read_latency.mean_ns() < 100.0,
            "mean read latency {}",
            r.read_latency.mean_ns()
        );
        assert!(r.runtime > Ps::ZERO);
    }

    #[test]
    fn writes_are_flushed_at_end() {
        // 10 writes never fill the 32-entry queue; the final flush must
        // still service them.
        let r = run(SchemeSelect::Dcw, vec![mem_trace_ops(10, 1, 1, 64)]);
        assert_eq!(r.mem_writes, 10);
        assert_eq!(r.write_latency.count, 10);
    }

    #[test]
    fn sparse_writes_wait_long_like_blackscholes() {
        // Paper §V-B3: with few writes the queue never fills, so writes sit
        // for nearly the whole run.
        let mut ops = mem_trace_ops(2_000, 50, 0, 64);
        ops[0].kind = AccessKind::Write; // one early write
        let r = run(SchemeSelect::Dcw, vec![ops]);
        assert_eq!(r.mem_writes, 1);
        let runtime_ns = r.runtime.as_ns_f64();
        assert!(
            r.write_latency.mean_ns() > runtime_ns * 0.5,
            "lone write waited {} ns of a {} ns run",
            r.write_latency.mean_ns(),
            runtime_ns
        );
    }

    #[test]
    fn write_heavy_trace_tetris_beats_dcw_runtime() {
        let mk = || {
            vec![
                mem_trace_ops(600, 5, 2, 64),
                mem_trace_ops(600, 5, 2, 64 * 1024),
            ]
        };
        let dcw = run(SchemeSelect::Dcw, mk());
        let tetris = run(SchemeSelect::Tetris, mk());
        assert_eq!(dcw.mem_writes, tetris.mem_writes);
        assert!(
            tetris.runtime < dcw.runtime,
            "tetris {} vs dcw {}",
            tetris.runtime,
            dcw.runtime
        );
        assert!(tetris.ipc() > dcw.ipc());
        assert!(tetris.read_latency.mean_ns() <= dcw.read_latency.mean_ns());
    }

    #[test]
    fn backpressure_throttles_but_preserves_work() {
        // Write storm: queue fills, cores stall, everything still lands.
        let r = run(SchemeSelect::Dcw, vec![mem_trace_ops(300, 1, 1, 64)]);
        assert_eq!(r.mem_writes, 300);
        assert!(r.write_stall > Ps::ZERO, "backpressure must have engaged");
    }

    #[test]
    fn forwarding_serves_reads_from_write_queue() {
        // Write then immediately read the same line while the write sits in
        // the queue.
        let ops = vec![
            TraceOp {
                gap: 1,
                kind: AccessKind::Write,
                addr: 0x40,
            },
            TraceOp {
                gap: 1,
                kind: AccessKind::Read,
                addr: 0x40,
            },
        ];
        let r = run(SchemeSelect::Dcw, vec![ops]);
        assert_eq!(r.read_forwards, 1);
    }

    #[test]
    fn cpu_level_filters_through_caches() {
        let cfg = SystemConfig::builder()
            .small_caches()
            .cores(1)
            .build()
            .unwrap();
        // Two passes over a small footprint: second pass hits in cache.
        let mut ops = Vec::new();
        for _pass in 0..2 {
            for i in 0..64u64 {
                ops.push(TraceOp {
                    gap: 3,
                    kind: AccessKind::Read,
                    addr: i * 64,
                });
            }
        }
        let mut cfg = cfg;
        cfg.level = TraceLevel::CpuLevel;
        let mut sys = System::build(cfg)
            .unwrap()
            .with_trace(Box::new(VecTrace::new(vec![ops])))
            .with_content(Box::new(UniformRandomContent::new(9)));
        let r = sys.run();
        assert_eq!(r.mem_reads, 64, "second pass is cache-resident");
        let (l1, _) = sys.hierarchy().unwrap().core_stats(0);
        assert!(l1.hits >= 64);
    }

    #[test]
    fn cpu_level_writebacks_reach_memory() {
        let cfg = SystemConfig::builder()
            .small_caches()
            .cores(1)
            .build()
            .unwrap();
        // Dirty a footprint larger than L3 to force write-backs, then the
        // final flush catches the rest.
        let lines = (cfg.l3.size_bytes / 64) * 2;
        let ops: Vec<TraceOp> = (0..lines)
            .map(|i| TraceOp {
                gap: 1,
                kind: AccessKind::Write,
                addr: i * 64,
            })
            .collect();
        let mut cfg = cfg;
        cfg.level = TraceLevel::CpuLevel;
        let mut sys = System::build(cfg)
            .unwrap()
            .with_trace(Box::new(VecTrace::new(vec![ops])))
            .with_content(Box::new(UniformRandomContent::new(9)));
        let r = sys.run();
        assert_eq!(
            r.mem_writes, lines,
            "every dirtied line eventually lands in PCM"
        );
    }

    #[test]
    fn batched_drain_services_all_writes_faster() {
        let ops = || vec![mem_trace_ops(400, 1, 1, 64)];
        let run_batched = |batch: usize| {
            let mut cfg = SystemConfig::paper_baseline();
            cfg.cores = 1;
            cfg.controller.batch_writes = batch;
            cfg.mem.select = SchemeSelect::Tetris;
            let mut sys = System::build(cfg)
                .unwrap()
                .with_trace(Box::new(VecTrace::new(ops())))
                .with_content(Box::new(UniformRandomContent::new(4)));
            sys.run()
        };
        let single = run_batched(1);
        let batched = run_batched(4);
        assert_eq!(single.mem_writes, 400);
        assert_eq!(batched.mem_writes, 400, "no write lost in batching");
        assert_eq!(batched.write_latency.count, 400);
        assert!(
            batched.runtime < single.runtime,
            "batch=4 {} vs batch=1 {}",
            batched.runtime,
            single.runtime
        );
        // Dense random content saturates the budget, so per-line units are
        // equal; the win comes from amortizing the read+analysis overhead.
        assert!(batched.avg_write_units <= single.avg_write_units + 1e-9);
    }

    #[test]
    fn telemetry_trace_reproduces_bank_busy_times() {
        use pcm_telemetry::{read_events, JsonlSink, TraceSummary};
        let path =
            std::env::temp_dir().join(format!("pcm_memsim_tel_{}.jsonl", std::process::id()));
        let mut cfg = SystemConfig::paper_baseline();
        cfg.cores = 1;
        cfg.controller.write_pausing = true;
        cfg.mem.select = SchemeSelect::Tetris;
        let mut sys = System::build(cfg)
            .unwrap()
            .with_trace(Box::new(VecTrace::new(vec![mem_trace_ops(400, 2, 2, 64)])))
            .with_content(Box::new(UniformRandomContent::new(3)));
        sys.set_workload_name("unit");
        sys.set_telemetry(Box::new(
            JsonlSink::create(&path, TraceDetail::Fine).unwrap(),
        ));
        let r = sys.run();
        let events =
            read_events(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
        std::fs::remove_file(&path).ok();

        assert!(
            matches!(events.first(), Some(TelemetryEvent::RunMeta { .. })),
            "trace opens with run metadata"
        );
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.workload, "unit");
        assert_eq!(s.scheme, r.scheme);
        // The pause-corrected busy accounting rebuilt from the trace must
        // equal the controller's ground truth, lane for lane.
        let truth = sys.bank_busy_totals();
        assert_eq!(s.banks.len(), truth.len());
        for (i, t) in truth.iter().enumerate() {
            assert_eq!(s.banks[i].busy, *t, "bank {i} busy time from trace");
        }
        assert!(s.banks.iter().map(|b| b.writes).sum::<u64>() > 0);
        assert!(s.drains > 0, "write storm must have triggered drains");
        assert!(!s.write_depths.is_empty(), "queue depths were sampled");
    }

    #[test]
    fn coarse_telemetry_drops_fine_events() {
        use pcm_telemetry::{read_events, JsonlSink, TraceSummary};
        let path = std::env::temp_dir().join(format!(
            "pcm_memsim_tel_coarse_{}.jsonl",
            std::process::id()
        ));
        let mut cfg = SystemConfig::paper_baseline();
        cfg.cores = 1;
        let mut sys = System::build(cfg)
            .unwrap()
            .with_trace(Box::new(VecTrace::new(vec![mem_trace_ops(100, 2, 2, 64)])))
            .with_content(Box::new(UniformRandomContent::new(3)));
        sys.set_telemetry(Box::new(
            JsonlSink::create(&path, TraceDetail::Coarse).unwrap(),
        ));
        sys.run();
        let events =
            read_events(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(events.iter().all(|e| e.detail() == TraceDetail::Coarse));
        let s = TraceSummary::from_events(&events);
        assert!(s.drains > 0, "coarse trace still records drain episodes");
        assert!(s.write_depths.is_empty(), "no fine-grained samples");
    }

    #[test]
    fn adaptive_scheduling_end_to_end() {
        use pcm_telemetry::{MemorySink, TraceSummary};
        let run_with = |sched: crate::sched::SchedConfig| {
            let cfg = SystemConfig::builder()
                .cores(1)
                .sched(sched)
                .scheme(SchemeSelect::Tetris)
                .build()
                .unwrap();
            let mut sys = System::build(cfg)
                .unwrap()
                .with_trace(Box::new(VecTrace::new(vec![mem_trace_ops(800, 1, 2, 64)])))
                .with_content(Box::new(UniformRandomContent::new(3)));
            sys.set_telemetry(Box::new(MemorySink::new()));
            let r = sys.run();
            (r, sys.ctrl_stats())
        };

        let (fixed_r, fixed_s) = run_with(crate::sched::SchedConfig::fixed());
        assert_eq!(fixed_s.steered_writes, 0, "fixed policy never steers");
        assert_eq!(fixed_s.watermark_updates, 0);
        assert_eq!(fixed_s.read_windows, 0);

        let (adapt_r, adapt_s) = run_with(crate::sched::SchedConfig::adaptive());
        assert_eq!(
            adapt_r.mem_writes, fixed_r.mem_writes,
            "policy changes scheduling, never the work done"
        );
        assert_eq!(adapt_r.mem_reads, fixed_r.mem_reads);
        assert!(
            adapt_s.watermark_updates > 0,
            "write storm must move the adaptive marks"
        );

        // The trace carries the policy decisions end-to-end.
        let cfg = SystemConfig::builder()
            .cores(1)
            .adaptive_scheduling()
            .scheme(SchemeSelect::Tetris)
            .build()
            .unwrap();
        let mut sys = System::build(cfg)
            .unwrap()
            .with_trace(Box::new(VecTrace::new(vec![mem_trace_ops(800, 1, 2, 64)])))
            .with_content(Box::new(UniformRandomContent::new(3)));
        let path =
            std::env::temp_dir().join(format!("pcm_memsim_sched_{}.jsonl", std::process::id()));
        sys.set_telemetry(Box::new(
            pcm_telemetry::JsonlSink::create(&path, TraceDetail::Fine).unwrap(),
        ));
        sys.run();
        let events = pcm_telemetry::read_events(std::io::BufReader::new(
            std::fs::File::open(&path).unwrap(),
        ))
        .unwrap();
        std::fs::remove_file(&path).ok();
        let s = TraceSummary::from_events(&events);
        assert!(
            s.watermark_adjusts > 0,
            "adaptive marks recorded in the trace"
        );
        // Busy-time reproduction still holds under the new policies.
        let truth = sys.bank_busy_totals();
        for (i, t) in truth.iter().enumerate() {
            assert_eq!(s.banks[i].busy, *t, "bank {i} busy time from trace");
        }
    }

    #[test]
    fn write_cache_coalesces_and_conserves_writes() {
        use crate::replacement::PolicySelect;
        // A hot set smaller than the frame budget: every line is written
        // many times but drains to PCM exactly once.
        let ops: Vec<TraceOp> = (0..512)
            .map(|i| TraceOp {
                gap: 1,
                kind: AccessKind::Write,
                addr: (i % 16) * 64,
            })
            .collect();
        let cfg = SystemConfig::builder()
            .cores(1)
            .write_cache(32)
            .write_cache_policy(PolicySelect::Lru)
            .build()
            .unwrap();
        let mut sys = System::build(cfg)
            .unwrap()
            .with_trace(Box::new(VecTrace::new(vec![ops])))
            .with_content(Box::new(UniformRandomContent::new(3)));
        let r = sys.run();
        let stats = sys.write_cache_stats().expect("tier enabled");
        assert_eq!(r.mem_writes, 16, "each hot line reaches PCM once");
        assert_eq!(stats.admitted, 16);
        assert_eq!(stats.coalesced, 512 - 16);
        assert_eq!(stats.drained, 16, "flush empties every frame");
        assert!(stats.coalesce_ratio() > 0.9);
    }

    #[test]
    fn write_cache_serves_reads_from_dirty_lines() {
        // Write a line, then read it back immediately: the DRAM tier
        // answers without a PCM read.
        let ops = vec![
            TraceOp {
                gap: 1,
                kind: AccessKind::Write,
                addr: 0x40,
            },
            TraceOp {
                gap: 1,
                kind: AccessKind::Read,
                addr: 0x40,
            },
        ];
        let cfg = SystemConfig::builder()
            .cores(1)
            .write_cache(8)
            .build()
            .unwrap();
        let mut sys = System::build(cfg)
            .unwrap()
            .with_trace(Box::new(VecTrace::new(vec![ops])))
            .with_content(Box::new(UniformRandomContent::new(3)));
        let r = sys.run();
        let stats = sys.write_cache_stats().expect("tier enabled");
        assert_eq!(stats.read_hits, 1);
        assert_eq!(r.mem_reads, 0, "the hit never reaches the banks");
        assert_eq!(r.read_latency.count, 1, "the load still completes");
    }

    #[test]
    fn write_cache_drains_past_watermark_and_under_pressure() {
        // A write storm over a footprint much larger than the frame
        // budget: capacity evictions and watermark drains both engage,
        // and every write still lands in PCM.
        let ops = mem_trace_ops(600, 1, 1, 64);
        let mut cfg = SystemConfig::builder()
            .cores(1)
            .write_cache(16)
            .drain_watermark(8)
            .build()
            .unwrap();
        cfg.mem.select = SchemeSelect::Dcw;
        let mut sys = System::build(cfg)
            .unwrap()
            .with_trace(Box::new(VecTrace::new(vec![ops])))
            .with_content(Box::new(UniformRandomContent::new(3)));
        let r = sys.run();
        let stats = sys.write_cache_stats().expect("tier enabled");
        assert_eq!(r.mem_writes, 600, "conservation under pressure");
        assert_eq!(stats.admitted, 600);
        assert_eq!(stats.drained, 600);
        assert_eq!(stats.coalesced, 0, "unique lines never coalesce");
    }

    #[test]
    fn disabled_write_cache_matches_baseline_bit_for_bit() {
        // `frames = 0` must leave the pipeline untouched: same result,
        // same trace summary, no write-cache events.
        use pcm_telemetry::{read_events, JsonlSink, TraceSummary};
        let run_with = |frames: usize| {
            let path = std::env::temp_dir().join(format!(
                "pcm_memsim_wc_{}_{frames}.jsonl",
                std::process::id()
            ));
            let mut cfg = SystemConfig::paper_baseline();
            cfg.cores = 1;
            if frames > 0 {
                cfg.write_cache =
                    crate::config::WriteCacheConfig::with_frames(frames, Default::default());
            }
            let mut sys = System::build(cfg)
                .unwrap()
                .with_trace(Box::new(VecTrace::new(vec![mem_trace_ops(400, 2, 2, 64)])))
                .with_content(Box::new(UniformRandomContent::new(3)));
            sys.set_telemetry(Box::new(
                JsonlSink::create(&path, TraceDetail::Fine).unwrap(),
            ));
            let r = sys.run();
            let evs =
                read_events(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
            std::fs::remove_file(&path).ok();
            (r, TraceSummary::from_events(&evs))
        };
        let (base, base_sum) = run_with(0);
        let (again, again_sum) = run_with(0);
        assert_eq!(base.runtime, again.runtime);
        assert_eq!(base.read_latency.sum_ps, again.read_latency.sum_ps);
        assert_eq!(base.write_latency.sum_ps, again.write_latency.sum_ps);
        assert_eq!(base.energy, again.energy);
        assert_eq!(base_sum.write_cache_coalesces, 0);
        assert_eq!(base_sum.write_cache_drains, 0);
        assert_eq!(base_sum.banks.len(), again_sum.banks.len());
        // And an enabled cache actually changes the profile.
        let (cached, cached_sum) = run_with(64);
        assert_eq!(cached.mem_reads, base.mem_reads);
        assert!(cached_sum.write_cache_drains > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(SchemeSelect::Dcw, vec![mem_trace_ops(200, 3, 3, 64)]);
        let b = run(SchemeSelect::Dcw, vec![mem_trace_ops(200, 3, 3, 64)]);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.read_latency.sum_ps, b.read_latency.sum_ps);
        assert_eq!(a.energy, b.energy);
    }
}
