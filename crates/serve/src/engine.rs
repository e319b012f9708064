//! The serving engine: per-rank controllers driven request-by-request.
//!
//! Unlike the batch [`pcm_memsim::System`] run loop, a serving front end
//! needs *incremental* progress — a request arrives, is admitted or shed,
//! and completes some simulated time later, with the caller able to react
//! to each completion (closed-loop users wait on theirs). The engine
//! therefore owns one [`RankCore`] per PCM rank — the same rank core
//! [`pcm_memsim::System`] drives, split per rank by the same
//! [`rank_config`] as [`pcm_memsim::ShardedSystem`] — and advances a
//! single simulated clock as requests are submitted. The cores decide how
//! a line reaches a rank's banks; the engine keeps only its own policy:
//! admission and shedding, idle drains, the completion heap and the
//! background id of write-cache drains.
//!
//! **All time is simulated.** Requests carry explicit arrival offsets
//! ([`Ps`]); the engine never reads the host clock, so a given request
//! stream produces a bit-identical telemetry stream on every run.
//!
//! ## Admission control
//!
//! The write path is the one that saturates (PCM writes are ~8× slower
//! than reads), so admission is keyed to the per-rank write queue: a write
//! arriving while its rank's queue sits at or above
//! [`ServeConfig::shed_watermark`] is refused — the caller gets
//! [`Admission::Shed`] (a `429`-style response on the wire) and a
//! [`TelemetryEvent::Backpressure`] is recorded — instead of growing an
//! unbounded backlog. Reads shed only when their bounded queue is
//! completely full. Queue depth is therefore bounded by construction; the
//! shed *rate* is the observable overload signal.

use pcm_memsim::shard::{rank_config, RANK_SEED_STRIDE};
use pcm_memsim::{
    AccessKind, MemRequest, RankCore, SystemConfig, UniformRandomContent, WriteCacheStats,
};
use pcm_telemetry::{OpKind, Telemetry, TelemetryEvent, TraceDetail};
use pcm_types::{AddrMap, DecodedAddr, PcmError, PhysAddr, Ps};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Request id reserved for background write-cache drains, so their bank
/// completions are never reported to a submitter.
const BACKGROUND_ID: u64 = u64::MAX;

/// Write requests for lines leaving a rank's write cache at `at`: the
/// background id and core 0.
fn background_writes(at: Ps) -> impl FnMut(PhysAddr) -> MemRequest {
    move |addr| MemRequest {
        id: BACKGROUND_ID,
        addr,
        kind: AccessKind::Write,
        core: 0,
        arrival: at,
    }
}

/// Configuration for a [`ServeEngine`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// System configuration: rank count, controller geometry, scheme
    /// selection and scheduling policy all come from here, exactly as in
    /// the experiments runner.
    pub system: SystemConfig,
    /// Write-queue depth at or above which new writes are shed. Defaults
    /// to the write-queue capacity (shed only when literally full);
    /// saturation tests force it down to provoke shedding.
    pub shed_watermark: usize,
    /// Seed for the synthesized write content.
    pub content_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let system = SystemConfig::paper_baseline();
        ServeConfig {
            system,
            shed_watermark: system.controller.write_queue_cap,
            content_seed: 0x5EED_CAFE,
        }
    }
}

/// How a submitted request was admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Queued (or forwarded); a [`Completion`] will follow.
    Accepted {
        /// Engine-assigned request id.
        id: u64,
    },
    /// Refused by admission control (the `429` path).
    Shed {
        /// Queue depth that triggered the shed.
        depth: usize,
    },
}

/// One finished request, ready to be reported to the submitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Engine-assigned request id.
    pub id: u64,
    /// Tenant the request belonged to.
    pub tenant: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Completion time.
    pub at: Ps,
    /// Arrival-to-completion latency.
    pub latency: Ps,
}

/// Aggregate serving counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Requests served to completion.
    pub served: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Reads accepted.
    pub reads: u64,
    /// Writes accepted.
    pub writes: u64,
    /// Deepest write queue observed at admission time (bounded by the
    /// queue capacity — the graceful-degradation invariant).
    pub peak_write_depth: usize,
    /// Deepest read queue observed at admission time.
    pub peak_read_depth: usize,
}

/// One rank's shard: its core and its content model.
struct RankLane {
    core: RankCore,
    content: UniformRandomContent,
}

/// The request-serving engine. See the module docs for the model.
pub struct ServeEngine {
    cfg: ServeConfig,
    global: AddrMap,
    lanes: Vec<RankLane>,
    tel: Box<dyn Telemetry>,
    now: Ps,
    next_id: u64,
    /// Outstanding bank completions: `(time, rank, bank, epoch)`, popped
    /// smallest first — a deterministic (time, rank, bank) order. Epochs
    /// are unique, so no two entries tie.
    pending: BinaryHeap<Reverse<(Ps, u32, usize, u64)>>,
    done: Vec<Completion>,
    stats: ServeStats,
}

impl ServeEngine {
    /// Build the engine: one controller shard per rank, rank-local
    /// address spaces (capacity ÷ ranks), content seeded per rank exactly
    /// like the experiments runner.
    pub fn new(cfg: ServeConfig, mut tel: Box<dyn Telemetry>) -> Result<ServeEngine, PcmError> {
        cfg.system.validate()?;
        let global = AddrMap::with_default_rows(cfg.system.mem.org)?;
        let rank_cfg = rank_config(&cfg.system);
        let lanes = (0..cfg.system.mem.org.ranks)
            .map(|r| {
                Ok(RankLane {
                    core: RankCore::build(&rank_cfg, r)?,
                    content: UniformRandomContent::new(
                        cfg.content_seed ^ (r as u64).wrapping_mul(RANK_SEED_STRIDE),
                    ),
                })
            })
            .collect::<Result<Vec<_>, PcmError>>()?;
        if let Some(lane) = lanes.first() {
            lane.core
                .record_run_meta("serve", cfg.system.mem.org.ranks, tel.as_mut());
        }
        Ok(ServeEngine {
            cfg,
            global,
            lanes,
            tel,
            now: Ps::ZERO,
            next_id: 0,
            pending: BinaryHeap::new(),
            done: Vec::new(),
            stats: ServeStats::default(),
        })
    }

    /// Current simulated time.
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Completions recorded since the last call (submission order of the
    /// underlying bank events — deterministic). The buffer keeps its
    /// capacity for the next batch.
    pub fn take_completions(&mut self) -> std::vec::Drain<'_, Completion> {
        self.done.drain(..)
    }

    /// Submit one request arriving at `at` (simulated). Arrival times
    /// must be non-decreasing; an earlier timestamp is clamped to the
    /// current clock.
    pub fn submit(
        &mut self,
        tenant: u32,
        kind: AccessKind,
        addr: PhysAddr,
        at: Ps,
    ) -> Result<Admission, PcmError> {
        let at = at.max(self.now);
        self.advance_to(at);
        // Map the caller's address into line-granularity traffic within
        // the configured capacity.
        let line = self.cfg.system.mem.org.cache_line_bytes as u64;
        let addr = (addr % self.cfg.system.mem.org.capacity_bytes) / line * line;
        let d = self.global.decode(addr)?;
        let rank = d.rank as usize;
        let shed_mark = self
            .cfg
            .shed_watermark
            .min(self.cfg.system.controller.write_queue_cap);
        let core = &mut self.lanes[rank].core;
        let dl = core.addr_map().recode(&DecodedAddr { rank: 0, ..d })?;
        let local_addr = dl.line * line;
        let (read_depth, write_depth) = core.ctrl().queue_depths();
        self.stats.peak_read_depth = self.stats.peak_read_depth.max(read_depth);
        self.stats.peak_write_depth = self.stats.peak_write_depth.max(write_depth);
        // A read whose line sits dirty in the rank's DRAM tier is served
        // there at bus speed — no queue slot, no bank occupancy.
        if kind == AccessKind::Read && core.cache_read_hit(local_addr, at, self.tel.as_mut()) {
            let id = self.next_id;
            self.next_id += 1;
            self.stats.reads += 1;
            let ready = at + self.cfg.system.controller.t_bus;
            self.record_done(id, tenant, kind, at, ready);
            return Ok(Admission::Accepted { id });
        }
        let full = match kind {
            // With the DRAM tier in front, a write sheds only when the
            // frame table is exhausted *and* the rank's queue is past the
            // shed mark — the cache absorbs bursts first.
            AccessKind::Write => {
                core.write_blocked(write_depth >= shed_mark || core.ctrl().write_queue_full())
            }
            AccessKind::Read => core.ctrl().read_queue_full(),
        };
        if full {
            let depth = match kind {
                AccessKind::Write => write_depth,
                AccessKind::Read => read_depth,
            };
            self.stats.shed += 1;
            if self.tel.wants(TraceDetail::Coarse) {
                self.tel.record(&TelemetryEvent::Backpressure {
                    at,
                    tenant,
                    depth: depth as u32,
                });
            }
            return Ok(Admission::Shed { depth });
        }
        let id = self.next_id;
        self.next_id += 1;
        let req = MemRequest {
            id,
            addr: local_addr,
            kind,
            core: tenant as usize,
            arrival: at,
        };
        match kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                if let Some(ready) = core.enqueue_read(req, &dl) {
                    // Store-to-load forwarding: served from the write
                    // queue without touching a bank.
                    self.record_done(id, tenant, kind, at, ready);
                }
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                if core.has_write_cache() {
                    // Absorb the write in DRAM: it completes at bus speed
                    // and its line drains to the PCM banks later.
                    core.cache_write(
                        local_addr,
                        at,
                        &mut background_writes(self.now),
                        self.tel.as_mut(),
                    );
                    self.drain_lane_cache(rank, false);
                    let ready = at + self.cfg.system.controller.t_bus;
                    self.record_done(id, tenant, kind, at, ready);
                } else {
                    core.enqueue_write(req, &dl, self.tel.as_mut());
                }
            }
        }
        self.lanes[rank]
            .core
            .sample_queue_depths(at, self.tel.as_mut());
        self.issue(rank);
        Ok(Admission::Accepted { id })
    }

    /// Advance to the next bank completion, if any. With nothing in
    /// flight but writes parked below the drain watermark, the engine
    /// idle-drains them (a real controller drains an idle memory the same
    /// way). Returns `false` when the engine is completely idle.
    pub fn step(&mut self) -> bool {
        if self.pending.is_empty() {
            for rank in 0..self.lanes.len() {
                self.lanes[rank].core.force_drain();
                self.issue(rank);
            }
        }
        match self.pending.peek() {
            Some(&Reverse((t, _, _, _))) => {
                self.advance_to(t);
                true
            }
            None => false,
        }
    }

    /// Run every queued and in-flight request to completion — including
    /// every line still parked in the DRAM write-cache tier — and flush
    /// telemetry.
    pub fn drain(&mut self) -> Result<(), PcmError> {
        loop {
            let mut flushed = false;
            for rank in 0..self.lanes.len() {
                flushed |= self.drain_lane_cache(rank, true);
            }
            if !self.step() && !flushed {
                break;
            }
        }
        self.tel
            .flush()
            .map_err(|e| PcmError::config(format!("telemetry flush failed: {e}")))?;
        Ok(())
    }

    /// Combined write-cache counters over every rank lane (`None` when
    /// the tier is disabled).
    pub fn write_cache_stats(&self) -> Option<WriteCacheStats> {
        self.lanes
            .iter()
            .filter_map(|l| l.core.write_cache_stats())
            .reduce(|a, b| a + b)
    }

    /// Cumulative busy time per lane, rank after rank — the ground truth
    /// a recorded trace's per-lane utilization should reproduce.
    pub fn bank_busy_totals(&self) -> Vec<Ps> {
        self.lanes
            .iter()
            .flat_map(|l| l.core.ctrl().bank_busy_totals())
            .collect()
    }

    /// Trickle one lane's cached lines into its controller as background
    /// writes: past the watermark during service (`to_empty = false`), or
    /// down to nothing on final drain (`to_empty = true`). Returns whether
    /// any line moved.
    fn drain_lane_cache(&mut self, rank: usize, to_empty: bool) -> bool {
        let lines = self.lanes[rank].core.drain_cache(
            to_empty,
            self.now,
            &mut background_writes(self.now),
            self.tel.as_mut(),
        );
        if lines > 0 {
            self.issue(rank);
        }
        lines > 0
    }

    /// Process all bank completions scheduled at or before `t`, then move
    /// the clock to `t`.
    fn advance_to(&mut self, t: Ps) {
        while let Some(&Reverse((ct, rank, bank, epoch))) = self.pending.peek() {
            if ct > t {
                break;
            }
            self.pending.pop();
            self.now = self.now.max(ct);
            let rank = rank as usize;
            let reqs = self.lanes[rank]
                .core
                .complete(bank, epoch, ct, self.tel.as_mut());
            for req in reqs.into_iter().flatten() {
                if req.id == BACKGROUND_ID {
                    // A write-cache drain finishing its trip to the banks;
                    // the submitter was answered back at admission.
                    continue;
                }
                self.record_done(req.id, req.core as u32, req.kind, req.arrival, ct);
            }
            self.issue(rank);
        }
        self.now = self.now.max(t);
    }

    /// Let one rank's controller fill its free banks; track the new
    /// completions.
    fn issue(&mut self, rank: usize) {
        let lane = &mut self.lanes[rank];
        let issued = lane
            .core
            .issue(self.now, &mut lane.content, self.tel.as_mut());
        for i in issued {
            self.pending
                .push(Reverse((i.completion, rank as u32, i.bank, i.epoch)));
        }
    }

    /// Answer request `id`, which arrived at `arrival`, at `at`.
    fn record_done(&mut self, id: u64, tenant: u32, kind: AccessKind, arrival: Ps, at: Ps) {
        let c = Completion {
            id,
            tenant,
            kind,
            at,
            latency: at.saturating_sub(arrival),
        };
        self.stats.served += 1;
        if self.tel.wants(TraceDetail::Fine) {
            self.tel.record(&TelemetryEvent::RequestDone {
                at: c.at,
                tenant: c.tenant,
                kind: match c.kind {
                    AccessKind::Read => OpKind::Read,
                    AccessKind::Write => OpKind::Write,
                },
                latency: c.latency,
            });
        }
        self.done.push(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_telemetry::{MemorySink, NullSink};

    fn quick_cfg(ranks: u32) -> ServeConfig {
        ServeConfig {
            system: SystemConfig::builder()
                .small_caches()
                .ranks(ranks)
                .build()
                .unwrap(),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn requests_complete_with_positive_latency() {
        let mut e = ServeEngine::new(quick_cfg(1), Box::new(NullSink)).unwrap();
        let mut t = Ps::ZERO;
        for i in 0..64u64 {
            let kind = if i % 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let a = e.submit(0, kind, i * 64, t).unwrap();
            assert!(matches!(a, Admission::Accepted { .. }), "req {i}: {a:?}");
            t += Ps::from_ns(100);
        }
        e.drain().unwrap();
        let done = e.take_completions().collect::<Vec<_>>();
        assert_eq!(done.len(), 64);
        assert!(done.iter().all(|c| c.latency > Ps::ZERO));
        assert_eq!(e.stats().served, 64);
        assert_eq!(e.stats().shed, 0);
    }

    #[test]
    fn saturation_sheds_instead_of_growing_queues() {
        let mut cfg = quick_cfg(1);
        cfg.shed_watermark = 4;
        let mut e = ServeEngine::new(cfg, Box::new(NullSink)).unwrap();
        // A same-instant write burst to one bank: must shed, not queue.
        for i in 0..256u64 {
            e.submit(1, AccessKind::Write, i * 64, Ps::ZERO).unwrap();
        }
        assert!(e.stats().shed > 0, "burst past the watermark must shed");
        assert!(
            e.stats().peak_write_depth <= cfg.system.controller.write_queue_cap,
            "queues stay bounded: {}",
            e.stats().peak_write_depth
        );
        e.drain().unwrap();
        assert_eq!(
            e.stats().served + e.stats().shed,
            256,
            "every request either served or shed"
        );
    }

    #[test]
    fn multi_rank_run_is_deterministic() {
        let run = || {
            let mut e = ServeEngine::new(quick_cfg(4), Box::new(MemorySink::default())).unwrap();
            let mut t = Ps::ZERO;
            for i in 0..512u64 {
                let kind = if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                e.submit((i % 2) as u32, kind, i * 8192, t).unwrap();
                t += Ps::from_ns(40);
            }
            e.drain().unwrap();
            (
                e.stats().served,
                e.stats().shed,
                e.take_completions().collect::<Vec<_>>(),
            )
        };
        let (s1, d1, c1) = run();
        let (s2, d2, c2) = run();
        assert_eq!(s1, s2);
        assert_eq!(d1, d2);
        assert_eq!(c1, c2, "completion stream is bit-identical");
        assert!(s1 > 0);
    }

    #[test]
    fn write_cache_lane_absorbs_hot_writes() {
        let mut cfg = quick_cfg(2);
        cfg.system = SystemConfig::builder()
            .small_caches()
            .ranks(2)
            .write_cache(32)
            .build()
            .unwrap();
        let mut e = ServeEngine::new(cfg, Box::new(NullSink)).unwrap();
        let mut t = Ps::ZERO;
        // Hammer a handful of hot lines: the DRAM tier coalesces, every
        // request still completes, none shed.
        for i in 0..512u64 {
            let a = e.submit(0, AccessKind::Write, (i % 8) * 64, t).unwrap();
            assert!(matches!(a, Admission::Accepted { .. }));
            t += Ps::from_ns(20);
        }
        e.drain().unwrap();
        assert_eq!(e.stats().served, 512);
        assert_eq!(e.stats().shed, 0);
        let wc = e.write_cache_stats().expect("tier enabled");
        assert_eq!(wc.coalesced + wc.admitted, 512);
        assert!(wc.coalesce_ratio() > 0.9, "hot lines merge in DRAM");
        assert_eq!(wc.drained, wc.admitted, "final drain empties the tier");
    }

    #[test]
    fn write_cache_serves_reads_and_stays_deterministic() {
        let run = || {
            let mut cfg = quick_cfg(1);
            cfg.system = SystemConfig::builder()
                .small_caches()
                .write_cache(16)
                .build()
                .unwrap();
            let mut e = ServeEngine::new(cfg, Box::new(MemorySink::default())).unwrap();
            let mut t = Ps::ZERO;
            for i in 0..128u64 {
                let kind = if i % 2 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                // Read back the line written the step before: a DRAM hit.
                e.submit(0, kind, (i / 2) * 64, t).unwrap();
                t += Ps::from_ns(250);
            }
            e.drain().unwrap();
            (
                e.stats().served,
                e.write_cache_stats().unwrap(),
                e.take_completions().collect::<Vec<_>>(),
            )
        };
        let (served, wc, c1) = run();
        assert_eq!(served, 128);
        assert!(wc.read_hits > 0, "reads hit cached dirty lines");
        let (_, _, c2) = run();
        assert_eq!(c1, c2, "completion stream is bit-identical");
    }

    #[test]
    fn multi_rank_trace_keeps_every_lane_apart() {
        use pcm_telemetry::{read_events, JsonlSink, TraceSummary};
        let path =
            std::env::temp_dir().join(format!("pcm_serve_lanes_{}.jsonl", std::process::id()));
        let mut cfg = quick_cfg(4);
        cfg.system.controller.subarrays_per_bank = 2;
        cfg.system.controller.write_pausing = true;
        let sink = JsonlSink::create(&path, TraceDetail::Fine).unwrap();
        let mut e = ServeEngine::new(cfg, Box::new(sink)).unwrap();
        let mut t = Ps::ZERO;
        for i in 0..2_000u64 {
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            e.submit(0, kind, i * 64 * 7, t).unwrap();
            t += Ps::from_ns(30);
        }
        e.drain().unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let events = read_events(std::io::BufReader::new(file)).unwrap();
        std::fs::remove_file(&path).ok();
        let s = TraceSummary::from_events(&events);
        // Each rank's lanes keep their own ids in the shared trace: the
        // busy time rebuilt per lane equals its controller's ground truth.
        let truth = e.bank_busy_totals();
        assert_eq!(truth.len(), 4 * 8 * 2);
        assert_eq!(s.banks.len(), truth.len());
        for (i, t) in truth.iter().enumerate() {
            assert_eq!(s.banks[i].busy, *t, "lane {i} busy time from trace");
        }
        assert!(truth.iter().all(|t| *t > Ps::ZERO), "every lane saw work");
    }

    #[test]
    fn tetris_packing_knobs_reach_the_ranks() {
        // Serve builds Tetris from `SystemConfig::tetris`: dropping the
        // per-write analysis overhead must shorten every write.
        let mean_write_ps = |overhead: Option<Ps>| {
            let mut system = SystemConfig::builder()
                .small_caches()
                .scheme(pcm_memsim::SchemeSelect::Tetris)
                .build()
                .unwrap();
            if let Some(o) = overhead {
                system.tetris.analysis_overhead = o;
            }
            let cfg = ServeConfig {
                system,
                ..ServeConfig::default()
            };
            let mut e = ServeEngine::new(cfg, Box::new(NullSink)).unwrap();
            let mut t = Ps::ZERO;
            for i in 0..256u64 {
                e.submit(0, AccessKind::Write, i * 64, t).unwrap();
                t += Ps::from_ns(500);
            }
            e.drain().unwrap();
            let lat: Vec<u64> = e.take_completions().map(|c| c.latency.as_ps()).collect();
            assert_eq!(lat.len(), 256);
            lat.iter().sum::<u64>() / 256
        };
        let baseline = mean_write_ps(None);
        let free_analysis = mean_write_ps(Some(Ps::ZERO));
        assert!(
            free_analysis < baseline,
            "analysis_overhead = 0 gave {free_analysis} ps vs {baseline} ps"
        );
    }

    #[test]
    fn arrivals_clamp_to_the_clock() {
        let mut e = ServeEngine::new(quick_cfg(1), Box::new(NullSink)).unwrap();
        e.submit(0, AccessKind::Read, 0, Ps::from_ns(1_000))
            .unwrap();
        // An out-of-order arrival is clamped, not rewound.
        e.submit(0, AccessKind::Read, 4096, Ps::ZERO).unwrap();
        assert!(e.now() >= Ps::from_ns(1_000));
        e.drain().unwrap();
        assert_eq!(e.stats().served, 2);
    }
}
