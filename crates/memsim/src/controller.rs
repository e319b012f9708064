//! The FRFCFS memory controller.
//!
//! Separate 32-entry read and write queues (Table II). Reads have strict
//! priority: writes are serviced **only when the write queue fills**, and a
//! drain then runs until the low watermark — the "variable FRFCFS" policy
//! the paper credits for the blackscholes/swaptions write-latency anomaly
//! (§V-B3). Within a queue, scheduling is first-ready (row-buffer hits
//! first) then first-come-first-served, per free bank.
//!
//! Each queue's capacity counts all its entries, but the entries are
//! kept per lane (one subarray of one bank), each lane in arrival
//! order: a pick only ever looks at one lane, so it scans that lane's few
//! entries rather than the whole queue, and picks exactly what a scan of
//! one arrival-ordered queue would.
//!
//! Reads that hit a queued write are served by store-to-load forwarding at
//! bus latency, without touching the arrays. A read issued to a bank
//! occupies it for the read timing and counts as a memory read; its data
//! is not modelled.
//!
//! A scheduling round visits only the lanes marked since the last one.
//! After a round every lane is settled: a free lane has nothing it could
//! issue, and a busy one could only be preempted by write pausing. A lane
//! stays settled until an event marks it: a read queued on it, a write
//! pushed on it, its own completion or a write completing in another
//! subarray of its bank (the shared pump frees), and a drain starting,
//! which marks every lane. A lane that issues a write while reads wait
//! on it stays marked, since the next round may pause that write. Nothing
//! else can make a settled lane issue: a read window only changes what a
//! lane with queued reads issues, and such a lane is never settled while
//! free; a drain stopping or a coalesced write only ever takes work away.
//! So the marked lanes, in index (or steering) order, do exactly what a
//! scan of every lane would do. Debug builds check after every round that
//! no unmarked lane could issue.

use crate::bankstate::BankState;
use crate::config::ControllerConfig;
use crate::content::WriteContent;
use crate::memory::PcmMainMemory;
use crate::request::MemRequest;
use crate::sched::{SchedPolicy, WindowPoll};
use pcm_telemetry::{OpKind, Telemetry, TelemetryEvent, TraceDetail};
use pcm_types::{DecodedAddr, PcmTimings, Ps};

/// The controller's request queues. Private to the controller; the items
/// are `pub` only so that [`MemoryController`]'s queue parameter may name
/// them.
mod queue {
    use crate::request::MemRequest;

    /// A queued request with its decoded coordinates.
    #[derive(Clone, Debug)]
    pub struct QueuedReq {
        /// The request as it arrived.
        pub req: MemRequest,
        /// Its row within the bank.
        pub row: u64,
        /// Its lane (one subarray of one flat bank).
        pub bank: usize,
        /// Its line address.
        pub line: u64,
        /// Older same-line writes absorbed by this entry (DWC coalescing);
        /// they complete when this write is serviced.
        pub absorbed: Vec<MemRequest>,
    }

    /// One request queue (reads or writes) as the controller uses it. An
    /// entry's lane is `q.bank`, and a line always lives in one lane.
    pub trait ReqQueue {
        /// An empty queue over `lanes` lanes.
        fn with_lanes(lanes: usize) -> Self;
        /// Entries queued across all lanes.
        fn len(&self) -> usize;
        /// Append `q` behind every entry already queued.
        fn push(&mut self, q: QueuedReq);
        /// FRFCFS pick for `lane`: the position of its oldest entry on
        /// `open_row`, else of its oldest entry.
        fn pick(&self, lane: usize, open_row: Option<u64>) -> Option<usize>;
        /// Remove the entry at `i`, a position [`Self::pick`] returned
        /// for `lane`.
        fn remove(&mut self, lane: usize, i: usize) -> QueuedReq;
        /// The queued entry for `line`, which lives in `lane`.
        fn find_line(&mut self, lane: usize, line: u64) -> Option<&mut QueuedReq>;
        /// Does `lane` have a queued entry?
        fn has(&self, lane: usize) -> bool {
            self.pick(lane, None).is_some()
        }
    }

    /// The queue split per lane, each lane in arrival order: a pick or a
    /// same-line lookup scans one lane's few entries, and sees exactly
    /// what a scan of one arrival-ordered queue, filtered to that lane,
    /// would see.
    #[derive(Clone, Debug)]
    pub struct LaneQueues {
        lanes: Vec<Vec<QueuedReq>>,
        len: usize,
    }

    impl ReqQueue for LaneQueues {
        fn with_lanes(lanes: usize) -> Self {
            LaneQueues {
                lanes: vec![Vec::new(); lanes],
                len: 0,
            }
        }

        fn len(&self) -> usize {
            self.len
        }

        fn push(&mut self, q: QueuedReq) {
            self.lanes[q.bank].push(q);
            self.len += 1;
        }

        fn pick(&self, lane: usize, open_row: Option<u64>) -> Option<usize> {
            let q = &self.lanes[lane];
            if q.is_empty() {
                return None;
            }
            Some(q.iter().position(|r| open_row == Some(r.row)).unwrap_or(0))
        }

        fn remove(&mut self, lane: usize, i: usize) -> QueuedReq {
            self.len -= 1;
            self.lanes[lane].remove(i)
        }

        fn find_line(&mut self, lane: usize, line: u64) -> Option<&mut QueuedReq> {
            self.lanes[lane].iter_mut().find(|r| r.line == line)
        }

        fn has(&self, lane: usize) -> bool {
            !self.lanes[lane].is_empty()
        }
    }
}

use queue::{LaneQueues, QueuedReq, ReqQueue};

/// The request(s) one bank operation services: the first, then the rest
/// of a write batch and the older same-line writes a queued write
/// absorbed. Only those rarer cases put anything on the heap, so a single
/// read or write completes without allocating.
#[derive(Clone, Debug)]
pub struct Serviced {
    first: MemRequest,
    rest: Vec<MemRequest>,
}

impl Serviced {
    fn one(req: MemRequest) -> Self {
        Serviced {
            first: req,
            rest: Vec::new(),
        }
    }
}

impl IntoIterator for Serviced {
    type Item = MemRequest;
    type IntoIter = std::iter::Chain<std::iter::Once<MemRequest>, std::vec::IntoIter<MemRequest>>;

    /// The serviced requests, the one [`Issued::req`] named first.
    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.first).chain(self.rest)
    }
}

/// The request(s) currently occupying a bank (several when a write batch
/// is in flight).
#[derive(Clone, Debug)]
struct InFlight {
    reqs: Serviced,
    epoch: u64,
    is_write: bool,
    row: u64,
    pauses: u32,
}

/// A write (batch) preempted by a read (write pausing enabled).
#[derive(Clone, Debug)]
struct PausedWrite {
    reqs: Serviced,
    remaining: Ps,
    row: u64,
    pauses: u32,
}

/// How an enqueued read was handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadEnqueue {
    /// Queued for bank service.
    Queued,
    /// Forwarded from the write queue; data ready at the given time.
    Forwarded(Ps),
}

/// A request (or write batch) issued to a bank this round.
#[derive(Clone, Debug)]
pub struct Issued {
    /// Flat bank index now busy.
    pub bank: usize,
    /// When the bank completes.
    pub completion: Ps,
    /// The request being serviced (the first of a batch).
    pub req: MemRequest,
    /// Epoch tag: completions carry it back so stale events (from paused
    /// writes) are ignored.
    pub epoch: u64,
}

/// Controller statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CtrlStats {
    /// Reads served by store-to-load forwarding.
    pub read_forwards: u64,
    /// Number of drain episodes entered.
    pub drains: u64,
    /// Writes paused to let reads through.
    pub write_pauses: u64,
    /// Same-line writes coalesced in the queue (DWC).
    pub writes_coalesced: u64,
    /// Drain writes serviced on a less-utilized bank before the bank
    /// strict FIFO order would have picked (steering policy).
    pub steered_writes: u64,
    /// Read-priority windows opened mid-drain (read-window policy).
    pub read_windows: u64,
    /// Watermark recomputations that moved the marks (adaptive policy).
    pub watermark_updates: u64,
}

/// The memory controller.
///
/// Bank state is tracked per *lane* — one subarray of one bank — so with
/// `subarrays_per_bank > 1` a read can be in flight in one subarray while
/// another subarray of the same bank writes. The shared charge pump still
/// limits each bank to one write at a time.
pub struct MemoryController<Q = LaneQueues> {
    cfg: ControllerConfig,
    timings: PcmTimings,
    banks: Vec<BankState>,
    read_q: Q,
    write_q: Q,
    in_flight: Vec<Option<InFlight>>,
    paused: Vec<Option<PausedWrite>>,
    epoch: u64,
    drain: bool,
    sched: SchedPolicy,
    /// Added to every lane id the controller records, so that several
    /// ranks' controllers can share one trace.
    lane_base: u32,
    /// The writes one drain pick takes for a bank, and their new
    /// contents; kept between picks so that a drain allocates nothing.
    picked: Vec<QueuedReq>,
    writes: Vec<(pcm_types::PhysAddr, pcm_types::LineData)>,
    /// One bit per lane: the lanes the next round visits.
    dirty: Vec<u64>,
    /// The lanes a round visits, in visiting order.
    visit: Vec<usize>,
    /// Statistics.
    pub stats: CtrlStats,
}

impl MemoryController {
    /// A controller over `num_banks` banks
    /// (`num_banks × subarrays_per_bank` lanes).
    pub fn new(cfg: ControllerConfig, timings: PcmTimings, num_banks: usize) -> Self {
        Self::with_queues(cfg, timings, num_banks)
    }
}

impl<Q: ReqQueue> MemoryController<Q> {
    /// [`MemoryController::new`] over any queue implementation.
    fn with_queues(cfg: ControllerConfig, timings: PcmTimings, num_banks: usize) -> Self {
        let lanes = num_banks * cfg.subarrays_per_bank.max(1);
        let sched = SchedPolicy::new(&cfg, &timings);
        MemoryController {
            cfg,
            timings,
            sched,
            banks: vec![BankState::default(); lanes],
            read_q: Q::with_lanes(lanes),
            write_q: Q::with_lanes(lanes),
            in_flight: vec![None; lanes],
            paused: vec![None; lanes],
            epoch: 0,
            drain: false,
            lane_base: 0,
            picked: Vec::new(),
            writes: Vec::new(),
            dirty: vec![0; lanes.div_ceil(64)],
            visit: Vec::with_capacity(lanes),
            stats: CtrlStats::default(),
        }
    }

    /// Record lane ids as rank `rank` of ranks that share one trace
    /// (`rank * lanes + lane`, the documented flat id).
    pub(crate) fn set_trace_rank(&mut self, rank: u32) {
        self.lane_base = rank * self.lanes();
    }

    /// Lanes (banks × subarrays) the controller schedules.
    pub(crate) fn lanes(&self) -> u32 {
        self.banks.len() as u32
    }

    /// The id lane `lane` records under.
    pub(crate) fn trace_lane(&self, lane: usize) -> u32 {
        self.lane_base + lane as u32
    }

    /// Lane for a request: subarrays stripe by row within the bank.
    fn lane(&self, flat_bank: usize, row: u64) -> usize {
        let s = self.cfg.subarrays_per_bank.max(1);
        flat_bank * s + (row % s as u64) as usize
    }

    /// The lanes of `lane`'s bank (one per subarray).
    fn bank_lanes(&self, lane: usize) -> std::ops::Range<usize> {
        let s = self.cfg.subarrays_per_bank.max(1);
        lane / s * s..(lane / s + 1) * s
    }

    /// True if another subarray of `lane`'s bank has a write in flight or
    /// paused (the shared pump allows one write per bank).
    fn bank_write_busy(&self, lane: usize) -> bool {
        self.bank_lanes(lane).any(|l| {
            l != lane
                && (self.in_flight[l].as_ref().is_some_and(|f| f.is_write)
                    || self.paused[l].is_some())
        })
    }

    /// Have the next scheduling round visit `lane`.
    fn mark(&mut self, lane: usize) {
        self.dirty[lane / 64] |= 1 << (lane % 64);
    }

    /// Have the next scheduling round visit every lane.
    fn mark_all(&mut self) {
        for lane in 0..self.banks.len() {
            self.mark(lane);
        }
    }

    /// Could a round at `now` make `lane` do anything: pause its write
    /// for a queued read or, free, take a read, a drain write or its
    /// paused write? An unmarked lane must answer no after every round.
    fn could_issue(&self, lane: usize, now: Ps) -> bool {
        let reads = self.read_q.has(lane);
        match &self.in_flight[lane] {
            Some(f) if !self.banks[lane].is_free(now) => {
                self.cfg.write_pausing
                    && reads
                    && f.is_write
                    && f.pauses < self.cfg.max_pauses_per_write
            }
            Some(_) => false,
            None => {
                reads
                    || self.paused[lane].is_some()
                    || (self.drain && self.write_q.has(lane) && !self.bank_write_busy(lane))
            }
        }
    }

    /// Is the read queue at capacity?
    pub fn read_queue_full(&self) -> bool {
        self.read_q.len() >= self.cfg.read_queue_cap
    }

    /// Is the write queue at capacity?
    pub fn write_queue_full(&self) -> bool {
        self.write_q.len() >= self.cfg.write_queue_cap
    }

    /// Current queue depths (reads, writes).
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.read_q.len(), self.write_q.len())
    }

    /// Anything still queued, paused, or in a bank?
    pub fn has_pending(&self) -> bool {
        self.read_q.len() > 0
            || self.write_q.len() > 0
            || self.in_flight.iter().any(Option::is_some)
            || self.paused.iter().any(Option::is_some)
    }

    /// In drain mode?
    pub fn draining(&self) -> bool {
        self.drain
    }

    /// The scheduling policy's current state (watermarks, steering).
    pub fn sched(&self) -> &SchedPolicy {
        &self.sched
    }

    /// Record one write-queue depth sample with the scheduling policy and
    /// report a watermark move, if any.
    fn observe_write_depth(&mut self, at: Ps, tel: &mut dyn Telemetry) {
        if let Some((low, high)) = self.sched.observe_depth(self.write_q.len()) {
            self.stats.watermark_updates += 1;
            if tel.wants(TraceDetail::Coarse) {
                tel.record(&TelemetryEvent::WatermarkAdjust {
                    at,
                    low: low as u32,
                    high: high as u32,
                });
            }
        }
    }

    /// Force a drain (used to flush the write queue at end of run).
    pub fn force_drain(&mut self) {
        if self.write_q.len() > 0 {
            self.drain = true;
            self.mark_all();
        }
    }

    /// Enqueue a read. Caller must check [`Self::read_queue_full`] first.
    ///
    /// # Panics
    /// If the read queue is full.
    pub fn enqueue_read(
        &mut self,
        req: MemRequest,
        d: &DecodedAddr,
        flat_bank: usize,
    ) -> ReadEnqueue {
        assert!(!self.read_queue_full(), "enqueue_read on a full queue");
        let lane = self.lane(flat_bank, d.row);
        // Store-to-load forwarding from the write queue.
        if self.write_q.find_line(lane, d.line).is_some() {
            self.stats.read_forwards += 1;
            return ReadEnqueue::Forwarded(req.arrival + self.cfg.t_bus);
        }
        self.read_q.push(QueuedReq {
            req,
            row: d.row,
            bank: lane,
            line: d.line,
            absorbed: Vec::new(),
        });
        self.mark(lane);
        ReadEnqueue::Queued
    }

    /// Enqueue a write. Caller must check [`Self::write_queue_full`] first.
    /// Entering capacity flips the controller into drain mode (recorded as
    /// a [`TelemetryEvent::DrainStart`]).
    ///
    /// # Panics
    /// If the write queue is full.
    pub fn enqueue_write(
        &mut self,
        req: MemRequest,
        d: &DecodedAddr,
        flat_bank: usize,
        tel: &mut dyn Telemetry,
    ) {
        assert!(!self.write_queue_full(), "enqueue_write on a full queue");
        let lane = self.lane(flat_bank, d.row);
        if self.cfg.coalesce_writes {
            if let Some(existing) = self.write_q.find_line(lane, d.line) {
                // The newer write-back supersedes the queued one; carry the
                // old request along so its latency is recorded at service.
                let old = std::mem::replace(&mut existing.req, req);
                existing.absorbed.push(old);
                self.stats.writes_coalesced += 1;
                self.observe_write_depth(req.arrival, tel);
                return;
            }
        }
        self.write_q.push(QueuedReq {
            req,
            row: d.row,
            bank: lane,
            line: d.line,
            absorbed: Vec::new(),
        });
        self.mark(lane);
        self.observe_write_depth(req.arrival, tel);
        // Drain entry at the policy's high mark (queue capacity under the
        // fixed policy — the paper's fill-to-capacity behaviour).
        if !self.drain && self.write_q.len() >= self.sched.high_watermark() {
            self.drain = true;
            self.mark_all();
            self.stats.drains += 1;
            self.sched.note_drain_start(req.arrival);
            if tel.wants(TraceDetail::Coarse) {
                tel.record(&TelemetryEvent::DrainStart {
                    at: req.arrival,
                    writes: self.write_q.len() as u32,
                });
            }
        }
    }

    /// Issue requests to every free bank that can take one (visiting only
    /// the lanes marked since the last round; the others have nothing to
    /// issue, see the module doc). Writes are only eligible while
    /// draining; during a drain, a bank with no queued write may still take
    /// a read. Appends the newly issued requests to `issued`, which the
    /// caller owns and reuses (schedule their completions as
    /// `BankComplete` events). Bank-occupancy transitions, pause/resume
    /// decisions and batch-packing outcomes are reported to `tel` (pass
    /// [`pcm_telemetry::NullSink`] to disable).
    pub fn try_issue(
        &mut self,
        now: Ps,
        memory: &mut PcmMainMemory,
        content: &mut dyn WriteContent,
        tel: &mut dyn Telemetry,
        issued: &mut Vec<Issued>,
    ) {
        // Read-window policy: a long-starving drain yields briefly to
        // queued reads (banks without queued reads keep draining).
        let window = self
            .sched
            .poll_read_window(now, self.drain, self.read_q.len() > 0);
        if let WindowPoll::Opened(until) = window {
            self.stats.read_windows += 1;
            if tel.wants(TraceDetail::Coarse) {
                tel.record(&TelemetryEvent::ReadWindow { at: now, until });
            }
        }
        let window_active = window.active();
        // The marked lanes, in index order; the marks start afresh.
        self.visit.clear();
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.visit.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        // Steering policy: visit free banks least-utilized-first so idle
        // banks pick up backlog before already-hot ones; index order
        // otherwise.
        let steered = self.sched.bank_order(&self.banks, &mut self.visit);
        let max_pauses = self.cfg.max_pauses_per_write;
        for k in 0..self.visit.len() {
            let bank = self.visit[k];
            // Write pausing: a busy write yields to a queued read for the
            // same bank at an iteration boundary.
            if self.cfg.write_pausing && !self.banks[bank].is_free(now) && self.read_q.has(bank) {
                if let Some(f) =
                    self.in_flight[bank].take_if(|f| f.is_write && f.pauses < max_pauses)
                {
                    let remaining = self.banks[bank].busy_until().saturating_sub(now);
                    self.paused[bank] = Some(PausedWrite {
                        reqs: f.reqs,
                        remaining,
                        row: f.row,
                        pauses: f.pauses + 1,
                    });
                    self.banks[bank].interrupt(now);
                    self.stats.write_pauses += 1;
                    if tel.wants(TraceDetail::Coarse) {
                        tel.record(&TelemetryEvent::WritePause {
                            at: now,
                            bank: self.trace_lane(bank),
                            pauses: f.pauses + 1,
                        });
                    }
                }
            }
            if !self.banks[bank].is_free(now) || self.in_flight[bank].is_some() {
                continue;
            }
            // Drain mode: writes first for this bank; up to `batch_writes`
            // queued writes for the bank are serviced as one batched
            // operation (inter-line Tetris packing). The shared pump
            // allows one write per bank across its subarrays.
            if self.drain
                && !self.bank_write_busy(bank)
                && !(window_active && self.read_q.has(bank))
            {
                // Which bank strict index-order servicing would have
                // drained first — recorded when steering deviates.
                let fifo_bank = if steered {
                    (0..self.banks.len()).find(|&b| {
                        self.in_flight[b].is_none()
                            && self.banks[b].is_free(now)
                            && !self.bank_write_busy(b)
                            && self.write_q.has(b)
                    })
                } else {
                    None
                };
                self.picked.clear();
                while self.picked.len() < self.cfg.batch_writes.max(1) {
                    match self.write_q.pick(bank, self.banks[bank].open_row()) {
                        Some(i) => self.picked.push(self.write_q.remove(bank, i)),
                        None => break,
                    }
                }
                if !self.picked.is_empty() {
                    self.writes.clear();
                    for q in &self.picked {
                        let old = memory
                            .peek_line(q.req.addr)
                            .expect("queued write must decode");
                        self.writes
                            .push((q.req.addr, content.generate(q.req.core, &old)));
                    }
                    let outcome = memory
                        .write_lines_batch(&self.writes)
                        .expect("queued writes must be writable");
                    let lines = self.picked.len() as u32;
                    let row = self.picked[0].row;
                    // The batch's requests in pick order, each followed by
                    // the writes it absorbed.
                    let mut reqs = Serviced::one(self.picked[0].req);
                    for (k, q) in self.picked.drain(..).enumerate() {
                        if k > 0 {
                            reqs.rest.push(q.req);
                        }
                        reqs.rest.extend(q.absorbed);
                    }
                    let completion = self.banks[bank].begin_write(now, row, outcome.service_time);
                    self.banks[bank].note_partitions(outcome.partitions_used);
                    self.epoch += 1;
                    if tel.wants(TraceDetail::Fine) {
                        tel.record(&TelemetryEvent::BankBusy {
                            at: now,
                            bank: self.trace_lane(bank),
                            kind: OpKind::Write,
                            until: completion,
                            lines,
                        });
                        if outcome.partitions_used > 0 {
                            tel.record(&TelemetryEvent::PartitionWrite {
                                at: now,
                                bank: self.trace_lane(bank),
                                partitions: outcome.partitions_used,
                                lines,
                            });
                        }
                        let rows = outcome.coset_rows;
                        if rows.iter().any(|&n| n > 0) {
                            tel.record(&TelemetryEvent::CosetChoice {
                                at: now,
                                bank: self.trace_lane(bank),
                                row0: rows[0],
                                row1: rows[1],
                                row2: rows[2],
                                row3: rows[3],
                            });
                        }
                    }
                    if let Some(pack) = outcome.pack {
                        if tel.wants(TraceDetail::Coarse) {
                            tel.record(&TelemetryEvent::BatchPack {
                                at: now,
                                bank: self.trace_lane(bank),
                                lines,
                                write_units: pack.write_units_equiv,
                                stolen_write0s: pack.stolen_write0s,
                                utilization: pack.utilization,
                            });
                        }
                    }
                    issued.push(Issued {
                        bank,
                        completion,
                        req: reqs.first,
                        epoch: self.epoch,
                    });
                    self.in_flight[bank] = Some(InFlight {
                        reqs,
                        epoch: self.epoch,
                        is_write: true,
                        row,
                        pauses: 0,
                    });
                    // Write pausing may preempt it for a waiting read.
                    if self.read_q.has(bank) {
                        self.mark(bank);
                    }
                    if let Some(over) = fifo_bank {
                        if over != bank {
                            self.stats.steered_writes += 1;
                            if tel.wants(TraceDetail::Fine) {
                                tel.record(&TelemetryEvent::WriteSteer {
                                    at: now,
                                    bank: self.trace_lane(bank),
                                    over: self.trace_lane(over),
                                });
                            }
                        }
                    }
                    // Drain stops at the (possibly adapted) low watermark.
                    if self.drain && self.write_q.len() <= self.sched.low_watermark() {
                        self.drain = false;
                        self.sched.note_drain_stop();
                        if tel.wants(TraceDetail::Coarse) {
                            tel.record(&TelemetryEvent::DrainStop {
                                at: now,
                                writes: self.write_q.len() as u32,
                            });
                        }
                    }
                    continue;
                }
            }
            if let Some(i) = self.read_q.pick(bank, self.banks[bank].open_row()) {
                let q = self.read_q.remove(bank, i);
                // The data is not modelled on the read path; the array
                // access only counts.
                memory.count_read();
                let completion = self.banks[bank].begin_read(now, q.row, &self.timings, &self.cfg);
                self.epoch += 1;
                if tel.wants(TraceDetail::Fine) {
                    tel.record(&TelemetryEvent::BankBusy {
                        at: now,
                        bank: self.trace_lane(bank),
                        kind: OpKind::Read,
                        until: completion,
                        lines: 1,
                    });
                }
                self.in_flight[bank] = Some(InFlight {
                    reqs: Serviced::one(q.req),
                    epoch: self.epoch,
                    is_write: false,
                    row: q.row,
                    pauses: 0,
                });
                issued.push(Issued {
                    bank,
                    completion,
                    req: q.req,
                    epoch: self.epoch,
                });
                continue;
            }
            // Nothing else runnable: resume a paused write (re-ramp cost).
            if let Some(p) = self.paused[bank].take() {
                let completion =
                    self.banks[bank].begin_write(now, p.row, p.remaining + self.cfg.pause_overhead);
                self.epoch += 1;
                if tel.wants(TraceDetail::Coarse) {
                    tel.record(&TelemetryEvent::WriteResume {
                        at: now,
                        bank: self.trace_lane(bank),
                        until: completion,
                    });
                }
                let first = p.reqs.first;
                self.in_flight[bank] = Some(InFlight {
                    reqs: p.reqs,
                    epoch: self.epoch,
                    is_write: true,
                    row: p.row,
                    pauses: p.pauses,
                });
                issued.push(Issued {
                    bank,
                    completion,
                    req: first,
                    epoch: self.epoch,
                });
            }
        }
        debug_assert!(
            (0..self.banks.len())
                .all(|l| self.dirty[l / 64] & (1 << (l % 64)) != 0 || !self.could_issue(l, now)),
            "an unmarked lane could still issue at {now:?}"
        );
    }

    /// A bank finished (or a stale completion of a paused write fired);
    /// returns the serviced request(s) — several for a write batch — or
    /// `None` for stale events.
    pub fn complete(&mut self, bank: usize, epoch: u64) -> Option<Serviced> {
        match &self.in_flight[bank] {
            Some(f) if f.epoch == epoch => {
                // The lane is free, and a finished write frees the bank's
                // pump for its other subarrays.
                for lane in self.bank_lanes(bank) {
                    self.mark(lane);
                }
                self.in_flight[bank].take().map(|f| f.reqs)
            }
            _ => None,
        }
    }

    /// Row-buffer statistics summed over banks (hits, misses).
    pub fn row_stats(&self) -> (u64, u64) {
        self.banks
            .iter()
            .fold((0, 0), |(h, m), b| (h + b.row_hits, m + b.row_misses))
    }

    /// Cumulative busy time per lane — the ground truth a recorded trace's
    /// per-bank utilization should reproduce.
    pub fn bank_busy_totals(&self) -> Vec<Ps> {
        self.banks.iter().map(BankState::busy_total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::UniformRandomContent;
    use crate::request::AccessKind;
    use pcm_schemes::{DcwWrite, SchemeConfig};
    use pcm_telemetry::{MemorySink, NullSink};
    use pcm_types::propcheck::{any_bool, one_of, vec_of};
    use pcm_types::{prop_assert, prop_assert_eq, propcheck};

    /// The tests read one round's issues and one completion's requests
    /// as vectors.
    trait VecView {
        fn issue_vec(
            &mut self,
            now: Ps,
            memory: &mut PcmMainMemory,
            content: &mut dyn WriteContent,
            tel: &mut dyn Telemetry,
        ) -> Vec<Issued>;
        fn complete_vec(&mut self, bank: usize, epoch: u64) -> Vec<MemRequest>;
    }

    impl<Q: ReqQueue> VecView for MemoryController<Q> {
        fn issue_vec(
            &mut self,
            now: Ps,
            memory: &mut PcmMainMemory,
            content: &mut dyn WriteContent,
            tel: &mut dyn Telemetry,
        ) -> Vec<Issued> {
            let mut issued = Vec::new();
            self.try_issue(now, memory, content, tel, &mut issued);
            issued
        }

        fn complete_vec(&mut self, bank: usize, epoch: u64) -> Vec<MemRequest> {
            self.complete(bank, epoch).into_iter().flatten().collect()
        }
    }

    fn setup() -> (MemoryController, PcmMainMemory, UniformRandomContent) {
        let cfg = SchemeConfig::paper_baseline();
        let mem = PcmMainMemory::new(cfg, Box::new(DcwWrite)).unwrap();
        let ctrl = MemoryController::new(
            ControllerConfig::default(),
            cfg.timings,
            cfg.org.total_banks() as usize,
        );
        (ctrl, mem, UniformRandomContent::new(1))
    }

    fn read_req(id: u64, addr: u64, t: Ps) -> MemRequest {
        MemRequest {
            id,
            addr,
            kind: AccessKind::Read,
            core: 0,
            arrival: t,
        }
    }

    fn write_req(id: u64, addr: u64, t: Ps) -> MemRequest {
        MemRequest {
            id,
            addr,
            kind: AccessKind::Write,
            core: 0,
            arrival: t,
        }
    }

    fn decode(mem: &PcmMainMemory, addr: u64) -> (pcm_types::DecodedAddr, usize) {
        let d = mem.addr_map().decode(addr).unwrap();
        let fb = mem.addr_map().flat_bank(&d);
        (d, fb)
    }

    #[test]
    fn reads_issue_immediately_when_banks_free() {
        let (mut ctrl, mut mem, mut content) = setup();
        let (d, fb) = decode(&mem, 0x40);
        assert_eq!(
            ctrl.enqueue_read(read_req(1, 0x40, Ps::ZERO), &d, fb),
            ReadEnqueue::Queued
        );
        let issued = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);
        assert_eq!(issued.len(), 1);
        assert_eq!(issued[0].completion, Ps::from_ns(60));
        assert_eq!(ctrl.complete_vec(issued[0].bank, issued[0].epoch)[0].id, 1);
    }

    #[test]
    fn writes_wait_until_queue_fills() {
        let (mut ctrl, mut mem, mut content) = setup();
        // 31 writes: no drain, nothing issues.
        for i in 0..31u64 {
            let addr = i * 64;
            let (d, fb) = decode(&mem, addr);
            ctrl.enqueue_write(write_req(i, addr, Ps::ZERO), &d, fb, &mut NullSink);
        }
        assert!(!ctrl.draining());
        assert!(ctrl
            .issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink)
            .is_empty());
        // The 32nd write triggers the drain.
        let (d, fb) = decode(&mem, 31 * 64);
        ctrl.enqueue_write(write_req(31, 31 * 64, Ps::ZERO), &d, fb, &mut NullSink);
        assert!(ctrl.draining());
        let issued = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);
        assert_eq!(issued.len(), 8, "one write per free bank");
    }

    #[test]
    fn drain_stops_at_low_watermark() {
        let (mut ctrl, mut mem, mut content) = setup();
        for i in 0..32u64 {
            let addr = i * 64;
            let (d, fb) = decode(&mem, addr);
            ctrl.enqueue_write(write_req(i, addr, Ps::ZERO), &d, fb, &mut NullSink);
        }
        let mut now = Ps::ZERO;
        // Repeatedly complete and reissue until drain exits.
        let mut guard = 0;
        while ctrl.draining() {
            let issued = ctrl.issue_vec(now, &mut mem, &mut content, &mut NullSink);
            for i in &issued {
                now = now.max(i.completion);
            }
            for i in issued {
                ctrl.complete_vec(i.bank, i.epoch);
            }
            guard += 1;
            assert!(guard < 100, "drain must terminate");
        }
        let (_, wq) = ctrl.queue_depths();
        assert_eq!(wq, 16, "stopped at the low watermark");
    }

    #[test]
    fn read_priority_over_waiting_writes() {
        let (mut ctrl, mut mem, mut content) = setup();
        let (dw, fbw) = decode(&mem, 0x40);
        ctrl.enqueue_write(write_req(1, 0x40, Ps::ZERO), &dw, fbw, &mut NullSink);
        let (dr, fbr) = decode(&mem, 0x80);
        ctrl.enqueue_read(read_req(2, 0x80, Ps::ZERO), &dr, fbr);
        let issued = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);
        assert_eq!(issued.len(), 1);
        assert_eq!(issued[0].req.id, 2, "the read went first");
        assert_eq!(issued[0].req.kind, AccessKind::Read);
    }

    #[test]
    fn store_to_load_forwarding() {
        let (mut ctrl, mem, _c) = setup();
        let (d, fb) = decode(&mem, 0x40);
        ctrl.enqueue_write(write_req(1, 0x40, Ps::ZERO), &d, fb, &mut NullSink);
        let r = ctrl.enqueue_read(read_req(2, 0x40, Ps::from_ns(5)), &d, fb);
        assert_eq!(r, ReadEnqueue::Forwarded(Ps::from_ns(15)));
        assert_eq!(ctrl.stats.read_forwards, 1);
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let (mut ctrl, mut mem, mut content) = setup();
        // Three reads to bank 0: rows 0, 1, 0 (addresses 0, 8·64·64, 8·64).
        let a0 = 0u64;
        let a1 = 8 * 64 * 64; // same bank, next row
        let a2 = 8 * 64; // same bank, row 0 again
        for (id, a) in [(1, a0), (2, a1), (3, a2)] {
            let (d, fb) = decode(&mem, a);
            assert_eq!(fb, 0);
            ctrl.enqueue_read(read_req(id, a, Ps::ZERO), &d, fb);
        }
        // First issue: FCFS (no open row) → id 1, opens row 0.
        let i1 = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);
        assert_eq!(i1[0].req.id, 1);
        let done = i1[0].completion;
        ctrl.complete_vec(i1[0].bank, i1[0].epoch);
        // Second issue: row 0 open → id 3 jumps ahead of id 2.
        let i2 = ctrl.issue_vec(done, &mut mem, &mut content, &mut NullSink);
        assert_eq!(i2[0].req.id, 3, "row hit preferred over older miss");
    }

    #[test]
    fn write_pausing_lets_reads_preempt() {
        let (_ctrl0, mut mem, mut content) = setup();
        let cfg = ControllerConfig {
            write_pausing: true,
            ..Default::default()
        };
        let mut ctrl = MemoryController::new(cfg, pcm_types::PcmTimings::paper_baseline(), 8);

        // Start a (long, DCW ≈ 3.44 µs) write on bank 0 via a forced drain.
        let (d, fb) = decode(&mem, 0x0);
        ctrl.enqueue_write(write_req(1, 0x0, Ps::ZERO), &d, fb, &mut NullSink);
        ctrl.force_drain();
        let w = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);
        assert_eq!(w.len(), 1);
        let write_completion = w[0].completion;
        assert!(write_completion > Ps::from_ns(3000));

        // A read to the same bank arrives mid-write.
        let t1 = Ps::from_ns(500);
        let (dr, fbr) = decode(&mem, 8 * 64); // same bank, another row
        assert_eq!(fbr, 0);
        ctrl.enqueue_read(read_req(2, 8 * 64, t1), &dr, fbr);
        let issued = ctrl.issue_vec(t1, &mut mem, &mut content, &mut NullSink);
        assert_eq!(issued.len(), 1, "the read preempts the write");
        assert_eq!(issued[0].req.id, 2);
        assert_eq!(ctrl.stats.write_pauses, 1);

        // The original write's completion event is now stale.
        assert!(ctrl.complete_vec(w[0].bank, w[0].epoch).is_empty());

        // Finish the read, then the write resumes with its remaining time
        // plus the re-ramp overhead.
        let read_done = issued[0].completion;
        assert_eq!(ctrl.complete_vec(issued[0].bank, issued[0].epoch)[0].id, 2);
        let resumed = ctrl.issue_vec(read_done, &mut mem, &mut content, &mut NullSink);
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].req.id, 1);
        let expected = read_done + (write_completion - t1) + Ps::from_ns(4);
        assert_eq!(resumed[0].completion, expected);
        assert_eq!(
            ctrl.complete_vec(resumed[0].bank, resumed[0].epoch)[0].id,
            1
        );
        assert!(!ctrl.has_pending());
    }

    #[test]
    fn repeated_pause_resume_keeps_only_latest_epoch_live() {
        let (_c, mut mem, mut content) = setup();
        let cfg = ControllerConfig {
            write_pausing: true,
            max_pauses_per_write: 4,
            ..Default::default()
        };
        let mut ctrl = MemoryController::new(cfg, pcm_types::PcmTimings::paper_baseline(), 8);

        let (d, fb) = decode(&mem, 0x0);
        ctrl.enqueue_write(write_req(1, 0x0, Ps::ZERO), &d, fb, &mut NullSink);
        ctrl.force_drain();
        let w0 = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);

        // Two pause/resume cycles, each obsoleting the previous epoch.
        let mut stale = vec![(w0[0].bank, w0[0].epoch)];
        let mut now = Ps::from_ns(200);
        let mut last = w0[0].clone();
        for (pass, id) in [(1u64, 2u64), (2, 3)] {
            let addr = 8 * 64 * pass; // same bank, fresh row
            let (dr, fbr) = decode(&mem, addr);
            assert_eq!(fbr, 0);
            ctrl.enqueue_read(read_req(id, addr, now), &dr, fbr);
            let r = ctrl.issue_vec(now, &mut mem, &mut content, &mut NullSink);
            assert_eq!(r[0].req.id, id, "read preempts on pass {pass}");
            // Every superseded epoch is a no-op, however often it fires.
            for &(b, e) in &stale {
                assert!(
                    ctrl.complete_vec(b, e).is_empty(),
                    "epoch {e} must be stale"
                );
            }
            assert_eq!(ctrl.complete_vec(r[0].bank, r[0].epoch)[0].id, id);
            let resumed = ctrl.issue_vec(r[0].completion, &mut mem, &mut content, &mut NullSink);
            assert_eq!(resumed[0].req.id, 1, "the write resumes");
            stale.push((last.bank, last.epoch));
            last = resumed[0].clone();
            now = r[0].completion + Ps::from_ns(100);
        }
        assert_eq!(ctrl.stats.write_pauses, 2);

        // Only the final epoch retires the write — exactly once.
        assert_eq!(ctrl.complete_vec(last.bank, last.epoch)[0].id, 1);
        assert!(ctrl.complete_vec(last.bank, last.epoch).is_empty());
        for &(b, e) in &stale {
            assert!(ctrl.complete_vec(b, e).is_empty());
        }
        assert!(!ctrl.has_pending());
    }

    #[test]
    fn read_arriving_at_exact_completion_does_not_pause() {
        // Tie-break: a read that lands on the write's exact completion
        // instant must wait for the completion event, not pause a write
        // with zero time remaining (which would strand it as paused).
        let (_c, mut mem, mut content) = setup();
        let cfg = ControllerConfig {
            write_pausing: true,
            ..Default::default()
        };
        let mut ctrl = MemoryController::new(cfg, pcm_types::PcmTimings::paper_baseline(), 8);

        let (d, fb) = decode(&mem, 0x0);
        ctrl.enqueue_write(write_req(1, 0x0, Ps::ZERO), &d, fb, &mut NullSink);
        ctrl.force_drain();
        let w = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);
        let t = w[0].completion;

        let (dr, fbr) = decode(&mem, 8 * 64);
        ctrl.enqueue_read(read_req(2, 8 * 64, t), &dr, fbr);
        // Until the completion is consumed the bank stays claimed: no pause,
        // no issue.
        assert!(ctrl
            .issue_vec(t, &mut mem, &mut content, &mut NullSink)
            .is_empty());
        assert_eq!(
            ctrl.stats.write_pauses, 0,
            "zero-remaining write never pauses"
        );
        // The write's epoch is still the live one.
        assert_eq!(ctrl.complete_vec(w[0].bank, w[0].epoch)[0].id, 1);
        // Now the read goes, at the same timestamp.
        let r = ctrl.issue_vec(t, &mut mem, &mut content, &mut NullSink);
        assert_eq!(r[0].req.id, 2);
        assert_eq!(ctrl.complete_vec(r[0].bank, r[0].epoch)[0].id, 2);
        assert!(!ctrl.has_pending());
    }

    #[test]
    fn pause_limit_bounds_preemption() {
        let (_c, mut mem, mut content) = setup();
        let cfg = ControllerConfig {
            write_pausing: true,
            max_pauses_per_write: 1,
            ..Default::default()
        };
        let mut ctrl = MemoryController::new(cfg, pcm_types::PcmTimings::paper_baseline(), 8);

        let (d, fb) = decode(&mem, 0x0);
        ctrl.enqueue_write(write_req(1, 0x0, Ps::ZERO), &d, fb, &mut NullSink);
        ctrl.force_drain();
        let w = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);

        // First read pauses the write.
        let (dr, fbr) = decode(&mem, 8 * 64);
        ctrl.enqueue_read(read_req(2, 8 * 64, Ps::from_ns(100)), &dr, fbr);
        let r1 = ctrl.issue_vec(Ps::from_ns(100), &mut mem, &mut content, &mut NullSink);
        assert_eq!(r1[0].req.id, 2);
        assert!(!ctrl.complete_vec(r1[0].bank, r1[0].epoch).is_empty());
        let resumed = ctrl.issue_vec(r1[0].completion, &mut mem, &mut content, &mut NullSink);
        assert_eq!(resumed[0].req.id, 1);

        // Second read must NOT pause it again (limit reached).
        let t2 = r1[0].completion + Ps::from_ns(50);
        ctrl.enqueue_read(read_req(3, 8 * 64, t2), &dr, fbr);
        let r2 = ctrl.issue_vec(t2, &mut mem, &mut content, &mut NullSink);
        assert!(r2.is_empty(), "write runs to completion: {r2:?}");
        assert_eq!(ctrl.stats.write_pauses, 1);
        let _ = w;
    }

    #[test]
    fn coalescing_merges_same_line_writes() {
        let (_c, mut mem, mut content) = setup();
        let cfg = ControllerConfig {
            coalesce_writes: true,
            ..Default::default()
        };
        let mut ctrl = MemoryController::new(cfg, pcm_types::PcmTimings::paper_baseline(), 8);
        let (d, fb) = decode(&mem, 0x40);
        ctrl.enqueue_write(write_req(1, 0x40, Ps::ZERO), &d, fb, &mut NullSink);
        ctrl.enqueue_write(write_req(2, 0x40, Ps::from_ns(10)), &d, fb, &mut NullSink);
        ctrl.enqueue_write(write_req(3, 0x40, Ps::from_ns(20)), &d, fb, &mut NullSink);
        let (_, wq) = ctrl.queue_depths();
        assert_eq!(wq, 1, "three same-line writes hold one slot");
        assert_eq!(ctrl.stats.writes_coalesced, 2);
        // Service it: all three requests complete together.
        ctrl.force_drain();
        let issued = ctrl.issue_vec(Ps::from_ns(30), &mut mem, &mut content, &mut NullSink);
        assert_eq!(issued.len(), 1);
        let reqs = ctrl.complete_vec(issued[0].bank, issued[0].epoch);
        let mut ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        // Memory saw exactly one line write.
        assert_eq!(mem.stats().writes, 1);
    }

    #[test]
    fn coalescing_off_keeps_duplicates() {
        let (mut ctrl, mem, _c) = setup();
        let (d, fb) = decode(&mem, 0x40);
        ctrl.enqueue_write(write_req(1, 0x40, Ps::ZERO), &d, fb, &mut NullSink);
        ctrl.enqueue_write(write_req(2, 0x40, Ps::from_ns(10)), &d, fb, &mut NullSink);
        let (_, wq) = ctrl.queue_depths();
        assert_eq!(wq, 2, "paper-faithful default: no consolidation");
    }

    #[test]
    fn subarrays_let_reads_overlap_writes() {
        let (_c, mut mem, mut content) = setup();
        let cfg = ControllerConfig {
            subarrays_per_bank: 2,
            ..Default::default()
        };
        let mut ctrl = MemoryController::new(cfg, pcm_types::PcmTimings::paper_baseline(), 8);

        // A write to bank 0, row 0 (subarray 0 → lane 0) under drain.
        let (dw, fbw) = decode(&mem, 0x0);
        ctrl.enqueue_write(write_req(1, 0x0, Ps::ZERO), &dw, fbw, &mut NullSink);
        ctrl.force_drain();
        let w = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);
        assert_eq!(w.len(), 1);

        // A read to bank 0, odd row (subarray 1) proceeds mid-write…
        let odd_row_addr = 8 * 64 * 64; // bank 0, row 1
        let (dr, fbr) = decode(&mem, odd_row_addr);
        assert_eq!(fbr, 0);
        assert_eq!(dr.row % 2, 1);
        ctrl.enqueue_read(read_req(2, odd_row_addr, Ps::from_ns(100)), &dr, fbr);
        let r = ctrl.issue_vec(Ps::from_ns(100), &mut mem, &mut content, &mut NullSink);
        assert_eq!(r.len(), 1, "subarray 1 services the read during the write");
        assert_eq!(r[0].req.id, 2);

        // …but a read to the same subarray as the write must wait.
        let same_sub_addr = 2 * 8 * 64 * 64; // bank 0, row 2 → subarray 0
        let (dr2, fbr2) = decode(&mem, same_sub_addr);
        assert_eq!(dr2.row % 2, 0);
        ctrl.enqueue_read(read_req(3, same_sub_addr, Ps::from_ns(120)), &dr2, fbr2);
        let r2 = ctrl.issue_vec(Ps::from_ns(120), &mut mem, &mut content, &mut NullSink);
        assert!(
            r2.is_empty(),
            "same-subarray read blocked by the write: {r2:?}"
        );
    }

    #[test]
    fn one_write_per_bank_across_subarrays() {
        let (_c, mut mem, mut content) = setup();
        let cfg = ControllerConfig {
            subarrays_per_bank: 2,
            ..Default::default()
        };
        let mut ctrl = MemoryController::new(cfg, pcm_types::PcmTimings::paper_baseline(), 8);
        // Two writes to bank 0, different subarrays (rows 0 and 1).
        let a = 0x0u64;
        let b = 8 * 64 * 64;
        for (id, addr) in [(1, a), (2, b)] {
            let (d, fb) = decode(&mem, addr);
            ctrl.enqueue_write(write_req(id, addr, Ps::ZERO), &d, fb, &mut NullSink);
        }
        ctrl.force_drain();
        let issued = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);
        assert_eq!(issued.len(), 1, "shared pump: one write per bank");
        let done = issued[0].completion;
        assert!(!ctrl
            .complete_vec(issued[0].bank, issued[0].epoch)
            .is_empty());
        ctrl.force_drain();
        let issued2 = ctrl.issue_vec(done, &mut mem, &mut content, &mut NullSink);
        assert_eq!(issued2.len(), 1, "second write follows after the first");
    }

    #[test]
    fn telemetry_records_drain_and_bank_occupancy() {
        let (mut ctrl, mut mem, mut content) = setup();
        let mut tel = MemorySink::new();

        // Fill the write queue: the last enqueue flips drain on.
        for i in 0..32u64 {
            let addr = i * 64;
            let (d, fb) = decode(&mem, addr);
            ctrl.enqueue_write(write_req(i, addr, Ps::ZERO), &d, fb, &mut tel);
        }
        assert!(matches!(
            tel.events.last(),
            Some(TelemetryEvent::DrainStart { writes: 32, .. })
        ));

        // Issue: every busy bank reports a BankBusy write occupancy.
        let issued = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut tel);
        let busy: Vec<_> = tel
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TelemetryEvent::BankBusy {
                        kind: OpKind::Write,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(busy.len(), issued.len());
    }

    #[test]
    fn telemetry_records_pause_and_resume() {
        let (_c, mut mem, mut content) = setup();
        let cfg = ControllerConfig {
            write_pausing: true,
            ..Default::default()
        };
        let mut ctrl = MemoryController::new(cfg, pcm_types::PcmTimings::paper_baseline(), 8);
        let mut tel = MemorySink::new();

        // One long write on bank 0, then a read to the same bank mid-write.
        let (d, fb) = decode(&mem, 0x0);
        ctrl.enqueue_write(write_req(1, 0x0, Ps::ZERO), &d, fb, &mut tel);
        ctrl.force_drain();
        ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut tel);
        let (dr, fbr) = decode(&mem, 8 * 64);
        ctrl.enqueue_read(read_req(2, 8 * 64, Ps::from_ns(500)), &dr, fbr);
        let r = ctrl.issue_vec(Ps::from_ns(500), &mut mem, &mut content, &mut tel);
        assert_eq!(r[0].req.id, 2);
        assert!(tel.events.iter().any(|e| matches!(
            e,
            TelemetryEvent::WritePause {
                bank: 0,
                pauses: 1,
                ..
            }
        )));

        // The resume event carries the new completion time.
        ctrl.complete_vec(r[0].bank, r[0].epoch);
        let resumed = ctrl.issue_vec(r[0].completion, &mut mem, &mut content, &mut tel);
        assert!(tel.events.iter().any(|e| matches!(
            e,
            TelemetryEvent::WriteResume { bank: 0, until, .. } if *until == resumed[0].completion
        )));
    }

    #[test]
    fn telemetry_reports_drain_stop_at_watermark() {
        let (mut ctrl, mut mem, mut content) = setup();
        let mut tel = MemorySink::new();
        for i in 0..32u64 {
            let addr = i * 64;
            let (d, fb) = decode(&mem, addr);
            ctrl.enqueue_write(write_req(i, addr, Ps::ZERO), &d, fb, &mut tel);
        }
        let mut now = Ps::ZERO;
        while ctrl.draining() {
            let issued = ctrl.issue_vec(now, &mut mem, &mut content, &mut tel);
            for i in &issued {
                now = now.max(i.completion);
            }
            for i in issued {
                ctrl.complete_vec(i.bank, i.epoch);
            }
        }
        let stops: Vec<_> = tel
            .events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::DrainStop { .. }))
            .collect();
        assert_eq!(stops.len(), 1, "one drain episode, one stop");
        assert!(
            matches!(stops[0], TelemetryEvent::DrainStop { writes, .. } if *writes == 16),
            "stopped at the low watermark"
        );
    }

    #[test]
    fn steering_services_least_utilized_bank_first() {
        use crate::sched::SchedConfig;
        let (_c, mut mem, mut content) = setup();
        let cfg = ControllerConfig {
            sched: SchedConfig {
                bank_steering: true,
                ..SchedConfig::fixed()
            },
            ..Default::default()
        };
        let mut ctrl = MemoryController::new(cfg, pcm_types::PcmTimings::paper_baseline(), 8);

        // Make bank 0 the hot bank: one full write, completed.
        let (d0, fb0) = decode(&mem, 0x0);
        ctrl.enqueue_write(write_req(1, 0x0, Ps::ZERO), &d0, fb0, &mut NullSink);
        ctrl.force_drain();
        let w = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);
        let t = w[0].completion;
        ctrl.complete_vec(w[0].bank, w[0].epoch);

        // Writes queued for banks 0 and 2; both banks now free, bank 2 cold.
        let mut tel = MemorySink::new();
        ctrl.enqueue_write(write_req(2, 8 * 64, t), &d0, fb0, &mut tel);
        let (d2, fb2) = decode(&mem, 0x80);
        assert_eq!(fb2, 2);
        ctrl.enqueue_write(write_req(3, 0x80, t), &d2, fb2, &mut tel);
        ctrl.force_drain();
        // Two queued writes are under the low watermark, so the drain
        // exits after one issue — which must pick the cold bank.
        let issued = ctrl.issue_vec(t, &mut mem, &mut content, &mut tel);
        assert_eq!(issued.len(), 1);
        assert_eq!(
            issued[0].bank, 2,
            "cold bank 2 is serviced before hot bank 0"
        );
        assert_eq!(ctrl.stats.steered_writes, 1);
        assert!(tel.events.iter().any(|e| matches!(
            e,
            TelemetryEvent::WriteSteer {
                bank: 2,
                over: 0,
                ..
            }
        )));
    }

    #[test]
    fn read_window_bounds_drain_starvation() {
        use crate::sched::SchedConfig;
        let run = |windows: bool| {
            let (_c, mut mem, mut content) = setup();
            let cfg = ControllerConfig {
                sched: SchedConfig {
                    read_windows: windows,
                    ..SchedConfig::fixed()
                },
                ..Default::default()
            };
            let mut ctrl = MemoryController::new(cfg, pcm_types::PcmTimings::paper_baseline(), 8);
            let mut tel = MemorySink::new();
            // Fill the queue with bank-0 writes: drain starts at t = 0.
            for i in 0..32u64 {
                let addr = i * 8 * 64; // every row maps to bank 0
                let (d, fb) = decode(&mem, addr);
                assert_eq!(fb, 0);
                ctrl.enqueue_write(write_req(i, addr, Ps::ZERO), &d, fb, &mut tel);
            }
            assert!(ctrl.draining());
            let w = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut tel);
            assert_eq!(w.len(), 1, "all writes target bank 0");
            let t = w[0].completion; // one DCW write ≈ 3.4 µs ≫ t_set
            ctrl.complete_vec(w[0].bank, w[0].epoch);
            // A read for bank 0 has been starved by the ongoing drain.
            let (dr, fbr) = decode(&mem, 40 * 8 * 64);
            ctrl.enqueue_read(read_req(100, 40 * 8 * 64, t), &dr, fbr);
            let issued = ctrl.issue_vec(t, &mut mem, &mut content, &mut tel);
            assert_eq!(issued.len(), 1);
            (issued[0].req.kind, ctrl.stats.read_windows, tel)
        };

        let (kind, windows, tel) = run(true);
        assert_eq!(kind, AccessKind::Read, "starved read wins the window");
        assert_eq!(windows, 1);
        assert!(tel
            .events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::ReadWindow { .. })));

        let (kind, windows, _) = run(false);
        assert_eq!(kind, AccessKind::Write, "fixed policy keeps draining");
        assert_eq!(windows, 0);
    }

    propcheck! {
        cases = 16;
        /// Hysteresis invariants under an arbitrary write workload with
        /// the full adaptive policy on: a write admitted at or above the
        /// high mark always finds the controller draining, a drain round
        /// never pulls the queue below the low mark, and every issued
        /// write runs on the bank its address decodes to.
        fn adaptive_drain_and_steering_invariants(lines in vec_of(0u64..=255, 48..=96)) {
            let scfg = SchemeConfig::paper_baseline();
            let mut mem = PcmMainMemory::new(scfg, Box::new(DcwWrite)).unwrap();
            let cfg = ControllerConfig {
                sched: crate::sched::SchedConfig::adaptive(),
                ..Default::default()
            };
            let mut ctrl =
                MemoryController::new(cfg, scfg.timings, scfg.org.total_banks() as usize);
            let mut content = UniformRandomContent::new(7);
            let mut now = Ps::ZERO;
            let mut inflight: Vec<Issued> = Vec::new();
            for (n, &line) in lines.iter().enumerate() {
                // Make room by completing the earliest in-flight write.
                while ctrl.write_queue_full() {
                    inflight.extend(ctrl.issue_vec(now, &mut mem, &mut content, &mut NullSink));
                    let k = inflight
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, i)| i.completion)
                        .map(|(k, _)| k)
                        .expect("full queue implies in-flight work");
                    let done = inflight.remove(k);
                    now = now.max(done.completion);
                    ctrl.complete_vec(done.bank, done.epoch);
                }
                let addr = line * 64;
                let d = mem.addr_map().decode(addr).unwrap();
                let fb = mem.addr_map().flat_bank(&d);
                ctrl.enqueue_write(write_req(n as u64, addr, now), &d, fb, &mut NullSink);
                let (_, wq) = ctrl.queue_depths();
                prop_assert!(
                    wq < ctrl.sched().high_watermark() || ctrl.draining(),
                    "depth {} at/above high {} without draining",
                    wq,
                    ctrl.sched().high_watermark()
                );
                let before = wq;
                let low = ctrl.sched().low_watermark();
                let issued = ctrl.issue_vec(now, &mut mem, &mut content, &mut NullSink);
                for i in &issued {
                    let dd = mem.addr_map().decode(i.req.addr).unwrap();
                    prop_assert_eq!(
                        i.bank,
                        mem.addr_map().flat_bank(&dd),
                        "request on its own address-mapped bank"
                    );
                }
                let (_, after) = ctrl.queue_depths();
                prop_assert!(
                    after >= low.min(before),
                    "drained below the low mark: {} < min({}, {})",
                    after,
                    low,
                    before
                );
                inflight.extend(issued);
            }
        }
    }

    /// The reference queue: one arrival-ordered list per kind, scanned
    /// whole on every pick and lookup, as the controller kept it before
    /// its queues were split per lane.
    struct GlobalScan(Vec<QueuedReq>);

    impl ReqQueue for GlobalScan {
        fn with_lanes(_: usize) -> Self {
            GlobalScan(Vec::new())
        }

        fn len(&self) -> usize {
            self.0.len()
        }

        fn push(&mut self, q: QueuedReq) {
            self.0.push(q);
        }

        fn pick(&self, lane: usize, open_row: Option<u64>) -> Option<usize> {
            let mut first = None;
            for (i, r) in self.0.iter().enumerate() {
                if r.bank != lane {
                    continue;
                }
                if open_row == Some(r.row) {
                    return Some(i);
                }
                if first.is_none() {
                    first = Some(i);
                }
            }
            first
        }

        fn remove(&mut self, _: usize, i: usize) -> QueuedReq {
            self.0.remove(i)
        }

        fn find_line(&mut self, _: usize, line: u64) -> Option<&mut QueuedReq> {
            self.0.iter_mut().find(|w| w.line == line)
        }
    }

    /// One thing a controller did while serving a request stream.
    #[derive(Debug, PartialEq)]
    enum Step {
        /// `(bank, req id, completion, epoch)` of an issue.
        Issued(usize, u64, Ps, u64),
        /// The ids a bank completion retired (empty when stale).
        Done(Vec<u64>),
        /// A read served from the write queue at the given time.
        Forwarded(u64, Ps),
        /// A request refused because its queue was full.
        Refused(u64),
    }

    /// Run a `(write, line, gap-ns)` stream through `ctrl` the way the
    /// serve engine does — completions in `(time, bank, epoch)` order,
    /// an issue round after every completion and arrival, then a forced
    /// drain — and log every step, the telemetry and the counters. With
    /// `every_lane`, each round visits every lane, marked or not.
    fn drive<Q: ReqQueue>(
        mut ctrl: MemoryController<Q>,
        ops: &[(bool, u64, u64)],
        every_lane: bool,
    ) -> (Vec<Step>, MemorySink, String) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let scfg = SchemeConfig::paper_baseline();
        let mut mem = PcmMainMemory::new(scfg, Box::new(DcwWrite)).unwrap();
        let mut content = UniformRandomContent::new(3);
        let map = *mem.addr_map();
        let mut tel = MemorySink::new();
        let mut log = Vec::new();
        let mut pending = BinaryHeap::new();
        let mut now = Ps::ZERO;
        let mut issue =
            |ctrl: &mut MemoryController<Q>,
             now: Ps,
             tel: &mut MemorySink,
             log: &mut Vec<Step>,
             pending: &mut BinaryHeap<Reverse<(Ps, usize, u64)>>| {
                if every_lane {
                    ctrl.mark_all();
                }
                for i in ctrl.issue_vec(now, &mut mem, &mut content, tel) {
                    log.push(Step::Issued(i.bank, i.req.id, i.completion, i.epoch));
                    pending.push(Reverse((i.completion, i.bank, i.epoch)));
                }
            };
        // 8 banks × 4 rows × 2 columns: row hits, row misses, every
        // subarray of a bank, and repeated lines.
        let addr = |x: u64| (x % 8 + 8 * ((x / 32) % 2 + 64 * ((x / 8) % 4))) * 64;
        let end = ops.len();
        for n in 0..=end {
            let at = match ops.get(n) {
                Some(&(_, _, gap)) => now + Ps::from_ns(gap),
                None => Ps(u64::MAX),
            };
            loop {
                match pending.peek() {
                    Some(&Reverse((t, bank, epoch))) if t <= at => {
                        pending.pop();
                        now = t;
                        let ids = ctrl
                            .complete_vec(bank, epoch)
                            .iter()
                            .map(|r| r.id)
                            .collect();
                        log.push(Step::Done(ids));
                        issue(&mut ctrl, now, &mut tel, &mut log, &mut pending);
                    }
                    Some(_) => break,
                    None if n == end && ctrl.has_pending() => {
                        ctrl.force_drain();
                        issue(&mut ctrl, now, &mut tel, &mut log, &mut pending);
                        assert!(!pending.is_empty(), "queued work must issue");
                    }
                    None => break,
                }
            }
            let Some(&(write, x, _)) = ops.get(n) else {
                break;
            };
            now = at;
            let a = addr(x);
            let d = map.decode(a).unwrap();
            let fb = map.flat_bank(&d);
            let id = n as u64;
            if write {
                if ctrl.write_queue_full() {
                    log.push(Step::Refused(id));
                } else {
                    ctrl.enqueue_write(write_req(id, a, now), &d, fb, &mut tel);
                }
            } else if ctrl.read_queue_full() {
                log.push(Step::Refused(id));
            } else if let ReadEnqueue::Forwarded(t) =
                ctrl.enqueue_read(read_req(id, a, now), &d, fb)
            {
                log.push(Step::Forwarded(id, t));
            }
            issue(&mut ctrl, now, &mut tel, &mut log, &mut pending);
        }
        let counters = format!("{:?} {:?} {:?}", ctrl.stats, ctrl.row_stats(), mem.stats());
        (log, tel, counters)
    }

    /// A controller config from the knob matrix the differential tests
    /// sweep.
    fn knob_config(
        subarrays: usize,
        pausing: bool,
        coalesce: bool,
        steering: bool,
        (batch_writes, windows): (usize, bool),
    ) -> ControllerConfig {
        ControllerConfig {
            subarrays_per_bank: subarrays,
            write_pausing: pausing,
            coalesce_writes: coalesce,
            batch_writes,
            sched: crate::sched::SchedConfig {
                bank_steering: steering,
                read_windows: windows,
                adaptive_watermarks: windows,
                ..crate::sched::SchedConfig::fixed()
            },
            ..Default::default()
        }
    }

    propcheck! {
        cases = 96;
        /// Per-lane queues schedule exactly like one arrival-ordered
        /// queue scanned whole: the same issues, completions, forwards,
        /// telemetry and counters, across subarrays, write pausing,
        /// coalescing, steering, batching and adaptive read windows.
        fn lane_queues_match_the_global_scan(
            ops in vec_of((any_bool(), 0u64..=63, 0u64..=300), 40..=200),
            subarrays in one_of(&[1usize, 2, 4]),
            pausing in any_bool(),
            coalesce in any_bool(),
            steering in any_bool(),
            batch_and_windows in (one_of(&[1usize, 4]), any_bool())
        ) {
            let cfg = knob_config(subarrays, pausing, coalesce, steering, batch_and_windows);
            let timings = pcm_types::PcmTimings::paper_baseline();
            let (lanes, lane_tel, lane_counters) =
                drive(MemoryController::new(cfg, timings, 8), &ops, false);
            let (global, global_tel, global_counters) =
                drive(MemoryController::<GlobalScan>::with_queues(cfg, timings, 8), &ops, false);
            prop_assert!(lanes.iter().any(|s| matches!(s, Step::Issued(..))));
            prop_assert_eq!(lanes, global);
            prop_assert_eq!(lane_tel.events, global_tel.events);
            prop_assert_eq!(lane_counters, global_counters);
        }

        /// A round that visits only the marked lanes does exactly what a
        /// round visiting every lane does: the same issues, completions,
        /// forwards, telemetry and counters, across the same knobs.
        fn dirty_lanes_match_every_lane_scan(
            ops in vec_of((any_bool(), 0u64..=63, 0u64..=300), 40..=200),
            subarrays in one_of(&[1usize, 2, 4]),
            pausing in any_bool(),
            coalesce in any_bool(),
            steering in any_bool(),
            batch_and_windows in (one_of(&[1usize, 4]), any_bool())
        ) {
            let cfg = knob_config(subarrays, pausing, coalesce, steering, batch_and_windows);
            let timings = pcm_types::PcmTimings::paper_baseline();
            let (dirty, dirty_tel, dirty_counters) =
                drive(MemoryController::new(cfg, timings, 8), &ops, false);
            let (every, every_tel, every_counters) =
                drive(MemoryController::new(cfg, timings, 8), &ops, true);
            prop_assert!(dirty.iter().any(|s| matches!(s, Step::Issued(..))));
            prop_assert_eq!(dirty, every);
            prop_assert_eq!(dirty_tel.events, every_tel.events);
            prop_assert_eq!(dirty_counters, every_counters);
        }
    }

    #[test]
    fn force_drain_flushes_remaining() {
        let (mut ctrl, mut mem, mut content) = setup();
        let (d, fb) = decode(&mem, 0x40);
        ctrl.enqueue_write(write_req(1, 0x40, Ps::ZERO), &d, fb, &mut NullSink);
        assert!(ctrl
            .issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink)
            .is_empty());
        ctrl.force_drain();
        let issued = ctrl.issue_vec(Ps::ZERO, &mut mem, &mut content, &mut NullSink);
        assert_eq!(issued.len(), 1);
        ctrl.complete_vec(issued[0].bank, issued[0].epoch);
        assert!(!ctrl.has_pending());
    }
}
