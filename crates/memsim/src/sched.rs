//! Pluggable write-scheduling policy for the FRFCFS controller.
//!
//! The paper's controller uses one hardcoded rule: the write queue fills
//! to capacity, then drains to a fixed low watermark while reads wait.
//! [`SchedPolicy`] generalizes that into three independently selectable
//! policies (all off by default, reproducing the paper's behaviour
//! bit-for-bit):
//!
//! 1. **Adaptive drain watermarks** — the drain-entry (high) and
//!    drain-exit (low) marks track the observed write-queue depth
//!    distribution: the high mark reserves burst-sized headroom below
//!    capacity (`cap − (p95 − p50)`), so bursty phases start draining
//!    before the queue slams into the full stop that backpressures the
//!    cores, while steady phases keep the paper's fill-to-capacity
//!    behaviour; the low mark follows the median depth. Both are
//!    recomputed incrementally every [`SchedConfig::watermark_interval`]
//!    samples from the same depth counters `TraceSummary` aggregates.
//!    A ±1 deadband provides hysteresis so the marks don't chatter.
//! 2. **Per-bank write steering** — during a drain, free banks are
//!    visited least-utilized-first (by cumulative busy time) instead of
//!    in index order, flattening the per-bank utilization spread the
//!    `report` subcommand exposes. Steering never changes *which* bank a
//!    write runs on — the address map fixes that — only which bank's
//!    backlog is serviced first when several banks are idle.
//! 3. **Read-priority windows** — a drain that has starved queued reads
//!    for longer than [`SchedConfig::max_drain_starvation`] opens a
//!    bounded window during which banks with queued reads serve those
//!    reads; banks without reads keep draining. The window length is
//!    sized from the write-pausing budget: the read service time the
//!    controller's `max_pauses_per_write` allowance would have bought.
//!
//! Every decision is emitted as a `TelemetryEvent`
//! (`WatermarkAdjust` / `WriteSteer` / `ReadWindow`), so
//! `tetris-experiments sched-ablation` can diff policies head-to-head
//! from traces alone.

use crate::bankstate::BankState;
use crate::config::ControllerConfig;
use pcm_types::{PcmTimings, Ps};

/// Which scheduling policies are active and their tuning knobs.
///
/// The default ([`SchedConfig::fixed`]) disables all three policies and
/// reproduces the paper's fixed fill-to-capacity / drain-to-watermark
/// controller exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedConfig {
    /// Drive the drain watermarks from observed queue-depth percentiles.
    pub adaptive_watermarks: bool,
    /// Visit free banks least-utilized-first when draining writes.
    pub bank_steering: bool,
    /// Bound how long a drain may starve queued reads.
    pub read_windows: bool,
    /// Queue-depth samples between watermark recomputations.
    pub watermark_interval: u32,
    /// Minimum distance kept between the low and high marks (hysteresis
    /// floor: `low + gap <= high` always holds).
    pub min_watermark_gap: usize,
    /// Drain time after which queued reads earn a priority window.
    /// `Ps::ZERO` means auto: one SET pulse (`t_set`), the longest single
    /// operation a read could be stuck behind.
    pub max_drain_starvation: Ps,
    /// Length of an opened read-priority window. `Ps::ZERO` means auto:
    /// `max_pauses_per_write × (t_read + t_bus)` — the read service the
    /// pause budget would have allowed against one write.
    pub read_window: Ps,
}

impl SchedConfig {
    /// The paper's fixed policy: no adaptation, no steering, no windows.
    pub fn fixed() -> Self {
        SchedConfig {
            adaptive_watermarks: false,
            bank_steering: false,
            read_windows: false,
            watermark_interval: 64,
            min_watermark_gap: 4,
            max_drain_starvation: Ps::ZERO,
            read_window: Ps::ZERO,
        }
    }

    /// All three adaptive policies on, with default tuning.
    pub fn adaptive() -> Self {
        SchedConfig {
            adaptive_watermarks: true,
            bank_steering: true,
            read_windows: true,
            ..Self::fixed()
        }
    }
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self::fixed()
    }
}

/// What a read-window poll decided this scheduling round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowPoll {
    /// No window is active (policy off, not draining, or reads not yet
    /// starved long enough).
    Inactive,
    /// A new window just opened, lasting until the given time — the
    /// caller should record a `ReadWindow` event.
    Opened(Ps),
    /// A previously opened window is still running.
    Active,
}

impl WindowPoll {
    /// Is a window (newly opened or ongoing) in effect?
    pub fn active(self) -> bool {
        !matches!(self, WindowPoll::Inactive)
    }
}

/// Runtime state of the scheduling policies for one controller.
///
/// Constructed by the controller from its [`ControllerConfig`]; all
/// decisions are pure functions of the observed queue/bank state, so the
/// simulation stays deterministic.
#[derive(Clone, Debug)]
pub struct SchedPolicy {
    cfg: SchedConfig,
    /// Write-queue capacity (histogram upper bound, fixed high mark).
    cap: usize,
    /// Current drain-exit mark.
    low: usize,
    /// Current drain-entry mark.
    high: usize,
    /// Effective `min_watermark_gap`, clamped so `gap + 1 <= cap`.
    gap: usize,
    /// Depth-count histogram: `hist[d]` = samples that observed depth `d`.
    hist: Vec<u64>,
    since_update: u32,
    /// When the current drain episode started starving reads.
    drain_since: Option<Ps>,
    /// End of the currently open read-priority window.
    window_until: Option<Ps>,
    /// Resolved starvation bound (auto-derived if the config said ZERO).
    starvation: Ps,
    /// Resolved window length (auto-derived if the config said ZERO).
    window: Ps,
}

impl SchedPolicy {
    /// Build the policy state for a controller, resolving the auto
    /// (`Ps::ZERO`) timing knobs from the device timings.
    pub fn new(ctrl: &ControllerConfig, timings: &PcmTimings) -> Self {
        let cfg = ctrl.sched;
        let cap = ctrl.write_queue_cap;
        let gap = cfg.min_watermark_gap.min(cap.saturating_sub(1));
        let starvation = if cfg.max_drain_starvation == Ps::ZERO {
            timings.t_set
        } else {
            cfg.max_drain_starvation
        };
        let window = if cfg.read_window == Ps::ZERO {
            (timings.t_read + ctrl.t_bus) * ctrl.max_pauses_per_write.max(1) as u64
        } else {
            cfg.read_window
        };
        SchedPolicy {
            cfg,
            cap,
            low: ctrl.write_low_watermark,
            high: cap,
            gap,
            hist: vec![0; cap + 1],
            since_update: 0,
            drain_since: None,
            window_until: None,
            starvation,
            window,
        }
    }

    /// Current drain-exit mark (the fixed `write_low_watermark` unless
    /// adaptation has moved it).
    pub fn low_watermark(&self) -> usize {
        self.low
    }

    /// Current drain-entry mark (queue capacity unless adaptation has
    /// lowered it).
    pub fn high_watermark(&self) -> usize {
        self.high
    }

    /// Record one write-queue depth observation. Every
    /// `watermark_interval` samples the marks are recomputed from the
    /// accumulated distribution; returns `Some((low, high))` when they
    /// actually moved (outside the ±1 deadband).
    pub fn observe_depth(&mut self, depth: usize) -> Option<(usize, usize)> {
        if !self.cfg.adaptive_watermarks {
            return None;
        }
        self.hist[depth.min(self.cap)] += 1;
        self.since_update += 1;
        if self.since_update < self.cfg.watermark_interval.max(1) {
            return None;
        }
        self.since_update = 0;
        let p95 = self.percentile_depth(0.95);
        let p50 = self.percentile_depth(0.50);
        // Reserve burst-sized headroom below capacity: when the observed
        // p95−p50 spread is wide, drains must start early enough that an
        // incoming burst doesn't hit the full-queue stall.
        let high = self
            .cap
            .saturating_sub(p95 - p50)
            .clamp(self.gap + 1, self.cap);
        let low = p50.min(high - self.gap);
        // Hysteresis: hold both marks unless at least one moved by > 1.
        if high.abs_diff(self.high) <= 1 && low.abs_diff(self.low) <= 1 {
            return None;
        }
        self.low = low;
        self.high = high;
        Some((low, high))
    }

    /// Nearest-rank percentile of the observed depth distribution
    /// (shared [`pcm_types::stats`] walk; capacity when no samples).
    fn percentile_depth(&self, p: f64) -> usize {
        pcm_types::stats::percentile_from_counts(&self.hist, p).unwrap_or(self.cap)
    }

    /// A drain episode began at `at` (reads start waiting now).
    pub fn note_drain_start(&mut self, at: Ps) {
        if self.drain_since.is_none() {
            self.drain_since = Some(at);
        }
    }

    /// The drain finished; any open window closes with it.
    pub fn note_drain_stop(&mut self) {
        self.drain_since = None;
        self.window_until = None;
    }

    /// Advance the read-window state machine one scheduling round.
    /// `draining` and `reads_waiting` describe the controller's state at
    /// `now`.
    pub fn poll_read_window(&mut self, now: Ps, draining: bool, reads_waiting: bool) -> WindowPoll {
        if !self.cfg.read_windows || !draining {
            return WindowPoll::Inactive;
        }
        if let Some(until) = self.window_until {
            if now < until {
                return WindowPoll::Active;
            }
            // Window expired: the drain resumes, starvation clock restarts.
            self.window_until = None;
            self.drain_since = Some(now);
        }
        // force_drain() has no timestamp; start the clock lazily.
        let since = *self.drain_since.get_or_insert(now);
        if reads_waiting && now.saturating_sub(since) >= self.starvation {
            let until = now + self.window;
            self.window_until = Some(until);
            return WindowPoll::Opened(until);
        }
        WindowPoll::Inactive
    }

    /// Put the banks the controller visits this round, given in index
    /// order, in the order to visit them: least-utilized-first under
    /// steering (and returns `true`), left as they are otherwise.
    pub fn bank_order(&self, banks: &[BankState], visit: &mut [usize]) -> bool {
        if self.cfg.bank_steering {
            BankState::least_utilized_order(banks, visit);
        }
        self.cfg.bank_steering
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_types::propcheck::vec_of;
    use pcm_types::{prop_assert, propcheck};

    fn ctrl_with(sched: SchedConfig) -> ControllerConfig {
        ControllerConfig {
            sched,
            ..ControllerConfig::default()
        }
    }

    fn adaptive_policy() -> SchedPolicy {
        SchedPolicy::new(
            &ctrl_with(SchedConfig::adaptive()),
            &PcmTimings::paper_baseline(),
        )
    }

    #[test]
    fn fixed_policy_mirrors_controller_config() {
        let ctrl = ctrl_with(SchedConfig::fixed());
        let mut p = SchedPolicy::new(&ctrl, &PcmTimings::paper_baseline());
        assert_eq!(p.low_watermark(), ctrl.write_low_watermark);
        assert_eq!(p.high_watermark(), ctrl.write_queue_cap);
        let mut visit = [0, 1];
        assert!(!p.bank_order(&[BankState::default(); 2], &mut visit));
        assert_eq!(visit, [0, 1]);
        for d in [0usize, 5, 31, 32] {
            assert_eq!(p.observe_depth(d), None, "fixed mode never adapts");
        }
        assert_eq!(
            p.poll_read_window(Ps::from_ns(10_000), true, true),
            WindowPoll::Inactive
        );
    }

    #[test]
    fn watermarks_track_depth_percentiles() {
        let mut p = adaptive_policy();
        // A shallow-queue phase: depths 0..=8, p95 ≈ 8, median ≈ 4.
        let mut changed = None;
        for i in 0..256usize {
            if let Some(marks) = p.observe_depth(i % 9) {
                changed = Some(marks);
            }
        }
        let (low, high) = changed.expect("marks must move off the fixed 16/32");
        assert!(
            high < 32,
            "bursty depths (p95−p50 = 4) must pull the high mark below capacity, got {high}"
        );
        assert!(low < high, "low {low} < high {high}");
        assert_eq!(p.low_watermark(), low);
        assert_eq!(p.high_watermark(), high);
    }

    #[test]
    fn deadband_suppresses_chatter() {
        let mut p = adaptive_policy();
        for i in 0..256usize {
            p.observe_depth(i % 9);
        }
        let (low, high) = (p.low_watermark(), p.high_watermark());
        // The same distribution again: marks may not move.
        for i in 0..256usize {
            assert_eq!(p.observe_depth(i % 9), None, "stable input, stable marks");
        }
        assert_eq!((p.low_watermark(), p.high_watermark()), (low, high));
    }

    #[test]
    fn read_window_opens_after_starvation_and_expires() {
        let mut p = adaptive_policy();
        let t0 = Ps::ZERO;
        p.note_drain_start(t0);
        // Immediately after drain entry: reads not yet starved.
        assert_eq!(p.poll_read_window(t0, true, true), WindowPoll::Inactive);
        // After a full SET pulse (auto starvation bound = 430 ns) a window
        // opens, sized from the pause budget: 4 × (50 + 10) ns = 240 ns.
        let t1 = Ps::from_ns(430);
        let until = match p.poll_read_window(t1, true, true) {
            WindowPoll::Opened(u) => u,
            other => panic!("expected a window, got {other:?}"),
        };
        assert_eq!(until, t1 + Ps::from_ns(240));
        assert_eq!(
            p.poll_read_window(Ps::from_ns(500), true, true),
            WindowPoll::Active
        );
        // Past the end the window closes and the starvation clock restarts.
        assert_eq!(
            p.poll_read_window(until, true, true),
            WindowPoll::Inactive,
            "expired window does not immediately reopen"
        );
        // No reads waiting → no window, however starved.
        let t2 = until + Ps::from_ns(10_000);
        assert_eq!(p.poll_read_window(t2, true, false), WindowPoll::Inactive);
        p.note_drain_stop();
        assert_eq!(p.poll_read_window(t2, false, true), WindowPoll::Inactive);
    }

    #[test]
    fn bank_order_identity_without_steering() {
        let p = SchedPolicy::new(
            &ctrl_with(SchedConfig::fixed()),
            &PcmTimings::paper_baseline(),
        );
        let mut banks = vec![BankState::default(); 4];
        banks[0].begin_write(Ps::ZERO, 0, Ps::from_ns(300));
        let mut visit = [0, 1, 3];
        assert!(!p.bank_order(&banks, &mut visit));
        assert_eq!(visit, [0, 1, 3], "index order");
    }

    propcheck! {
        /// Watermark hysteresis invariant: whatever depth stream the
        /// controller observes, the marks keep `low + gap <= high <= cap`
        /// (so a drain always makes progress and entry is never above
        /// capacity).
        fn watermark_invariants(depths in vec_of(0u64..=40, 0..=512)) {
            let ctrl = ctrl_with(SchedConfig::adaptive());
            let mut p = SchedPolicy::new(&ctrl, &PcmTimings::paper_baseline());
            for d in depths {
                p.observe_depth(d as usize);
                let (low, high) = (p.low_watermark(), p.high_watermark());
                prop_assert!(high <= ctrl.write_queue_cap, "high {} > cap", high);
                prop_assert!(
                    low + ctrl.sched.min_watermark_gap <= high,
                    "gap violated: low {} high {}",
                    low,
                    high
                );
            }
        }

        /// Steering returns a permutation of the bank indices, sorted by
        /// cumulative busy time (ties by index).
        fn steering_order_is_a_least_utilized_permutation(
            busys in vec_of(0u64..=1_000_000, 1..=32)
        ) {
            let mut banks = vec![BankState::default(); busys.len()];
            for (b, &ns) in banks.iter_mut().zip(&busys) {
                b.begin_write(Ps::ZERO, 0, Ps::from_ns(ns));
            }
            let p = adaptive_policy();
            let mut order: Vec<usize> = (0..banks.len()).rev().collect();
            prop_assert!(p.bank_order(&banks, &mut order), "steering is on");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert!(sorted == (0..banks.len()).collect::<Vec<_>>(), "not a permutation");
            for w in order.windows(2) {
                let (a, b) = (w[0], w[1]);
                prop_assert!(
                    (banks[a].busy_total(), a) < (banks[b].busy_total(), b),
                    "order not least-utilized-first at {} -> {}",
                    a,
                    b
                );
            }
        }
    }
}
