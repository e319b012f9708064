//! Per-bank state: busy tracking and an open-row buffer.

use crate::config::ControllerConfig;
use pcm_types::{PcmTimings, Ps};

/// One PCM bank's controller-visible state.
#[derive(Clone, Copy, Debug, Default)]
pub struct BankState {
    busy_until: Ps,
    open_row: Option<u64>,
    busy_total: Ps,
    partition_busy_total: u64,
    /// Row-buffer hits serviced.
    pub row_hits: u64,
    /// Row-buffer misses serviced.
    pub row_misses: u64,
}

impl BankState {
    /// Is the bank free at `now`?
    pub fn is_free(&self, now: Ps) -> bool {
        self.busy_until <= now
    }

    /// When the bank frees up.
    pub fn busy_until(&self) -> Ps {
        self.busy_until
    }

    /// Cumulative time spent (or scheduled) busy; interrupting an
    /// operation retracts its unrun tail, so after a run this is exactly
    /// the time the bank's array was occupied.
    pub fn busy_total(&self) -> Ps {
        self.busy_total
    }

    /// Cumulative intra-bank partitions driven by writes serviced here
    /// (PALP-style plans; stays 0 for schemes without a partition model).
    /// A proxy for partition-level disturb/wear pressure.
    pub fn partition_busy_total(&self) -> u64 {
        self.partition_busy_total
    }

    /// Record the partition occupancy of a write just issued to this bank.
    pub fn note_partitions(&mut self, partitions: u32) {
        self.partition_busy_total += partitions as u64;
    }

    /// Currently open row.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Would a request to `row` hit the row buffer?
    pub fn is_row_hit(&self, row: u64) -> bool {
        self.open_row == Some(row)
    }

    /// Service a read of `row`: row-buffer hit or array read, plus bus.
    /// Marks the bank busy and returns the completion time.
    pub fn begin_read(
        &mut self,
        now: Ps,
        row: u64,
        timings: &PcmTimings,
        ctrl: &ControllerConfig,
    ) -> Ps {
        let service = if self.is_row_hit(row) {
            self.row_hits += 1;
            ctrl.t_row_hit
        } else {
            self.row_misses += 1;
            timings.t_read + ctrl.t_bus
        };
        self.open_row = Some(row);
        self.busy_until = now + service;
        self.busy_total += service;
        self.busy_until
    }

    /// Occupy the bank for a write of the given service time; the written
    /// row becomes the open row.
    pub fn begin_write(&mut self, now: Ps, row: u64, service: Ps) -> Ps {
        self.open_row = Some(row);
        self.busy_until = now + service;
        self.busy_total += service;
        self.busy_until
    }

    /// Abort the current operation (write pausing): the bank frees at
    /// `now`. The caller is responsible for rescheduling the remainder.
    pub fn interrupt(&mut self, now: Ps) {
        self.busy_total = self
            .busy_total
            .saturating_sub(self.busy_until.saturating_sub(now));
        self.busy_until = now;
    }

    /// Sort the bank indices in `order` least-utilized-first (cumulative
    /// busy time, then cumulative partition occupancy, ties broken by
    /// index so the order is deterministic). The steering policy visits
    /// free banks in this order to flatten the per-bank utilization
    /// spread; the partition key only matters for partition-parallel
    /// schemes, where equal-busy banks are told apart by disturb pressure.
    /// The keys are unique, so any subset sorts to its place in the order
    /// of all banks.
    pub fn least_utilized_order(banks: &[BankState], order: &mut [usize]) {
        order
            .sort_unstable_by_key(|&i| (banks[i].busy_total(), banks[i].partition_busy_total(), i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_is_faster() {
        let t = PcmTimings::paper_baseline();
        let c = ControllerConfig::default();
        let mut b = BankState::default();
        let done1 = b.begin_read(Ps::ZERO, 7, &t, &c);
        assert_eq!(done1, Ps::from_ns(60), "miss: 50 ns array + 10 ns bus");
        assert_eq!(b.row_misses, 1);
        let done2 = b.begin_read(done1, 7, &t, &c);
        assert_eq!(done2 - done1, Ps::from_ns(15), "hit: 15 ns");
        assert_eq!(b.row_hits, 1);
    }

    #[test]
    fn busy_tracking() {
        let mut b = BankState::default();
        assert!(b.is_free(Ps::ZERO));
        b.begin_write(Ps::ZERO, 3, Ps::from_ns(430));
        assert!(!b.is_free(Ps::from_ns(100)));
        assert!(b.is_free(Ps::from_ns(430)));
        assert_eq!(b.open_row(), Some(3));
    }

    #[test]
    fn busy_total_retracts_interrupted_tail() {
        let mut b = BankState::default();
        b.begin_write(Ps::ZERO, 1, Ps::from_ns(430));
        assert_eq!(b.busy_total(), Ps::from_ns(430));
        // Pause at 100 ns: the 330 ns unrun tail is retracted.
        b.interrupt(Ps::from_ns(100));
        assert_eq!(b.busy_total(), Ps::from_ns(100));
        // Resume for the remainder.
        b.begin_write(Ps::from_ns(160), 1, Ps::from_ns(330));
        assert_eq!(b.busy_total(), Ps::from_ns(430));
    }

    #[test]
    fn least_utilized_order_sorts_by_busy_total_then_index() {
        let mut banks = vec![BankState::default(); 4];
        banks[0].begin_write(Ps::ZERO, 0, Ps::from_ns(300));
        banks[1].begin_write(Ps::ZERO, 0, Ps::from_ns(100));
        banks[3].begin_write(Ps::ZERO, 0, Ps::from_ns(100));
        let order = |banks: &[BankState], mut order: Vec<usize>| {
            BankState::least_utilized_order(banks, &mut order);
            order
        };
        // bank 2 idle (0 ns) < banks 1,3 (100 ns, index tiebreak) < bank 0.
        assert_eq!(order(&banks, vec![0, 1, 2, 3]), vec![2, 1, 3, 0]);
        // Partition pressure breaks the 1-vs-3 busy tie the other way.
        banks[1].note_partitions(4);
        assert_eq!(banks[1].partition_busy_total(), 4);
        assert_eq!(order(&banks, vec![3, 2, 1, 0]), vec![2, 3, 1, 0]);
        // A subset keeps its place in the full order.
        assert_eq!(order(&banks, vec![0, 1, 3]), vec![3, 1, 0]);
        assert_eq!(order(&banks, vec![]), Vec::<usize>::new(), "empty set");
    }

    #[test]
    fn write_opens_row_for_following_read() {
        let t = PcmTimings::paper_baseline();
        let c = ControllerConfig::default();
        let mut b = BankState::default();
        let done = b.begin_write(Ps::ZERO, 9, Ps::from_ns(430));
        let done2 = b.begin_read(done, 9, &t, &c);
        assert_eq!(done2 - done, c.t_row_hit);
    }
}
