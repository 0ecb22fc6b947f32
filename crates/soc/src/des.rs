//! Single-server FIFO queueing.
//!
//! The timing engines schedule work analytically (kernel costs are
//! closed-form), so the one piece of event-driven machinery the rest of
//! the simulator shares is [`FifoServer`]: a single-server resource,
//! such as a render workload and an LLM contending for one FIFO GPU
//! queue ([`crate::interference`]) or requests queueing at a busy
//! engine. [`DispatchLog`] records what passed through it.

use crate::time::SimTime;

/// A single-server FIFO resource (a GPU queue, an inference engine).
///
/// Tracks when the server frees up; `serve` returns the (start, end)
/// interval a job beginning no earlier than `ready` would occupy.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoServer {
    free_at: SimTime,
}

impl FifoServer {
    /// New, idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// When the server next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Occupy the server for `duration` starting no earlier than
    /// `ready`; returns the service interval.
    pub fn serve(&mut self, ready: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let start = self.free_at.max(ready);
        let end = start + duration;
        self.free_at = end;
        (start, end)
    }

    /// Whether the server is idle at `t`.
    pub fn idle_at(&self, t: SimTime) -> bool {
        t >= self.free_at
    }

    /// [`FifoServer::serve`], appending a [`DispatchRecord`] to `log`.
    ///
    /// The log lives outside the server (`FifoServer` is `Copy` and is
    /// freely snapshotted by the contention models), so observability
    /// is opt-in per call site and costs nothing when unused.
    pub fn serve_logged(
        &mut self,
        ready: SimTime,
        duration: SimTime,
        log: &mut DispatchLog,
    ) -> (SimTime, SimTime) {
        let (start, end) = self.serve(ready, duration);
        log.records.push(DispatchRecord { ready, start, end });
        (start, end)
    }
}

/// One job's passage through a [`FifoServer`]: when it became ready,
/// when service started (equal to `ready` iff the queue was empty),
/// and when it completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchRecord {
    /// When the job arrived at the server.
    pub ready: SimTime,
    /// When service actually began.
    pub start: SimTime,
    /// When service completed.
    pub end: SimTime,
}

impl DispatchRecord {
    /// Time spent queued behind earlier jobs.
    pub fn queue_delay(&self) -> SimTime {
        self.start.saturating_sub(self.ready)
    }
}

/// An append-only log of [`FifoServer`] dispatches, collected by
/// [`FifoServer::serve_logged`].
///
/// # Examples
///
/// ```
/// use hetero_soc::des::{DispatchLog, FifoServer};
/// use hetero_soc::SimTime;
///
/// let mut s = FifoServer::new();
/// let mut log = DispatchLog::new();
/// s.serve_logged(SimTime::ZERO, SimTime::from_micros(10), &mut log);
/// s.serve_logged(SimTime::from_micros(4), SimTime::from_micros(5), &mut log);
/// assert_eq!(log.records()[1].queue_delay(), SimTime::from_micros(6));
/// assert_eq!(log.max_queue_delay(), SimTime::from_micros(6));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchLog {
    records: Vec<DispatchRecord>,
}

impl DispatchLog {
    /// New, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// All dispatches, in service order.
    pub fn records(&self) -> &[DispatchRecord] {
        &self.records
    }

    /// Number of logged dispatches.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total time jobs spent queued (sum of per-job queue delays).
    pub fn total_queue_delay(&self) -> SimTime {
        self.records
            .iter()
            .fold(SimTime::ZERO, |acc, r| acc + r.queue_delay())
    }

    /// Largest single queue delay observed.
    pub fn max_queue_delay(&self) -> SimTime {
        self.records
            .iter()
            .map(DispatchRecord::queue_delay)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Dispatches that had to wait at all.
    pub fn queued_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.queue_delay() > SimTime::ZERO)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn fifo_server_queues_work() {
        let mut s = FifoServer::new();
        let (a0, a1) = s.serve(us(0), us(10));
        assert_eq!((a0, a1), (us(0), us(10)));
        // Arrives while busy: waits.
        let (b0, b1) = s.serve(us(4), us(5));
        assert_eq!((b0, b1), (us(10), us(15)));
        // Arrives after idle gap: starts at arrival.
        let (c0, _) = s.serve(us(100), us(1));
        assert_eq!(c0, us(100));
        assert!(s.idle_at(us(101)));
        assert!(!s.idle_at(us(100)));
    }

    #[test]
    fn dispatch_log_captures_queue_delays() {
        let mut s = FifoServer::new();
        let mut log = DispatchLog::new();
        s.serve_logged(us(0), us(10), &mut log);
        s.serve_logged(us(4), us(5), &mut log);
        s.serve_logged(us(100), us(1), &mut log);
        assert_eq!(log.len(), 3);
        assert_eq!(log.records()[0].queue_delay(), SimTime::ZERO);
        assert_eq!(log.records()[1].queue_delay(), us(6));
        assert_eq!(log.records()[2].queue_delay(), SimTime::ZERO);
        assert_eq!(log.total_queue_delay(), us(6));
        assert_eq!(log.max_queue_delay(), us(6));
        assert_eq!(log.queued_count(), 1);
    }

    #[test]
    fn serve_logged_matches_serve() {
        let mut a = FifoServer::new();
        let mut b = FifoServer::new();
        let mut log = DispatchLog::new();
        for (ready, dur) in [(0u64, 10u64), (4, 5), (100, 1), (100, 7)] {
            let plain = a.serve(us(ready), us(dur));
            let logged = b.serve_logged(us(ready), us(dur), &mut log);
            assert_eq!(plain, logged);
        }
        assert_eq!(a.free_at(), b.free_at());
        assert_eq!(log.len(), 4);
    }
}
