//! A small discrete-event simulation core.
//!
//! The timing engines schedule work analytically (kernel costs are
//! closed-form); this module holds the two pieces of event-driven
//! machinery the rest of the simulator shares. [`EventQueue`] is a
//! monotone min-queue with FIFO ordering for simultaneous events: the
//! disturbance traces order their window edges through it
//! ([`crate::disturb::DisturbanceTrace::timeline`]). [`FifoServer`] is a
//! single-server resource: a render workload and an LLM contending for
//! one FIFO GPU queue ([`crate::interference`]), requests queueing at a
//! busy engine.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Scheduling a past event would violate causality.
///
/// Returned by [`EventQueue::try_schedule`] so callers feeding the
/// queue from *external* inputs (disturbance traces, user-supplied
/// schedules) can reject malformed data instead of crashing the
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalityError {
    /// The queue's current time when the violation occurred.
    pub now: SimTime,
    /// The (past) time the event was scheduled for.
    pub at: SimTime,
}

impl core::fmt::Display for CausalityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "cannot schedule into the past: event at {} but the clock is at {}",
            self.at, self.now
        )
    }
}

impl std::error::Error for CausalityError {}

/// An event: fires at `at`; ties break by insertion order (FIFO).
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A monotone event queue.
///
/// A binary min-heap keyed by `(time, insertion sequence)`: events at
/// the same instant pop in insertion order (FIFO), so pop order — and
/// therefore simulation output — is a pure function of the schedule
/// history.
///
/// # Examples
///
/// ```
/// use hetero_soc::des::EventQueue;
/// use hetero_soc::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(20), "late");
/// q.schedule(SimTime::from_micros(10), "early");
/// q.schedule(SimTime::from_micros(10), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// New queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Internal invariant paths use this form: a violation is a
    /// simulator bug, so it panics. Paths fed by *external* inputs
    /// (disturbance traces) must use [`EventQueue::try_schedule`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time (causality violation).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.push(at, payload);
    }

    /// Schedule `payload` at absolute time `at`, returning a typed
    /// error instead of panicking on a causality violation.
    pub fn try_schedule(&mut self, at: SimTime, payload: E) -> Result<(), CausalityError> {
        if at < self.now {
            return Err(CausalityError { now: self.now, at });
        }
        self.push(at, payload);
        Ok(())
    }

    fn push(&mut self, at: SimTime, payload: E) {
        self.heap.push(Reverse(Scheduled {
            at,
            seq: self.next_seq,
            payload,
        }));
        self.next_seq += 1;
    }

    /// Schedule `payload` `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, payload: E) {
        let at = self.now + delay;
        self.schedule(at, payload);
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(ev) = self.heap.pop()?;
        self.now = ev.at;
        Some((ev.at, ev.payload))
    }

    /// The next event's time and payload, without popping or advancing
    /// the clock.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|Reverse(ev)| (ev.at, &ev.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

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
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(us(30), 3u32);
        q.schedule(us(10), 1);
        q.schedule(us(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.schedule(us(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(us(10), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), us(10));
        q.schedule_after(us(5), ());
        assert_eq!(q.pop(), Some((us(15), ())));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn causality_enforced() {
        let mut q = EventQueue::new();
        q.schedule(us(10), ());
        q.pop();
        q.schedule(us(5), ());
    }

    #[test]
    fn try_schedule_rejects_past_events_without_panicking() {
        let mut q = EventQueue::new();
        q.schedule(us(10), 1u32);
        q.pop();
        let err = q.try_schedule(us(5), 2).expect_err("past event");
        assert_eq!(
            err,
            CausalityError {
                now: us(10),
                at: us(5)
            }
        );
        assert!(err.to_string().contains("cannot schedule into the past"));
        // The queue is still usable after a rejected event.
        q.try_schedule(us(10), 3).expect("boundary is allowed");
        assert_eq!(q.pop(), Some((us(10), 3)));
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
