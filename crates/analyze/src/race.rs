//! Vector-clock happens-before race detection over concurrency event
//! logs (§4.2).
//!
//! The fast-synchronization runtime orders cross-backend buffer
//! accesses with shared-memory flags, not driver-managed events, so
//! nothing in the *mechanism* prevents a missing signal→wait edge from
//! silently corrupting an activation. This module proves (or refutes)
//! the ordering from evidence: a [`ConcurrencyLog`] recorded by the
//! engines, or one *lowered* from a [`SyncSchedule`] by
//! [`log_from_schedule`].
//!
//! Three actors participate — CPU control plane, GPU, NPU — each with a
//! three-component vector clock. Happens-before edges come from:
//!
//! - **program order** — events of one actor in recording order;
//! - **signal→wait** — a wait joins the clock the flag was signalled
//!   at (both [`SyncMechanism::Fast`] flag polls and
//!   [`SyncMechanism::Driver`] events create the same edge — they
//!   differ in *cost*, not in ordering semantics);
//! - **FIFO queues** — submissions on one backend retire in order, so
//!   completion order is checked against submission order.
//!
//! Deny rules emitted: [`rules::DATA_RACE`] for conflicting unordered
//! accesses, [`rules::UNSYNCHRONIZED_REUSE`] for a pool slot recycled
//! across an unordered lifetime boundary, and [`rules::LOST_SIGNAL`]
//! for a wait observing a flag nobody set.

use std::collections::{HashMap, HashSet, VecDeque};

use hetero_soc::sync::SyncMechanism;
use hetero_soc::{Backend, SimTime};
use heterollm::trace::{ConcurrencyEvent, ConcurrencyLog, ConcurrencyOp};

use crate::diag::Diagnostic;
use crate::rules;
use crate::sched::{EventKind, SyncSchedule};

/// Number of vector-clock components (CPU, GPU, NPU).
const ACTORS: usize = 3;

/// A three-actor vector clock.
type Vc = [u64; ACTORS];

fn actor_index(b: Backend) -> usize {
    match b {
        Backend::Cpu => 0,
        Backend::Gpu => 1,
        Backend::Npu => 2,
    }
}

fn join(into: &mut Vc, from: &Vc) {
    for (a, b) in into.iter_mut().zip(from.iter()) {
        *a = (*a).max(*b);
    }
}

/// One recorded access to a buffer: which actor, at what point of that
/// actor's own clock. `access` happens-before a later point iff the
/// observer's vector clock has caught up with the accessor's component.
#[derive(Debug, Clone, Copy)]
struct Access {
    actor: usize,
    clock: u64,
}

impl Access {
    fn happens_before(&self, vc: &Vc) -> bool {
        vc[self.actor] >= self.clock
    }
}

/// Tracked state of one pooled buffer id.
#[derive(Debug, Default)]
struct BufState {
    live: bool,
    last_write: Option<Access>,
    reads: Vec<Access>,
    last_release: Option<Access>,
}

/// Which finding classes have already been reported, so one root cause
/// does not flood the report.
#[derive(Default)]
struct Dedup {
    lost_signals: HashSet<u64>,
    buffer_findings: HashSet<(u64, &'static str)>,
}

struct Detector<'a> {
    location: &'a str,
    clocks: [Vc; ACTORS],
    signals: HashMap<u64, Vc>,
    pending: [VecDeque<u64>; ACTORS],
    buffers: HashMap<u64, BufState>,
    dedup: Dedup,
    out: Vec<Diagnostic>,
}

impl<'a> Detector<'a> {
    fn new(location: &'a str) -> Self {
        Self {
            location,
            clocks: [[0; ACTORS]; ACTORS],
            signals: HashMap::new(),
            pending: Default::default(),
            buffers: HashMap::new(),
            dedup: Dedup::default(),
            out: Vec::new(),
        }
    }

    fn emit(&mut self, rule_id: &'static str, message: String, suggestion: Option<String>) {
        self.out.push(Diagnostic::with_suggestion(
            rule_id,
            self.location,
            message,
            suggestion,
        ));
    }

    fn emit_buffer(
        &mut self,
        rule_id: &'static str,
        buffer: u64,
        message: String,
        suggestion: Option<String>,
    ) {
        if self.dedup.buffer_findings.insert((buffer, rule_id)) {
            self.emit(rule_id, message, suggestion);
        }
    }

    fn step(&mut self, e: &ConcurrencyEvent) {
        let a = actor_index(e.actor);
        self.clocks[a][a] += 1;
        match e.op {
            ConcurrencyOp::Wait { token, mechanism } => self.wait(e, a, token, mechanism),
            ConcurrencyOp::Signal { token, .. } => {
                let vc = self.clocks[a];
                self.signals
                    .entry(token)
                    .and_modify(|s| join(s, &vc))
                    .or_insert(vc);
            }
            ConcurrencyOp::Submit { token } => self.pending[a].push_back(token),
            ConcurrencyOp::Complete { token } => self.complete(e, a, token),
            ConcurrencyOp::BufferAcquire { buffer, .. } => self.acquire(e, a, buffer),
            ConcurrencyOp::BufferRead { buffer } => self.read(e, a, buffer),
            ConcurrencyOp::BufferWrite { buffer } => self.write(e, a, buffer),
            ConcurrencyOp::BufferRelease { buffer } => self.release(e, a, buffer),
        }
    }

    fn wait(&mut self, e: &ConcurrencyEvent, a: usize, token: u64, mechanism: SyncMechanism) {
        match self.signals.get(&token) {
            Some(sig) => {
                let sig = *sig;
                join(&mut self.clocks[a], &sig);
            }
            None => {
                if self.dedup.lost_signals.insert(token) {
                    self.emit(
                        rules::LOST_SIGNAL,
                        format!(
                            "event {}: {:?} waits on {} flag {token}, but no actor \
                             signals it before the wait",
                            e.seq,
                            e.actor,
                            mechanism.name(),
                        ),
                        Some(
                            "a wait must observe a flag an earlier event signals; \
                             check rendezvous wiring and retry rescheduling"
                                .into(),
                        ),
                    );
                }
            }
        }
    }

    fn complete(&mut self, e: &ConcurrencyEvent, a: usize, token: u64) {
        if self.pending[a].front() == Some(&token) {
            self.pending[a].pop_front();
            return;
        }
        let pos = self.pending[a].iter().position(|&t| t == token);
        match pos {
            Some(p) => {
                self.pending[a].remove(p);
                self.emit(
                    rules::DATA_RACE,
                    format!(
                        "event {}: submission {token} retired out of FIFO order on \
                         {:?} ({} earlier submissions still pending)",
                        e.seq, e.actor, p
                    ),
                    Some(
                        "per-backend queues retire in order; reordered completion \
                          voids queue-order happens-before edges"
                            .into(),
                    ),
                );
            }
            None => self.emit(
                rules::DATA_RACE,
                format!(
                    "event {}: completion of {token} on {:?} matches no pending \
                     submission",
                    e.seq, e.actor
                ),
                None,
            ),
        }
    }

    fn acquire(&mut self, e: &ConcurrencyEvent, a: usize, buffer: u64) {
        let vc = self.clocks[a];
        let state = self.buffers.entry(buffer).or_default();
        let mut finding = None;
        if state.live {
            finding = Some(format!(
                "event {}: {:?} re-acquires buffer {buffer} while it is still live",
                e.seq, e.actor
            ));
        } else if let Some(rel) = state.last_release {
            if rel.actor != a && !rel.happens_before(&vc) {
                finding = Some(format!(
                    "event {}: {:?} re-acquires recycled slot {buffer} without an \
                     ordering edge from its previous release",
                    e.seq, e.actor
                ));
            }
        }
        *state = BufState {
            live: true,
            last_write: Some(Access {
                actor: a,
                clock: vc[a],
            }),
            reads: Vec::new(),
            last_release: None,
        };
        if let Some(message) = finding {
            self.emit_buffer(
                rules::UNSYNCHRONIZED_REUSE,
                buffer,
                message,
                Some(
                    "recycle a pool slot only after the previous lifetime's release \
                     happens-before the new acquire (signal→wait the releasing flag)"
                        .into(),
                ),
            );
        }
    }

    fn read(&mut self, e: &ConcurrencyEvent, a: usize, buffer: u64) {
        let vc = self.clocks[a];
        let state = self.buffers.entry(buffer).or_default();
        let racy_writer = state
            .last_write
            .filter(|w| w.actor != a && !w.happens_before(&vc))
            .map(|w| w.actor);
        state.reads.push(Access {
            actor: a,
            clock: vc[a],
        });
        if let Some(w) = racy_writer {
            let writer = ["CPU", "GPU", "NPU"][w];
            self.emit_buffer(
                rules::DATA_RACE,
                buffer,
                format!(
                    "event {}: {:?} reads buffer {buffer} concurrently with \
                     {writer}'s write (no signal→wait edge orders them)",
                    e.seq, e.actor
                ),
                Some("wait on the writer's completion flag before consuming".into()),
            );
        }
    }

    fn write(&mut self, e: &ConcurrencyEvent, a: usize, buffer: u64) {
        let vc = self.clocks[a];
        let state = self.buffers.entry(buffer).or_default();
        let unordered = state
            .last_write
            .iter()
            .chain(state.reads.iter())
            .any(|acc| acc.actor != a && !acc.happens_before(&vc));
        state.last_write = Some(Access {
            actor: a,
            clock: vc[a],
        });
        state.reads.clear();
        if unordered {
            self.emit_buffer(
                rules::DATA_RACE,
                buffer,
                format!(
                    "event {}: {:?} writes buffer {buffer} concurrently with an \
                     unordered access from another actor",
                    e.seq, e.actor
                ),
                Some("order the writers/readers with a signal→wait edge".into()),
            );
        }
    }

    fn release(&mut self, e: &ConcurrencyEvent, a: usize, buffer: u64) {
        let vc = self.clocks[a];
        let state = self.buffers.entry(buffer).or_default();
        let unordered = state
            .last_write
            .iter()
            .chain(state.reads.iter())
            .any(|acc| acc.actor != a && !acc.happens_before(&vc));
        state.live = false;
        state.last_release = Some(Access {
            actor: a,
            clock: vc[a],
        });
        if unordered {
            self.emit_buffer(
                rules::UNSYNCHRONIZED_REUSE,
                buffer,
                format!(
                    "event {}: {:?} releases buffer {buffer} back to the pool while \
                     another actor's access is unordered with the release",
                    e.seq, e.actor
                ),
                Some("join every accessor's flag before returning the slot".into()),
            );
        }
    }
}

/// Check a concurrency event log for happens-before violations.
///
/// Events are processed in recording order; the happens-before relation
/// is derived purely from the signal/wait/queue payloads, so the
/// detector flags accesses the *mechanism* fails to order even though
/// the recording happened to serialize them.
pub fn check_log(log: &ConcurrencyLog, location: &str) -> Vec<Diagnostic> {
    let mut d = Detector::new(location);
    for e in &log.events {
        d.step(e);
    }
    d.out
}

/// Lower a [`SyncSchedule`] to the concurrency event log its execution
/// implies.
///
/// Each schedule event `i` gets its own activation buffer (`i + 1`) and
/// completion flag (`i + 1`); `waits_on` edges become waits on the
/// target's flag. The *data* edges are structural — independent of
/// `waits_on` — so the detector has teeth: a submission reads its
/// backend's previous submission, a switch reads the latest submission
/// on any backend, and a rendezvous reads the latest GPU **and** NPU
/// submissions before it. Deleting a `waits_on` edge therefore leaves
/// the read in place but removes the ordering, which is exactly a data
/// race. Out-of-range waits lower to waits on a flag nothing signals
/// (a lost signal).
pub fn log_from_schedule(schedule: &SyncSchedule, mechanism: SyncMechanism) -> ConcurrencyLog {
    let n = schedule.events.len();
    let mut log = ConcurrencyLog::new();
    // Token spaces: flags 1..=n, per-event submit tokens offset by
    // SUBMIT_BASE, dangling-wait tokens offset by DANGLING_BASE.
    const SUBMIT_BASE: u64 = 1 << 20;
    const DANGLING_BASE: u64 = 1 << 21;
    let latest_submit = |upto: usize, pred: &dyn Fn(Backend) -> bool| -> Option<usize> {
        (0..upto).rev().find(|&j| {
            schedule.events[j].kind == EventKind::Submit && pred(schedule.events[j].backend)
        })
    };
    for (i, ev) in schedule.events.iter().enumerate() {
        let at = SimTime::from_micros(i as u64);
        let flag = |j: usize| (j + 1) as u64;
        for (k, &w) in ev.waits_on.iter().enumerate() {
            let token = if w < n {
                flag(w)
            } else {
                DANGLING_BASE + (i as u64) * 16 + k as u64
            };
            log.push(at, ev.backend, ConcurrencyOp::Wait { mechanism, token });
        }
        let reads: Vec<usize> = match ev.kind {
            EventKind::Submit => latest_submit(i, &|b| b == ev.backend).into_iter().collect(),
            // A verify node reads the submission it checks — the same
            // structural edge a switch has to its producer.
            EventKind::Switch | EventKind::Verify => {
                latest_submit(i, &|_| true).into_iter().collect()
            }
            EventKind::Rendezvous => [Backend::Gpu, Backend::Npu]
                .iter()
                .filter_map(|&b| latest_submit(i, &|x| x == b))
                .collect(),
        };
        if ev.kind == EventKind::Submit {
            let buffer = (i + 1) as u64;
            log.push(
                at,
                ev.backend,
                ConcurrencyOp::BufferAcquire { buffer, bytes: 1 },
            );
            let token = SUBMIT_BASE + i as u64;
            log.push(at, ev.backend, ConcurrencyOp::Submit { token });
            for j in reads {
                log.push(
                    at,
                    ev.backend,
                    ConcurrencyOp::BufferRead { buffer: flag(j) },
                );
            }
            log.push(at, ev.backend, ConcurrencyOp::BufferWrite { buffer });
            log.push(at, ev.backend, ConcurrencyOp::Complete { token });
        } else {
            for j in reads {
                log.push(
                    at,
                    ev.backend,
                    ConcurrencyOp::BufferRead { buffer: flag(j) },
                );
            }
        }
        log.push(
            at,
            ev.backend,
            ConcurrencyOp::Signal {
                mechanism,
                token: flag(i),
            },
        );
    }
    log
}

/// Lower a schedule to its implied event log and race-check it.
///
/// The lowering is mechanism-agnostic in its ordering semantics, so a
/// schedule that is clean under [`SyncMechanism::Fast`] is clean under
/// [`SyncMechanism::Driver`] too — the mechanisms differ in cost, not
/// in which edges exist.
pub fn check_schedule_races(
    schedule: &SyncSchedule,
    mechanism: SyncMechanism,
    location: &str,
) -> Vec<Diagnostic> {
    check_log(&log_from_schedule(schedule, mechanism), location)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_graph::partition::PartitionPlan;
    use hetero_tensor::shape::MatmulShape;
    use heterollm::trace::ConcurrencyRecorder;

    /// The Matmul the test plans split; a schedule reads only the
    /// plan's own split from it.
    const SHAPE: MatmulShape = MatmulShape::new(300, 4096, 4096);

    fn ids(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule_id.as_str()).collect()
    }

    #[test]
    fn recorder_serial_and_switch_logs_are_clean() {
        let mut r = ConcurrencyRecorder::new();
        let m = SyncMechanism::Fast;
        r.serial_kernel(Backend::Gpu, 4096, m, SimTime::ZERO);
        r.serial_kernel(Backend::Gpu, 4096, m, SimTime::ZERO);
        r.switch(Backend::Npu, m, SimTime::ZERO);
        r.serial_kernel(Backend::Npu, 4096, m, SimTime::ZERO);
        r.switch(Backend::Gpu, m, SimTime::ZERO);
        r.serial_kernel(Backend::Gpu, 4096, m, SimTime::ZERO);
        let diags = check_log(&r.finish(), "test");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn recorder_parallel_sections_are_clean() {
        let mut r = ConcurrencyRecorder::new();
        let m = SyncMechanism::Fast;
        r.serial_kernel(Backend::Gpu, 4096, m, SimTime::ZERO);
        r.parallel_section(4096, 4096, m, SimTime::ZERO);
        r.parallel_section(4096, 4096, m, SimTime::ZERO);
        r.serial_kernel(Backend::Gpu, 4096, m, SimTime::ZERO);
        let diags = check_log(&r.finish(), "test");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn skipped_switch_wait_is_a_data_race() {
        // A GPU kernel's output consumed by the NPU *without* the
        // backend-switch wait: the cross-actor read is unordered.
        let mut r = ConcurrencyRecorder::new();
        let m = SyncMechanism::Fast;
        r.serial_kernel(Backend::Gpu, 4096, m, SimTime::ZERO);
        // No r.switch(Backend::Npu, ..) here.
        r.serial_kernel(Backend::Npu, 4096, m, SimTime::ZERO);
        let diags = check_log(&r.finish(), "test");
        assert!(ids(&diags).contains(&rules::DATA_RACE), "{diags:?}");
    }

    #[test]
    fn wait_on_unsignalled_flag_is_lost() {
        let mut log = ConcurrencyLog::new();
        log.push(
            SimTime::ZERO,
            Backend::Gpu,
            ConcurrencyOp::Wait {
                mechanism: SyncMechanism::Fast,
                token: 99,
            },
        );
        let diags = check_log(&log, "test");
        assert_eq!(ids(&diags), vec![rules::LOST_SIGNAL], "{diags:?}");
    }

    #[test]
    fn unsynchronized_slot_reuse_is_flagged() {
        let mut log = ConcurrencyLog::new();
        let m = SyncMechanism::Fast;
        for op in [
            ConcurrencyOp::BufferAcquire {
                buffer: 1,
                bytes: 64,
            },
            ConcurrencyOp::BufferWrite { buffer: 1 },
            ConcurrencyOp::BufferRelease { buffer: 1 },
            ConcurrencyOp::Signal {
                mechanism: m,
                token: 1,
            },
        ] {
            log.push(SimTime::ZERO, Backend::Gpu, op);
        }
        // The NPU grabs the recycled slot without waiting on flag 1.
        log.push(
            SimTime::ZERO,
            Backend::Npu,
            ConcurrencyOp::BufferAcquire {
                buffer: 1,
                bytes: 64,
            },
        );
        let diags = check_log(&log, "test");
        assert_eq!(ids(&diags), vec![rules::UNSYNCHRONIZED_REUSE], "{diags:?}");
        // With the wait, the same reuse is ordered and clean.
        let mut ok = ConcurrencyLog::new();
        for e in &log.events[..4] {
            ok.push(e.at, e.actor, e.op);
        }
        ok.push(
            SimTime::ZERO,
            Backend::Npu,
            ConcurrencyOp::Wait {
                mechanism: m,
                token: 1,
            },
        );
        ok.push(
            SimTime::ZERO,
            Backend::Npu,
            ConcurrencyOp::BufferAcquire {
                buffer: 1,
                bytes: 64,
            },
        );
        assert!(check_log(&ok, "test").is_empty());
    }

    #[test]
    fn out_of_order_completion_is_flagged() {
        let mut log = ConcurrencyLog::new();
        log.push(
            SimTime::ZERO,
            Backend::Gpu,
            ConcurrencyOp::Submit { token: 1 },
        );
        log.push(
            SimTime::ZERO,
            Backend::Gpu,
            ConcurrencyOp::Submit { token: 2 },
        );
        log.push(
            SimTime::ZERO,
            Backend::Gpu,
            ConcurrencyOp::Complete { token: 2 },
        );
        let diags = check_log(&log, "test");
        assert_eq!(ids(&diags), vec![rules::DATA_RACE], "{diags:?}");
        assert!(diags[0].message.contains("FIFO"), "{diags:?}");
    }

    #[test]
    fn solver_style_schedules_lower_clean_under_both_mechanisms() {
        for plan in [
            PartitionPlan::GpuOnly,
            PartitionPlan::NpuOnly { padded_m: 512 },
            PartitionPlan::NpuPipe {
                chunks: vec![1024, 64],
                padded_rows: 4,
            },
            PartitionPlan::SeqCut {
                npu_chunks: vec![256, 32],
                gpu_rows: 12,
            },
            PartitionPlan::HybridCut {
                padded_m: 512,
                gpu_cols: 1024,
            },
        ] {
            let s = SyncSchedule::for_plan(&plan, SHAPE);
            for mech in [SyncMechanism::Fast, SyncMechanism::Driver] {
                let diags = check_schedule_races(&s, mech, "test");
                assert!(diags.is_empty(), "{plan:?} under {mech:?}: {diags:?}");
                let retried = crate::sched::retry_schedule(&s);
                let diags = check_schedule_races(&retried, mech, "test");
                assert!(diags.is_empty(), "retried {plan:?} {mech:?}: {diags:?}");
            }
        }
    }

    #[test]
    fn deleting_a_rendezvous_edge_is_a_data_race() {
        let plan = PartitionPlan::HybridCut {
            padded_m: 512,
            gpu_cols: 1024,
        };
        let mut s = SyncSchedule::for_plan(&plan, SHAPE);
        let r = s
            .events
            .iter()
            .position(|e| e.kind == EventKind::Rendezvous)
            .unwrap();
        s.events[r].waits_on.pop();
        let diags = check_schedule_races(&s, SyncMechanism::Fast, "test");
        assert!(ids(&diags).contains(&rules::DATA_RACE), "{diags:?}");
    }

    #[test]
    fn dangling_wait_lowers_to_a_lost_signal() {
        let mut s = SyncSchedule::for_plan(
            &PartitionPlan::HybridCut {
                padded_m: 512,
                gpu_cols: 1024,
            },
            SHAPE,
        );
        s.events[2].waits_on[1] = 77;
        let diags = check_schedule_races(&s, SyncMechanism::Driver, "test");
        assert!(ids(&diags).contains(&rules::LOST_SIGNAL), "{diags:?}");
    }
}
