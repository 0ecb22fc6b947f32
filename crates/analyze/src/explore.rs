//! Bounded exhaustive interleaving exploration for sync schedules
//! (§4.2).
//!
//! The race detector ([`crate::race`]) proves ordering *edges* exist;
//! this module asks the complementary question: does the result depend
//! on which legal order actually happens? A [`SyncSchedule`]'s
//! `waits_on` graph admits many linear extensions — the orders the
//! hardware could really execute given FIFO queues and rendezvous
//! edges. Each extension is replayed through the discrete-event
//! machinery ([`EventQueue`] + per-backend [`FifoServer`]s) under both
//! phase dominances, producing a full [`SessionReport`]. The schedule
//! is *deterministic* iff every extension's report serializes to
//! byte-identical JSON.
//!
//! Walking every extension would be factorial, so extensions are
//! grouped into Mazurkiewicz-style classes by their per-backend
//! projections: two orders that agree on each actor's local sequence
//! feed every FIFO server identically and replay identically, so one
//! representative per class suffices. Exploration is bounded by
//! [`ExploreConfig::max_interleavings`]; hitting the bound is reported
//! as truncation, never silently.

use std::collections::HashSet;

use hetero_soc::des::{EventQueue, FifoServer};
use hetero_soc::power::EnergyMeter;
use hetero_soc::sync::{Dominance, SyncMechanism, SyncModel};
use hetero_soc::{Backend, SimTime};
use heterollm::report::{PhaseReport, SessionReport};
use serde::Serialize;

use crate::diag::Diagnostic;
use crate::rules;
use crate::sched::{EventKind, SyncSchedule};

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Synchronization mechanism the replays cost with.
    pub mechanism: SyncMechanism,
    /// Maximum number of linear extensions to walk before truncating.
    pub max_interleavings: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            mechanism: SyncMechanism::Fast,
            max_interleavings: 10_000,
        }
    }
}

/// Outcome of exploring one schedule's interleaving space.
#[derive(Debug, Clone, Serialize)]
pub struct DeterminismCertificate {
    /// Linear extensions of the `waits_on` graph walked.
    pub interleavings: usize,
    /// Distinct per-backend-projection classes replayed.
    pub classes: usize,
    /// Whether enumeration stopped at the exploration bound.
    pub truncated: bool,
    /// Whether every replayed class produced a byte-identical report.
    pub deterministic: bool,
    /// The agreed serialized [`SessionReport`] when deterministic.
    pub canonical: Option<String>,
}

/// Enumerate linear extensions of the `waits_on` DAG, stopping after
/// `cap` complete orders. Returns the orders and whether more remained.
fn linear_extensions(schedule: &SyncSchedule, cap: usize) -> (Vec<Vec<usize>>, bool) {
    let n = schedule.events.len();
    let mut indeg = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in schedule.events.iter().enumerate() {
        for &w in &e.waits_on {
            if w < n {
                indeg[i] += 1;
                dependents[w].push(i);
            }
        }
    }
    let mut orders = Vec::new();
    let mut order = Vec::with_capacity(n);
    let mut truncated = false;
    fn dfs(
        n: usize,
        indeg: &mut [usize],
        dependents: &[Vec<usize>],
        order: &mut Vec<usize>,
        orders: &mut Vec<Vec<usize>>,
        cap: usize,
        truncated: &mut bool,
    ) {
        if orders.len() >= cap {
            *truncated = true;
            return;
        }
        if order.len() == n {
            orders.push(order.clone());
            return;
        }
        for i in 0..n {
            if indeg[i] != usize::MAX && indeg[i] == 0 {
                let saved = indeg[i];
                indeg[i] = usize::MAX; // taken
                for &d in &dependents[i] {
                    indeg[d] -= 1;
                }
                order.push(i);
                dfs(n, indeg, dependents, order, orders, cap, truncated);
                order.pop();
                for &d in &dependents[i] {
                    indeg[d] += 1;
                }
                indeg[i] = saved;
                if *truncated {
                    return;
                }
            }
        }
    }
    dfs(
        n,
        &mut indeg,
        &dependents,
        &mut order,
        &mut orders,
        cap,
        &mut truncated,
    );
    (orders, truncated)
}

/// Per-backend projection of an order: each actor's local sequence.
/// Orders with equal projections feed every FIFO server identically and
/// replay to the same report.
fn projection(schedule: &SyncSchedule, order: &[usize]) -> Vec<Vec<usize>> {
    let mut proj = vec![Vec::new(); 3];
    for &i in order {
        let a = match schedule.events[i].backend {
            Backend::Cpu => 0,
            Backend::Gpu => 1,
            Backend::Npu => 2,
        };
        proj[a].push(i);
    }
    proj
}

/// Replay one order through per-backend FIFO servers, returning the
/// makespan and per-actor busy time.
///
/// Event durations are index-dependent (submissions cost `100 µs +
/// 17 µs · index`) so FIFO reorderings of same-backend work surface as
/// timing differences instead of cancelling out.
fn replay(
    schedule: &SyncSchedule,
    order: &[usize],
    sync: &SyncModel,
    dominance: Dominance,
) -> (SimTime, [SimTime; 3]) {
    let n = schedule.events.len();
    let mut servers = [FifoServer::new(), FifoServer::new(), FifoServer::new()];
    let mut completion = vec![SimTime::ZERO; n];
    let mut busy = [SimTime::ZERO; 3];
    let mut queue: EventQueue<usize> = EventQueue::new();
    for &i in order {
        let e = &schedule.events[i];
        let ready = e
            .waits_on
            .iter()
            .filter(|&&w| w < n)
            .map(|&w| completion[w])
            .max()
            .unwrap_or(SimTime::ZERO);
        let duration = match e.kind {
            EventKind::Submit => SimTime::from_micros(100 + 17 * i as u64),
            EventKind::Switch => sync.backend_switch(),
            // Verification rendezvouses with the CPU control plane to
            // read the checksum vectors — same cost class as a join.
            EventKind::Rendezvous | EventKind::Verify => sync.rendezvous(dominance),
        };
        let a = match e.backend {
            Backend::Cpu => 0,
            Backend::Gpu => 1,
            Backend::Npu => 2,
        };
        let (_, end) = servers[a].serve(ready, duration);
        completion[i] = end;
        busy[a] += duration;
        queue.schedule(end, i);
    }
    let mut makespan = SimTime::ZERO;
    while let Some((at, _)) = queue.pop() {
        makespan = at;
    }
    (makespan, busy)
}

/// Build the session report one interleaving class implies: the
/// schedule replayed as a prefill (NPU-dominant rendezvous costs) and
/// as a decode pass (GPU-dominant), with energy integrated over both.
fn class_report(
    schedule: &SyncSchedule,
    order: &[usize],
    mechanism: SyncMechanism,
    model: &str,
) -> SessionReport {
    let sync = SyncModel::new(mechanism);
    let (pre_span, pre_busy) = replay(schedule, order, &sync, Dominance::NpuDominant);
    let (dec_span, dec_busy) = replay(schedule, order, &sync, Dominance::GpuDominant);
    let submits = schedule
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Submit)
        .count();
    let mut meter = EnergyMeter::new();
    for (a, backend) in [Backend::Cpu, Backend::Gpu, Backend::Npu]
        .into_iter()
        .enumerate()
    {
        meter.add_busy(backend, pre_busy[a] + dec_busy[a]);
    }
    meter.add_dram_bytes(submits as u64 * (1 << 20));
    meter.set_gpu_assist(true);
    meter.set_makespan(pre_span + dec_span);
    SessionReport {
        engine: "interleaving-replay".into(),
        model: model.into(),
        prefill: PhaseReport {
            tokens: submits,
            elapsed: pre_span,
        },
        decode: PhaseReport {
            tokens: submits,
            elapsed: dec_span,
        },
        power: meter.report(),
        degradation: None,
        integrity: None,
        metrics: None,
    }
}

/// Explore a schedule's legal interleavings and certify determinism.
///
/// Returns the certificate plus diagnostics: one
/// [`rules::INTERLEAVING_DETERMINISM`] deny finding if two interleaving
/// classes produce session reports that are not byte-identical.
pub fn explore_schedule(
    schedule: &SyncSchedule,
    cfg: &ExploreConfig,
    location: &str,
) -> (DeterminismCertificate, Vec<Diagnostic>) {
    let (orders, truncated) = linear_extensions(schedule, cfg.max_interleavings);
    let mut seen: HashSet<Vec<Vec<usize>>> = HashSet::new();
    let mut reps: Vec<Vec<usize>> = Vec::new();
    for order in &orders {
        if seen.insert(projection(schedule, order)) {
            reps.push(order.clone());
        }
    }
    let encoded: Vec<String> = reps
        .iter()
        .map(|order| {
            serde_json::to_string(&class_report(schedule, order, cfg.mechanism, location))
                .expect("session reports serialize")
        })
        .collect();
    let mut out = Vec::new();
    let divergent = encoded.iter().position(|e| e != &encoded[0]);
    if let Some(k) = divergent {
        out.push(Diagnostic::with_suggestion(
            rules::INTERLEAVING_DETERMINISM,
            location,
            format!(
                "schedule output depends on the interleaving: {} of {} replayed \
                 classes diverge from class 0 (first at class {k}; {} extensions \
                 walked{})",
                encoded.iter().filter(|e| *e != &encoded[0]).count(),
                encoded.len(),
                orders.len(),
                if truncated { ", truncated" } else { "" },
            ),
            Some(
                "add a waits_on edge ordering the unordered same-backend work so \
                 every legal execution yields the same report"
                    .into(),
            ),
        ));
    }
    let deterministic = divergent.is_none() && !encoded.is_empty();
    let cert = DeterminismCertificate {
        interleavings: orders.len(),
        classes: reps.len(),
        truncated,
        deterministic,
        canonical: if deterministic {
            encoded.into_iter().next()
        } else {
            None
        },
    };
    (cert, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{retry_schedule, SyncEvent};
    use hetero_graph::partition::PartitionPlan;
    use hetero_tensor::shape::MatmulShape;

    /// The Matmul the test plans split; a schedule reads only the
    /// plan's own split from it.
    const SHAPE: MatmulShape = MatmulShape::new(300, 4096, 4096);

    fn ev(label: &str, backend: Backend, kind: EventKind, waits_on: Vec<usize>) -> SyncEvent {
        SyncEvent {
            label: label.into(),
            backend,
            kind,
            waits_on,
        }
    }

    #[test]
    fn solver_schedules_are_deterministic() {
        for plan in [
            PartitionPlan::GpuOnly,
            PartitionPlan::NpuOnly { padded_m: 512 },
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
            for base in [s.clone(), retry_schedule(&s)] {
                let (cert, diags) = explore_schedule(&base, &ExploreConfig::default(), "test");
                assert!(diags.is_empty(), "{plan:?}: {diags:?}");
                assert!(cert.deterministic, "{plan:?}: {cert:?}");
                assert_eq!(cert.classes, 1, "{plan:?}: {cert:?}");
                assert!(!cert.truncated);
                assert!(cert.canonical.is_some());
            }
        }
    }

    #[test]
    fn unordered_same_backend_work_diverges() {
        // Two unordered GPU submissions feeding a rendezvous: the FIFO
        // queue can serve either first, and the rendezvous sees its
        // dependency complete at different times.
        let s = SyncSchedule {
            events: vec![
                ev("gpu a", Backend::Gpu, EventKind::Submit, vec![]),
                ev("gpu b", Backend::Gpu, EventKind::Submit, vec![]),
                ev("npu c", Backend::Npu, EventKind::Submit, vec![]),
                ev("join", Backend::Cpu, EventKind::Rendezvous, vec![0, 2]),
            ],
        };
        let (cert, diags) = explore_schedule(&s, &ExploreConfig::default(), "test");
        assert_eq!(cert.classes, 2, "{cert:?}");
        assert!(!cert.deterministic);
        assert!(cert.canonical.is_none());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule_id, rules::INTERLEAVING_DETERMINISM);
    }

    #[test]
    fn certificates_are_reproducible() {
        let s = SyncSchedule::for_plan(
            &PartitionPlan::SeqCut {
                npu_chunks: vec![256, 32],
                gpu_rows: 12,
            },
            SHAPE,
        );
        let cfg = ExploreConfig::default();
        let (a, _) = explore_schedule(&s, &cfg, "test");
        let (b, _) = explore_schedule(&s, &cfg, "test");
        assert_eq!(a.canonical, b.canonical);
        assert!(a.canonical.is_some());
    }

    #[test]
    fn exploration_bound_is_reported() {
        // Six mutually unordered submissions: 6! = 720 extensions.
        let events: Vec<SyncEvent> = (0..6)
            .map(|i| {
                let b = if i % 2 == 0 {
                    Backend::Gpu
                } else {
                    Backend::Npu
                };
                ev(&format!("s{i}"), b, EventKind::Submit, vec![])
            })
            .collect();
        let s = SyncSchedule { events };
        let cfg = ExploreConfig {
            max_interleavings: 10,
            ..ExploreConfig::default()
        };
        let (cert, _) = explore_schedule(&s, &cfg, "test");
        assert!(cert.truncated);
        assert_eq!(cert.interleavings, 10);
        // Unbounded, the full space fits and is walked exactly.
        let (full, _) = explore_schedule(&s, &ExploreConfig::default(), "test");
        assert!(!full.truncated);
        assert_eq!(full.interleavings, 720);
    }

    #[test]
    fn replay_respects_dependencies() {
        let s = SyncSchedule::for_plan(
            &PartitionPlan::HybridCut {
                padded_m: 512,
                gpu_cols: 1024,
            },
            SHAPE,
        );
        let sync = SyncModel::new(SyncMechanism::Fast);
        let (span, busy) = replay(&s, &[0, 1, 2], &sync, Dominance::NpuDominant);
        // The rendezvous starts only after both submissions complete.
        assert!(span > SimTime::from_micros(117));
        assert!(busy[1] > SimTime::ZERO && busy[2] > SimTime::ZERO);
    }
}
