//! Sync-schedule sanity: the happens-before graph over GPU/NPU
//! submissions and rendezvous points (§4.2).
//!
//! A partition plan implies a small dependency graph with one event per
//! step of its lowering (`PartitionPlan::lower`): kernel submissions on
//! each backend, serial backend switches, and — for parallel plans — a
//! rendezvous where both sides' results become visible. The region
//! table and the solver's cost intervals index the same steps. The
//! checker verifies the graph can actually execute: waits
//! are acyclic, reference real events, and every rendezvous joins both
//! backends (a one-sided rendezvous is a wait on nothing and models a
//! lost synchronization).

use hetero_graph::partition::{PartitionPlan, Step};
use hetero_soc::Backend;
use hetero_tensor::shape::MatmulShape;
use serde::{Deserialize, Serialize};

use crate::diag::Diagnostic;
use crate::rules;

/// What one schedule event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Kernel (or graph) submission on a backend.
    Submit,
    /// Serial handoff of a tensor to another backend.
    Switch,
    /// Parallel-section join: both backends' results become visible.
    Rendezvous,
    /// ABFT checksum verification of a submission's output on the CPU
    /// control plane (the data-integrity layer's detection point).
    Verify,
}

/// One node in the happens-before graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncEvent {
    /// Human-readable label, e.g. `"npu chunk 512"`.
    pub label: String,
    /// Backend the event runs on (rendezvous: the waiting side).
    pub backend: Backend,
    /// Event kind.
    pub kind: EventKind,
    /// Indices of events that must complete before this one starts.
    pub waits_on: Vec<usize>,
}

/// A happens-before graph over submissions and rendezvous points.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncSchedule {
    /// Events in submission order.
    pub events: Vec<SyncEvent>,
}

impl SyncSchedule {
    /// The canonical schedule a [`PartitionPlan`] implies on `shape`:
    /// one event per step of the plan's lowering
    /// ([`PartitionPlan::lower`]), in step order, so event `i` is step
    /// `i` of the region table and the cost intervals.
    ///
    /// NPU submissions chain in submission order. A backend switch
    /// waits on the last NPU submission; a rendezvous on the CPU
    /// control plane waits on the GPU submission and the last NPU
    /// submission.
    pub fn for_plan(plan: &PartitionPlan, shape: MatmulShape) -> Self {
        let lowered = plan.lower(shape);
        let (mut gpu, mut last_npu) = (None, None);
        let mut events = Vec::new();
        for (i, step) in lowered.steps().enumerate() {
            let (label, backend, kind, waits_on) = match step {
                Step::Compute(c) if c.backend == Backend::Gpu => {
                    gpu = Some(i);
                    let label = match (lowered.parallel, lowered.npu_graph) {
                        (false, _) => "gpu kernel".into(),
                        (true, true) => format!("gpu cols {}", c.shape.n),
                        (true, false) => format!("gpu rows {}", c.shape.m),
                    };
                    (label, Backend::Gpu, EventKind::Submit, vec![])
                }
                Step::Compute(c) => {
                    let what = if lowered.npu_graph { "graph" } else { "chunk" };
                    let waits = last_npu.replace(i).into_iter().collect();
                    let label = format!("npu {what} {}", c.shape.m);
                    (label, Backend::Npu, EventKind::Submit, waits)
                }
                Step::Switch => (
                    "switch to gpu consumer".into(),
                    Backend::Npu,
                    EventKind::Switch,
                    last_npu.into_iter().collect(),
                ),
                Step::Rendezvous => (
                    "rendezvous".into(),
                    Backend::Cpu,
                    EventKind::Rendezvous,
                    gpu.into_iter().chain(last_npu).collect(),
                ),
            };
            events.push(SyncEvent {
                label,
                backend,
                kind,
                waits_on,
            });
        }
        Self { events }
    }

    /// Indices reachable (transitively waited on) from `from`.
    fn reachable(&self, from: usize) -> Vec<usize> {
        let mut seen = vec![false; self.events.len()];
        let mut stack = vec![from];
        while let Some(i) = stack.pop() {
            for &w in &self.events[i].waits_on {
                if w < self.events.len() && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        (0..self.events.len()).filter(|&i| seen[i]).collect()
    }
}

/// The schedule after every rendezvous times out once and is retried
/// (the runtime controller's bounded-retry reaction to flaky fast
/// sync).
///
/// For each rendezvous, the latest upstream submission on each backend
/// is re-submitted — happening after both its original submission
/// (queue program order) and the failed rendezvous (the timeout that
/// triggers the retry) — and a fresh rendezvous joins the retries.
/// The derived schedule must pass [`check_schedule`] like any other:
/// retrying must never introduce a cycle, and a retried rendezvous
/// must still join both backends (it cannot if the original was
/// one-sided — the lost side has nothing to re-submit).
pub fn retry_schedule(base: &SyncSchedule) -> SyncSchedule {
    let mut out = base.clone();
    for r in 0..base.events.len() {
        if base.events[r].kind != EventKind::Rendezvous {
            continue;
        }
        let upstream = base.reachable(r);
        let mut retry_waits = Vec::new();
        for backend in [Backend::Gpu, Backend::Npu] {
            let resubmit = upstream.iter().copied().rev().find(|&u| {
                base.events[u].backend == backend && base.events[u].kind == EventKind::Submit
            });
            if let Some(s) = resubmit {
                out.events.push(SyncEvent {
                    label: format!("retry {}", base.events[s].label),
                    backend,
                    kind: EventKind::Submit,
                    waits_on: vec![s, r],
                });
                retry_waits.push(out.events.len() - 1);
            }
        }
        out.events.push(SyncEvent {
            label: format!("retry {}", base.events[r].label),
            backend: base.events[r].backend,
            kind: EventKind::Rendezvous,
            waits_on: retry_waits,
        });
    }
    out
}

/// The schedule with the integrity layer's verification pass woven in.
///
/// Every submission gains a CPU-side [`EventKind::Verify`] node that
/// checks its output's ABFT row checksums, and every consumer that
/// originally waited on the submission is rerouted to wait on the
/// verify node instead: downstream work may only observe *verified*
/// data. The derived schedule must still pass [`check_schedule`]
/// (rendezvous pairing looks through verify nodes transitively) and,
/// unlike the base schedule, passes [`check_unverified_sink`].
pub fn verified_schedule(base: &SyncSchedule) -> SyncSchedule {
    let n = base.events.len();
    // New index of each base event once verify nodes are spliced in
    // directly after their submissions (splicing, not appending, keeps
    // each verify adjacent to its producer in submission order, which
    // the race-detector lowering relies on).
    let mut new_idx = Vec::with_capacity(n);
    let mut next = 0usize;
    for e in &base.events {
        new_idx.push(next);
        next += if e.kind == EventKind::Submit { 2 } else { 1 };
    }
    let reroute = |w: usize| -> usize {
        match base.events.get(w) {
            // Consumers of a submission wait on its verify node.
            Some(e) if e.kind == EventKind::Submit => new_idx[w] + 1,
            Some(_) => new_idx[w],
            // Keep dangling waits dangling past the new length.
            None => next + (w - n),
        }
    };
    let mut events = Vec::with_capacity(next);
    for e in &base.events {
        let mut rerouted = e.clone();
        rerouted.waits_on = e.waits_on.iter().map(|&w| reroute(w)).collect();
        let is_submit = e.kind == EventKind::Submit;
        let idx = events.len();
        events.push(rerouted);
        if is_submit {
            events.push(SyncEvent {
                label: format!("verify {}", e.label),
                backend: Backend::Cpu,
                kind: EventKind::Verify,
                waits_on: vec![idx],
            });
        }
    }
    SyncSchedule { events }
}

/// Check that no submission's output can reach a sink unverified.
///
/// Walks forward from every submission over the dependents edges.
/// A path that reaches a [`EventKind::Verify`] node is absorbed there —
/// that data was checked before anything downstream consumed it. A
/// path that ends at a non-verify sink (or a submission nobody
/// consumes at all) means corrupted output could silently flow into a
/// result, and is flagged under the `unverified-sink` rule.
pub fn check_unverified_sink(schedule: &SyncSchedule, location: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = schedule.events.len();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in schedule.events.iter().enumerate() {
        for &w in &e.waits_on {
            if w < n {
                dependents[w].push(i);
            }
        }
    }
    for (s, ev) in schedule.events.iter().enumerate() {
        if ev.kind != EventKind::Submit {
            continue;
        }
        // Forward BFS, absorbed at verify nodes.
        let mut seen = vec![false; n];
        let mut stack = vec![s];
        seen[s] = true;
        let mut leak: Option<usize> = None;
        while let Some(i) = stack.pop() {
            if schedule.events[i].kind == EventKind::Verify {
                continue;
            }
            if dependents[i].is_empty() {
                leak = Some(i);
                break;
            }
            for &d in &dependents[i] {
                if !seen[d] {
                    seen[d] = true;
                    stack.push(d);
                }
            }
        }
        if let Some(sink) = leak {
            let what = if sink == s {
                "is consumed by nothing".into()
            } else {
                format!(
                    "flows unverified into sink '{}'",
                    schedule.events[sink].label
                )
            };
            out.push(Diagnostic::with_suggestion(
                rules::UNVERIFIED_SINK,
                location,
                format!("submission '{}' {what}", ev.label),
                Some(
                    "insert a Verify event between the submission and its consumers \
                     (see verified_schedule)"
                        .into(),
                ),
            ));
        }
    }
    out
}

/// Check a sync schedule's happens-before graph.
pub fn check_schedule(schedule: &SyncSchedule, location: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = schedule.events.len();

    // Dangling waits.
    for (i, e) in schedule.events.iter().enumerate() {
        for &w in &e.waits_on {
            if w >= n {
                out.push(Diagnostic::new(
                    rules::SYNC_SCHEDULE,
                    location,
                    format!("event {i} ({}) waits on nonexistent event {w}", e.label),
                ));
            }
        }
    }

    // Cyclic waits (Kahn's algorithm on the in-range edges): an event
    // becomes ready once everything it waits on has executed.
    let mut remaining_deps: Vec<usize> = schedule
        .events
        .iter()
        .map(|e| e.waits_on.iter().filter(|&&w| w < n).count())
        .collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining_deps[i] == 0).collect();
    let mut executed = 0usize;
    // Reverse adjacency: dependency → dependents.
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in schedule.events.iter().enumerate() {
        for &w in &e.waits_on {
            if w < n {
                dependents[w].push(i);
            }
        }
    }
    while let Some(i) = ready.pop() {
        executed += 1;
        for &d in &dependents[i] {
            remaining_deps[d] -= 1;
            if remaining_deps[d] == 0 {
                ready.push(d);
            }
        }
    }
    if executed < n {
        let stuck: Vec<String> = (0..n)
            .filter(|&i| remaining_deps[i] > 0)
            .map(|i| schedule.events[i].label.clone())
            .collect();
        out.push(Diagnostic::with_suggestion(
            rules::SYNC_SCHEDULE,
            location,
            format!("cyclic waits: events {stuck:?} can never execute"),
            Some("break the cycle; a rendezvous must not be waited on by its inputs".into()),
        ));
    }

    // Rendezvous pairing: each rendezvous must (transitively) wait on
    // at least one GPU and one NPU submission.
    for (i, e) in schedule.events.iter().enumerate() {
        if e.kind != EventKind::Rendezvous {
            continue;
        }
        let upstream = schedule.reachable(i);
        let sees = |b: Backend| {
            upstream.iter().any(|&u| {
                schedule.events[u].backend == b && schedule.events[u].kind == EventKind::Submit
            })
        };
        if !sees(Backend::Gpu) || !sees(Backend::Npu) {
            out.push(Diagnostic::with_suggestion(
                rules::SYNC_SCHEDULE,
                location,
                format!(
                    "rendezvous '{}' does not join both backends (waits on {:?})",
                    e.label, e.waits_on
                ),
                Some("a rendezvous must wait on at least one GPU and one NPU submission".into()),
            ));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn accepts_parallel_plan_schedule() {
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![512, 32],
            gpu_rows: 56,
        };
        let s = SyncSchedule::for_plan(&plan, SHAPE);
        assert!(check_schedule(&s, "test").is_empty());
        // 1 GPU submit + 2 NPU chunks + rendezvous.
        assert_eq!(s.events.len(), 4);
    }

    #[test]
    fn accepts_serial_plan_schedules() {
        for plan in [
            PartitionPlan::GpuOnly,
            PartitionPlan::NpuOnly { padded_m: 256 },
            PartitionPlan::NpuPipe {
                chunks: vec![1024, 64],
                padded_rows: 4,
            },
        ] {
            let s = SyncSchedule::for_plan(&plan, SHAPE);
            assert!(check_schedule(&s, "test").is_empty(), "{plan:?}");
        }
    }

    #[test]
    fn rejects_cyclic_waits() {
        let s = SyncSchedule {
            events: vec![
                ev("a", Backend::Gpu, EventKind::Submit, vec![1]),
                ev("b", Backend::Npu, EventKind::Submit, vec![0]),
            ],
        };
        let diags = check_schedule(&s, "test");
        assert!(
            diags.iter().any(|d| d.message.contains("cyclic")),
            "{diags:?}"
        );
    }

    #[test]
    fn rejects_one_sided_rendezvous() {
        let s = SyncSchedule {
            events: vec![
                ev("gpu", Backend::Gpu, EventKind::Submit, vec![]),
                ev("join", Backend::Cpu, EventKind::Rendezvous, vec![0]),
            ],
        };
        let diags = check_schedule(&s, "test");
        assert!(
            diags.iter().any(|d| d.message.contains("both backends")),
            "{diags:?}"
        );
    }

    #[test]
    fn rejects_dangling_wait() {
        let s = SyncSchedule {
            events: vec![ev("a", Backend::Gpu, EventKind::Submit, vec![7])],
        };
        let diags = check_schedule(&s, "test");
        assert!(
            diags.iter().any(|d| d.message.contains("nonexistent")),
            "{diags:?}"
        );
    }

    #[test]
    fn retry_reschedules_each_rendezvous_acyclically() {
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![512, 32],
            gpu_rows: 56,
        };
        let base = SyncSchedule::for_plan(&plan, SHAPE);
        let retried = retry_schedule(&base);
        // One retry submit per backend plus a retried rendezvous.
        assert_eq!(retried.events.len(), base.events.len() + 3);
        assert!(check_schedule(&retried, "test").is_empty());
        // Serial plans have no rendezvous: retry is the identity.
        let serial = SyncSchedule::for_plan(&PartitionPlan::NpuOnly { padded_m: 256 }, SHAPE);
        assert_eq!(retry_schedule(&serial), serial);
    }

    #[test]
    fn retry_of_one_sided_rendezvous_stays_one_sided() {
        let s = SyncSchedule {
            events: vec![
                ev("gpu", Backend::Gpu, EventKind::Submit, vec![]),
                ev("join", Backend::Cpu, EventKind::Rendezvous, vec![0]),
            ],
        };
        let diags = check_schedule(&retry_schedule(&s), "test");
        // Both the original and the retried rendezvous are flagged: the
        // lost side has nothing to re-submit.
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.message.contains("both backends"))
                .count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn base_plan_schedules_have_unverified_sinks() {
        // Without the integrity layer, every plan's outputs reach a
        // sink unchecked — the negative case the rule exists for.
        for plan in [
            PartitionPlan::GpuOnly,
            PartitionPlan::NpuOnly { padded_m: 256 },
            PartitionPlan::RowCut {
                gpu_cols: 1024,
                padded_m: 256,
            },
            PartitionPlan::SeqCut {
                npu_chunks: vec![512, 32],
                gpu_rows: 56,
            },
        ] {
            let s = SyncSchedule::for_plan(&plan, SHAPE);
            assert!(!check_unverified_sink(&s, "test").is_empty(), "{plan:?}");
        }
    }

    #[test]
    fn verified_schedules_pass_both_checks() {
        for plan in [
            PartitionPlan::GpuOnly,
            PartitionPlan::NpuOnly { padded_m: 256 },
            PartitionPlan::NpuPipe {
                chunks: vec![1024, 64],
                padded_rows: 4,
            },
            PartitionPlan::RowCut {
                gpu_cols: 1024,
                padded_m: 256,
            },
            PartitionPlan::SeqCut {
                npu_chunks: vec![512, 32],
                gpu_rows: 56,
            },
        ] {
            let v = verified_schedule(&SyncSchedule::for_plan(&plan, SHAPE));
            assert!(check_schedule(&v, "test").is_empty(), "{plan:?}");
            assert!(check_unverified_sink(&v, "test").is_empty(), "{plan:?}");
        }
    }

    #[test]
    fn verified_schedule_adds_one_verify_per_submit() {
        let base = SyncSchedule::for_plan(
            &PartitionPlan::SeqCut {
                npu_chunks: vec![512, 32],
                gpu_rows: 56,
            },
            SHAPE,
        );
        let submits = base
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Submit)
            .count();
        let v = verified_schedule(&base);
        assert_eq!(v.events.len(), base.events.len() + submits);
        // The rendezvous now waits only on verify nodes.
        let r = v
            .events
            .iter()
            .find(|e| e.kind == EventKind::Rendezvous)
            .unwrap();
        for &w in &r.waits_on {
            assert_eq!(v.events[w].kind, EventKind::Verify);
        }
    }

    #[test]
    fn unverified_sink_names_the_leak() {
        // submit → switch (sink): the diagnostic should name the sink.
        let s = SyncSchedule::for_plan(&PartitionPlan::NpuOnly { padded_m: 256 }, SHAPE);
        let diags = check_unverified_sink(&s, "test");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("switch to gpu consumer"));
        assert_eq!(diags[0].rule_id, rules::UNVERIFIED_SINK);
        // A lone submission is flagged as consumed by nothing.
        let lone = SyncSchedule::for_plan(&PartitionPlan::GpuOnly, SHAPE);
        let diags = check_unverified_sink(&lone, "test");
        assert!(diags[0].message.contains("consumed by nothing"));
    }

    #[test]
    fn rendezvous_sees_transitive_submissions() {
        // GPU → switch → rendezvous also waiting on NPU: the GPU submit
        // is only reachable through the intermediate event.
        let s = SyncSchedule {
            events: vec![
                ev("gpu", Backend::Gpu, EventKind::Submit, vec![]),
                ev("stage", Backend::Gpu, EventKind::Switch, vec![0]),
                ev("npu", Backend::Npu, EventKind::Submit, vec![]),
                ev("join", Backend::Cpu, EventKind::Rendezvous, vec![1, 2]),
            ],
        };
        assert!(check_schedule(&s, "test").is_empty());
    }
}
