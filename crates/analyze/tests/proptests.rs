//! Property-based tests of the analyzer: solver output never trips a
//! deny-level rule, mutated plans are rejected with the *expected*
//! rule, `normalize` is idempotent, and the static cost layer is sound
//! (simulated times and replayed pool peaks never escape the bounds).

use hetero_analyze::bound::{check_footprint, model_bounds_under, replay_pool_peak};
use hetero_analyze::{
    check_plan_full, check_schedule_races, model_bounds, retry_schedule, rules,
    schedule_peak_bytes, EventKind, PlanContext, Severity, SyncSchedule,
};
use hetero_graph::partition::PartitionPlan;
use hetero_profiler::RealExecProvider;
use hetero_soc::calib::NPU_TILE;
use hetero_soc::specs::{project_config, table1};
use hetero_soc::sync::{Dominance, SyncMechanism};
use hetero_soc::SocConfig;
use hetero_solver::{RegionTable, Solver, SolverConfig};
use hetero_tensor::shape::MatmulShape;
use heterollm::engines::{hetero_soc_config, HeteroTensorEngine};
use heterollm::{Engine, ModelConfig};
use proptest::prelude::*;

/// Rule ids of the deny-severity findings for a plan under `ctx`.
fn deny_ids(plan: &PartitionPlan, ctx: &PlanContext) -> Vec<String> {
    check_plan_full(plan, ctx)
        .into_iter()
        .filter(|d| d.severity == Severity::Deny)
        .map(|d| d.rule_id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The solver's chosen plan for a random shape passes every rule
    /// at deny severity, under either dominance regime.
    #[test]
    fn solver_plans_never_deny(
        m in 1usize..2200,
        k in prop_oneof![Just(2048usize), Just(4096), Just(8192)],
        n in prop_oneof![Just(2048usize), Just(4096), Just(14336)],
        npu_dominant in proptest::bool::ANY,
    ) {
        let cfg = SolverConfig::default();
        let solver = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            cfg.clone(),
        );
        let dominance = if npu_dominant {
            Dominance::NpuDominant
        } else {
            Dominance::GpuDominant
        };
        let choice = solver.solve(MatmulShape::new(m, k, n), dominance);
        let mut ctx = PlanContext::standard(format!("prop[m={m},k={k},n={n}]"), m, n);
        ctx.compiled_sizes = cfg.standards;
        let denies = deny_ids(&choice.plan, &ctx);
        prop_assert!(denies.is_empty(), "plan {:?}: {denies:?}", choice.plan);
    }

    /// An NPU-only plan whose padded size undercovers the sequence is a
    /// shape-conservation violation.
    #[test]
    fn undercovering_plan_denied_as_conservation(m in 2usize..2048) {
        let plan = PartitionPlan::NpuOnly { padded_m: m - 1 };
        let ctx = PlanContext::standard("prop", m, 4096);
        let denies = deny_ids(&plan, &ctx);
        prop_assert!(
            denies.iter().any(|id| id == rules::SHAPE_CONSERVATION),
            "{denies:?}"
        );
    }

    /// An NPU size above one tile that is not tile-aligned is a
    /// tile-alignment violation (isolated by compiling that exact size
    /// so graph-membership cannot fire instead).
    #[test]
    fn misaligned_size_denied_as_tile_alignment(
        mult in 1usize..32,
        off in 1usize..32,
    ) {
        let size = mult * NPU_TILE + off;
        prop_assume!(!size.is_multiple_of(NPU_TILE));
        let plan = PartitionPlan::NpuOnly { padded_m: size };
        let mut ctx = PlanContext::standard("prop", size, 4096);
        ctx.compiled_sizes.push(size);
        let denies = deny_ids(&plan, &ctx);
        prop_assert!(
            denies.iter().any(|id| id == rules::TILE_ALIGNMENT),
            "size {size}: {denies:?}"
        );
    }

    /// A tile-aligned NPU size with no pre-compiled graph is a
    /// graph-membership violation.
    #[test]
    fn uncompiled_size_denied_as_membership(j in 1usize..64) {
        let size = j * NPU_TILE;
        let ctx = PlanContext::standard("prop", size, 4096);
        prop_assume!(!ctx.compiled_sizes.contains(&size));
        let plan = PartitionPlan::NpuOnly { padded_m: size };
        let denies = deny_ids(&plan, &ctx);
        prop_assert_eq!(denies, vec![rules::GRAPH_MEMBERSHIP.to_string()]);
    }

    /// Dropping one NPU chunk from a valid sequence-cut plan breaks row
    /// coverage and is denied as shape-conservation.
    #[test]
    fn dropped_chunk_denied_as_conservation(
        keep in 1usize..4,
        gpu_rows in 1usize..64,
    ) {
        let chunks: Vec<usize> = std::iter::repeat_n(256usize, keep + 1).collect();
        let m = chunks.iter().sum::<usize>() + gpu_rows;
        let valid = PartitionPlan::SeqCut {
            npu_chunks: chunks.clone(),
            gpu_rows,
        };
        let ctx = PlanContext::standard("prop", m, 4096);
        prop_assert!(deny_ids(&valid, &ctx).is_empty());

        let mutated = PartitionPlan::SeqCut {
            npu_chunks: chunks[..keep].to_vec(),
            gpu_rows,
        };
        let denies = deny_ids(&mutated, &ctx);
        prop_assert_eq!(denies, vec![rules::SHAPE_CONSERVATION.to_string()]);
    }

    /// A degenerate sequence cut (empty GPU share) is flagged at warn
    /// severity as plan-normalization, and normalizing it clears every
    /// finding.
    #[test]
    fn degenerate_seq_cut_warns_until_normalized(j in 1usize..6) {
        let size = 32 << (j - 1); // one of the standard graph sizes
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![size],
            gpu_rows: 0,
        };
        let ctx = PlanContext::standard("prop", size, 4096);
        let diags = check_plan_full(&plan, &ctx);
        prop_assert!(
            diags.iter().any(|d| d.rule_id == rules::PLAN_NORMALIZATION
                && d.severity == Severity::Warn),
            "{diags:?}"
        );
        prop_assert!(check_plan_full(&plan.normalize(), &ctx).is_empty());
    }

    /// Mutation self-test of the race detector: the sync schedule of
    /// any two-backend plan (base or after rendezvous-retry
    /// rescheduling, under either mechanism) lowers to a race-free
    /// event log, and deleting *any single* wait edge of *any*
    /// rendezvous is caught as a data race or lost signal.
    #[test]
    fn deleted_rendezvous_edge_is_always_caught(
        kind in 0usize..3,
        chunks in 1usize..4,
        retried in proptest::bool::ANY,
        driver in proptest::bool::ANY,
    ) {
        let plan = match kind {
            0 => PartitionPlan::RowCut {
                gpu_cols: 1024,
                padded_m: 512,
            },
            1 => PartitionPlan::HybridCut {
                padded_m: 512,
                gpu_cols: 1024,
            },
            _ => PartitionPlan::SeqCut {
                npu_chunks: vec![256; chunks],
                gpu_rows: 32,
            },
        };
        let mut schedule = SyncSchedule::for_plan(&plan, MatmulShape::new(300, 4096, 4096));
        if retried {
            schedule = retry_schedule(&schedule);
        }
        let mech = if driver {
            SyncMechanism::Driver
        } else {
            SyncMechanism::Fast
        };
        let base = check_schedule_races(&schedule, mech, "prop");
        prop_assert!(base.is_empty(), "intact schedule must be race-free: {base:?}");
        for r in 0..schedule.events.len() {
            if schedule.events[r].kind != EventKind::Rendezvous {
                continue;
            }
            for e in 0..schedule.events[r].waits_on.len() {
                let mut mutated = schedule.clone();
                mutated.events[r].waits_on.remove(e);
                let denies: Vec<String> = check_schedule_races(&mutated, mech, "prop")
                    .into_iter()
                    .filter(|d| d.severity == Severity::Deny)
                    .map(|d| d.rule_id)
                    .collect();
                prop_assert!(
                    denies
                        .iter()
                        .any(|id| id == rules::DATA_RACE || id == rules::LOST_SIGNAL),
                    "rendezvous {r} edge {e} of {plan:?} (retried={retried}): {denies:?}"
                );
            }
        }
    }

    /// `normalize` is idempotent and its output self-reports as
    /// normalized, for every plan variant.
    #[test]
    fn normalize_is_idempotent(
        kind in 0usize..6,
        a in 1usize..2048,
        b in 0usize..2048,
    ) {
        let plan = match kind {
            0 => PartitionPlan::GpuOnly,
            1 => PartitionPlan::NpuOnly { padded_m: a },
            2 => PartitionPlan::NpuPipe {
                chunks: vec![a, a],
                padded_rows: 0,
            },
            3 => PartitionPlan::RowCut {
                gpu_cols: b,
                padded_m: a,
            },
            4 => PartitionPlan::SeqCut {
                npu_chunks: vec![a],
                gpu_rows: b,
            },
            _ => PartitionPlan::HybridCut {
                padded_m: a,
                gpu_cols: b,
            },
        };
        let once = plan.normalize();
        prop_assert!(once.is_normalized(), "{once:?}");
        prop_assert_eq!(once.clone(), once.normalize());
    }

    /// Pool-replay soundness: for any solver-chosen plan over a random
    /// shape, dynamically replaying the region table through the real
    /// [`MemoryPool`] never exceeds the abstract interpreter's static
    /// peak.
    #[test]
    fn replayed_pool_peak_never_escapes_static_peak(
        m in 1usize..2200,
        k in prop_oneof![Just(2048usize), Just(4096)],
        n in prop_oneof![Just(2048usize), Just(4096), Just(14336)],
        npu_dominant in proptest::bool::ANY,
    ) {
        let solver = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            SolverConfig::default(),
        );
        let dominance = if npu_dominant {
            Dominance::NpuDominant
        } else {
            Dominance::GpuDominant
        };
        let shape = MatmulShape::new(m, k, n);
        let choice = solver.solve(shape, dominance);
        let table = RegionTable::for_plan(&choice.plan, shape);
        let static_peak = schedule_peak_bytes(&SyncSchedule::for_plan(&choice.plan, shape), &table);
        let replayed = replay_pool_peak(&table);
        prop_assert!(
            replayed <= static_peak,
            "plan {:?}: replayed {replayed} > static {static_peak}",
            choice.plan
        );
    }

    /// Any pool smaller than the certified peak is always denied as
    /// mem-overcommit — the footprint check has no blind spot.
    #[test]
    fn shrunken_pool_always_fires_mem_overcommit(
        m in 1usize..600,
        deficit in 1u64..(1 << 20),
    ) {
        let model = ModelConfig::internlm_1_8b();
        let bounds = model_bounds(&model, m, 2);
        prop_assume!(bounds.peak_bytes >= deficit);
        let denies: Vec<String> = check_footprint(&bounds, bounds.peak_bytes - deficit, "prop")
            .into_iter()
            .filter(|d| d.severity == Severity::Deny)
            .map(|d| d.rule_id)
            .collect();
        prop_assert_eq!(denies, vec![rules::MEM_OVERCOMMIT.to_string()]);
        prop_assert!(check_footprint(&bounds, bounds.peak_bytes, "prop").is_empty());
    }
}

proptest! {
    // Each case simulates a full engine phase pair. 64 cases draw
    // every model, SoC config and mechanism several times.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DES soundness of the cost layer: for random models, SoC configs
    /// (the certified default engine config or a Table-1 projection),
    /// sync mechanisms, prompt lengths (long enough for pipe and
    /// multi-chunk sequence cuts) and decode budgets, a freshly
    /// simulated tensor-hybrid engine's prefill and decode times land
    /// inside the static mirror's `[lo, hi]` intervals.
    #[test]
    fn static_bounds_bracket_simulated_engine(
        model_ix in 0usize..3,
        soc_ix in 0usize..16,
        driver_sync in proptest::bool::ANY,
        m in 1usize..1100,
        tokens in 1usize..4,
    ) {
        let model = [
            ModelConfig::internlm_1_8b(),
            ModelConfig::qwen2_1_5b(),
            ModelConfig::llama_3b(),
        ][model_ix]
            .clone();
        let mechanism = if driver_sync { SyncMechanism::Driver } else { SyncMechanism::Fast };
        let socs: Vec<SocConfig> = std::iter::once(hetero_soc_config(mechanism))
            .chain(table1().iter().filter_map(project_config).map(|c| c.with_sync(mechanism)))
            .collect();
        let cfg = socs[soc_ix % socs.len()].clone();
        let bounds = model_bounds_under(&model, cfg.clone(), m, tokens);
        prop_assert!(bounds.ttft.lo <= bounds.ttft.hi);
        let mut engine = HeteroTensorEngine::with_soc_config(&model, cfg);
        let ttft = engine.prefill(m).elapsed;
        prop_assert!(
            bounds.ttft.contains(ttft),
            "ttft {ttft:?} escapes [{:?}, {:?}]",
            bounds.ttft.lo,
            bounds.ttft.hi
        );
        let decode = engine.decode(m, tokens).elapsed;
        prop_assert!(
            bounds.decode_total.contains(decode),
            "decode {decode:?} escapes [{:?}, {:?}]",
            bounds.decode_total.lo,
            bounds.decode_total.hi
        );
    }
}
