//! Rules over [`PartitionPlan`]s.

use hetero_graph::partition::PartitionPlan;
use hetero_soc::sync::SyncMechanism;
use hetero_tensor::shape::MatmulShape;

use crate::diag::Diagnostic;
use crate::rules;

/// Everything the plan rules need to know about the environment a plan
/// will execute in.
#[derive(Debug, Clone)]
pub struct PlanContext {
    /// Where the plan came from, e.g. `"Llama-8B/ffn_down[m=300]"`.
    pub location: String,
    /// Activation rows of the Matmul being partitioned.
    pub m: usize,
    /// Output features of the Matmul being partitioned.
    pub n: usize,
    /// Systolic-array tile edge (usually [`hetero_soc::calib::NPU_TILE`]).
    pub tile: usize,
    /// Solver row-cut alignment
    /// (usually [`hetero_soc::calib::ROW_PARTITION_ALIGN`]).
    pub row_align: usize,
    /// Sequence lengths with compiled NPU graphs.
    pub compiled_sizes: Vec<usize>,
    /// Synchronization mechanism the executing engine uses.
    pub mechanism: SyncMechanism,
    /// Whether the platform supports fast synchronization (a shared
    /// host/device memory pool + flag polling, §4.2).
    pub fast_sync_available: bool,
}

impl PlanContext {
    /// Context with the Snapdragon 8 Gen 3 calibration defaults: 32×32
    /// tiles, 256-column row alignment, the standard graph sizes
    /// compiled, and fast sync in use.
    pub fn standard(location: impl Into<String>, m: usize, n: usize) -> Self {
        Self {
            location: location.into(),
            m,
            n,
            tile: hetero_soc::calib::NPU_TILE,
            row_align: hetero_soc::calib::ROW_PARTITION_ALIGN,
            compiled_sizes: hetero_soc::calib::STANDARD_GRAPH_SIZES.to_vec(),
            mechanism: SyncMechanism::Fast,
            fast_sync_available: true,
        }
    }

    /// The `[m, ·] x [·, n]` Matmul the plan splits. The rules never
    /// read the reduction depth, so it is 0.
    pub fn shape(&self) -> MatmulShape {
        MatmulShape::new(self.m, 0, self.n)
    }
}

/// Run every plan-level rule against `plan` in `ctx`.
pub fn check_plan(plan: &PartitionPlan, ctx: &PlanContext) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // shape-conservation (§4.1): no dropped or duplicated work.
    for v in plan.conservation_violations(ctx.m, ctx.n) {
        out.push(Diagnostic::new(rules::SHAPE_CONSERVATION, &ctx.location, v));
    }

    // tile-alignment (§3.2): NPU sequence sizes fit the systolic array.
    for v in plan.alignment_violations(ctx.tile) {
        out.push(Diagnostic::with_suggestion(
            rules::TILE_ALIGNMENT,
            &ctx.location,
            v,
            Some(format!(
                "round NPU sequence sizes to multiples of {}",
                ctx.tile
            )),
        ));
    }

    // graph-membership (§4.1.1): static graphs only.
    for v in plan.membership_violations(&ctx.compiled_sizes) {
        out.push(Diagnostic::with_suggestion(
            rules::GRAPH_MEMBERSHIP,
            &ctx.location,
            v,
            Some(format!(
                "preload the size or restrict the plan to {:?}",
                ctx.compiled_sizes
            )),
        ));
    }

    // plan-normalization: canonical serial form for degenerate splits,
    // and GPU column cuts on the solver's row alignment.
    if !plan.is_normalized() {
        out.push(Diagnostic::with_suggestion(
            rules::PLAN_NORMALIZATION,
            &ctx.location,
            format!(
                "degenerate {} with an empty GPU share; canonical form is {}",
                plan.label(),
                plan.clone().normalize().label()
            ),
            Some("call PartitionPlan::normalize() on solver output".into()),
        ));
    }
    if let PartitionPlan::RowCut { gpu_cols, .. } | PartitionPlan::HybridCut { gpu_cols, .. } = plan
    {
        if *gpu_cols % ctx.row_align != 0 {
            out.push(Diagnostic::with_suggestion(
                rules::PLAN_NORMALIZATION,
                &ctx.location,
                format!(
                    "gpu_cols {gpu_cols} not a multiple of the row alignment {}: outside the \
                     solver search space and off the NPU's stage-performance plateau",
                    ctx.row_align
                ),
                Some(format!("align the column cut to {}", ctx.row_align)),
            ));
        }
    }

    // sync-mechanism (§4.2): any plan that crosses backends pays sync;
    // driver-level sync wastes hundreds of µs per operator when the
    // fast path exists.
    if plan.uses_npu() && ctx.mechanism == SyncMechanism::Driver && ctx.fast_sync_available {
        out.push(Diagnostic::with_suggestion(
            rules::SYNC_MECHANISM,
            &ctx.location,
            "plan crosses backends under driver synchronization (~400 µs mapped-buffer copy \
             per handoff) although fast sync is available",
            Some("use SyncMechanism::Fast (shared memory pool + flag polling)".into()),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn ctx(m: usize, n: usize) -> PlanContext {
        PlanContext::standard("test", m, n)
    }

    fn ids(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule_id.as_str()).collect()
    }

    // -- shape-conservation ------------------------------------------------

    #[test]
    fn conservation_accepts_solver_style_seq_cut() {
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![256, 32],
            gpu_rows: 12,
        };
        assert!(check_plan(&plan, &ctx(300, 4096)).is_empty());
    }

    #[test]
    fn conservation_rejects_row_duplication() {
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![256, 64],
            gpu_rows: 12,
        };
        let diags = check_plan(&plan, &ctx(300, 4096));
        assert!(
            ids(&diags).contains(&rules::SHAPE_CONSERVATION),
            "{diags:?}"
        );
        assert_eq!(diags[0].severity, Severity::Deny);
    }

    // -- tile-alignment ----------------------------------------------------

    #[test]
    fn alignment_accepts_standard_sizes() {
        let plan = PartitionPlan::NpuOnly { padded_m: 512 };
        assert!(check_plan(&plan, &ctx(500, 4096)).is_empty());
    }

    #[test]
    fn alignment_rejects_partial_tiles() {
        let mut c = ctx(300, 4096);
        c.compiled_sizes.push(300); // isolate the alignment failure
        let plan = PartitionPlan::NpuOnly { padded_m: 300 };
        let diags = check_plan(&plan, &c);
        assert_eq!(ids(&diags), vec![rules::TILE_ALIGNMENT], "{diags:?}");
    }

    // -- graph-membership --------------------------------------------------

    #[test]
    fn membership_accepts_compiled_sizes() {
        let plan = PartitionPlan::NpuPipe {
            chunks: vec![1024, 512],
            padded_rows: 36,
        };
        assert!(check_plan(&plan, &ctx(1500, 4096)).is_empty());
    }

    #[test]
    fn membership_rejects_uncompiled_sizes() {
        // 96 is tile-aligned but no graph was generated for it.
        let plan = PartitionPlan::NpuOnly { padded_m: 96 };
        let diags = check_plan(&plan, &ctx(90, 4096));
        assert_eq!(ids(&diags), vec![rules::GRAPH_MEMBERSHIP], "{diags:?}");
    }

    // -- plan-normalization ------------------------------------------------

    #[test]
    fn normalization_accepts_canonical_plans() {
        let plan = PartitionPlan::NpuPipe {
            chunks: vec![256, 32],
            padded_rows: 0,
        };
        assert!(check_plan(&plan, &ctx(288, 4096)).is_empty());
    }

    #[test]
    fn normalization_flags_degenerate_seq_cut() {
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![256, 32],
            gpu_rows: 0,
        };
        let diags = check_plan(&plan, &ctx(288, 4096));
        assert_eq!(ids(&diags), vec![rules::PLAN_NORMALIZATION], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warn);
    }

    #[test]
    fn normalization_flags_misaligned_column_cut() {
        let plan = PartitionPlan::RowCut {
            gpu_cols: 100,
            padded_m: 256,
        };
        let diags = check_plan(&plan, &ctx(256, 4096));
        assert_eq!(ids(&diags), vec![rules::PLAN_NORMALIZATION], "{diags:?}");
    }

    // -- sync-mechanism ----------------------------------------------------

    #[test]
    fn mechanism_accepts_fast_sync() {
        let plan = PartitionPlan::RowCut {
            gpu_cols: 256,
            padded_m: 256,
        };
        assert!(check_plan(&plan, &ctx(256, 4096)).is_empty());
    }

    #[test]
    fn mechanism_flags_driver_sync_when_fast_available() {
        let mut c = ctx(256, 4096);
        c.mechanism = SyncMechanism::Driver;
        let plan = PartitionPlan::RowCut {
            gpu_cols: 256,
            padded_m: 256,
        };
        let diags = check_plan(&plan, &c);
        assert_eq!(ids(&diags), vec![rules::SYNC_MECHANISM], "{diags:?}");
    }

    #[test]
    fn mechanism_allows_driver_sync_when_it_is_all_there_is() {
        let mut c = ctx(256, 4096);
        c.mechanism = SyncMechanism::Driver;
        c.fast_sync_available = false;
        let plan = PartitionPlan::NpuOnly { padded_m: 256 };
        assert!(check_plan(&plan, &c).is_empty());
    }

    #[test]
    fn gpu_only_never_pays_sync() {
        let mut c = ctx(256, 4096);
        c.mechanism = SyncMechanism::Driver;
        assert!(check_plan(&PartitionPlan::GpuOnly, &c).is_empty());
    }
}
