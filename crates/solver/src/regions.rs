//! Static buffer-liveness tables for partition plans.
//!
//! For each plan the solver can emit, this module derives the pooled
//! tensor regions the plan's execution touches — activation input,
//! one output per compute step — with their live ranges expressed in
//! *steps* of the plan's lowering (`PartitionPlan::lower`), the same
//! list the sync schedule has one event per. The abstract interpreter
//! in `hetero-analyze` folds these tables into a sound peak-footprint
//! bound, and the `buffer-leak` rule checks that no region stays live
//! past its last structural reader.
//!
//! Region sizes follow the runtime's `MemoryPool` accounting: every
//! acquisition is rounded up to a power of two with a 4 KiB floor, so
//! the static sum over-approximates (never under-approximates) what
//! the pool's high-water mark can reach for the same acquisitions.

use hetero_soc::Backend;
use hetero_tensor::shape::MatmulShape;

use hetero_graph::partition::PartitionPlan;

/// Bytes per activation/output element (F16 activations, W4A16).
const ACT_BYTES: usize = 2;

/// The pool's allocation granularity floor (mirrors
/// `hetero_core::mem::MemoryPool`).
const POOL_MIN_BYTES: usize = 4096;

/// Round a request the way the runtime memory pool does: power of two,
/// 4 KiB floor.
pub fn pool_rounded(bytes: usize) -> usize {
    bytes.max(POOL_MIN_BYTES).next_power_of_two()
}

/// One pooled region a plan's execution acquires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRegion {
    /// Human-readable label (`"input"`, `"gpu-partial"`, …).
    pub label: String,
    /// Bump-allocated byte offset inside the plan's arena.
    pub offset: usize,
    /// Requested bytes (before pool rounding).
    pub bytes: usize,
    /// First schedule step (event index) at which the region is live.
    pub live_from: usize,
    /// Last schedule step at which the region is live (inclusive).
    pub live_until: usize,
    /// Schedule steps that structurally read the region.
    pub readers: Vec<usize>,
}

impl PlanRegion {
    /// Pool-rounded size of this region.
    pub fn rounded_bytes(&self) -> usize {
        pool_rounded(self.bytes)
    }

    /// Whether the region stays live past its last structural reader —
    /// the shape of defect the `buffer-leak` rule reports.
    pub fn leaks(&self) -> bool {
        match self.readers.iter().max() {
            Some(&last) => self.live_until > last,
            None => true, // live but never read: trivially a leak
        }
    }
}

/// Buffer-liveness table for one plan: all regions plus the schedule
/// step count they index into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTable {
    /// Number of schedule steps (events) the live ranges index into.
    pub steps: usize,
    /// Regions acquired over the plan's execution.
    pub regions: Vec<PlanRegion>,
}

impl RegionTable {
    /// Derive the region table for `plan` solving `shape`.
    ///
    /// Steps are the steps of the plan's lowering
    /// ([`PartitionPlan::lower`]), the same list the sync schedule and
    /// the cost intervals index. One activation input, sized for the
    /// most rows any step reads, is live from step 0 through the last
    /// compute step and read by every compute step. Each compute step's
    /// output is live from that step through the publishing step (the
    /// switch or rendezvous), or only at its own step when nothing
    /// publishes it.
    pub fn for_plan(plan: &PartitionPlan, shape: MatmulShape) -> Self {
        let lowered = plan.lower(shape);
        let compute: Vec<_> = lowered.compute().collect();
        let last = compute.len().saturating_sub(1);
        let publish = lowered.publish().map(|_| compute.len());
        let input_rows = compute.iter().map(|c| c.shape.m).fold(shape.m, usize::max);
        let mut regions = vec![PlanRegion {
            label: "input".into(),
            offset: 0,
            bytes: input_rows * shape.k * ACT_BYTES,
            live_from: 0,
            live_until: last,
            readers: (0..compute.len().max(1)).collect(),
        }];
        let first_npu = usize::from(lowered.gpu.is_some());
        for (i, c) in compute.iter().enumerate() {
            let label = match (c.backend, lowered.npu_graph, lowered.parallel) {
                (Backend::Gpu, _, false) => "gpu-out".into(),
                (Backend::Gpu, _, true) => "gpu-partial".into(),
                (_, false, _) => format!("npu-chunk-{}", i - first_npu),
                (_, true, false) => "npu-out".into(),
                (_, true, true) => "npu-partial".into(),
            };
            regions.push(PlanRegion {
                label,
                offset: 0,
                bytes: c.shape.m * c.shape.n * ACT_BYTES,
                live_from: i,
                live_until: publish.unwrap_or(i),
                readers: std::iter::once(i).chain(publish).collect(),
            });
        }
        // Bump-allocate offsets in declaration order, at pool-rounded
        // granularity, so regions can never alias.
        let mut cursor = 0usize;
        for r in &mut regions {
            r.offset = cursor;
            cursor += r.rounded_bytes();
        }
        Self {
            steps: compute.len() + usize::from(publish.is_some()),
            regions,
        }
    }

    /// Pool-rounded bytes live at schedule step `step`.
    pub fn live_bytes_at(&self, step: usize) -> usize {
        self.regions
            .iter()
            .filter(|r| r.live_from <= step && step <= r.live_until)
            .map(PlanRegion::rounded_bytes)
            .sum()
    }

    /// The max-plateau of [`Self::live_bytes_at`] over all steps — the
    /// static peak pooled footprint of the plan.
    pub fn peak_bytes(&self) -> usize {
        (0..self.steps)
            .map(|s| self.live_bytes_at(s))
            .max()
            .unwrap_or(0)
    }

    /// Regions that stay live past their last structural reader.
    pub fn leaked_regions(&self) -> Vec<&PlanRegion> {
        self.regions.iter().filter(|r| r.leaks()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_rounding_matches_mempool_policy() {
        assert_eq!(pool_rounded(1), 4096);
        assert_eq!(pool_rounded(4096), 4096);
        assert_eq!(pool_rounded(4097), 8192);
        assert_eq!(pool_rounded(1 << 20), 1 << 20);
        assert_eq!(pool_rounded((1 << 20) + 1), 1 << 21);
    }

    #[test]
    fn freshly_derived_tables_never_leak() {
        let shape = MatmulShape::new(300, 4096, 4096);
        for plan in [
            PartitionPlan::GpuOnly,
            PartitionPlan::NpuOnly { padded_m: 512 },
            PartitionPlan::SeqCut {
                npu_chunks: vec![256, 32],
                gpu_rows: 12,
            },
        ] {
            let table = RegionTable::for_plan(&plan, shape);
            assert!(table.leaked_regions().is_empty(), "{plan:?}");
        }
    }

    #[test]
    fn crafted_leak_is_detected() {
        let shape = MatmulShape::new(256, 4096, 4096);
        let mut table = RegionTable::for_plan(&PartitionPlan::GpuOnly, shape);
        table.steps += 1;
        table.regions[0].live_until = 1; // past its only reader at step 0
        let leaks = table.leaked_regions();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].label, "input");
    }

    #[test]
    fn offsets_are_disjoint() {
        let shape = MatmulShape::new(300, 4096, 14336);
        let table = RegionTable::for_plan(
            &PartitionPlan::HybridCut {
                padded_m: 512,
                gpu_cols: 2048,
            },
            shape,
        );
        let mut spans: Vec<(usize, usize)> = table
            .regions
            .iter()
            .map(|r| (r.offset, r.offset + r.rounded_bytes()))
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping regions: {spans:?}");
        }
    }

    #[test]
    fn parallel_peak_exceeds_either_side_alone() {
        let shape = MatmulShape::new(256, 4096, 4096);
        let table = RegionTable::for_plan(
            &PartitionPlan::RowCut {
                gpu_cols: 1024,
                padded_m: 256,
            },
            shape,
        );
        // At the npu-submit step, input + both partials are all live.
        let peak = table.peak_bytes();
        assert_eq!(peak, table.live_bytes_at(1));
        assert!(peak > table.regions[0].rounded_bytes());
    }
}
