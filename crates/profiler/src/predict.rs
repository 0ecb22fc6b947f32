//! Cost providers: the interface between profiling and the partition
//! solver.

use hetero_soc::{Backend, KernelDesc, SimTime, Soc, SocConfig};
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::DType;

use crate::db::{BwCondition, ProfileDb};
use crate::tree::{DecisionTree, TreeParams};

/// A closed `[lo, hi]` interval of kernel cost, in integer nanoseconds.
///
/// The interval brackets a kernel's execution time across every
/// bandwidth condition the schedule could experience: `lo` is the cost
/// with the memory system to itself ([`BwCondition::Solo`]), `hi` the
/// cost with both accelerators streaming ([`BwCondition::Contended`]).
/// The static bound checker propagates these through the submission
/// DAG (`hetero_analyze::bound`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostInterval {
    /// Fastest achievable cost (uncontended memory system).
    pub lo: SimTime,
    /// Slowest cost (full GPU+NPU bandwidth contention).
    pub hi: SimTime,
}

impl CostInterval {
    /// A degenerate point interval (an exactly known cost).
    pub fn exact(t: SimTime) -> Self {
        Self { lo: t, hi: t }
    }

    /// The zero interval.
    pub const ZERO: CostInterval = CostInterval {
        lo: SimTime::ZERO,
        hi: SimTime::ZERO,
    };

    /// Pointwise maximum (parallel join: both sides must finish).
    pub fn join_max(self, rhs: CostInterval) -> Self {
        Self {
            lo: self.lo.max(rhs.lo),
            hi: self.hi.max(rhs.hi),
        }
    }

    /// Whether an observed time falls inside the interval.
    pub fn contains(&self, t: SimTime) -> bool {
        self.lo <= t && t <= self.hi
    }

    /// Whether the interval is well-formed (`lo <= hi`).
    pub fn is_valid(&self) -> bool {
        self.lo <= self.hi
    }
}

/// Interval addition (sequential composition).
impl std::ops::Add for CostInterval {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            lo: self.lo + rhs.lo,
            hi: self.hi + rhs.hi,
        }
    }
}

impl std::ops::AddAssign for CostInterval {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

/// A source of matmul kernel costs per backend and bandwidth condition.
///
/// # Contract
///
/// For fixed `m`, `k`, dtypes and condition, the GPU cost must never
/// decrease as `n` grows. The solver's row-cut search relies on it to
/// stop early without changing its answer. Both shipped GPU models
/// satisfy it: flops and bytes grow with `n`, and the GPU's
/// sequence-efficiency factor depends only on `m`.
///
/// NPU costs carry a requirement only where the provider declares one
/// with [`CostProvider::npu_monotone_past_depth`].
pub trait CostProvider {
    /// Cost of `[m,k] x [k,n]` on `backend` where the streamed `[m,k]`
    /// operand is stored as `act_dtype` and the stationary `[k,n]`
    /// operand as `weight_dtype`. (Under HeteroLLM's NPU permutation
    /// the streamed operand is the INT4 weight and the stationary one
    /// the FP16 activation — callers pass whatever physically streams.)
    fn matmul_cost(
        &self,
        backend: Backend,
        shape: MatmulShape,
        act_dtype: DType,
        weight_dtype: DType,
        condition: BwCondition,
    ) -> SimTime;

    /// Sound `[lo, hi]` cost interval for the kernel across bandwidth
    /// conditions: `lo` from the solo query, `hi` from the contended
    /// one (clamped so `hi >= lo` even if a provider mis-orders them).
    fn matmul_cost_interval(
        &self,
        backend: Backend,
        shape: MatmulShape,
        act_dtype: DType,
        weight_dtype: DType,
    ) -> CostInterval {
        let lo = self.matmul_cost(backend, shape, act_dtype, weight_dtype, BwCondition::Solo);
        let hi = self
            .matmul_cost(
                backend,
                shape,
                act_dtype,
                weight_dtype,
                BwCondition::Contended,
            )
            .max(lo);
        CostInterval { lo, hi }
    }

    /// Whether, for fixed `k`, `n`, dtypes and condition, the NPU cost
    /// of `[m,k,n]` never decreases as `m` grows while `m ≥ k`.
    ///
    /// Past that depth the stationary operand is no deeper than the
    /// streamed one, so the weight-stall penalty (§3.2, NPU-②) is off
    /// and cost tracks padded flops and bytes. With the guarantee the
    /// solver finds the best row cut by bisection instead of a scan.
    /// The default promises nothing; a provider that claims it falsely
    /// gets wrong plans, not slower ones.
    fn npu_monotone_past_depth(&self) -> bool {
        false
    }
}

/// Real-execution provider: queries the hardware (simulator) directly.
/// Exact, but each query "runs" the kernel — the mode the paper uses
/// offline.
#[derive(Debug, Clone)]
pub struct RealExecProvider {
    soc: Soc,
}

impl RealExecProvider {
    /// Provider over the given SoC configuration.
    pub fn new(cfg: SocConfig) -> Self {
        Self { soc: Soc::new(cfg) }
    }
}

impl CostProvider for RealExecProvider {
    fn matmul_cost(
        &self,
        backend: Backend,
        shape: MatmulShape,
        act_dtype: DType,
        weight_dtype: DType,
        condition: BwCondition,
    ) -> SimTime {
        let kernel = KernelDesc::matmul(shape, act_dtype, weight_dtype, DType::F16);
        match condition {
            BwCondition::Solo => self.soc.solo_kernel_time(backend, &kernel),
            BwCondition::Contended => {
                self.soc
                    .contended_kernel_time(backend, &kernel, &[Backend::Gpu, Backend::Npu])
            }
        }
    }

    /// The NPU model's padded flops, fill/drain amortization and bytes
    /// all grow with `m`, and its stationary-pressure penalty applies
    /// only while the padded `k` exceeds the padded `m`.
    fn npu_monotone_past_depth(&self) -> bool {
        true
    }
}

/// Analytic GPU estimator: "we easily estimate GPU execution time in
/// compute-intensive scenarios using a fixed TFLOPS rate" (§4.3).
#[derive(Debug, Clone)]
pub struct AnalyticGpuPredictor {
    cfg: SocConfig,
}

impl AnalyticGpuPredictor {
    /// Estimator for a SoC configuration.
    pub fn new(cfg: SocConfig) -> Self {
        Self { cfg }
    }

    /// Estimated GPU time for a matmul.
    pub fn estimate(
        &self,
        shape: MatmulShape,
        act_dtype: DType,
        weight_dtype: DType,
        condition: BwCondition,
    ) -> SimTime {
        let kernel = KernelDesc::matmul(shape, act_dtype, weight_dtype, DType::F16);
        let bw = match condition {
            BwCondition::Solo => self.cfg.mem.solo_bw(Backend::Gpu),
            BwCondition::Contended => self
                .cfg
                .mem
                .concurrent_bw_of(Backend::Gpu, &[Backend::Gpu, Backend::Npu])
                .unwrap_or(0.0),
        };
        self.cfg.gpu.kernel_time(&kernel, bw)
    }
}

/// Shape features fed to the NPU latency tree. Chosen to expose the
/// mechanisms behind NPU-①/②/③: raw dims, log-volume, tile-alignment
/// residue, the k/m order ratio and the stationary-operand footprint.
pub fn shape_features(
    shape: MatmulShape,
    act_dtype: DType,
    weight_dtype: DType,
    condition: BwCondition,
) -> Vec<f64> {
    let (m, k, n) = (shape.m as f64, shape.k as f64, shape.n as f64);
    let stationary_mb = k * n * weight_dtype.bits() as f64 / 8.0 / 1e6;
    vec![
        m,
        k,
        n,
        (m * k * n).ln(),
        (shape.m % 32) as f64,
        k / m.max(1.0),
        stationary_mb,
        weight_dtype.bits() as f64,
        act_dtype.bits() as f64,
        match condition {
            BwCondition::Solo => 0.0,
            BwCondition::Contended => 1.0,
        },
    ]
}

/// Prediction-mode provider: decision-tree regression for the NPU,
/// analytic estimate for the GPU and CPU.
#[derive(Debug, Clone)]
pub struct PredictedProvider {
    npu_tree: DecisionTree,
    gpu: AnalyticGpuPredictor,
    cfg: SocConfig,
}

impl PredictedProvider {
    /// Train on the NPU entries of a profile database.
    ///
    /// Returns `None` if the database holds no NPU measurements.
    pub fn train(db: &ProfileDb, cfg: SocConfig) -> Option<Self> {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (key, time) in db.iter() {
            if key.backend != 2 {
                continue; // NPU ordinal.
            }
            let dtype = match key.weight_bits {
                4 => DType::Int4,
                8 => DType::Int8,
                16 => DType::F16,
                _ => DType::F32,
            };
            let act = match key.act_bits {
                4 => DType::Int4,
                8 => DType::Int8,
                16 => DType::F16,
                _ => DType::F32,
            };
            x.push(shape_features(key.shape(), act, dtype, key.condition));
            // Train on log-latency: latencies span 4+ orders of
            // magnitude and variance splits on raw values ignore the
            // small ones.
            y.push(time.as_secs_f64().max(1e-9).ln());
        }
        let tree = DecisionTree::fit(
            &x,
            &y,
            TreeParams {
                max_depth: 16,
                min_samples_split: 2,
            },
        )?;
        Some(Self {
            npu_tree: tree,
            gpu: AnalyticGpuPredictor::new(cfg.clone()),
            cfg,
        })
    }
}

impl CostProvider for PredictedProvider {
    fn matmul_cost(
        &self,
        backend: Backend,
        shape: MatmulShape,
        act_dtype: DType,
        weight_dtype: DType,
        condition: BwCondition,
    ) -> SimTime {
        match backend {
            Backend::Npu => {
                let f = shape_features(shape, act_dtype, weight_dtype, condition);
                SimTime::from_secs_f64(self.npu_tree.predict(&f).exp())
            }
            Backend::Gpu => self.gpu.estimate(shape, act_dtype, weight_dtype, condition),
            Backend::Cpu => {
                let kernel = KernelDesc::matmul(shape, act_dtype, weight_dtype, DType::F16);
                self.cfg
                    .cpu
                    .kernel_time(&kernel, self.cfg.mem.solo_bw(Backend::Cpu))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{partition_shape_grid, profile_matmuls};

    fn cfg() -> SocConfig {
        SocConfig::snapdragon_8gen3()
    }

    #[test]
    fn real_exec_matches_simulator() {
        let p = RealExecProvider::new(cfg());
        let soc = Soc::new(cfg());
        let shape = MatmulShape::new(256, 4096, 4096);
        let kernel = KernelDesc::matmul_w4a16(shape);
        assert_eq!(
            p.matmul_cost(
                Backend::Npu,
                shape,
                DType::F16,
                DType::Int4,
                BwCondition::Solo
            ),
            soc.solo_kernel_time(Backend::Npu, &kernel)
        );
    }

    #[test]
    fn analytic_gpu_contended_is_slower() {
        let g = AnalyticGpuPredictor::new(cfg());
        let shape = MatmulShape::new(1, 4096, 14336); // memory-bound
        let solo = g.estimate(shape, DType::F16, DType::Int4, BwCondition::Solo);
        let cont = g.estimate(shape, DType::F16, DType::Int4, BwCondition::Contended);
        assert!(cont > solo);
    }

    #[test]
    fn trained_tree_tracks_real_cost_on_grid_points() {
        let soc = Soc::new(cfg());
        let grid = partition_shape_grid(&[64, 256], 4096, 4096);
        let db = profile_matmuls(&soc, &grid, &[Backend::Npu], DType::F16, DType::Int4);
        let pred = PredictedProvider::train(&db, cfg()).unwrap();
        // On training points the tree should be within 2× (§4.3: "minor
        // inaccuracies ... are tolerable for our solver").
        let real = RealExecProvider::new(cfg());
        for &shape in grid.iter().take(20) {
            let t_pred = pred
                .matmul_cost(
                    Backend::Npu,
                    shape,
                    DType::F16,
                    DType::Int4,
                    BwCondition::Solo,
                )
                .as_secs_f64();
            let t_real = real
                .matmul_cost(
                    Backend::Npu,
                    shape,
                    DType::F16,
                    DType::Int4,
                    BwCondition::Solo,
                )
                .as_secs_f64();
            let ratio = t_pred / t_real;
            assert!((0.5..=2.0).contains(&ratio), "{shape:?}: {ratio}");
        }
    }

    #[test]
    fn train_requires_npu_rows() {
        let soc = Soc::new(cfg());
        let db = profile_matmuls(
            &soc,
            &[MatmulShape::new(8, 8, 8)],
            &[Backend::Gpu],
            DType::F16,
            DType::Int4,
        );
        assert!(PredictedProvider::train(&db, cfg()).is_none());
    }

    #[test]
    fn cost_interval_brackets_both_conditions() {
        let p = RealExecProvider::new(cfg());
        let shape = MatmulShape::new(256, 4096, 4096);
        let iv = p.matmul_cost_interval(Backend::Npu, shape, DType::Int4, DType::F16);
        assert!(iv.is_valid());
        let solo = p.matmul_cost(
            Backend::Npu,
            shape,
            DType::Int4,
            DType::F16,
            BwCondition::Solo,
        );
        let cont = p.matmul_cost(
            Backend::Npu,
            shape,
            DType::Int4,
            DType::F16,
            BwCondition::Contended,
        );
        assert!(iv.contains(solo));
        assert!(iv.contains(cont));
        // Interval arithmetic sanity.
        let sum = iv + CostInterval::exact(SimTime::from_micros(1));
        assert_eq!(sum.lo, iv.lo + SimTime::from_micros(1));
        let j = iv.join_max(CostInterval::ZERO);
        assert_eq!(j, iv);
    }

    #[test]
    fn features_expose_alignment_residue() {
        let aligned = shape_features(
            MatmulShape::new(64, 64, 64),
            DType::F16,
            DType::Int4,
            BwCondition::Solo,
        );
        let ragged = shape_features(
            MatmulShape::new(65, 64, 64),
            DType::F16,
            DType::Int4,
            BwCondition::Solo,
        );
        assert_eq!(aligned[4], 0.0);
        assert_eq!(ragged[4], 1.0);
    }
}
