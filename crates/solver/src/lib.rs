#![warn(missing_docs)]

//! Tensor partition solver (§4.3).
//!
//! Given a Matmul problem, an inference phase, and profiler-backed
//! costs, the solver evaluates GPU-only, NPU-only and every aligned
//! GPU–NPU partition, minimizing the paper's objective:
//!
//! ```text
//! T_total = min( max(T_gpu^p1, T_npu^p2) + T_sync + T_copy,
//!                T_gpu^all,
//!                T_npu^all + T_sync + T_copy )
//! ```
//!
//! Partition candidates are pruned by the NPU's stage-performance
//! alignment: row cuts to multiples of 256, sequence cuts to multiples
//! of 32. The [`table::PlanTable`] caches solved plans per operator and
//! sequence length — the control-plane "runtime decider".

pub mod bound;
pub mod drift;
pub mod regions;
pub mod solver;
pub mod table;

pub use drift::{resolve_for_drift, DeratedProvider, DriftResolve};
pub use hetero_graph::partition::{PartitionPlan, PlanChoice};
pub use regions::{PlanRegion, RegionTable};
pub use solver::{Solver, SolverConfig};
pub use table::PlanTable;
