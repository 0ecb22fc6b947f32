#![warn(missing_docs)]

//! NPU static computation graphs: compilation cost model, graph cache,
//! and padding/pipe planners.
//!
//! Mobile NPUs execute only *static* graphs: every tensor shape must be
//! fixed at graph-generation time (§4.1.1), and generating a graph is
//! expensive — hundreds of milliseconds per operator, growing with
//! tensor size (Fig. 9). This crate models that constraint:
//!
//! - [`compile::CompileModel`] prices graph generation, calibrated to
//!   the paper's two anchors (408.4 ms for a typical 4-graph set at
//!   sequence length 135; ≈2050 ms at length 1000).
//! - [`cache::GraphCache`] tracks which sequence lengths have compiled
//!   graphs, charging compile time exactly once per length.
//! - [`plan`] implements the three NPU-side answers to dynamic shapes:
//!   **Padding** to the next standard size, **Online-prepare** (compile
//!   at runtime), and **Pipe** (decompose into standard-size chunks
//!   executed sequentially) — the baselines of Fig. 14.
//! - [`partition`] defines [`partition::PartitionPlan`] — the GPU/NPU
//!   split of one Matmul — together with its structural invariants
//!   (shape conservation, tile alignment, graph membership), shared by
//!   the solver's debug validation and the `hetero-analyze` checker.

pub mod cache;
pub mod compile;
pub mod partition;
pub mod plan;
pub mod template;

pub use cache::GraphCache;
pub use compile::CompileModel;
pub use partition::{ComputeStep, Lowering, PartitionPlan, PlanChoice, Step};
pub use template::{GraphSet, OpTemplate};
