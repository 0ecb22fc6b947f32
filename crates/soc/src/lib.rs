#![warn(missing_docs)]

//! Discrete-event mobile SoC simulator calibrated to the Snapdragon
//! 8 Gen 3 platform characterized by the HeteroLLM paper.
//!
//! The paper's evaluation runs on real silicon (Adreno 750 GPU via
//! OpenCL, Hexagon NPU via QNN). Neither is available here, so this
//! crate substitutes a timing simulator that implements the *mechanisms*
//! behind every performance characteristic of the paper's §3:
//!
//! - **GPU-①** linear performance: a roofline model — small kernels are
//!   launch/memory bound, large kernels saturate at the achieved-TFLOPS
//!   ceiling ([`gpu`]).
//! - **GPU-②** high-cost synchronization: fixed mapped-buffer copy cost,
//!   pipelined submission cost, and the empty-queue resubmission penalty
//!   ([`sync`]).
//! - **NPU-①** stage performance: tile quantization to the systolic
//!   array size ([`npu`]).
//! - **NPU-②** order-sensitive performance: weight-stall residency —
//!   weights that exceed on-chip SRAM must be re-fetched mid-compute on
//!   an exposed, non-overlapped path.
//! - **NPU-③** shape-sensitive performance: per-pass pipeline fill/drain
//!   amortized over the streamed row count.
//! - **Memory-①** single-processor bandwidth under-utilization: a
//!   bandwidth arbiter with per-initiator caps under a shared SoC cap
//!   ([`memory`]).
//!
//! All calibration constants come from numbers stated in the paper text
//! and live in [`calib`]; nothing is fitted to data we don't have.

pub mod backend;
pub mod calib;
pub mod cpu;
pub mod des;
pub mod disturb;
pub mod gpu;
pub mod interference;
pub mod kernel;
pub mod memory;
pub mod npu;
pub mod parallel;
pub mod power;
pub mod soc;
pub mod specs;
pub mod sync;
pub mod thermal;
pub mod time;

pub use backend::Backend;
pub use kernel::{KernelDesc, OpKind};
pub use soc::{Soc, SocConfig, SocMark};
pub use time::SimTime;
