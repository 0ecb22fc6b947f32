#![warn(missing_docs)]

//! HeteroLLM: an LLM inference engine for mobile SoCs with
//! heterogeneous AI accelerators.
//!
//! This crate is the paper's primary contribution: an engine that uses
//! the NPU as the primary computing unit, the GPU as a secondary unit
//! that raises the NPU's lower-bound performance, and the CPU purely as
//! a control plane. Two levels of heterogeneous execution are provided:
//!
//! - **Layer-level** ([`engines::BaselineEngine::hetero_layer`]): each operator
//!   runs on its best backend — Matmuls on the NPU (operand-permuted to
//!   the weight-stall-friendly order), RMSNorm/SwiGLU/attention on the
//!   GPU.
//! - **Tensor-level** ([`engines::HeteroTensorEngine`]): individual
//!   Matmuls are *partitioned* across GPU and NPU using the solver's
//!   row/sequence/hybrid cuts, with the fast-synchronization runtime
//!   keeping rendezvous costs at microsecond scale.
//!
//! Baseline engines (llama.cpp-, MLC-, MNN-, PPL-OpenCL-style, the
//! NPU-only strategies and MLLM-NPU) run the same workloads under their
//! published execution strategies for the evaluation comparisons; every
//! engine runs its trace through the one plan walk.
//!
//! The engine operates in two modes: **timing mode** simulates
//! full-size models (shapes only) on the `hetero-soc` simulator, and
//! **functional mode** ([`functional`]) executes real W4A16 math on
//! scaled-down configs so correctness — including the numerical
//! equivalence of every partition strategy — is testable.

pub mod admit;
pub mod api;
pub mod coldstart;
pub mod engines;
pub mod error;
pub mod exec;
pub mod functional;
pub mod functional_engine;
pub mod integrity;
pub mod kv;
pub mod mempool;
pub mod model;
pub mod obs;
pub mod report;
pub mod runtime;
pub mod spec_decode;
pub mod trace;

pub use api::InferenceSession;
pub use engines::{Engine, EngineKind};
pub use error::EngineError;
pub use model::ModelConfig;
pub use report::PhaseReport;
pub use runtime::RuntimeController;
