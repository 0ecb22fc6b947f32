#![warn(missing_docs)]

//! Workload generators for the HeteroLLM evaluation.
//!
//! - [`prompts`]: the aligned and misaligned prompt-length sweeps of
//!   Figs. 13/14, plus seeded random request generators.
//! - [`tokens`]: deterministic token streams for functional-mode runs.
//! - [`bursts`]: conversion of a recorded span timeline into the GPU
//!   burst profile consumed by the render-interference simulation
//!   (Fig. 18).
//! - [`spec`]: the speculative-decoding workload model (§4.1.2).

pub mod bursts;
pub mod prompts;
pub mod queueing;
pub mod spec;
pub mod tokens;
