//! Typed errors for the engine API.
//!
//! Library code must not panic on malformed external inputs: traces
//! are generated, disturbance schedules are user-supplied, and the
//! runtime controller reacts to failures instead of crashing. This
//! module is the single error type those paths propagate.

use hetero_soc::disturb::CausalityError;
use hetero_tensor::TensorError;

/// An engine-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A trace operator that must carry a Matmul shape did not.
    MissingShape {
        /// The operator's stable name (`"qkv"`, `"ffn_down"`, ...).
        op: &'static str,
    },
    /// A tensor-layer failure (shape mismatch, out-of-bounds access).
    Tensor(TensorError),
    /// A causality violation while scheduling external events (e.g. a
    /// malformed disturbance trace).
    Causality(CausalityError),
    /// A rendezvous kept failing past the controller's retry budget
    /// with no downgrade path left.
    SyncExhausted {
        /// Retry attempts made before giving up.
        attempts: u32,
    },
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::MissingShape { op } => {
                write!(
                    f,
                    "trace operator '{op}' is a weight matmul but carries no shape"
                )
            }
            Self::Tensor(e) => write!(f, "tensor error: {e}"),
            Self::Causality(e) => write!(f, "{e}"),
            Self::SyncExhausted { attempts } => {
                write!(f, "rendezvous failed after {attempts} retries")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TensorError> for EngineError {
    fn from(e: TensorError) -> Self {
        Self::Tensor(e)
    }
}

impl From<CausalityError> for EngineError {
    fn from(e: CausalityError) -> Self {
        Self::Causality(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_soc::SimTime;

    #[test]
    fn displays_are_informative() {
        let e = EngineError::MissingShape { op: "qkv" };
        assert!(e.to_string().contains("qkv"));
        let c: EngineError = CausalityError {
            now: SimTime::from_micros(10),
            at: SimTime::from_micros(5),
        }
        .into();
        assert!(c.to_string().contains("past"));
        let s = EngineError::SyncExhausted { attempts: 3 };
        assert!(s.to_string().contains('3'));
    }
}
