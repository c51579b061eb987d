use frlfi_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Errors produced by network construction and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor operation failed (shape mismatch etc.).
    Tensor(TensorError),
    /// `backward` was called before `forward` cached an input.
    BackwardBeforeForward {
        /// Name of the offending layer.
        layer: String,
    },
    /// The builder was asked to produce an empty network.
    EmptyNetwork,
    /// A flat parameter snapshot has the wrong length for this network.
    SnapshotLengthMismatch {
        /// Expected parameter count.
        expected: usize,
        /// Provided snapshot length.
        actual: usize,
    },
    /// A builder stage received inconsistent spatial dimensions.
    BadDimensions {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A taped forward or a tape load named a tape its context no
    /// longer holds, or a load named rows it never taped or a network
    /// other than the one that taped them.
    StaleTape,
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::BackwardBeforeForward { layer } => {
                write!(f, "backward called before forward on layer {layer}")
            }
            NnError::EmptyNetwork => write!(f, "network must contain at least one layer"),
            NnError::SnapshotLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot of {actual} values does not fit network with {expected} parameters"
                )
            }
            NnError::BadDimensions { detail } => write!(f, "bad dimensions: {detail}"),
            NnError::StaleTape => write!(f, "training tape the context does not hold"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}
