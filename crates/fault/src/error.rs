use std::error::Error;
use std::fmt;

/// Errors produced by fault-model construction.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A bit-error rate outside `[0, 1]` (or non-finite) was requested.
    InvalidBer {
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidBer { value } => {
                write!(f, "bit error rate {value} must lie in [0, 1]")
            }
        }
    }
}

impl Error for FaultError {}
