use std::error::Error;
use std::fmt;

/// Errors produced by quantizer construction and use.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// A quantizer was fit on an empty or degenerate value range.
    DegenerateRange {
        /// Lower bound observed.
        lo: f32,
        /// Upper bound observed.
        hi: f32,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::DegenerateRange { lo, hi } => {
                write!(f, "cannot fit quantizer on degenerate range [{lo}, {hi}]")
            }
        }
    }
}

impl Error for QuantError {}
