use crate::FaultError;

/// The fault taxonomy of §III-C and Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// A single transient bit-flip (the paper's `Transient-1`, e.g. a
    /// read-register upset affecting one action step).
    TransientSingle,
    /// Multiple transient bit-flips at a given BER (`Transient-M`,
    /// memory upsets persisting across the following actions).
    TransientMulti,
    /// Selected bits forced to 0 (`Stuck-at-0`).
    StuckAt0,
    /// Selected bits forced to 1 (`Stuck-at-1`). The paper finds 0→1
    /// far more damaging because trained policies are ~86% 0-bits.
    StuckAt1,
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultModel::TransientSingle => write!(f, "Transient-1"),
            FaultModel::TransientMulti => write!(f, "Transient-M"),
            FaultModel::StuckAt0 => write!(f, "Stuck-at-0"),
            FaultModel::StuckAt1 => write!(f, "Stuck-at-1"),
        }
    }
}

/// A bit-error rate in `[0, 1]`.
///
/// The paper's heatmaps label rows "Number of faults (Bit error rate)":
/// the fault count for a surface of `total_bits` exposed bits is
/// `round(BER × total_bits)`, which [`Ber::fault_count`] reproduces.
///
/// ```
/// use frlfi_fault::Ber;
///
/// # fn main() -> Result<(), frlfi_fault::FaultError> {
/// let ber = Ber::new(0.002)?; // 0.2%
/// assert_eq!(ber.fault_count(2600), 5); // the paper's "5 (0.2%)" row
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Ber(f64);

impl Ber {
    /// The zero (fault-free) rate.
    pub const ZERO: Ber = Ber(0.0);

    /// Creates a BER.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidBer`] unless `0 ≤ value ≤ 1`.
    pub fn new(value: f64) -> Result<Ber, FaultError> {
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            return Err(FaultError::InvalidBer { value });
        }
        Ok(Ber(value))
    }

    /// Number of faulty bits on a surface of `total_bits` exposed bits.
    ///
    /// Rounds to the nearest integer; a non-zero BER always yields at
    /// least one fault so sub-resolution rates still exercise the
    /// injection path (matching the paper's single-bit starting point).
    pub fn fault_count(self, total_bits: usize) -> usize {
        if self.0 == 0.0 {
            return 0;
        }
        let n = (self.0 * total_bits as f64).round() as usize;
        n.max(1)
    }
}

impl std::fmt::Display for Ber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0.0 {
            write!(f, "0")
        } else if self.0 >= 0.001 {
            write!(f, "{}", self.0)
        } else {
            write!(f, "{:.0e}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range() {
        assert!(Ber::new(-0.1).is_err());
        assert!(Ber::new(1.1).is_err());
        assert!(Ber::new(f64::NAN).is_err());
        assert!(Ber::new(0.0).is_ok());
        assert!(Ber::new(1.0).is_ok());
    }

    #[test]
    fn fault_count_rounds() {
        let ber = Ber::new(0.01).unwrap();
        assert_eq!(ber.fault_count(1000), 10);
        assert_eq!(Ber::ZERO.fault_count(1000), 0);
    }

    #[test]
    fn nonzero_ber_injects_at_least_one() {
        let tiny = Ber::new(1e-9).unwrap();
        assert_eq!(tiny.fault_count(100), 1);
    }

    #[test]
    fn display_labels() {
        assert_eq!(FaultModel::TransientMulti.to_string(), "Transient-M");
    }
}
