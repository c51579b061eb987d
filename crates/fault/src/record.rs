/// An audit record of one injected fault.
///
/// Campaigns keep these for debugging and for the paper's 0→1 vs 1→0
/// flip-direction analysis (Fig. 3d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecord {
    /// Flat index of the corrupted scalar.
    pub index: usize,
    /// Bit position within the scalar's encoded representation (0 = LSB).
    pub bit: u32,
    /// Value before the fault.
    pub before: f32,
    /// Value after the fault.
    pub after: f32,
}

impl FaultRecord {
    /// True if the fault actually changed the stored value (stuck-at
    /// faults on already-matching bits are silent).
    pub fn is_effective(&self) -> bool {
        self.before.to_bits() != self.after.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effectiveness() {
        let silent = FaultRecord { index: 0, bit: 0, before: 1.0, after: 1.0 };
        let loud = FaultRecord { index: 0, bit: 0, before: 1.0, after: -1.0 };
        assert!(!silent.is_effective());
        assert!(loud.is_effective());
    }
}
