//! The trial and study definitions the `frlfi-campaign` runner
//! executes, plus the paper's three artifacts that run no fault trials.
//!
//! Every fault figure (Fig. 3a–c/e, 4, 5a–c, 6a/b, 7a/b, 8a/b and the
//! data-type and per-layer studies) runs only as a campaign
//! (`campaign run fig3a` …): [`harness`] declares the training-fault
//! trial cells and [`study`] the train-once / eval-many inference
//! studies. The modules below return printable
//! [`crate::report::Table`]s for the rest:
//!
//! | Module     | Paper artifact |
//! |------------|----------------|
//! | [`fig3`]   | Fig. 3d: trained weight distribution and bit census |
//! | [`table1`] | Table I: consensus-policy std vs agent count |
//! | [`fig9`]   | Fig. 9: overhead vs DMR/TMR on two drone platforms (analytic) |
//!
//! Experiments are deterministic for a given `(Scale, seed)`.

pub mod fig3;
pub mod fig9;
pub mod harness;
mod prefix;
pub mod study;
pub mod table1;

/// Default master seed for the fault-injection campaigns (trial seeds
/// derive from it by flat `(cell, repeat)` index).
pub const DEFAULT_SEED: u64 = 0xF1F1_2022;

/// Fixed system-construction seed shared by all experiments.
///
/// Campaigns train the *same* system in every cell and vary only the
/// fault stream across repeats (the paper's methodology: 1000 repeated
/// injections into one trained system). This seed is chosen so that the
/// GridWorld system converges to a high success rate at every agent
/// count at the bench scale.
pub const SYSTEM_SEED: u64 = 7;

/// Formats a BER for row labels, e.g. `0.2%` or `1e-3` (shared with
/// the campaign runner's summary tables).
pub fn ber_label(ber: f64) -> String {
    if ber == 0.0 {
        "0".to_owned()
    } else if ber >= 0.001 {
        format!("{}%", ber * 100.0)
    } else {
        format!("{ber:.0e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_labels() {
        assert_eq!(ber_label(0.0), "0");
        assert_eq!(ber_label(0.002), "0.2%");
        assert_eq!(ber_label(1e-4), "1e-4");
    }
}
