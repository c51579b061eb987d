//! Experiment drivers for the paper's evaluation (§IV and §V) that
//! have no campaign builtin, plus the trial and study definitions the
//! `frlfi-campaign` runner executes.
//!
//! Fig. 3a–c, 4, 5a–c, 7a/b, 8a/b and the data-type and per-layer
//! studies run only as campaigns (`campaign run fig3a` …). The modules
//! here return printable [`crate::report::Table`]s at a chosen
//! [`crate::Scale`] for the rest:
//!
//! | Module       | Paper artifact |
//! |--------------|----------------|
//! | [`fig3`]     | Fig. 3d/e: weight distribution, re-convergence after a late fault |
//! | [`table1`]   | Table I: consensus-policy std vs agent count |
//! | [`fig6`]     | Fig. 6a/b: drone count & communication-interval studies |
//! | [`fig9`]     | Fig. 9: overhead vs DMR/TMR on two drone platforms |
//! | [`ablations`]| extensions: sensitivity of every mitigation design choice |
//! | [`surfaces`] | extension: weight vs activation vs register fault surfaces |
//!
//! [`harness`] declares the training-fault trial cells and [`study`]
//! the train-once / eval-many inference studies (Fig. 4/8, data-type,
//! per-layer) that the `frlfi-campaign` crate distributes across
//! workers.
//!
//! Experiments are deterministic for a given `(Scale, seed)`; the
//! drivers above fan their cells out over worker threads via
//! [`frlfi_fault::sweep`].

pub mod ablations;
pub mod fig3;
pub mod fig6;
pub mod fig9;
pub mod harness;
mod prefix;
pub mod study;
pub mod surfaces;
pub mod table1;

/// Default master seed for the fault-injection campaigns (varies per
/// cell/repeat; see [`frlfi_fault::sweep`]).
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
