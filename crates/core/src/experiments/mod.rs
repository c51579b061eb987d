//! Experiment drivers regenerating every table and figure of the
//! paper's evaluation (§IV and §V).
//!
//! Each submodule corresponds to one artifact and returns printable
//! [`crate::report::Table`]s at a chosen [`crate::Scale`]:
//!
//! | Module       | Paper artifact |
//! |--------------|----------------|
//! | [`fig3`]     | Fig. 3a–e: GridWorld training fault characterization |
//! | [`table1`]   | Table I: consensus-policy std vs agent count |
//! | [`fig4`]     | Fig. 4: GridWorld inference fault characterization |
//! | [`fig5`]     | Fig. 5a–c: DroneNav training fault characterization |
//! | [`fig6`]     | Fig. 6a/b: drone count & communication-interval studies |
//! | [`fig7`]     | Fig. 7a/b: server-checkpointing mitigation (training) |
//! | [`fig8`]     | Fig. 8a/b: range-based anomaly detection (inference) |
//! | [`fig9`]     | Fig. 9: overhead vs DMR/TMR on two drone platforms |
//! | [`datatypes`]| §IV-B-3: fixed-point data-type resilience study |
//! | [`layers`]   | §IV-C: per-layer resilience study |
//! | [`ablations`]| extensions: sensitivity of every mitigation design choice |
//! | [`surfaces`] | extension: weight vs activation vs register fault surfaces |
//!
//! The inference studies (Fig. 4/8, data-type, per-layer) additionally
//! decompose into train-once / eval-many task DAGs via [`study`], which
//! is how the `frlfi-campaign` crate distributes them across workers
//! without retraining per trial.
//!
//! Experiments are deterministic for a given `(Scale, seed)`; campaign
//! cells fan out over worker threads via [`frlfi_fault::sweep`].

pub mod ablations;
pub mod datatypes;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod harness;
pub mod layers;
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
