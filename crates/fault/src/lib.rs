//! # frlfi-fault
//!
//! Transient-fault injection for FRL systems — the first half of the
//! FRL-FI contribution.
//!
//! The paper's fault model (§III-C) is the widely used random bit-flip
//! abstraction: single or multiple bits in data or memory elements flip
//! (transient faults), or are forced to 0/1 (stuck-at faults, Fig. 4).
//! Faults strike three locations — agents, server, communication — which
//! the analysis groups into *agent faults* and *server faults*, and two
//! execution phases — *static* injection before inference and *dynamic*
//! injection during training (§III-D).
//!
//! This crate provides:
//!
//! * [`FaultModel`] / [`Ber`] — the fault taxonomy and bit-error-rate
//!   arithmetic (number of faults = BER × exposed bits);
//! * [`DataRepr`] — which machine representation the bits live in
//!   (IEEE-754 `f32`, affine int8 codes, or 16-bit `Q` fixed point),
//!   reusing `frlfi-quant`;
//! * [`inject_slice`] / [`inject_network`] — seeded injectors returning
//!   a [`FaultRecord`] audit trail;
//! * [`aggregate_in_order`] / [`Welford`] / [`CellStats`] — the
//!   chunked streaming reduction that folds one campaign cell's
//!   per-repeat values into its statistics.
//!
//! ```
//! use frlfi_fault::{inject_slice, Ber, DataRepr, FaultModel};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut weights = vec![0.5f32; 100];
//! let records = inject_slice(
//!     &mut weights,
//!     DataRepr::F32,
//!     FaultModel::TransientMulti,
//!     Ber::new(0.01).unwrap().fault_count(100 * 32),
//!     &mut rng,
//! );
//! assert_eq!(records.len(), 32);
//! ```

mod campaign;
mod error;
mod inject;
mod location;
mod model;
mod record;
mod repr;

pub use campaign::{aggregate_in_order, CellStats, Welford};
pub use error::FaultError;
pub use inject::{inject_network, inject_network_ber, inject_slice, inject_slice_ber};
pub use location::{FaultLocation, FaultSide};
pub use model::{Ber, FaultModel};
pub use record::FaultRecord;
pub use repr::DataRepr;
