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
//!   (IEEE-754 `f32`, symmetric sign-magnitude int8 codes, or 16-bit
//!   `Q` fixed point), reusing `frlfi-quant`;
//! * [`inject_slice`] / [`inject_slice_ber`] — seeded injectors over a
//!   flat parameter buffer, returning a [`FaultRecord`] audit trail;
//!   [`corrupt_slice`] / [`corrupt_slice_ber`] — the same injection
//!   without the records;
//! * [`aggregate_in_order`] / [`CellStats`] — the chunked streaming
//!   reduction that folds one campaign cell's per-repeat values into
//!   its statistics.
//!
//! ## One sampler, two apply steps
//!
//! Every injection draws its `n` distinct `(scalar, bit)` sites from
//! the buffer's exposed bits into a bitset of one `u64` per 64 bits.
//! Sparse draws (`4n <= total_bits`) are rejection sampling: one
//! `gen_range(0..total_bits)` per draw, a repeat rejected and drawn
//! again. Dense draws are a partial Fisher–Yates shuffle. A scan over
//! the bitset's words yields the sites in ascending order without a
//! sort, so the cost follows the flips, plus one zeroed word per 64
//! exposed bits.
//!
//! [`inject_slice`] applies the sites in ascending order and records
//! each flip; the dynamic (training-time) paths read those records.
//! [`corrupt_slice`] serves the static (inference-time) paths, which
//! never read them. It makes the same draws and leaves the same bits.
//! On [`DataRepr::F32`] it applies each fault as its site is drawn:
//! flips, sets and clears of distinct bits of one `u32` commute. On the
//! quantized representations each flip is an encode, a bit operation
//! and a decode, and flips in different order agree only while every
//! code survives a decode/encode round trip, so those keep the
//! ascending order that defines the result.
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

pub use campaign::{aggregate_in_order, CellStats};
pub use error::FaultError;
pub use inject::{corrupt_slice, corrupt_slice_ber, inject_slice, inject_slice_ber};
pub use location::FaultSide;
pub use model::{Ber, FaultModel};
pub use record::FaultRecord;
pub use repr::DataRepr;
