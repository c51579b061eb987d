//! # frlfi-federated
//!
//! Federated-learning substrate for the FRL-FI reproduction.
//!
//! Implements the paper's FRL parameter exchange (§III-A): after each
//! communication round every agent `i` uploads its policy `θᵢᵏ⁻` and the
//! server returns the smoothing average
//!
//! ```text
//! θᵢᵏ⁺ = αₖ·θᵢᵏ⁻ + βₖ·Σ_{j≠i} θⱼᵏ⁻ ,   βₖ = (1 − αₖ)/(n − 1)
//! ```
//!
//! with `αₖ, βₖ → 1/n` as training proceeds (the consensus guarantee of
//! the paper's Eq. 4). [`Server`] runs that round over a participant
//! mask, so agent dropout (links that keep some agents out of a round)
//! is the same round with gaps. The crate also provides:
//!
//! * [`RoundHook`] — the three fault-injection points of a communication
//!   round (uplink, server, downlink), matching the paper's grouping of
//!   fault locations into *agent faults* and *server faults* (§III-C);
//! * [`CommSchedule`] — the communication-interval schedule of Fig. 6b,
//!   including the ×2/×3 interval increase after a switch episode and
//!   the communication-cost accounting behind the paper's −23.3% figure.
//!
//! ```
//! use frlfi_federated::Server;
//!
//! # fn main() -> Result<(), frlfi_federated::FederatedError> {
//! let mut server = Server::new(3, 4)?;
//! let uploads = vec![vec![1.0; 4], vec![2.0; 4], vec![3.0; 4]];
//! let downloads = server.aggregate(&uploads)?;
//! assert_eq!(downloads.len(), 3);
//! // Every smoothed policy moves toward the mean of the uploads.
//! assert!(downloads[0][0] > 1.0 && downloads[0][0] < 3.0);
//! # Ok(())
//! # }
//! ```

mod error;
mod hook;
mod schedule;
mod server;

pub use error::FederatedError;
pub use hook::{NoopHook, RoundHook};
pub use schedule::CommSchedule;
pub use server::Server;
