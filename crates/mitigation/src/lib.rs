//! # frlfi-mitigation
//!
//! Cost-effective fault detection and recovery for FRL systems — the
//! second half of the FRL-FI contribution (§V).
//!
//! Three pieces, mirroring the paper:
//!
//! * **Training-time detection** ([`RewardDropDetector`]): an
//!   application-level detector that flags a fault when any agent's
//!   cumulative episode reward drops more than `p%` below its baseline
//!   for `k` consecutive episodes; one dropping agent ⇒ agent fault,
//!   more than half ⇒ server fault (§V-A).
//! * **Training-time recovery** ([`ServerCheckpoint`]): the server
//!   snapshots its consensus weights every 5 communication rounds; a
//!   detected agent fault restores that agent from the checkpoint, a
//!   detected server fault restores every agent, whose next uploads
//!   rebuild the server's consensus (§V-A).
//! * **Inference-time detection** ([`RangeDetector`]): per-layer weight
//!   ranges are tallied before deployment, widened by a 10% margin; any
//!   weight outside its layer's range is an anomaly and the operations
//!   around it are skipped (zeroed), exploiting NN sparsity (§V-B).
//!
//! The crate also implements the cyber-physical overhead model
//! ([`DronePlatform`], [`ProtectionScheme`]) the paper uses for Fig. 9: extra protection hardware (DMR/TMR) adds
//! compute power and payload mass, which lowers achievable velocity and
//! endurance and therefore end-to-end safe flight distance — while the
//! proposed schemes cost <2.7% runtime.
//!
//! ```
//! use frlfi_mitigation::{RangeDetector, RewardDropDetector, Detection};
//!
//! let mut det = RewardDropDetector::new(25.0, 3, 4);
//! // Warm up the per-agent baselines, then crash agent 2's reward.
//! for _ in 0..10 { det.observe(&[1.0, 1.0, 1.0, 1.0]); }
//! let mut hit = Detection::None;
//! for _ in 0..3 { hit = det.observe(&[1.0, 1.0, -1.0, 1.0]); }
//! assert_eq!(hit, Detection::AgentFault(vec![2]));
//! ```

mod checkpoint;
mod detector;
pub(crate) mod overhead;
mod range;

pub use checkpoint::ServerCheckpoint;
pub use detector::{Detection, RewardDropDetector};
pub use overhead::{DronePlatform, OverheadReport, ProtectionScheme};
pub use range::RangeDetector;
