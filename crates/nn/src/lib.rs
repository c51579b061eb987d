//! # frlfi-nn
//!
//! Neural-network substrate for the FRL-FI reproduction.
//!
//! The paper injects transient faults into NN policy *weights, feature
//! maps and activations* at bit level, so this crate implements networks
//! from scratch with fully exposed, flat, bit-addressable parameter
//! storage rather than wrapping an opaque framework:
//!
//! * [`Dense`] and [`Conv2d`] layers with forward and backward passes —
//!   the GridWorld policy is an MLP, the DroneNav policy is
//!   Conv×3 + FC×2 (§IV-B-1);
//! * [`Layer`], the closed enum over those two and [`Relu`]: every
//!   layer operation is one `match` over the three variants;
//! * [`Network`], an owned `Vec<Layer>` stack with flat parameter snapshots
//!   (used by server checkpointing), per-layer parameter spans (used by
//!   layer-targeted injection and range-based anomaly detection), and SGD;
//! * [`BatchInferCtx`], the zero-allocation arena every fast forward
//!   runs through: one observation ([`Network::infer`]) is a batch of
//!   one, and the cached training forward retains per-layer planes for
//!   the batched backward;
//! * [`NetworkBuilder`] for concise policy construction.
//!
//! ```
//! use frlfi_nn::NetworkBuilder;
//! use rand::{rngs::StdRng, SeedableRng};
//! use frlfi_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = NetworkBuilder::new(4).dense(16).relu().dense(4).build(&mut rng)?;
//! let q_values = net.forward(&Tensor::from_vec(vec![4], vec![0.0, 1.0, -1.0, 0.0])?)?;
//! assert_eq!(q_values.len(), 4);
//! # Ok(())
//! # }
//! ```

mod activation;
pub(crate) mod codec;
mod conv;
mod dense;
mod error;
mod infer;
mod layer;
mod network;

pub use activation::Relu;
pub use codec::{decode_weight_planes, encode_weight_planes, weight_digest, WeightCodecError};
pub use conv::Conv2d;
pub use dense::Dense;
pub use error::NnError;
pub use infer::{ActShape, BatchInferCtx, InferCtx, TapeId};
pub use layer::{Layer, LayerKind, ParamSpan, Params};
pub use network::{Network, NetworkBuilder};
