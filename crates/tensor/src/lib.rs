//! # frlfi-tensor
//!
//! Dense tensor substrate for the FRL-FI reproduction.
//!
//! This crate provides the small, self-contained numerical foundation that
//! every other crate in the workspace builds on: a row-major [`Tensor`]
//! type with shape-checked elementwise and matrix operations, seeded
//! weight initializers, deterministic sub-seed derivation, and summary
//! statistics used throughout the fault-characterization experiments.
//!
//! The design goal is *bit-level observability*: tensors expose their flat
//! `f32` storage directly (via [`Tensor::data`] / [`Tensor::data_mut`]) so
//! that the fault-injection layer can reinterpret and corrupt individual
//! scalars without any abstraction in the way.
//!
//! ```
//! use frlfi_tensor::Tensor;
//!
//! # fn main() -> Result<(), frlfi_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

mod error;
mod init;
mod rng;
mod shape;
mod stats;
mod tensor;

pub use error::TensorError;
pub use init::Init;
pub use rng::derive_seed;
pub use shape::Shape;
pub use stats::{histogram, Summary};
pub use tensor::Tensor;
