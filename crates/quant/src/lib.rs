//! # frlfi-quant
//!
//! Number-format substrate for the FRL-FI reproduction.
//!
//! Transient faults in FRL-FI are *bit* flips, so the fault surface is not
//! an `f32` value but its encoded representation in device memory. This
//! crate provides every representation the paper studies:
//!
//! * signed fixed-point `Q(sign, int, frac)` formats — the data-type study
//!   uses `Q(1,4,11)`, `Q(1,7,8)` and `Q(1,10,5)` (§IV-B-3);
//! * symmetric sign-magnitude int8 quantization — the GridWorld policy
//!   is "quantized to 8-bit without loss of performance" (§IV-A-1);
//! * raw IEEE-754 `f32` bit access — the unquantized server/comm surface;
//! * bit-pattern census (how many 0 vs 1 bits a trained policy holds),
//!   which explains why 0→1 flips dominate (Fig. 3d).
//!
//! ```
//! use frlfi_quant::{QFormat, flip_bit_u16};
//!
//! let q = QFormat::Q4_11;
//! let code = q.encode(0.75);
//! let flipped = flip_bit_u16(code, 14); // flip a high integer bit
//! let value = q.decode(flipped);
//! assert!((q.decode(code) - 0.75).abs() < 1e-3);
//! assert!(value.abs() > 1.0); // high-bit flips create outliers
//! ```

mod bits;
mod error;
mod fixed;
mod int8;

pub use bits::{
    flip_bit_f32, flip_bit_u16, flip_bit_u8, stuck_bit_f32, stuck_bit_u16, stuck_bit_u8, BitCensus,
};
pub use error::QuantError;
pub use fixed::QFormat;
pub use int8::SymInt8Quantizer;
