//! Canonical, bit-exact weight-plane (de)serialization.
//!
//! A *plane* is one [`Network::snapshot`](crate::Network::snapshot)
//! vector — the network's flat parameter storage in layer order,
//! weights before biases. A multi-agent fleet serializes as an ordered
//! sequence of planes (one per agent, agents may have diverged), and
//! the campaign stack publishes that sequence as a *weight artifact*
//! trained once and consumed by many evaluation workers.
//!
//! The format is deliberately minimal and fully deterministic:
//!
//! ```text
//! magic    "FRLW"                     4 bytes
//! version  u32 le (currently 1)       4 bytes
//! planes   u32 le plane count         4 bytes
//! per plane:
//!   len    u32 le value count         4 bytes
//!   data   len × f32 le bit patterns  4·len bytes
//! ```
//!
//! Every `f32` round-trips through its raw bit pattern
//! (`to_bits`/`from_bits`), so encoding is the identity on bits — NaN
//! payloads, signed zeros and denormals included — and
//! `encode(decode(bytes)) == bytes` for any valid input. Two encodings
//! are byte-identical iff every plane is bit-identical, which is what
//! lets duplicate artifact publishes from deterministic retraining be
//! verified as benign by comparing digests.

use std::error::Error;
use std::fmt;

/// Leading magic of an encoded weight artifact.
pub const WEIGHT_MAGIC: [u8; 4] = *b"FRLW";

/// Current (and only) format version.
pub const WEIGHT_VERSION: u32 = 1;

/// Errors produced by [`decode_weight_planes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightCodecError {
    /// The buffer does not start with [`WEIGHT_MAGIC`].
    BadMagic,
    /// The version field is not [`WEIGHT_VERSION`].
    UnsupportedVersion(u32),
    /// The buffer ended before the declared contents.
    Truncated {
        /// Bytes the declared header/planes require.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The buffer continues past the declared contents.
    TrailingBytes(usize),
}

impl fmt::Display for WeightCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightCodecError::BadMagic => write!(f, "not a weight artifact (bad magic)"),
            WeightCodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported weight-artifact version {v} (expected {WEIGHT_VERSION})")
            }
            WeightCodecError::Truncated { expected, actual } => {
                write!(f, "weight artifact truncated: need {expected} bytes, have {actual}")
            }
            WeightCodecError::TrailingBytes(n) => {
                write!(f, "weight artifact has {n} trailing bytes past the declared planes")
            }
        }
    }
}

impl Error for WeightCodecError {}

/// Encodes an ordered sequence of weight planes (see the module docs
/// for the byte layout). Deterministic: the same planes always produce
/// the same bytes.
pub fn encode_weight_planes(planes: &[Vec<f32>]) -> Vec<u8> {
    let payload: usize = planes.iter().map(|p| 4 + 4 * p.len()).sum();
    let mut out = Vec::with_capacity(12 + payload);
    out.extend_from_slice(&WEIGHT_MAGIC);
    out.extend_from_slice(&WEIGHT_VERSION.to_le_bytes());
    out.extend_from_slice(&(planes.len() as u32).to_le_bytes());
    for plane in planes {
        out.extend_from_slice(&(plane.len() as u32).to_le_bytes());
        for w in plane {
            out.extend_from_slice(&w.to_bits().to_le_bytes());
        }
    }
    out
}

/// Decodes bytes produced by [`encode_weight_planes`], bit-exactly.
///
/// # Errors
///
/// Returns a [`WeightCodecError`] naming what is wrong with the buffer
/// (bad magic, unknown version, truncation, trailing garbage) — a
/// consumer can treat any of them as "artifact unusable, re-derive".
pub fn decode_weight_planes(bytes: &[u8]) -> Result<Vec<Vec<f32>>, WeightCodecError> {
    let need = |expected: usize, actual: usize| {
        if actual < expected {
            Err(WeightCodecError::Truncated { expected, actual })
        } else {
            Ok(())
        }
    };
    need(12, bytes.len())?;
    if bytes[..4] != WEIGHT_MAGIC {
        return Err(WeightCodecError::BadMagic);
    }
    let u32_at = |off: usize| {
        u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte slice")) as usize
    };
    let version = u32_at(4) as u32;
    if version != WEIGHT_VERSION {
        return Err(WeightCodecError::UnsupportedVersion(version));
    }
    let n_planes = u32_at(8);
    // Every plane needs at least its 4-byte length: check that much
    // exists before reserving, so a corrupt count cannot ask for a
    // huge allocation.
    need(12 + 4 * n_planes, bytes.len())?;
    let mut planes = Vec::with_capacity(n_planes);
    let mut off = 12;
    for _ in 0..n_planes {
        need(off + 4, bytes.len())?;
        let len = u32_at(off);
        off += 4;
        need(off + 4 * len, bytes.len())?;
        let plane: Vec<f32> = bytes[off..off + 4 * len]
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
            .collect();
        off += 4 * len;
        planes.push(plane);
    }
    if off != bytes.len() {
        return Err(WeightCodecError::TrailingBytes(bytes.len() - off));
    }
    Ok(planes)
}

/// FNV-1a digest over an encoded artifact's bytes: stable,
/// dependency-free and order-sensitive, so a single flipped mantissa
/// bit anywhere in any plane changes the digest. The campaign stack
/// records it next to each published artifact to verify integrity on
/// load and byte-equality of duplicate publishes.
pub fn weight_digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bit_exactly_including_weird_floats() {
        let planes = vec![
            vec![0.0f32, -0.0, 1.5, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-42],
            vec![],
            vec![f32::from_bits(0x7fc0_dead)], // NaN with payload
        ];
        let bytes = encode_weight_planes(&planes);
        let back = decode_weight_planes(&bytes).expect("decodes");
        assert_eq!(back.len(), planes.len());
        for (a, b) in planes.iter().zip(&back) {
            let a_bits: Vec<u32> = a.iter().map(|w| w.to_bits()).collect();
            let b_bits: Vec<u32> = b.iter().map(|w| w.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
        // Re-encoding the decode reproduces the exact bytes.
        assert_eq!(encode_weight_planes(&back), bytes);
    }

    #[test]
    fn encoding_is_deterministic_and_digest_is_sensitive() {
        let planes = vec![vec![1.0f32, 2.0, 3.0]];
        let a = encode_weight_planes(&planes);
        let b = encode_weight_planes(&planes);
        assert_eq!(a, b);
        let mut flipped = planes.clone();
        flipped[0][1] = f32::from_bits(flipped[0][1].to_bits() ^ 1);
        assert_ne!(weight_digest(&a), weight_digest(&encode_weight_planes(&flipped)));
    }

    #[test]
    fn corrupt_buffers_fail_with_typed_errors() {
        let bytes = encode_weight_planes(&[vec![1.0f32, 2.0]]);
        assert_eq!(decode_weight_planes(&bytes[..7]).unwrap_err(), {
            WeightCodecError::Truncated { expected: 12, actual: 7 }
        });
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_weight_planes(&bad_magic).unwrap_err(), WeightCodecError::BadMagic);
        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert_eq!(
            decode_weight_planes(&bad_version).unwrap_err(),
            WeightCodecError::UnsupportedVersion(9)
        );
        assert!(matches!(
            decode_weight_planes(&bytes[..bytes.len() - 1]).unwrap_err(),
            WeightCodecError::Truncated { .. }
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_weight_planes(&trailing).unwrap_err(), {
            WeightCodecError::TrailingBytes(1)
        });
    }

    #[test]
    fn huge_plane_count_is_truncation_not_allocation() {
        // A 12-byte header claiming u32::MAX planes: every plane needs
        // at least its 4-byte length, so the buffer is short by that
        // much, and nothing may be reserved for the planes first.
        let mut bytes = WEIGHT_MAGIC.to_vec();
        bytes.extend_from_slice(&WEIGHT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_weight_planes(&bytes).unwrap_err(),
            WeightCodecError::Truncated { expected: 12 + 4 * u32::MAX as usize, actual: 12 }
        );
    }

    #[test]
    fn network_snapshot_planes_round_trip_through_restore() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = crate::NetworkBuilder::new(4)
            .dense(8)
            .relu()
            .dense(3)
            .build(&mut rng)
            .expect("network builds");
        let mut b = crate::NetworkBuilder::new(4)
            .dense(8)
            .relu()
            .dense(3)
            .build(&mut StdRng::seed_from_u64(8))
            .expect("network builds");
        let planes = vec![a.snapshot(), b.snapshot()];
        let decoded =
            decode_weight_planes(&encode_weight_planes(&planes)).expect("round trip decodes");
        a.restore(&decoded[0]).expect("plane 0 fits");
        b.restore(&decoded[1]).expect("plane 1 fits");
        assert_eq!(a.snapshot(), planes[0]);
        assert_eq!(b.snapshot(), planes[1]);
    }
}
