use crate::{Init, Shape, TensorError};
use rand::Rng;

/// A dense, row-major, `f32` tensor.
///
/// `Tensor` is the single numeric container used by the entire workspace:
/// network weights, activations, gradients, observations and aggregation
/// buffers are all `Tensor`s. The flat storage is deliberately public
/// (through [`Tensor::data`] / [`Tensor::data_mut`]) because the
/// fault-injection layer must be able to corrupt raw scalars.
///
/// ```
/// use frlfi_tensor::Tensor;
///
/// # fn main() -> Result<(), frlfi_tensor::TensorError> {
/// let t = Tensor::zeros(vec![2, 3]);
/// assert_eq!(t.len(), 6);
/// let u = t.map(|x| x + 1.0);
/// assert!(u.data().iter().all(|&x| x == 1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        shape.validate().expect("invalid tensor shape");
        let n = shape.volume();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor filled with a constant.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        shape.validate().expect("invalid tensor shape");
        let n = shape.volume();
        Tensor { shape, data: vec![value; n] }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not
    /// equal the shape volume, or [`TensorError::EmptyShape`] for an
    /// invalid shape.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = shape.into();
        shape.validate()?;
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a randomly initialized tensor using the given scheme.
    ///
    /// `fan_in`/`fan_out` used by the scheme are derived from the shape:
    /// for rank-2 `[out, in]` weights, `fan_in = in`, `fan_out = out`; for
    /// conv kernels `[out_c, in_c, kh, kw]`, fans include the receptive
    /// field. Rank-1 tensors use their length as both fans.
    pub fn random<R: Rng>(shape: impl Into<Shape>, init: Init, rng: &mut R) -> Self {
        let shape = shape.into();
        shape.validate().expect("invalid tensor shape");
        let (fan_in, fan_out) = fans(&shape);
        let n = shape.volume();
        let data = (0..n).map(|_| init.sample(fan_in, fan_out, rng)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements (never true for valid shapes).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major storage.
    ///
    /// This is the fault-injection surface: flipping bits of these scalars
    /// emulates transient faults in weight/activation memory.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Applies a function to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, "add", |a, b| a + b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, "mul", |a, b| a * b)
    }

    /// `self += alpha * other`, the building block of SGD and federated
    /// averaging.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
                op: "axpy",
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless both operands are
    /// rank-2 with a matching inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let mismatch = || TensorError::ShapeMismatch {
            left: self.shape.dims().to_vec(),
            right: other.shape.dims().to_vec(),
            op: "matmul",
        };
        if self.shape.rank() != 2 || other.shape.rank() != 2 {
            return Err(mismatch());
        }
        let (m, k) = (self.shape.dims()[0], self.shape.dims()[1]);
        let (k2, n) = (other.shape.dims()[0], other.shape.dims()[1]);
        if k != k2 {
            return Err(mismatch());
        }
        let mut out = Tensor::zeros(vec![m, n]);
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let row = &other.data[p * n..(p + 1) * n];
                let dst = &mut out.data[i * n..(i + 1) * n];
                for (d, &b) in dst.iter_mut().zip(row.iter()) {
                    *d += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product: `[m, k] × [k] → [m]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self` is rank-2 and
    /// `v` is rank-1 with matching length.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor, TensorError> {
        let mismatch = || TensorError::ShapeMismatch {
            left: self.shape.dims().to_vec(),
            right: v.shape.dims().to_vec(),
            op: "matvec",
        };
        if self.shape.rank() != 2 || v.shape.rank() != 1 {
            return Err(mismatch());
        }
        let (m, k) = (self.shape.dims()[0], self.shape.dims()[1]);
        if v.len() != k {
            return Err(mismatch());
        }
        let mut out = Tensor::zeros(vec![m]);
        for i in 0..m {
            let row = &self.data[i * k..(i + 1) * k];
            out.data[i] = row.iter().zip(v.data.iter()).map(|(a, b)| a * b).sum();
        }
        Ok(out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the tensor is not rank-2.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.shape.rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: vec![],
                op: "transpose",
            });
        }
        let (m, n) = (self.shape.dims()[0], self.shape.dims()[1]);
        let mut out = Tensor::zeros(vec![n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(out)
    }

    /// Reshapes to a new shape with the same volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        shape.validate()?;
        if shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.len(),
            });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Index of the maximum element (ties resolve to the first).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty (valid shapes are never empty).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    fn zip(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
                op,
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
        })
    }
}

/// Derives `(fan_in, fan_out)` from a shape for initializer scaling.
fn fans(shape: &Shape) -> (usize, usize) {
    match shape.dims() {
        [n] => (*n, *n),
        [out, inp] => (*inp, *out),
        [out_c, in_c, kh, kw] => (in_c * kh * kw, out_c * kh * kw),
        dims => {
            let v: usize = dims.iter().product();
            (v, v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 4]).is_ok());
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let v = Tensor::from_vec(vec![3], vec![1.0, 0.5, -1.0]).unwrap();
        let got = a.matvec(&v).unwrap();
        assert_eq!(got.data(), &[-1.0, 0.5]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(vec![3]);
        let b = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[0.5, 1.0, 1.5]);
    }

    #[test]
    fn argmax_first_tie() {
        let t = Tensor::from_vec(vec![4], vec![1.0, 3.0, 3.0, 2.0]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn random_is_seeded() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let a = Tensor::random(vec![4, 4], Init::XavierUniform, &mut r1);
        let b = Tensor::random(vec![4, 4], Init::XavierUniform, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = a.reshape(vec![3, 2]).unwrap();
        assert_eq!(b.data(), a.data());
        assert!(a.reshape(vec![4]).is_err());
    }
}
