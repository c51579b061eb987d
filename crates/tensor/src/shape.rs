use crate::TensorError;

/// The dimensions of a [`crate::Tensor`], in row-major order.
///
/// A `Shape` is an inexpensive value type; cloning copies a small `Vec`.
///
/// ```
/// use frlfi_tensor::Tensor;
///
/// let t = Tensor::zeros(vec![3, 4]);
/// assert_eq!(t.shape().dims(), &[3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimensions.
    pub(crate) fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub(crate) fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of the dims; 1 for a rank-0 shape).
    pub(crate) fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns an error if the shape is empty or has a zero-sized dimension.
    pub(crate) fn validate(&self) -> Result<(), TensorError> {
        if self.dims.is_empty() || self.dims.contains(&0) {
            Err(TensorError::EmptyShape)
        } else {
            Ok(())
        }
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dims(), &[2, 3, 4]);
    }

    #[test]
    fn validate_rejects_empty() {
        assert!(Shape::new(vec![]).validate().is_err());
        assert!(Shape::new(vec![3, 0]).validate().is_err());
        assert!(Shape::new(vec![1]).validate().is_ok());
    }
}
