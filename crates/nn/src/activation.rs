use crate::NnError;
use frlfi_tensor::Tensor;

/// Rectified linear unit, `y = max(x, 0)`, applied elementwise.
///
/// Parameter-free; backward masks the upstream gradient with the sign of
/// the cached input.
#[derive(Debug, Clone)]
pub struct Relu {
    pub(crate) name: String,
    pub(crate) cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Relu { name: name.into(), cached_input: None }
    }

    /// [`Layer::forward`](crate::Layer::forward) for a ReLU.
    pub(crate) fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.cached_input = Some(input.clone());
        Ok(input.map(|x| x.max(0.0)))
    }

    /// The inference forward at any batch: elementwise and
    /// layout-oblivious, so a batch-minor plane is clamped exactly as
    /// each sample alone would be.
    pub(crate) fn forward_kernel(&self, input: &[f32], out: &mut [f32]) {
        for (o, &x) in out.iter_mut().zip(input.iter()) {
            *o = x.max(0.0);
        }
    }

    /// [`Relu::forward_kernel`] over `plane` itself: the training
    /// walk's ReLU past the first layer, whose clamped plane then
    /// serves as its backward's input too (`x > 0` iff `x.max(0.0) > 0`).
    pub(crate) fn clamp_in_place(&self, plane: &mut [f32]) {
        for v in plane {
            *v = v.max(0.0);
        }
    }

    /// The backward walk's layer call: elementwise, so any shape and
    /// layout is valid.
    pub(crate) fn backward_kernel(
        &self,
        input: &[f32],
        grad_out: &[f32],
        grad_in: Option<&mut [f32]>,
    ) {
        let Some(grad_in) = grad_in else {
            return;
        };
        // The reference backward multiplies by a materialized 1.0/0.0
        // mask (not a select), so NaN/∞ upstream gradients propagate
        // through dead units identically: keep the multiply.
        for ((o, &d), &x) in grad_in.iter_mut().zip(grad_out.iter()).zip(input.iter()) {
            *o = d * (if x > 0.0 { 1.0 } else { 0.0 });
        }
    }

    /// [`Layer::backward`](crate::Layer::backward) for a ReLU.
    pub(crate) fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name.clone() })?;
        let mask = input.map(|x| if x > 0.0 { 1.0 } else { 0.0 });
        Ok(grad_out.mul(&mask)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new("relu");
        let y = r.forward(&Tensor::from_vec(vec![3], vec![-1.0, 0.0, 2.0]).unwrap()).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new("relu");
        r.forward(&Tensor::from_vec(vec![3], vec![-1.0, 0.5, 2.0]).unwrap()).unwrap();
        let dx = r.backward(&Tensor::full(vec![3], 1.0)).unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut r = Relu::new("relu");
        assert!(r.backward(&Tensor::zeros(vec![2])).is_err());
    }

    #[test]
    fn has_no_params() {
        assert!(crate::Layer::Relu(Relu::new("relu")).span().is_none());
    }
}
