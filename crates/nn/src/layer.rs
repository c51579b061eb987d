use crate::{ActShape, NnError};
use frlfi_tensor::Tensor;

/// Coarse classification of a layer, used by the layer-type resilience
/// study (the paper's summary notes that "different layers ... exhibit
/// various resilience, depending on layer topology, position").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Fully connected layer.
    Dense,
    /// 2-D convolution layer.
    Conv,
    /// Parameter-free activation.
    Activation,
}

impl std::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayerKind::Dense => write!(f, "dense"),
            LayerKind::Conv => write!(f, "conv"),
            LayerKind::Activation => write!(f, "activation"),
        }
    }
}

/// Location of one layer's parameters inside a network's flat parameter
/// vector. Used to target fault injection at a specific layer and to run
/// the per-layer range tally behind range-based anomaly detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpan {
    /// Layer name (unique within a network, e.g. `dense0`).
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Offset of the first parameter in the flat vector.
    pub start: usize,
    /// Number of parameters.
    pub len: usize,
}

impl ParamSpan {
    /// The half-open flat-index range covered by this span.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// A differentiable network layer.
///
/// Layers cache their forward input so that a subsequent [`Layer::backward`]
/// can compute parameter gradients; gradients *accumulate* across calls
/// until [`Layer::apply_grads`], which is what REINFORCE needs to sum
/// per-step gradients over an episode.
pub trait Layer: Send {
    /// Human-readable layer name (unique within its network).
    fn name(&self) -> &str;

    /// The layer kind.
    fn kind(&self) -> LayerKind;

    /// Runs the layer forward, caching whatever is needed for backward.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError>;

    /// Output shape for an input of `in_shape` on the inference fast
    /// path.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn out_shape(&self, in_shape: &ActShape) -> Result<ActShape, NnError>;

    /// Inference-only forward: reads the flat activation `input` (laid
    /// out as `in_shape`) and writes the full output activation into
    /// `out`, which the caller sizes to `out_shape(in_shape).volume()`.
    ///
    /// Contract: no allocation, no input caching, and **bit-identical**
    /// output to [`Layer::forward`] — implementations must preserve the
    /// reference kernels' floating-point accumulation order exactly.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn forward_into(
        &self,
        input: &[f32],
        in_shape: &ActShape,
        out: &mut [f32],
    ) -> Result<(), NnError>;

    /// Batched inference-only forward over **batch-minor** activations:
    /// element `j` of sample `b` lives at `input[j * batch + b]`, and
    /// the layer writes the full batched output in the same layout into
    /// `out`, which the caller sizes to
    /// `out_shape(in_shape).volume() * batch`.
    ///
    /// Contract: every sample's output row must be **bit-identical** to
    /// running [`Layer::forward_into`] on that sample alone — batching
    /// may only reorder work *across* samples and output elements,
    /// never the floating-point accumulation order *within* one output
    /// element. The provided default gathers each sample into a
    /// scratch row and delegates to `forward_into` (allocating;
    /// correct for any layer); `Dense`/`Conv2d`/`Relu` override it with
    /// allocation-free kernels that vectorize across the batch axis.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn forward_batch_into(
        &self,
        input: &[f32],
        in_shape: &ActShape,
        batch: usize,
        out: &mut [f32],
    ) -> Result<(), NnError> {
        let in_vol = in_shape.volume();
        let out_vol = self.out_shape(in_shape)?.volume();
        let mut row_in = vec![0.0f32; in_vol];
        let mut row_out = vec![0.0f32; out_vol];
        for b in 0..batch {
            for j in 0..in_vol {
                row_in[j] = input[j * batch + b];
            }
            self.forward_into(&row_in, in_shape, &mut row_out)?;
            for (j, &v) in row_out.iter().enumerate() {
                out[j * batch + b] = v;
            }
        }
        Ok(())
    }

    /// Batched *training* backward over **batch-minor** activations:
    /// `input` is the batched activation this layer consumed on the
    /// cached training forward (element `j` of sample `b` at
    /// `input[j * batch + b]`, as retained by
    /// [`crate::BatchInferCtx`]), `grad_out` the upstream gradient in
    /// the same layout. Parameter gradients for the whole batch
    /// accumulate into the layer (exactly like repeated
    /// [`Layer::backward`] calls). When `grad_in` is present the input
    /// gradient is written into it — fully, no stale bytes survive —
    /// and the caller sizes it to `in_shape.volume() * batch`; `None`
    /// skips the input gradient (the first layer's would be
    /// discarded). `scratch` is a caller-owned buffer the layer may
    /// resize and overwrite (Conv2d's padded gradient plane); nothing
    /// in it carries over between calls.
    ///
    /// Contract: for every parameter-gradient element the batch's
    /// contributions must accumulate in **ascending sample order**,
    /// and within one sample in exactly the reference
    /// [`Layer::backward`] accumulation order — so one batched
    /// backward leaves *bitwise* the gradients that `batch` sequential
    /// `forward` + `backward` calls (sample 0 first, weights fixed)
    /// leave. Each sample's `grad_in` row matches the reference `dx`
    /// bitwise on finite values; a lane that is NaN in one is NaN in
    /// the other, but its payload may differ. The provided default
    /// gathers each sample into scratch tensors and delegates to
    /// `forward` + `backward` (allocating, clobbers the layer's cached
    /// input; correct for any layer); `Dense`/`Conv2d`/`Relu` override
    /// it with allocation-free kernels.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn backward_batch_into(
        &mut self,
        input: &[f32],
        in_shape: &ActShape,
        batch: usize,
        grad_out: &[f32],
        mut grad_in: Option<&mut [f32]>,
        _scratch: &mut Vec<f32>,
    ) -> Result<(), NnError> {
        let in_vol = in_shape.volume();
        let out_shape = self.out_shape(in_shape)?;
        let out_vol = out_shape.volume();
        let mut row_in = vec![0.0f32; in_vol];
        let mut row_g = vec![0.0f32; out_vol];
        for t in 0..batch {
            for (j, r) in row_in.iter_mut().enumerate() {
                *r = input[j * batch + t];
            }
            let x = Tensor::from_vec(in_shape.dims().to_vec(), row_in.clone())?;
            self.forward(&x)?;
            for (j, r) in row_g.iter_mut().enumerate() {
                *r = grad_out[j * batch + t];
            }
            let g = Tensor::from_vec(out_shape.dims().to_vec(), row_g.clone())?;
            let dx = self.backward(&g)?;
            if let Some(grad_in) = grad_in.as_deref_mut() {
                for (j, &v) in dx.data().iter().enumerate() {
                    grad_in[j * batch + t] = v;
                }
            }
        }
        Ok(())
    }

    /// Drops the cached forward input (if any), shrinking resident
    /// memory for eval-only deployments. A later [`Layer::backward`]
    /// without a fresh [`Layer::forward`] then fails.
    fn clear_cache(&mut self);

    /// Back-propagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if no forward pass has
    /// cached an input, or a tensor error on shape mismatch.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError>;

    /// Applies accumulated gradients with learning rate `lr` and clears
    /// them.
    fn apply_grads(&mut self, lr: f32);

    /// Clears accumulated gradients without applying them.
    fn zero_grads(&mut self);

    /// Total number of trainable parameters.
    fn param_count(&self) -> usize;

    /// Immutable views of the parameter tensors (weights first, then bias).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable views of the parameter tensors (weights first, then bias).
    ///
    /// This is the fault-injection surface.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Clones the layer into a boxed trait object (checkpointing support).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
