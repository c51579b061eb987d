use crate::{ActShape, Conv2d, Dense, NnError, Relu};
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

/// Evaluates `$body` with `$l` bound to the layer inside whichever
/// variant `$layer` holds: the dispatch of every operation all three
/// layer types implement.
macro_rules! each_variant {
    ($layer:expr, $l:ident => $body:expr) => {
        match $layer {
            Layer::Dense($l) => $body,
            Layer::Conv($l) => $body,
            Layer::Relu($l) => $body,
        }
    };
}

/// One layer of a [`crate::Network`]: the closed set of layer types
/// [`crate::NetworkBuilder`] builds. Every operation is one exhaustive
/// `match` that runs the variant's own kernel.
///
/// A layer holds its shape and where its parameters start in its
/// network's parameter plane, not the parameters themselves: every
/// kernel reads the weights and bias from the plane `params` and
/// accumulates their gradients into the plane `grads`, which has the
/// same layout. A layer built on its own ([`Dense::new`],
/// [`Conv2d::new`]) appends its parameters to a plane the caller owns.
///
/// Layers cache their forward input so that a subsequent [`Layer::backward`]
/// can compute parameter gradients; gradients *accumulate* across calls
/// until the caller applies them, which is what REINFORCE needs to sum
/// per-step gradients over an episode.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully connected layer.
    Dense(Dense),
    /// 2-D convolution layer.
    Conv(Conv2d),
    /// ReLU activation.
    Relu(Relu),
}

impl Layer {
    /// Human-readable layer name (unique within its network).
    pub(crate) fn name(&self) -> &str {
        each_variant!(self, l => &l.name)
    }

    /// Where the layer's parameters (weights, then bias) sit in the
    /// plane; `None` for a ReLU.
    pub(crate) fn span(&self) -> Option<ParamSpan> {
        let (kind, range) = match self {
            Layer::Dense(l) => (LayerKind::Dense, l.range()),
            Layer::Conv(l) => (LayerKind::Conv, l.range()),
            Layer::Relu(_) => return None,
        };
        Some(ParamSpan { name: self.name().to_owned(), kind, start: range.start, len: range.len() })
    }

    /// Runs the layer forward on its weights in `params`, caching
    /// whatever is needed for backward.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    pub fn forward(&mut self, params: &[f32], input: &Tensor) -> Result<Tensor, NnError> {
        match self {
            Layer::Dense(l) => l.forward(params, input),
            Layer::Conv(l) => l.forward(params, input),
            Layer::Relu(l) => l.forward(input),
        }
    }

    /// Output shape for an input of `in_shape` on the inference fast
    /// path.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    pub fn out_shape(&self, in_shape: &ActShape) -> Result<ActShape, NnError> {
        match self {
            Layer::Dense(l) => l.out_shape(in_shape),
            Layer::Conv(l) => l.out_shape(in_shape),
            Layer::Relu(_) => Ok(*in_shape),
        }
    }

    /// The forward walk's layer call: like
    /// [`Layer::forward_batch_into`] (the single-observation kernels at
    /// `batch == 1`), on an `in_shape` the walk has already validated
    /// with [`Layer::out_shape`], so the kernel does not check it again.
    /// `out` is sized to `out_shape(in_shape).volume() * batch`.
    ///
    /// Contract: no allocation, no input caching, and every sample's
    /// output row **bit-identical** to [`Layer::forward`] on that sample
    /// alone — every kernel preserves the reference kernels'
    /// floating-point accumulation order exactly.
    pub(crate) fn forward_kernel(
        &self,
        params: &[f32],
        input: &[f32],
        in_shape: &ActShape,
        batch: usize,
        out: &mut [f32],
    ) {
        match self {
            Layer::Dense(l) => l.forward_kernel(params, input, batch, out),
            Layer::Conv(l) => l.forward_kernel(params, input, in_shape, batch, out),
            Layer::Relu(l) => l.forward_kernel(input, out),
        }
    }

    /// Batched inference-only forward over **batch-minor** activations:
    /// element `j` of sample `b` lives at `input[j * batch + b]`, and
    /// the layer writes the full batched output in the same layout into
    /// `out`, which the caller sizes to
    /// `out_shape(in_shape).volume() * batch`. A batch of one is a
    /// single observation.
    ///
    /// Contract: every sample's output row is **bit-identical** to
    /// [`Layer::forward`] on that sample alone — batching only reorders
    /// work *across* samples and output elements, never the
    /// floating-point accumulation order *within* one output element.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    pub fn forward_batch_into(
        &self,
        params: &[f32],
        input: &[f32],
        in_shape: &ActShape,
        batch: usize,
        out: &mut [f32],
    ) -> Result<(), NnError> {
        self.out_shape(in_shape)?;
        self.forward_kernel(params, input, in_shape, batch, out);
        Ok(())
    }

    /// Batched *training* backward over **batch-minor** activations:
    /// `input` is the batch of `in_shape` activations this layer
    /// consumed on the cached training forward (element `j` of sample
    /// `b` at `input[j * batch + b]`, as retained by
    /// [`crate::BatchInferCtx`]; the batch is
    /// `input.len() / in_shape.volume()` samples), `grad_out` the
    /// upstream gradient in the same layout. The gradients of the
    /// weights in `params` for the whole batch accumulate into `grads`
    /// (exactly like repeated [`Layer::backward`] calls). When
    /// `grad_in` is present the input gradient is written into it —
    /// fully, no stale bytes survive — and the caller sizes it to
    /// `input.len()`; `None` skips the input gradient (the first
    /// layer's would be discarded). `scratch` is a caller-owned buffer
    /// the layer may resize and overwrite (Conv2d's gradient lanes and
    /// padded gradient plane); nothing in it carries over between
    /// calls.
    ///
    /// Contract: for every parameter-gradient element the batch's
    /// contributions accumulate in **ascending sample order**, and
    /// within one sample in exactly the reference [`Layer::backward`]
    /// accumulation order — so one batched backward leaves *bitwise*
    /// the gradients that `batch` sequential `forward` + `backward`
    /// calls (sample 0 first, weights fixed) leave. Each sample's
    /// `grad_in` row matches the reference `dx` bitwise on finite
    /// values; a lane that is NaN in one is NaN in the other, but its
    /// payload may differ.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    pub fn backward_batch_into(
        &mut self,
        planes: (&[f32], &mut [f32]),
        input: &[f32],
        in_shape: &ActShape,
        grad_out: &[f32],
        grad_in: Option<&mut [f32]>,
        scratch: &mut Vec<f32>,
    ) -> Result<(), NnError> {
        self.out_shape(in_shape)?;
        self.backward_kernel(planes, input, in_shape, grad_out, grad_in, scratch);
        Ok(())
    }

    /// The backward walk's layer call: like
    /// [`Layer::backward_batch_into`], on an `in_shape` the forward walk
    /// has already validated with [`Layer::out_shape`], so the kernel
    /// does not check it again. Same contract, no error.
    pub(crate) fn backward_kernel(
        &mut self,
        planes: (&[f32], &mut [f32]),
        input: &[f32],
        in_shape: &ActShape,
        grad_out: &[f32],
        grad_in: Option<&mut [f32]>,
        scratch: &mut Vec<f32>,
    ) {
        match self {
            Layer::Dense(l) => l.backward_kernel(planes, input, grad_out, grad_in),
            Layer::Conv(l) => {
                l.backward_kernel(planes, input, in_shape, grad_out, grad_in, scratch)
            }
            Layer::Relu(l) => l.backward_kernel(input, grad_out, grad_in),
        }
    }

    /// Drops the cached forward input (if any), shrinking resident
    /// memory for eval-only deployments. A later [`Layer::backward`]
    /// without a fresh [`Layer::forward`] then fails.
    pub(crate) fn clear_cache(&mut self) {
        each_variant!(self, l => l.cached_input = None)
    }

    /// Back-propagates `grad_out`, accumulating the gradients of the
    /// weights in `params` into `grads` and returning the gradient with
    /// respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if no forward pass has
    /// cached an input, or a tensor error on shape mismatch.
    pub fn backward(
        &mut self,
        planes: (&[f32], &mut [f32]),
        grad_out: &Tensor,
    ) -> Result<Tensor, NnError> {
        match self {
            Layer::Dense(l) => l.backward(planes, grad_out),
            Layer::Conv(l) => l.backward(planes, grad_out),
            Layer::Relu(l) => l.backward(grad_out),
        }
    }
}
