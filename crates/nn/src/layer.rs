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

/// Borrowed parameter tensors of one layer — weights, then bias; none
/// for a ReLU — without allocating. Derefs to a slice and iterates by
/// value.
#[derive(Debug)]
pub struct Params<T>(Option<[T; 2]>);

impl<T> std::ops::Deref for Params<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.0.as_slice().as_flattened()
    }
}

impl<T> IntoIterator for Params<T> {
    type Item = T;
    type IntoIter = std::iter::Flatten<std::option::IntoIter<[T; 2]>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().flatten()
    }
}

/// The parameter bookkeeping of the layers that have parameters: each
/// holds weights `w` and bias `b` plus their accumulated gradients `gw`
/// and `gb`, and this is the one copy of the code that steps, clears,
/// counts and exposes them.
macro_rules! weights_and_bias {
    ($($layer:ty),*) => {$(
        impl $layer {
            /// Applies accumulated gradients with learning rate `lr` and
            /// clears them.
            pub fn apply_grads(&mut self, lr: f32) {
                self.w.axpy(-lr, &self.gw).expect("gradient shape invariant");
                self.b.axpy(-lr, &self.gb).expect("gradient shape invariant");
                self.zero_grads();
            }

            /// Clears accumulated gradients without applying them.
            pub fn zero_grads(&mut self) {
                self.gw.map_inplace(|_| 0.0);
                self.gb.map_inplace(|_| 0.0);
            }

            /// Total number of trainable parameters.
            pub fn param_count(&self) -> usize {
                self.w.len() + self.b.len()
            }

            /// The parameter tensors: weights, then bias.
            pub fn params(&self) -> [&Tensor; 2] {
                [&self.w, &self.b]
            }

            /// Mutable parameter tensors (weights, then bias): the
            /// fault-injection surface.
            pub fn params_mut(&mut self) -> [&mut Tensor; 2] {
                [&mut self.w, &mut self.b]
            }
        }
    )*};
}

weights_and_bias!(Dense, Conv2d);

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
/// Layers cache their forward input so that a subsequent [`Layer::backward`]
/// can compute parameter gradients; gradients *accumulate* across calls
/// until [`Layer::apply_grads`], which is what REINFORCE needs to sum
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
    pub fn name(&self) -> &str {
        each_variant!(self, l => &l.name)
    }

    /// The layer kind.
    pub fn kind(&self) -> LayerKind {
        match self {
            Layer::Dense(_) => LayerKind::Dense,
            Layer::Conv(_) => LayerKind::Conv,
            Layer::Relu(_) => LayerKind::Activation,
        }
    }

    /// Runs the layer forward, caching whatever is needed for backward.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        each_variant!(self, l => l.forward(input))
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

    /// Inference-only forward: reads the flat activation `input` (laid
    /// out as `in_shape`) and writes the full output activation into
    /// `out`, which the caller sizes to `out_shape(in_shape).volume()`.
    ///
    /// Contract: no allocation, no input caching, and **bit-identical**
    /// output to [`Layer::forward`] — every kernel preserves the
    /// reference kernels' floating-point accumulation order exactly.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    pub fn forward_into(
        &self,
        input: &[f32],
        in_shape: &ActShape,
        out: &mut [f32],
    ) -> Result<(), NnError> {
        each_variant!(self, l => l.forward_into(input, in_shape, out))
    }

    /// Batched inference-only forward over **batch-minor** activations:
    /// element `j` of sample `b` lives at `input[j * batch + b]`, and
    /// the layer writes the full batched output in the same layout into
    /// `out`, which the caller sizes to
    /// `out_shape(in_shape).volume() * batch`.
    ///
    /// Contract: every sample's output row is **bit-identical** to
    /// running [`Layer::forward_into`] on that sample alone — batching
    /// only reorders work *across* samples and output elements, never
    /// the floating-point accumulation order *within* one output
    /// element.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    pub fn forward_batch_into(
        &self,
        input: &[f32],
        in_shape: &ActShape,
        batch: usize,
        out: &mut [f32],
    ) -> Result<(), NnError> {
        each_variant!(self, l => l.forward_batch_into(input, in_shape, batch, out))
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
        input: &[f32],
        in_shape: &ActShape,
        batch: usize,
        grad_out: &[f32],
        grad_in: Option<&mut [f32]>,
        scratch: &mut Vec<f32>,
    ) -> Result<(), NnError> {
        each_variant!(self, l => {
            l.backward_batch_into(input, in_shape, batch, grad_out, grad_in, scratch)
        })
    }

    /// Drops the cached forward input (if any), shrinking resident
    /// memory for eval-only deployments. A later [`Layer::backward`]
    /// without a fresh [`Layer::forward`] then fails.
    pub fn clear_cache(&mut self) {
        each_variant!(self, l => l.cached_input = None)
    }

    /// Back-propagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if no forward pass has
    /// cached an input, or a tensor error on shape mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        each_variant!(self, l => l.backward(grad_out))
    }

    /// Applies accumulated gradients with learning rate `lr` and clears
    /// them.
    pub fn apply_grads(&mut self, lr: f32) {
        match self {
            Layer::Dense(l) => l.apply_grads(lr),
            Layer::Conv(l) => l.apply_grads(lr),
            Layer::Relu(_) => {}
        }
    }

    /// Clears accumulated gradients without applying them.
    pub fn zero_grads(&mut self) {
        match self {
            Layer::Dense(l) => l.zero_grads(),
            Layer::Conv(l) => l.zero_grads(),
            Layer::Relu(_) => {}
        }
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|t| t.len()).sum()
    }

    /// The parameter tensors (weights first, then bias).
    pub fn params(&self) -> Params<&Tensor> {
        match self {
            Layer::Dense(l) => Params(Some(l.params())),
            Layer::Conv(l) => Params(Some(l.params())),
            Layer::Relu(_) => Params(None),
        }
    }

    /// Mutable views of the parameter tensors (weights first, then bias).
    ///
    /// This is the fault-injection surface.
    pub fn params_mut(&mut self) -> Params<&mut Tensor> {
        match self {
            Layer::Dense(l) => Params(Some(l.params_mut())),
            Layer::Conv(l) => Params(Some(l.params_mut())),
            Layer::Relu(_) => Params(None),
        }
    }
}
