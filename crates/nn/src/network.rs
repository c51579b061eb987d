use crate::infer::Arena;
use crate::{ActShape, BatchInferCtx, Conv2d, Dense, Layer, NnError, ParamSpan, Relu, TapeId};
use frlfi_tensor::{Summary, Tensor};
use rand::Rng;

/// An owned stack of layers forming a policy network.
///
/// `Network` is the unit that federated agents train, the server
/// aggregates, the checkpointing scheme snapshots, and the fault injector
/// corrupts. Its parameters are one flat *plane*: every trainable scalar
/// in layer order, each layer's weights before its bias, addressable by
/// a single flat index ([`Network::params`], [`Network::params_mut`],
/// [`Network::param_spans`]). The layers hold only their shapes and
/// their offsets into it, and their gradients accumulate into a second
/// plane of the same layout.
///
/// ```
/// use frlfi_nn::NetworkBuilder;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = NetworkBuilder::new(4).dense(8).relu().dense(4).build(&mut rng)?;
/// assert_eq!(net.params().len(), net.param_count());
/// net.params_mut()[0] = 0.5; // the first weight of `dense0`
/// assert_eq!(net.snapshot()[0], 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Network {
    layers: Vec<Layer>,
    /// The parameter plane: every layer's weights, then its bias, in
    /// layer order.
    params: Vec<f32>,
    /// The accumulated gradients, laid out as `params`.
    grads: Vec<f32>,
    /// Each parameterized layer's span of the planes.
    spans: Vec<ParamSpan>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("layers", &self.layers.iter().map(|l| l.name().to_owned()).collect::<Vec<_>>())
            .field("param_count", &self.param_count())
            .finish()
    }
}

impl Network {
    /// Number of layers (including parameter-free activations).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Runs the network forward.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&self.params, &x)?;
        }
        Ok(x)
    }

    /// Runs the network forward on the zero-allocation inference fast
    /// path: [`Network::infer_batch`] at batch 1, on `ctx`'s eval
    /// planes. No layer caches
    /// its input (so no subsequent [`Network::backward`] is possible
    /// from this call), a pending [`Network::forward_batch_cached`] on
    /// `ctx` stays intact, and outputs are **bit-identical** to
    /// [`Network::forward`].
    ///
    /// The returned slice borrows from `ctx` and is valid until the
    /// next inference through the same context.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn infer<'c>(
        &self,
        input: &Tensor,
        ctx: &'c mut BatchInferCtx,
    ) -> Result<&'c [f32], NnError> {
        let shape = ActShape::from_dims(input.shape().dims())?;
        ctx.run(&self.layers, &self.params, input.data(), shape, 1, Arena::Eval)
    }

    /// Runs the network forward over a whole **batch** of observations
    /// at once on the zero-allocation batched fast path. `inputs` holds
    /// `batch` concatenated sample-major observation rows (each of
    /// `in_shape.volume()` elements); the returned slice holds `batch`
    /// concatenated output rows and borrows from `ctx` until the next
    /// inference through it.
    ///
    /// Each output row is **bit-identical** to [`Network::infer`] on
    /// that observation alone — the batched kernels only reorder work
    /// across samples and output elements, never any single element's
    /// accumulation — so batched campaign evaluation produces
    /// exactly the per-observation statistics.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors; rejects `batch == 0` and input
    /// length mismatches.
    pub fn infer_batch<'c>(
        &self,
        inputs: &[f32],
        in_shape: &ActShape,
        batch: usize,
        ctx: &'c mut BatchInferCtx,
    ) -> Result<&'c [f32], NnError> {
        ctx.run(&self.layers, &self.params, inputs, *in_shape, batch, Arena::Eval)
    }

    /// Training forward over a whole **batch** of observations: like
    /// [`Network::infer_batch`], but every layer's batched input is
    /// retained in `ctx`'s per-layer arenas so a following
    /// [`Network::backward_batch`] can run the batched backward kernels
    /// without re-executing the forward. Output rows are
    /// **bit-identical** to [`Network::infer`] (and so to
    /// [`Network::forward`]) on each observation alone; a batch of one
    /// routes through the reference kernels. Does not touch the layers'
    /// own cached-input tensors, so the sequential training path is
    /// unaffected.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors; rejects `batch == 0` and input
    /// length mismatches.
    pub fn forward_batch_cached<'c>(
        &self,
        inputs: &[f32],
        in_shape: &ActShape,
        batch: usize,
        ctx: &'c mut BatchInferCtx,
    ) -> Result<&'c [f32], NnError> {
        ctx.run(&self.layers, &self.params, inputs, *in_shape, batch, Arena::Train)
    }

    /// Training forward of one observation that also appends, as one
    /// row of `ctx`'s open tape `tape`, every plane a backward reads
    /// ([`BatchInferCtx::begin_tape`]). The output is bit-identical to
    /// [`Network::infer`], and `ctx` is left holding a batch-1 cached
    /// forward, as [`Network::forward_batch_cached`] leaves it.
    ///
    /// A row costs every activation plane the backward reads except the
    /// observation and the first layer's output: 1289 floats (5.0 KiB)
    /// for the DroneNav policy.
    ///
    /// # Errors
    ///
    /// [`NnError::StaleTape`] when `ctx` no longer holds `tape`;
    /// otherwise as for [`Network::forward_batch_cached`]. A rejected
    /// forward appends no row.
    pub fn forward_taped<'c>(
        &self,
        input: &[f32],
        in_shape: &ActShape,
        tape: TapeId,
        ctx: &'c mut BatchInferCtx,
    ) -> Result<&'c [f32], NnError> {
        if ctx.tape_len(tape).is_none() {
            return Err(NnError::StaleTape);
        }
        ctx.run(&self.layers, &self.params, input, *in_shape, 1, Arena::Tape)
    }

    /// Loads rows `rows` of `ctx`'s tape `tape` as the cached forward of
    /// a batch of `rows.len()` observations, in that order, and returns
    /// its output rows: what [`Network::forward_batch_cached`] over
    /// `inputs` would return and retain, bit for bit, so a
    /// [`Network::backward_batch`] can follow. `inputs` holds the rows'
    /// observations, sample-major, since the tape keeps none; only the
    /// first layer runs again on them (with the ReLUs on its output).
    /// Valid only while this network's weights are the ones that taped
    /// the rows, and `inputs` the observations they were taped on: the
    /// tape cannot tell.
    ///
    /// # Errors
    ///
    /// [`NnError::StaleTape`] when `ctx` no longer holds `tape`, a row
    /// was never taped, `rows` is empty, or this network's layers are
    /// not those that taped the rows; [`NnError::BadDimensions`] when
    /// `inputs` is not `rows.len()` observations of the taped shape.
    pub fn load_tape<'c>(
        &self,
        tape: TapeId,
        rows: &[usize],
        inputs: &[f32],
        ctx: &'c mut BatchInferCtx,
    ) -> Result<&'c [f32], NnError> {
        ctx.load_tape(&self.layers, &self.params, tape, rows, inputs)
    }

    /// Batched training backward over the activations retained by the
    /// last [`Network::forward_batch_cached`] or [`Network::load_tape`]
    /// on `ctx`: `grads` holds `batch` concatenated sample-major
    /// output-gradient rows, and every layer accumulates its parameter
    /// gradients for the whole batch.
    ///
    /// Bitwise contract: with the same weights, the gradients (and thus
    /// the weights after [`Network::apply_grads`]) are identical to
    /// running the sequential reference — [`Network::forward`] then
    /// [`Network::backward`] per sample, sample 0 first — because every
    /// batched kernel accumulates each gradient element's contributions
    /// in ascending sample order with the reference per-sample
    /// accumulation order inside (see [`Layer::backward_batch_into`]).
    /// The one exception is NaN payloads: when a layer holds a
    /// non-finite weight, a value that is NaN on one path is NaN on the
    /// other, but its payload bits may differ. The first layer's input
    /// gradient is never computed.
    ///
    /// # Errors
    ///
    /// Rejects a batch/network mismatch with the cached forward and
    /// gradient length mismatches; propagates layer shape errors.
    pub fn backward_batch(
        &mut self,
        grads: &[f32],
        batch: usize,
        ctx: &mut BatchInferCtx,
    ) -> Result<(), NnError> {
        ctx.run_backward(&mut self.layers, (&self.params, &mut self.grads), grads, batch)
    }

    /// Output shape of the network for one input of `in_shape` — a
    /// shape-only walk over the layers, no arithmetic.
    ///
    /// # Errors
    ///
    /// Returns the first layer shape error.
    pub fn out_shape(&self, in_shape: &ActShape) -> Result<ActShape, NnError> {
        self.layers.iter().try_fold(*in_shape, |shape, layer| layer.out_shape(&shape))
    }

    /// Drops every layer's cached forward input, shrinking resident
    /// memory in eval-only deployments (campaign eval loops never call
    /// backward). Training transparently re-caches on the next
    /// [`Network::forward`].
    pub fn eval_mode(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    /// Back-propagates a gradient of the loss with respect to the output,
    /// accumulating parameter gradients in every layer.
    ///
    /// # Errors
    ///
    /// Returns an error if `forward` has not run or shapes mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward((&self.params, &mut self.grads), &g)?;
        }
        Ok(g)
    }

    /// Applies all accumulated gradients with learning rate `lr`
    /// (`p += -lr · g`, element by element, as `Tensor::axpy` does) and
    /// clears them.
    pub fn apply_grads(&mut self, lr: f32) {
        for (p, g) in self.params.iter_mut().zip(&mut self.grads) {
            *p += -lr * *g;
            *g = 0.0;
        }
    }

    /// Clears accumulated gradients without applying them.
    pub fn zero_grads(&mut self) {
        self.grads.fill(0.0);
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The parameter plane (layer order, weights before biases): the
    /// payload agents send to the server, the state the checkpointing
    /// scheme saves and the fault injector's surface.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// The parameter plane, writable in place.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Copies the parameter plane into a new vector.
    pub fn snapshot(&self) -> Vec<f32> {
        self.params.to_vec()
    }

    /// Overwrites the parameter plane with `snapshot`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SnapshotLengthMismatch`] if the length differs
    /// from [`Network::param_count`].
    pub fn restore(&mut self, snapshot: &[f32]) -> Result<(), NnError> {
        if snapshot.len() != self.param_count() {
            return Err(NnError::SnapshotLengthMismatch {
                expected: self.param_count(),
                actual: snapshot.len(),
            });
        }
        self.params.copy_from_slice(snapshot);
        Ok(())
    }

    /// Where each parameterized layer's scalars live in the plane.
    pub fn param_spans(&self) -> &[ParamSpan] {
        &self.spans
    }

    /// Per-layer `(min, max)` weight ranges, the statistic tallied by the
    /// range-based anomaly detector before deployment (§V-B).
    pub fn layer_ranges(&self) -> Vec<(ParamSpan, Summary)> {
        self.spans
            .iter()
            .map(|span| (span.clone(), Summary::of(&self.params[span.range()])))
            .collect()
    }
}

/// Builder for sequential policy networks.
///
/// Tracks the running output shape so conv layers can be stacked without
/// manual dimension bookkeeping. See [`Network`] for an end-to-end
/// example.
#[derive(Debug)]
pub struct NetworkBuilder {
    // Running activation shape: either flat (dense) or [c, h, w] (conv).
    cur_shape: Vec<usize>,
    specs: Vec<LayerSpec>,
    error: Option<NnError>,
}

#[derive(Debug)]
enum LayerSpec {
    Dense { in_dim: usize, out_dim: usize },
    Conv { in_c: usize, out_c: usize, k: usize },
    Relu,
}

impl NetworkBuilder {
    /// Starts a builder for networks taking a flat input of `input_dim`.
    pub fn new(input_dim: usize) -> Self {
        NetworkBuilder { cur_shape: vec![input_dim], specs: Vec::new(), error: None }
    }

    /// Starts a builder for networks taking a `[c, h, w]` image input.
    pub fn new_image(c: usize, h: usize, w: usize) -> Self {
        NetworkBuilder { cur_shape: vec![c, h, w], specs: Vec::new(), error: None }
    }

    /// Appends a dense layer producing `out_dim` features; any current
    /// shape flattens implicitly.
    pub fn dense(mut self, out_dim: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        let in_dim: usize = self.cur_shape.iter().product();
        self.specs.push(LayerSpec::Dense { in_dim, out_dim });
        self.cur_shape = vec![out_dim];
        self
    }

    /// Appends a stride-1 valid conv layer with `out_c` channels and a
    /// `k × k` kernel. Requires the current shape to be `[c, h, w]` with
    /// `h, w ≥ k`; otherwise the eventual [`NetworkBuilder::build`] fails.
    pub fn conv(mut self, out_c: usize, k: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.cur_shape.as_slice() {
            &[c, h, w] if h >= k && w >= k => {
                self.specs.push(LayerSpec::Conv { in_c: c, out_c, k });
                self.cur_shape = vec![out_c, h - k + 1, w - k + 1];
            }
            other => {
                self.error = Some(NnError::BadDimensions {
                    detail: format!("conv({out_c}, {k}) cannot follow shape {other:?}"),
                });
            }
        }
        self
    }

    /// Appends a ReLU activation.
    pub fn relu(mut self) -> Self {
        if self.error.is_none() {
            self.specs.push(LayerSpec::Relu);
        }
        self
    }

    /// Materializes the network with seeded random initialization. This
    /// is where the parameter layout is decided: each layer, in order,
    /// appends its He-uniform weights (drawn in that order from `rng`)
    /// and then its zero bias to the plane.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] for an empty stack or
    /// [`NnError::BadDimensions`] if a conv stage was inconsistent.
    pub fn build<R: Rng>(self, rng: &mut R) -> Result<Network, NnError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.specs.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let mut layers = Vec::with_capacity(self.specs.len());
        let mut params = Vec::new();
        let mut dense_idx = 0;
        let mut conv_idx = 0;
        let mut relu_idx = 0;
        for spec in &self.specs {
            match *spec {
                LayerSpec::Dense { in_dim, out_dim } => {
                    let name = format!("dense{dense_idx}");
                    layers.push(Layer::Dense(Dense::new(name, in_dim, out_dim, &mut params, rng)));
                    dense_idx += 1;
                }
                LayerSpec::Conv { in_c, out_c, k } => {
                    let name = format!("conv{conv_idx}");
                    layers.push(Layer::Conv(Conv2d::new(name, in_c, out_c, k, &mut params, rng)));
                    conv_idx += 1;
                }
                LayerSpec::Relu => {
                    layers.push(Layer::Relu(Relu::new(format!("relu{relu_idx}"))));
                    relu_idx += 1;
                }
            }
        }
        let spans = layers.iter().filter_map(Layer::span).collect();
        let grads = vec![0.0; params.len()];
        Ok(Network { layers, params, grads, spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp() -> Network {
        let mut rng = StdRng::seed_from_u64(42);
        NetworkBuilder::new(4).dense(8).relu().dense(4).build(&mut rng).unwrap()
    }

    #[test]
    fn builder_rejects_empty() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(NetworkBuilder::new(4).build(&mut rng), Err(NnError::EmptyNetwork)));
    }

    #[test]
    fn builder_rejects_conv_on_flat() {
        let mut rng = StdRng::seed_from_u64(0);
        let r = NetworkBuilder::new(4).conv(8, 3).build(&mut rng);
        assert!(matches!(r, Err(NnError::BadDimensions { .. })));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let net = mlp();
        let snap = net.snapshot();
        assert_eq!(snap.len(), net.param_count());
        let mut other = mlp();
        other.restore(&snap).unwrap();
        assert_eq!(other.snapshot(), snap);
    }

    #[test]
    fn restore_rejects_wrong_length() {
        let mut net = mlp();
        assert!(matches!(net.restore(&[0.0; 3]), Err(NnError::SnapshotLengthMismatch { .. })));
    }

    #[test]
    fn spans_cover_all_params() {
        let net = mlp();
        let spans = net.param_spans();
        assert_eq!(spans.len(), 2);
        let total: usize = spans.iter().map(|s| s.len).sum();
        assert_eq!(total, net.param_count());
        assert_eq!(spans[0].start, 0);
        assert_eq!(spans[1].start, spans[0].len);
    }

    #[test]
    fn param_mutation_changes_forward() {
        let mut net = mlp();
        let x = Tensor::from_vec(vec![4], vec![1.0, -1.0, 0.5, 0.0]).unwrap();
        let before = net.forward(&x).unwrap();
        net.params_mut().iter_mut().for_each(|v| *v += 10.0);
        let after = net.forward(&x).unwrap();
        assert_ne!(before.data(), after.data());
    }

    #[test]
    fn apply_grads_descends_and_clears() {
        let mut net = mlp();
        let x = Tensor::from_vec(vec![4], vec![1.0, -1.0, 0.5, 0.25]).unwrap();
        net.forward(&x).unwrap();
        net.backward(&Tensor::full(vec![4], 1.0)).unwrap();
        let (before, grads) = (net.snapshot(), net.grads.clone());
        net.apply_grads(0.1);
        for ((&p, &b), &g) in net.params().iter().zip(&before).zip(&grads) {
            assert_eq!(p.to_bits(), (b + -0.1 * g).to_bits());
        }
        assert!(net.grads.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn conv_dense_stack_runs_end_to_end() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = NetworkBuilder::new_image(1, 9, 16)
            .conv(4, 3)
            .relu()
            .conv(6, 3)
            .relu()
            .conv(8, 3)
            .relu()
            .dense(32)
            .relu()
            .dense(25)
            .build(&mut rng)
            .unwrap();
        let x = Tensor::zeros(vec![1, 9, 16]);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.len(), 25);
        // And backward runs through the whole stack.
        net.backward(&Tensor::full(vec![25], 1.0)).unwrap();
        net.apply_grads(0.01);
    }

    #[test]
    fn training_reduces_simple_loss() {
        // Regression: fit y = [1, -1] from a fixed input.
        let mut net = mlp();
        let x = Tensor::from_vec(vec![4], vec![0.2, -0.4, 1.0, 0.3]).unwrap();
        let target = [1.0f32, -1.0, 0.0, 0.5];
        let loss = |net: &mut Network| -> f32 {
            let y = net.forward(&x).unwrap();
            y.data().iter().zip(target.iter()).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
        };
        let initial = loss(&mut net);
        for _ in 0..200 {
            let y = net.forward(&x).unwrap();
            let grad: Vec<f32> =
                y.data().iter().zip(target.iter()).map(|(a, b)| 2.0 * (a - b)).collect();
            net.backward(&Tensor::from_vec(vec![4], grad).unwrap()).unwrap();
            net.apply_grads(0.02);
        }
        let fin = loss(&mut net);
        assert!(fin < initial * 0.1, "loss {initial} -> {fin} did not drop");
    }

    #[test]
    fn layer_ranges_match_snapshot() {
        let net = mlp();
        let snap = net.snapshot();
        for (span, summary) in net.layer_ranges() {
            let slice = &snap[span.range()];
            let lo = slice.iter().cloned().fold(f32::INFINITY, f32::min);
            assert_eq!(summary.min, lo);
        }
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut net = mlp();
        let mut ctx = BatchInferCtx::new();
        let x = Tensor::from_vec(vec![4], vec![1.0, -1.0, 0.5, 0.25]).unwrap();
        let slow = net.forward(&x).unwrap();
        let fast = net.infer(&x, &mut ctx).unwrap();
        assert_eq!(slow.data(), fast);
        // Conv stack too.
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = NetworkBuilder::new_image(2, 8, 9)
            .conv(3, 3)
            .relu()
            .conv(4, 2)
            .relu()
            .dense(10)
            .build(&mut rng)
            .unwrap();
        let x = Tensor::random(vec![2, 8, 9], frlfi_tensor::Init::Uniform(-1.0, 1.0), &mut rng);
        let slow = net.forward(&x).unwrap();
        let fast = net.infer(&x, &mut ctx).unwrap();
        assert_eq!(slow.data(), fast);
    }

    #[test]
    fn infer_performs_no_allocation_after_warmup() {
        let net = mlp();
        let x = Tensor::zeros(vec![4]);
        let mut ctx = BatchInferCtx::new();
        net.infer(&x, &mut ctx).unwrap();
        let cap = ctx.capacity();
        for _ in 0..10 {
            net.infer(&x, &mut ctx).unwrap();
        }
        assert_eq!(ctx.capacity(), cap, "warm ctx must not grow");
    }

    #[test]
    fn infer_batch_rows_match_single_inference_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let net = NetworkBuilder::new_image(1, 9, 16)
            .conv(4, 3)
            .relu()
            .conv(6, 2)
            .relu()
            .dense(10)
            .relu()
            .dense(5)
            .build(&mut rng)
            .unwrap();
        let mut ctx = BatchInferCtx::new();
        let mut bctx = BatchInferCtx::new();
        for batch in [1usize, 2, 3, 16, 17] {
            let obs: Vec<Tensor> = (0..batch)
                .map(|_| {
                    Tensor::random(vec![1, 9, 16], frlfi_tensor::Init::Uniform(-1.5, 1.5), &mut rng)
                })
                .collect();
            let flat: Vec<f32> = obs.iter().flat_map(|t| t.data().iter().copied()).collect();
            let out = net.infer_batch(&flat, &ActShape::image(1, 9, 16), batch, &mut bctx).unwrap();
            assert_eq!(out.len(), batch * 5);
            for (b, o) in obs.iter().enumerate() {
                let single = net.infer(o, &mut ctx).unwrap();
                assert_eq!(&out[b * 5..(b + 1) * 5], single, "row {b} of batch {batch}");
            }
        }
    }

    #[test]
    fn infer_batch_performs_no_allocation_after_warmup() {
        let net = mlp();
        let flat = vec![0.25f32; 8 * 4];
        let mut ctx = BatchInferCtx::new();
        net.infer_batch(&flat, &ActShape::flat(4), 8, &mut ctx).unwrap();
        let cap = ctx.capacity();
        for batch in [8usize, 3, 1, 8] {
            net.infer_batch(&flat[..batch * 4], &ActShape::flat(4), batch, &mut ctx).unwrap();
        }
        assert_eq!(ctx.capacity(), cap, "warm batch ctx must not grow");
    }

    #[test]
    fn infer_batch_rejects_bad_batches() {
        let net = mlp();
        let mut ctx = BatchInferCtx::new();
        let flat = vec![0.0f32; 8];
        assert!(net.infer_batch(&flat, &ActShape::flat(4), 0, &mut ctx).is_err());
        assert!(net.infer_batch(&flat, &ActShape::flat(4), 3, &mut ctx).is_err());
        assert!(net.infer_batch(&flat, &ActShape::flat(8), 1, &mut ctx).is_err());
    }

    #[test]
    fn eval_mode_drops_caches_and_blocks_backward() {
        let mut net = mlp();
        let x = Tensor::zeros(vec![4]);
        net.forward(&x).unwrap();
        net.eval_mode();
        assert!(matches!(
            net.backward(&Tensor::zeros(vec![4])),
            Err(NnError::BackwardBeforeForward { .. })
        ));
        // Training re-caches transparently.
        net.forward(&x).unwrap();
        net.backward(&Tensor::zeros(vec![4])).unwrap();
    }

    #[test]
    fn infer_propagates_shape_errors() {
        let net = mlp();
        let mut ctx = BatchInferCtx::new();
        assert!(net.infer(&Tensor::zeros(vec![5]), &mut ctx).is_err());
    }

    #[test]
    fn clone_is_independent() {
        let mut net = mlp();
        let clone = net.clone();
        net.params_mut().fill(99.0);
        assert_ne!(clone.snapshot()[0], 99.0);
    }
}
