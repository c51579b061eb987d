//! Zero-allocation inference and training arena.
//!
//! Campaign throughput is bounded by `Network::forward`, which clones
//! the input, heap-allocates a fresh output tensor per layer and caches
//! a clone of every layer input for a backward pass that eval loops
//! never run. [`BatchInferCtx`] replaces all of that with preallocated
//! scratch planes that layers write into through
//! [`crate::Layer::forward_into`] (one observation) and
//! [`crate::Layer::forward_batch_into`] (a batch); after the first call
//! on a given architecture, inference performs no allocation at all.
//!
//! One private layer walk serves every forward: single-observation
//! inference ([`crate::Network::infer`]) is the walk at batch 1, which
//! dispatches to the per-observation kernels, and the cached training
//! forward ([`crate::Network::forward_batch_cached`]) is the same walk
//! over retained per-layer planes.
//!
//! The fast path is **bit-identical** to `forward`: every kernel in
//! `Dense`/`Conv2d`/`Relu` preserves the exact floating-point
//! accumulation order of the reference implementation, and the batched
//! kernels only share weight loads and vectorize across samples, so
//! every output row matches the slow path to the last ulp
//! (golden-equivalence proptests enforce this).

use crate::{Layer, NnError};

/// Shape of an activation flowing through the fast path.
///
/// Networks in this workspace only ever pass rank-1 (flat) or rank-3
/// (`[c, h, w]`) activations between layers, so the shape is a small
/// copyable value instead of a heap-backed `Shape`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActShape {
    dims: [usize; 3],
    rank: usize,
}

impl ActShape {
    /// A flat (rank-1) activation of `n` elements.
    pub fn flat(n: usize) -> Self {
        ActShape { dims: [n, 1, 1], rank: 1 }
    }

    /// A `[c, h, w]` image activation.
    pub fn image(c: usize, h: usize, w: usize) -> Self {
        ActShape { dims: [c, h, w], rank: 3 }
    }

    /// Builds a shape from tensor dims (rank 1–3).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadDimensions`] for rank 0 or rank > 3.
    pub fn from_dims(dims: &[usize]) -> Result<Self, NnError> {
        match *dims {
            [n] => Ok(ActShape::flat(n)),
            [h, w] => Ok(ActShape { dims: [h, w, 1], rank: 2 }),
            [c, h, w] => Ok(ActShape::image(c, h, w)),
            _ => Err(NnError::BadDimensions {
                detail: format!("inference path supports rank 1-3 activations, got {dims:?}"),
            }),
        }
    }

    /// The shape as a dim slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Number of elements.
    pub fn volume(&self) -> usize {
        self.dims().iter().product()
    }
}

/// Alias of [`BatchInferCtx`], kept only because the `perfbench`
/// harness names it (`TimedLearner::act_greedy_ctx`, `time_infer`).
pub type InferCtx = BatchInferCtx;

/// The activation-fault hook of a single-observation walk: called with
/// every freshly produced activation row, in layer order.
pub(crate) type ActivationHook<'a> = &'a mut dyn FnMut(&mut [f32]);

/// Which planes a forward walk reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arena {
    /// Inference: two ping-pong planes; the training cache is untouched.
    Eval,
    /// Training: one retained plane per layer input, for
    /// [`BatchInferCtx::run_backward`].
    Train,
}

/// Reusable inference and training scratch arena.
///
/// Internally activations flow **batch-minor** (feature-major): element
/// `j` of sample `b` lives at index `j * batch + b`, so every batched
/// kernel's innermost loop runs over contiguous, independent per-sample
/// accumulators and vectorizes across the batch axis while each
/// sample's floating-point accumulation order stays exactly that of the
/// single-observation reference kernels. Callers see only the natural
/// sample-major layout: inputs are `batch` concatenated observation
/// rows, and the returned activation is `batch` concatenated output
/// rows. A batch of one is a single observation
/// ([`crate::Network::infer`]): both layouts coincide and the
/// per-observation kernels run.
///
/// One ctx serves any number of networks, input shapes and batch sizes
/// (including ragged final batches) — buffers grow to the high-water
/// mark and are then reused allocation-free. The campaign runner keeps
/// one per worker thread.
///
/// ```
/// use frlfi_nn::{BatchInferCtx, NetworkBuilder};
/// use frlfi_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new(4).dense(8).relu().dense(2).build(&mut rng)?;
/// let mut ctx = BatchInferCtx::new();
/// let batch = vec![0.5f32; 3 * 4]; // three observations of 4 features
/// let out = net.infer_batch(&batch, &frlfi_nn::ActShape::flat(4), 3, &mut ctx)?;
/// assert_eq!(out.len(), 3 * 2);
/// let x = Tensor::from_vec(vec![4], vec![1.0, 0.0, -1.0, 0.5])?;
/// assert_eq!(net.infer(&x, &mut ctx)?.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct BatchInferCtx {
    /// Ping-pong batch-minor activation planes of the eval walk.
    bufs: [Vec<f32>; 2],
    /// Transposed input on entry to a batched eval walk; gathered
    /// sample-major output on exit of every walk but a single-observation
    /// eval, which needs no transposes.
    staging: Vec<f32>,
    /// Per-layer batch-minor activation planes retained by the training
    /// walk: `acts[l]` holds the input layer `l` consumed — exactly what
    /// its [`Layer::backward_batch_into`] needs — and
    /// `acts[layers.len()]` the final output. Eval walks never write
    /// `acts`, `act_shapes` or `cached_batch`, so inference can
    /// interleave with a pending backward.
    acts: Vec<Vec<f32>>,
    /// Per-layer activation shapes matching `acts` (`act_shapes[l]` is
    /// layer `l`'s input shape; the last entry the output shape).
    act_shapes: Vec<ActShape>,
    /// Batch size of the cached training forward; 0 = nothing cached.
    cached_batch: usize,
    /// Layer backward scratch (Conv2d's zero-padded gradient plane),
    /// one per ctx rather than per layer: the ctx is per worker, while
    /// layers multiply by agents × conv layers.
    bwd_scratch: Vec<f32>,
}

/// Grows `v` to at least `n` elements.
fn grow(v: &mut Vec<f32>, n: usize) {
    if v.len() < n {
        v.resize(n, 0.0);
    }
}

/// Transposes `batch` sample-major rows of `vol` elements into the
/// batch-minor plane `dst` (element `j` of sample `b` at
/// `j * batch + b`). For one sample the layouts coincide.
fn to_batch_minor(rows: &[f32], vol: usize, batch: usize, dst: &mut Vec<f32>) {
    grow(dst, vol * batch);
    if batch == 1 {
        dst[..vol].copy_from_slice(rows);
        return;
    }
    for (b, sample) in rows.chunks_exact(vol).enumerate() {
        for (j, &v) in sample.iter().enumerate() {
            dst[j * batch + b] = v;
        }
    }
}

/// Inverse of [`to_batch_minor`]: gathers the batch-minor plane into
/// `batch` sample-major rows of `vol` elements in `dst`.
fn to_sample_major(plane: &[f32], vol: usize, batch: usize, dst: &mut Vec<f32>) {
    grow(dst, vol * batch);
    if batch == 1 {
        dst[..vol].copy_from_slice(&plane[..vol]);
        return;
    }
    for (b, row) in dst[..vol * batch].chunks_exact_mut(vol).enumerate() {
        for (j, r) in row.iter_mut().enumerate() {
            *r = plane[j * batch + b];
        }
    }
}

impl BatchInferCtx {
    /// An empty context; buffers are sized on first use.
    pub fn new() -> Self {
        BatchInferCtx::default()
    }

    /// A context preallocated for activations up to `max_len`
    /// (`batch × features`) elements, so even the first inference
    /// allocates nothing.
    pub fn with_capacity(max_len: usize) -> Self {
        BatchInferCtx {
            bufs: [vec![0.0; max_len], vec![0.0; max_len]],
            staging: vec![0.0; max_len],
            ..BatchInferCtx::default()
        }
    }

    /// Largest activation (`batch × features` elements) the eval arena
    /// can currently hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.bufs[0].len().min(self.bufs[1].len()).min(self.staging.len())
    }

    /// The input row, its shape and the output row of the last cached
    /// training forward ([`crate::Network::forward_batch_cached`]) when
    /// it ran on a single observation; `None` when nothing is cached or
    /// the cached batch is larger. Eval-only inference through the same
    /// context leaves these rows untouched.
    pub fn cached_row(&self) -> Option<(&[f32], ActShape, &[f32])> {
        if self.cached_batch != 1 {
            return None;
        }
        let last = self.act_shapes.len() - 1;
        let (in_shape, out_shape) = (self.act_shapes[0], self.act_shapes[last]);
        Some((&self.acts[0][..in_shape.volume()], in_shape, &self.acts[last][..out_shape.volume()]))
    }

    /// The plane layer `l` reads and the plane it writes. The eval walk
    /// reads its transposed input from `staging` and then ping-pongs,
    /// layer `l` writing `bufs[l % 2]`; the training walk reads
    /// `acts[l]` and writes `acts[l + 1]`.
    fn planes(&mut self, arena: Arena, l: usize) -> (&[f32], &mut Vec<f32>) {
        match arena {
            Arena::Train => {
                let (head, tail) = self.acts.split_at_mut(l + 1);
                (&head[l], &mut tail[0])
            }
            Arena::Eval if l == 0 => (&self.staging, &mut self.bufs[0]),
            Arena::Eval => {
                let [a, b] = &mut self.bufs;
                if l % 2 == 1 {
                    (a, b)
                } else {
                    (b, a)
                }
            }
        }
    }

    /// The forward walk: runs `layers` over `batch` sample-major
    /// observation rows in `input` through `arena`'s planes and returns
    /// the final activation as `batch` sample-major rows. A batch of one
    /// runs the per-observation [`Layer::forward_into`] kernels, larger
    /// batches [`Layer::forward_batch_into`]. When `visit` is present
    /// (batch 1 only) it is called with every freshly produced
    /// activation row, in layer order — the activation-fault hook
    /// point; mutations propagate to the next layer. A
    /// [`Arena::Train`] walk retains every layer's input for
    /// [`BatchInferCtx::run_backward`]; an [`Arena::Eval`] walk leaves
    /// that cache as it was.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors; rejects `batch == 0`, input
    /// length mismatches and empty layer stacks.
    pub(crate) fn run<'c>(
        &'c mut self,
        layers: &[Layer],
        input: &[f32],
        input_shape: ActShape,
        batch: usize,
        arena: Arena,
        mut visit: Option<ActivationHook<'_>>,
    ) -> Result<&'c [f32], NnError> {
        debug_assert!(visit.is_none() || batch == 1, "the activation hook runs at batch 1");
        let train = arena == Arena::Train;
        let in_vol = input_shape.volume();
        if batch == 0 || input.len() != batch * in_vol {
            return Err(NnError::BadDimensions {
                detail: format!(
                    "batched {} needs batch >= 1 and input len batch * volume; got batch \
                     {batch}, volume {in_vol}, len {}",
                    if train { "training forward" } else { "inference" },
                    input.len()
                ),
            });
        }
        let n_layers = layers.len();
        if n_layers == 0 {
            return Err(NnError::EmptyNetwork);
        }
        // Dispatch accounting only — one thread-local add each, a
        // single relaxed load when the recorder is disabled. The
        // batch-size histogram shows how much amortization the workload
        // actually gets.
        let (hist, reference, batched) = match arena {
            Arena::Eval => ("nn.batch_size", "nn.dispatch.reference", "nn.dispatch.batched"),
            Arena::Train => {
                ("nn.train.batch_size", "nn.train.dispatch.reference", "nn.train.dispatch.batched")
            }
        };
        frlfi_obs::hist(hist, batch as u64);
        frlfi_obs::count(if batch == 1 { reference } else { batched }, n_layers as u64);
        if train {
            self.cached_batch = 0;
            self.acts.resize(n_layers + 1, Vec::new());
            self.act_shapes.clear();
            self.act_shapes.resize(n_layers + 1, input_shape);
        }
        // One eval observation needs no transposes: both layouts
        // coincide, so layer 0 reads `input` and the caller the last
        // plane. Skipping the two copies matters: per-observation
        // inference is the inner loop of the inference studies.
        let direct = !train && batch == 1;
        if !direct {
            let first = if train { &mut self.acts[0] } else { &mut self.staging };
            to_batch_minor(input, in_vol, batch, first);
        }
        let mut shape = input_shape;
        for (l, layer) in layers.iter().enumerate() {
            let out_shape = layer.out_shape(&shape)?;
            let n = out_shape.volume() * batch;
            let (src, dst) = self.planes(arena, l);
            let src = if direct && l == 0 { input } else { &src[..shape.volume() * batch] };
            grow(dst, n);
            let out = &mut dst[..n];
            if batch == 1 {
                layer.forward_into(src, &shape, out)?;
            } else {
                layer.forward_batch_into(src, &shape, batch, out)?;
            }
            if let Some(visit) = visit.as_deref_mut() {
                visit(out);
            }
            if train {
                self.act_shapes[l + 1] = out_shape;
            }
            shape = out_shape;
        }
        let last = if train { &self.acts[n_layers] } else { &self.bufs[(n_layers - 1) % 2] };
        let vol = shape.volume();
        if direct {
            return Ok(&last[..vol]);
        }
        to_sample_major(last, vol, batch, &mut self.staging);
        if train {
            self.cached_batch = batch;
        }
        Ok(&self.staging[..batch * vol])
    }

    /// Training backward over the activations retained by the last
    /// [`Arena::Train`] walk: `grads` holds `batch` sample-major
    /// output-gradient rows; each layer's
    /// [`Layer::backward_batch_into`] accumulates parameter gradients
    /// (ascending sample order — bitwise what per-sample reference
    /// backward calls leave) and the input gradient ping-pongs through
    /// the scratch buffers down to the first layer, which is asked for
    /// none: the gradient with respect to the network input has no
    /// reader.
    ///
    /// # Errors
    ///
    /// Rejects a `batch`/network mismatch with the cached forward and
    /// gradient length mismatches; propagates layer shape errors.
    pub(crate) fn run_backward(
        &mut self,
        layers: &mut [Layer],
        grads: &[f32],
        batch: usize,
    ) -> Result<(), NnError> {
        let n_layers = layers.len();
        if batch == 0 || batch != self.cached_batch || self.acts.len() != n_layers + 1 {
            return Err(NnError::BadDimensions {
                detail: format!(
                    "batched backward without a matching cached forward: cached batch {} over \
                     {} layers, got batch {batch} over {n_layers} layers",
                    self.cached_batch,
                    self.acts.len().saturating_sub(1),
                ),
            });
        }
        let out_vol = self.act_shapes[n_layers].volume();
        if grads.len() != out_vol * batch {
            return Err(NnError::BadDimensions {
                detail: format!(
                    "batched backward needs grads len batch * out volume; got batch {batch}, \
                     volume {out_vol}, len {}",
                    grads.len()
                ),
            });
        }
        to_batch_minor(grads, out_vol, batch, &mut self.bufs[0]);
        let mut cur = 0;
        for l in (0..n_layers).rev() {
            let in_vol = self.act_shapes[l].volume();
            let g_out_n = self.act_shapes[l + 1].volume() * batch;
            let dst = 1 - cur;
            if l > 0 {
                grow(&mut self.bufs[dst], in_vol * batch);
            }
            let [a, b] = &mut self.bufs;
            let (g_out, g_in) = if cur == 0 { (&a[..g_out_n], b) } else { (&b[..g_out_n], a) };
            layers[l].backward_batch_into(
                &self.acts[l][..in_vol * batch],
                &self.act_shapes[l],
                batch,
                g_out,
                (l > 0).then(|| &mut g_in[..in_vol * batch]),
                &mut self.bwd_scratch,
            )?;
            cur = dst;
        }
        Ok(())
    }
}
