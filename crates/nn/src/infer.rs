//! Zero-allocation inference fast path.
//!
//! Campaign throughput is bounded by `Network::forward`, which clones
//! the input, heap-allocates a fresh output tensor per layer and caches
//! a clone of every layer input for a backward pass that eval loops
//! never run. [`InferCtx`] replaces all of that with two preallocated
//! ping-pong scratch buffers that layers write into through
//! [`crate::Layer::forward_into`]; after the first call on a given
//! architecture, inference performs no allocation at all.
//!
//! The fast path is **bit-identical** to `forward`: every kernel in
//! `Dense`/`Conv2d`/`Relu` preserves the exact floating-point
//! accumulation order of the reference implementation, so campaign
//! statistics computed through [`crate::Network::infer`] match the slow
//! path to the last ulp (golden-equivalence proptests enforce this).
//!
//! [`BatchInferCtx`] adds a batch axis on top: campaign cells repeat
//! the same policy over many trials, so one kernel invocation can
//! serve a whole batch of observations, amortizing every weight load
//! across the batch and vectorizing across independent per-sample
//! accumulators (see [`crate::Layer::forward_batch_into`]). Each
//! output row stays bit-identical to single-observation inference.

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

/// Reusable inference scratch arena: two ping-pong activation buffers.
///
/// One ctx serves any number of networks and input shapes — buffers
/// grow to the high-water mark and are then reused allocation-free.
/// The campaign runner keeps one per worker thread; the episode runner
/// reuses one across all steps of a greedy episode.
///
/// ```
/// use frlfi_nn::{InferCtx, NetworkBuilder};
/// use rand::{rngs::StdRng, SeedableRng};
/// use frlfi_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new(4).dense(8).relu().dense(2).build(&mut rng)?;
/// let mut ctx = InferCtx::new();
/// let x = Tensor::from_vec(vec![4], vec![1.0, 0.0, -1.0, 0.5])?;
/// let out = net.infer(&x, &mut ctx)?;
/// assert_eq!(out.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct InferCtx {
    bufs: [Vec<f32>; 2],
}

impl InferCtx {
    /// An empty context; buffers are sized on first use.
    pub fn new() -> Self {
        InferCtx::default()
    }

    /// A context preallocated for activations up to `max_len` elements,
    /// so even the first inference allocates nothing.
    pub fn with_capacity(max_len: usize) -> Self {
        InferCtx { bufs: [vec![0.0; max_len], vec![0.0; max_len]] }
    }

    /// Largest activation either buffer can currently hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.bufs[0].len().min(self.bufs[1].len())
    }

    /// Runs `layers` over `input`, writing each layer's output into the
    /// scratch buffers and calling `visit` on every freshly produced
    /// activation (the activation-fault hook point). Returns the final
    /// activation slice and its shape.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub(crate) fn run<'c>(
        &'c mut self,
        layers: &[Box<dyn crate::Layer>],
        input: &[f32],
        input_shape: ActShape,
        mut visit: impl FnMut(&mut [f32]),
    ) -> Result<(&'c [f32], ActShape), NnError> {
        // Dispatch accounting only — one thread-local add per forward,
        // a single relaxed load when the recorder is disabled. Nothing
        // here touches the activations.
        frlfi_obs::count("nn.dispatch.reference", layers.len() as u64);
        let mut shape = input_shape;
        // Which scratch buffer holds the current activation; the input
        // itself backs the first layer's read.
        let mut cur: Option<usize> = None;
        for layer in layers {
            let out_shape = layer.out_shape(&shape)?;
            let n = out_shape.volume();
            let dst = match cur {
                None => 0,
                Some(c) => 1 - c,
            };
            if self.bufs[dst].len() < n {
                self.bufs[dst].resize(n, 0.0);
            }
            let (a, b) = self.bufs.split_at_mut(1);
            let (src, out): (&[f32], &mut [f32]) = match cur {
                None => (input, &mut a[0][..n]),
                Some(0) => (&a[0][..shape.volume()], &mut b[0][..n]),
                Some(_) => (&b[0][..shape.volume()], &mut a[0][..n]),
            };
            layer.forward_into(src, &shape, out)?;
            visit(out);
            cur = Some(dst);
            shape = out_shape;
        }
        let idx = cur.ok_or(NnError::EmptyNetwork)?;
        Ok((&self.bufs[idx][..shape.volume()], shape))
    }
}

/// Per-sample activation hook of the batched fault path: called with
/// `(sample_index, activation_row)` for every freshly produced layer
/// output row.
pub(crate) type SampleVisitor<'a> = &'a mut dyn FnMut(usize, &mut [f32]);

/// Reusable *batched* inference scratch arena: two ping-pong activation
/// buffers sized `batch × features`, plus staging buffers for the
/// sample-major ↔ batch-minor transposes at the edges.
///
/// Internally activations flow **batch-minor** (feature-major): element
/// `j` of sample `b` lives at index `j * batch + b`, so every kernel's
/// innermost loop runs over contiguous, independent per-sample
/// accumulators and vectorizes across the batch axis while each
/// sample's floating-point accumulation order stays exactly that of the
/// single-observation reference kernels. Callers see only the natural
/// sample-major layout: inputs are `batch` concatenated observation
/// rows, and the returned activation is `batch` concatenated output
/// rows.
///
/// One ctx serves any number of networks, input shapes and batch sizes
/// (including ragged final batches) — buffers grow to the high-water
/// mark and are then reused allocation-free.
///
/// ```
/// use frlfi_nn::{BatchInferCtx, NetworkBuilder};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new(4).dense(8).relu().dense(2).build(&mut rng)?;
/// let mut ctx = BatchInferCtx::new();
/// let batch = vec![0.5f32; 3 * 4]; // three observations of 4 features
/// let out = net.infer_batch(&batch, &frlfi_nn::ActShape::flat(4), 3, &mut ctx)?;
/// assert_eq!(out.len(), 3 * 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct BatchInferCtx {
    /// Ping-pong batch-minor activation arenas.
    bufs: [Vec<f32>; 2],
    /// Transposed input on entry; gathered sample-major output on exit.
    staging: Vec<f32>,
    /// One sample's activation row, for the activation-fault hook.
    row: Vec<f32>,
    /// Per-layer batch-minor activation arenas retained by the batched
    /// *training* forward ([`BatchInferCtx::run_cached`]): `acts[l]`
    /// holds the input layer `l` consumed — exactly what its
    /// [`Layer::backward_batch_into`] needs — and `acts[layers.len()]`
    /// the final output. Untouched by eval-only [`BatchInferCtx::run`]
    /// calls, so inference can interleave with a pending backward.
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

impl BatchInferCtx {
    /// An empty context; buffers are sized on first use.
    pub fn new() -> Self {
        BatchInferCtx::default()
    }

    /// A context preallocated for batched activations up to `max_len`
    /// (`batch × features`) elements, so even the first inference
    /// allocates nothing beyond the per-sample fault-hook row.
    pub fn with_capacity(max_len: usize) -> Self {
        BatchInferCtx {
            bufs: [vec![0.0; max_len], vec![0.0; max_len]],
            staging: vec![0.0; max_len],
            row: Vec::new(),
            acts: Vec::new(),
            act_shapes: Vec::new(),
            cached_batch: 0,
            bwd_scratch: Vec::new(),
        }
    }

    /// Largest batched activation (`batch × features` elements) the
    /// arena can currently hold without reallocating.
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

    /// Runs `layers` over `batch` sample-major observation rows in
    /// `input`, ping-ponging batch-minor activations through the
    /// scratch arena. When `visit` is present it is called once per
    /// `(layer, sample)` — samples in order within each layer — with
    /// the sample's freshly produced activation row (the activation
    /// -fault hook point); mutations propagate to the next layer.
    /// Returns the final activation as `batch` sample-major rows, plus
    /// the per-sample output shape.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors; rejects `batch == 0` and input
    /// length mismatches.
    pub(crate) fn run<'c>(
        &'c mut self,
        layers: &[Box<dyn Layer>],
        input: &[f32],
        input_shape: ActShape,
        batch: usize,
        mut visit: Option<SampleVisitor<'_>>,
    ) -> Result<(&'c [f32], ActShape), NnError> {
        let in_vol = input_shape.volume();
        if batch == 0 || input.len() != batch * in_vol {
            return Err(NnError::BadDimensions {
                detail: format!(
                    "batched inference needs batch >= 1 and input len batch * volume; got \
                     batch {batch}, volume {in_vol}, len {}",
                    input.len()
                ),
            });
        }
        // Dispatch accounting only (see `InferCtx::run`): a batch of
        // one routes through the reference kernels, larger batches
        // through the batched kernels; the batch-size histogram shows
        // how much amortization the workload actually gets.
        frlfi_obs::hist("nn.batch_size", batch as u64);
        if batch == 1 {
            frlfi_obs::count("nn.dispatch.reference", layers.len() as u64);
        } else {
            frlfi_obs::count("nn.dispatch.batched", layers.len() as u64);
        }
        // Transpose the observations into the batch-minor staging area
        // (for one sample the layouts coincide, so it is a plain copy).
        if self.staging.len() < batch * in_vol {
            self.staging.resize(batch * in_vol, 0.0);
        }
        if batch == 1 {
            self.staging[..in_vol].copy_from_slice(input);
        } else {
            for (b, sample) in input.chunks_exact(in_vol).enumerate() {
                for (j, &v) in sample.iter().enumerate() {
                    self.staging[j * batch + b] = v;
                }
            }
        }

        let mut shape = input_shape;
        let mut cur: Option<usize> = None;
        for layer in layers {
            let out_shape = layer.out_shape(&shape)?;
            let n = out_shape.volume() * batch;
            let dst = match cur {
                None => 0,
                Some(c) => 1 - c,
            };
            if self.bufs[dst].len() < n {
                self.bufs[dst].resize(n, 0.0);
            }
            let src_n = shape.volume() * batch;
            let (a, b) = self.bufs.split_at_mut(1);
            let (src, out): (&[f32], &mut [f32]) = match cur {
                None => (&self.staging[..src_n], &mut a[0][..n]),
                Some(0) => (&a[0][..src_n], &mut b[0][..n]),
                Some(_) => (&b[0][..src_n], &mut a[0][..n]),
            };
            if batch == 1 {
                // A 1-sample batch-minor activation *is* the flat
                // single-observation activation, so the reference
                // kernels apply directly — a batch of one runs at
                // per-observation kernel speed (plus the edge copies).
                layer.forward_into(src, &shape, out)?;
            } else {
                layer.forward_batch_into(src, &shape, batch, out)?;
            }
            if let Some(visit) = visit.as_deref_mut() {
                // Gather each sample's strided activation into a
                // contiguous row, expose it to the hook, scatter back.
                let vol = out_shape.volume();
                if self.row.len() < vol {
                    self.row.resize(vol, 0.0);
                }
                for s in 0..batch {
                    for j in 0..vol {
                        self.row[j] = out[j * batch + s];
                    }
                    visit(s, &mut self.row[..vol]);
                    for j in 0..vol {
                        out[j * batch + s] = self.row[j];
                    }
                }
            }
            cur = Some(dst);
            shape = out_shape;
        }
        let idx = cur.ok_or(NnError::EmptyNetwork)?;
        // Gather the batch-minor result into sample-major output rows.
        let vol = shape.volume();
        if self.staging.len() < batch * vol {
            self.staging.resize(batch * vol, 0.0);
        }
        if batch == 1 {
            self.staging[..vol].copy_from_slice(&self.bufs[idx][..vol]);
        } else {
            for b in 0..batch {
                for j in 0..vol {
                    self.staging[b * vol + j] = self.bufs[idx][j * batch + b];
                }
            }
        }
        Ok((&self.staging[..batch * vol], shape))
    }

    /// Training forward: like [`BatchInferCtx::run`] but every layer's
    /// batch-minor input is retained in per-layer arenas so a following
    /// [`BatchInferCtx::run_backward`] can feed each layer's backward
    /// kernel without re-running the forward. Returns the final
    /// activation as `batch` sample-major rows plus the per-sample
    /// output shape. A batch of one routes through the reference
    /// kernels exactly like the eval path.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors; rejects `batch == 0` and input
    /// length mismatches.
    pub(crate) fn run_cached<'c>(
        &'c mut self,
        layers: &[Box<dyn Layer>],
        input: &[f32],
        input_shape: ActShape,
        batch: usize,
    ) -> Result<(&'c [f32], ActShape), NnError> {
        let in_vol = input_shape.volume();
        if batch == 0 || input.len() != batch * in_vol {
            return Err(NnError::BadDimensions {
                detail: format!(
                    "batched training forward needs batch >= 1 and input len batch * volume; \
                     got batch {batch}, volume {in_vol}, len {}",
                    input.len()
                ),
            });
        }
        frlfi_obs::hist("nn.train.batch_size", batch as u64);
        if batch == 1 {
            frlfi_obs::count("nn.train.dispatch.reference", layers.len() as u64);
        } else {
            frlfi_obs::count("nn.train.dispatch.batched", layers.len() as u64);
        }
        self.cached_batch = 0;
        self.acts.resize(layers.len() + 1, Vec::new());
        self.act_shapes.clear();
        self.act_shapes.resize(layers.len() + 1, input_shape);
        // Transpose the observations batch-minor into the first arena
        // (for one sample the layouts coincide: plain copy).
        if self.acts[0].len() < batch * in_vol {
            self.acts[0].resize(batch * in_vol, 0.0);
        }
        if batch == 1 {
            self.acts[0][..in_vol].copy_from_slice(input);
        } else {
            for (b, sample) in input.chunks_exact(in_vol).enumerate() {
                for (j, &v) in sample.iter().enumerate() {
                    self.acts[0][j * batch + b] = v;
                }
            }
        }
        let mut shape = input_shape;
        for (l, layer) in layers.iter().enumerate() {
            let out_shape = layer.out_shape(&shape)?;
            let n = out_shape.volume() * batch;
            let src_n = shape.volume() * batch;
            let (head, tail) = self.acts.split_at_mut(l + 1);
            let src = &head[l][..src_n];
            let dst = &mut tail[0];
            if dst.len() < n {
                dst.resize(n, 0.0);
            }
            if batch == 1 {
                layer.forward_into(src, &shape, &mut dst[..n])?;
            } else {
                layer.forward_batch_into(src, &shape, batch, &mut dst[..n])?;
            }
            shape = out_shape;
            self.act_shapes[l + 1] = out_shape;
        }
        if layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        self.cached_batch = batch;
        // Gather the batch-minor result into sample-major output rows.
        let vol = shape.volume();
        if self.staging.len() < batch * vol {
            self.staging.resize(batch * vol, 0.0);
        }
        let last = &self.acts[layers.len()];
        if batch == 1 {
            self.staging[..vol].copy_from_slice(&last[..vol]);
        } else {
            for b in 0..batch {
                for j in 0..vol {
                    self.staging[b * vol + j] = last[j * batch + b];
                }
            }
        }
        Ok((&self.staging[..batch * vol], shape))
    }

    /// Training backward over the activations retained by the last
    /// [`BatchInferCtx::run_cached`]: `grads` holds `batch` sample-major
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
        layers: &mut [Box<dyn Layer>],
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
        // Transpose the gradient rows batch-minor into the ping-pong
        // scratch (a batch of one is a plain copy).
        if self.bufs[0].len() < out_vol * batch {
            self.bufs[0].resize(out_vol * batch, 0.0);
        }
        if batch == 1 {
            self.bufs[0][..out_vol].copy_from_slice(grads);
        } else {
            for (b, sample) in grads.chunks_exact(out_vol).enumerate() {
                for (j, &v) in sample.iter().enumerate() {
                    self.bufs[0][j * batch + b] = v;
                }
            }
        }
        let mut cur = 0;
        for l in (0..n_layers).rev() {
            let in_vol = self.act_shapes[l].volume();
            let g_out_n = self.act_shapes[l + 1].volume() * batch;
            let dst = 1 - cur;
            if l > 0 && self.bufs[dst].len() < in_vol * batch {
                self.bufs[dst].resize(in_vol * batch, 0.0);
            }
            let (a, b) = self.bufs.split_at_mut(1);
            let (g_out, g_in): (&[f32], &mut Vec<f32>) = if cur == 0 {
                (&a[0][..g_out_n], &mut b[0])
            } else {
                (&b[0][..g_out_n], &mut a[0])
            };
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
