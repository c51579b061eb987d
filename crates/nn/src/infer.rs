//! Zero-allocation inference and training arena.
//!
//! Campaign throughput is bounded by `Network::forward`, which clones
//! the input, heap-allocates a fresh output tensor per layer and caches
//! a clone of every layer input for a backward pass that eval loops
//! never run. [`BatchInferCtx`] replaces all of that with preallocated
//! scratch planes that layers write into; after the first call on a
//! given architecture, inference performs no allocation at all.
//!
//! One private layer walk serves every forward: single-observation
//! inference ([`crate::Network::infer`]) is the walk at batch 1, and
//! the cached training forward ([`crate::Network::forward_batch_cached`])
//! is the same walk over retained per-layer planes, in which a ReLU
//! clamps its input plane in place. A taped forward
//! ([`crate::Network::forward_taped`]) is that walk at batch 1 with its
//! planes appended to the ctx's training tape, from which
//! [`crate::Network::load_tape`] later rebuilds a batch's retained
//! planes for the backward without running the forward again. The walk
//! checks each layer's input shape once, with
//! [`crate::Layer::out_shape`], and then calls kernels that do not check
//! it again. `Dense` runs a matvec at
//! batch 1 and a tiled matrix product above; `Conv2d` runs one
//! row-stencil correlation at every batch size.
//!
//! The four hottest kernel bodies are compiled twice from one
//! `#[inline(always)]` body: once for baseline x86-64 (4-wide SSE2) and
//! once inside a `#[target_feature(enable = "avx2")]` function (8-wide).
//! Each call picks its instance by its shape first, then by
//! `is_x86_feature_detected!("avx2")`, which std caches. Each threshold
//! sits where the AVX2 instance measured faster, one kernel call at a
//! time on a 2-vCPU Xeon:
//!
//! | kernel | AVX2 instance from | measured |
//! |---|---|---|
//! | conv stencil (forward, input gradient) | rows of `ow · batch` ≥ 40 | rows of 10–36 up to 1.5× slower unless near a multiple of 8; from 40 on 5–35% faster |
//! | conv parameter-gradient taps | `positions · batch` ≥ 8 | even at 4, 8% faster at 8, 23–39% on DroneNav shapes |
//! | `Dense` tiled product | `batch` ≥ 8, `in_dim` ≥ 64 | batches 2–7 within ±8%, from 8 on 14–39% faster |
//! | `Dense` backward | `in_dim` ≥ 64 | 8–24 inputs 4–27% slower, from 64 on 10–27% faster |
//!
//! So a short call pays one compare and stays on the baseline
//! instance: the DroneNav act's conv rows (14, 12 and 10 elements at
//! batch 1) and every GridWorld layer (at most 32 inputs). Both
//! instances give every output element its terms in the reference
//! order, and rustc never contracts a multiply and an add into an FMA,
//! so they agree bit for bit (NaN payloads aside). Off x86-64 only the
//! baseline instance exists.
//!
//! The fast path is **bit-identical** to `forward`: every kernel in
//! `Dense`/`Conv2d`/`Relu` preserves the exact floating-point
//! accumulation order of the reference implementation per output
//! element, and only reorders work across elements and samples, so
//! every output row matches the slow path to the last ulp
//! (golden-equivalence proptests enforce this).

use crate::{Layer, NnError};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Which planes a forward walk reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arena {
    /// Inference: two ping-pong planes; the training cache is untouched.
    Eval,
    /// Training: a retained plane per layer input, for
    /// [`BatchInferCtx::run_backward`]; a ReLU past the first layer
    /// shares its plane with the next layer (see `in_place`).
    Train,
    /// A [`Arena::Train`] walk of one observation whose retained planes
    /// are then appended to the training tape as one row.
    Tape,
}

/// Names one training tape ([`BatchInferCtx::begin_tape`]). Ids are
/// unique across every context of the process, so a tape id also
/// says which context holds the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeId(u64);

/// The next [`TapeId`]; 0 means "no tape". Only uniqueness matters (the
/// counter publishes no other data), so its adds are `Relaxed`.
static NEXT_TAPE: AtomicU64 = AtomicU64::new(1);

/// The training tape: the retained planes of batch-1 training forwards
/// ([`crate::Network::forward_taped`]), one row per forward, for a
/// later batched backward over any subset of the rows
/// ([`crate::Network::load_tape`]).
///
/// A row holds every plane the backward reads but the first two slots:
/// the observation (slot 0), which the caller keeps anyway and hands
/// back to the load, and the first layer's output (slot 1, with the
/// ReLUs clamped into it), which the load recomputes from it — the
/// largest plane of a conv net whose first layer is its cheapest.
#[derive(Debug, Default)]
struct Tape {
    /// The open tape's id; 0 when none is open.
    id: u64,
    /// Rows [`BatchInferCtx::begin_tape`] asked to reserve; reserved on
    /// the first append, once the row length is known.
    reserve_rows: usize,
    /// Rows appended.
    rows: usize,
    /// The first row's per-layer shapes and slots; a later row walked
    /// differently closes the tape.
    act_shapes: Vec<ActShape>,
    slots: Vec<usize>,
    /// Elements of each slot at batch 1.
    slot_vols: Vec<usize>,
    /// Elements of one row: every slot's from slot 2 on.
    row_len: usize,
    /// `rows` rows, each its slots from slot 2 on, in order.
    data: Vec<f32>,
}

/// A cloned ctx holds no tape: a [`TapeId`] names rows of one ctx only,
/// so that a learner's rows cannot be read from another ctx's copy.
impl Clone for Tape {
    fn clone(&self) -> Self {
        Tape::default()
    }
}

/// Layer `l` as a ReLU that a training walk runs in place, clamping the
/// plane it reads instead of writing one of its own; `None` for any
/// other layer. Every ReLU but a first layer runs in place (the network
/// input is never overwritten). Its backward masks with `x > 0`, which
/// is `y > 0` for `y = x.max(0.0)` (a NaN or −0.0 input clamps to a
/// zero), so the clamped plane serves it as well as the input did, and
/// the arena holds each ReLU plane once.
fn in_place(layer: &Layer, l: usize) -> Option<&crate::Relu> {
    match layer {
        Layer::Relu(relu) if l > 0 => Some(relu),
        _ => None,
    }
}

/// Reusable inference and training scratch arena.
///
/// Internally activations flow **batch-minor** (feature-major): element
/// `j` of sample `b` lives at index `j * batch + b`, so the batched
/// kernels' innermost loops run over contiguous, independent
/// accumulators — the batch lanes of the dense product, a whole
/// `width × batch` output row of the conv stencil — and vectorize while
/// each sample's floating-point accumulation order stays exactly that of
/// the single-observation reference kernels. Callers see only the
/// natural sample-major layout: inputs are `batch` concatenated
/// observation rows, and the returned activation is `batch`
/// concatenated output rows. A batch of one is a single observation
/// ([`crate::Network::infer`]): both layouts coincide and no transposes
/// run.
///
/// One ctx serves any number of networks, input shapes and batch sizes
/// (including ragged final batches) — buffers grow to the high-water
/// mark and are then reused allocation-free. The campaign runner keeps
/// one per worker thread.
///
/// A ctx also holds one **training tape**. Batch-1 training forwards
/// ([`crate::Network::forward_taped`]) append their retained planes to
/// it, one row each, and [`crate::Network::load_tape`] turns any of its
/// rows into the cached forward of a batch — bit for bit what
/// [`crate::Network::forward_batch_cached`] over those rows'
/// observations leaves — so a REINFORCE update runs only the backward
/// over the forwards its acts already ran. Opening a tape
/// ([`BatchInferCtx::begin_tape`]) closes the one before it; a
/// [`TapeId`] names one tape of one ctx.
///
/// ```
/// use frlfi_nn::{ActShape, BatchInferCtx, NetworkBuilder};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = NetworkBuilder::new(4).dense(8).relu().dense(2).build(&mut rng)?;
/// let (shape, mut ctx) = (ActShape::flat(4), BatchInferCtx::new());
/// let steps = [0.5f32, -1.0, 0.25, 0.0, 1.0, 0.5, -0.5, 2.0]; // two observations
/// let tape = ctx.begin_tape(2);
/// for obs in steps.chunks(4) {
///     net.forward_taped(obs, &shape, tape, &mut ctx)?; // the acts
/// }
/// assert_eq!(ctx.tape_len(tape), Some(2));
/// let taped = net.load_tape(tape, &[0, 1], &steps, &mut ctx)?.to_vec();
/// let fresh = net.forward_batch_cached(&steps, &shape, 2, &mut BatchInferCtx::new())?.to_vec();
/// assert_eq!(taped, fresh);
/// net.backward_batch(&[1.0; 4], 2, &mut ctx)?; // the update, no forward
/// let next = ctx.begin_tape(0);
/// assert_eq!((ctx.tape_len(next), ctx.tape_len(tape)), (Some(0), None));
/// # Ok(())
/// # }
/// ```
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
    /// Batch-minor activation planes retained by the training walk, one
    /// per slot: layer `l` reads `acts[slots[l]]` — exactly what its
    /// [`Layer::backward_batch_into`] needs, a ReLU's clamped in place
    /// (see `in_place`) — and `acts[slots[layers.len()]]` holds the
    /// final output. Eval walks never write `acts`, `act_shapes`,
    /// `slots` or `cached_batch`, so inference can interleave with a
    /// pending backward.
    acts: Vec<Vec<f32>>,
    /// Per-layer activation shapes (`act_shapes[l]` is layer `l`'s
    /// input shape; the last entry the output shape).
    act_shapes: Vec<ActShape>,
    /// Per-layer slot of `acts` matching `act_shapes`.
    slots: Vec<usize>,
    /// Batch size of the cached training forward; 0 = nothing cached.
    cached_batch: usize,
    /// Layer backward scratch (Conv2d's gradient lanes and padded
    /// gradient plane), one per ctx rather than per layer: the ctx is
    /// per worker, while layers multiply by agents × conv layers.
    bwd_scratch: Vec<f32>,
    /// The training tape, one per ctx for the same reason.
    tape: Tape,
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
        let out = &self.acts[self.slots[last]];
        Some((&self.acts[0][..in_shape.volume()], in_shape, &out[..out_shape.volume()]))
    }

    /// Opens a new, empty training tape, closing the one this ctx held
    /// (its id no longer names any rows). Room for `reserve_rows` rows
    /// is reserved at the first append — pass the longest episode the
    /// tape will record, so that it never reallocates; past it, the
    /// tape grows as a `Vec` does.
    pub fn begin_tape(&mut self, reserve_rows: usize) -> TapeId {
        let id = NEXT_TAPE.fetch_add(1, Ordering::Relaxed);
        let t = &mut self.tape;
        (t.id, t.reserve_rows, t.rows) = (id, reserve_rows, 0);
        t.data.clear();
        TapeId(id)
    }

    /// Rows on tape `id`, or `None` when this ctx no longer holds it.
    pub fn tape_len(&self, id: TapeId) -> Option<usize> {
        (self.tape.id == id.0).then_some(self.tape.rows)
    }

    /// Appends the batch-1 planes of the training walk that just ran
    /// to the open tape as one row. A walk whose shapes or slots differ
    /// from the first row's closes the tape instead.
    fn append_tape(&mut self) {
        let t = &mut self.tape;
        if t.rows == 0 {
            t.act_shapes.clone_from(&self.act_shapes);
            t.slots.clone_from(&self.slots);
            t.slot_vols.clear();
            t.slot_vols.resize(self.slots[self.slots.len() - 1] + 1, 0);
            for (&s, shape) in self.slots.iter().zip(&self.act_shapes) {
                t.slot_vols[s] = shape.volume();
            }
            t.row_len = t.slot_vols[2..].iter().sum();
            t.data.reserve_exact(t.reserve_rows * t.row_len);
        } else if t.act_shapes != self.act_shapes || t.slots != self.slots {
            t.id = 0;
            return;
        }
        for (s, &vol) in t.slot_vols.iter().enumerate().skip(2) {
            t.data.extend_from_slice(&self.acts[s][..vol]);
        }
        t.rows += 1;
    }

    /// The plane layer `l` reads and the plane it writes on the eval
    /// walk: the transposed input from `staging`, then ping-pong, layer
    /// `l` writing `bufs[l % 2]`.
    fn eval_planes(&mut self, l: usize) -> (&[f32], &mut Vec<f32>) {
        if l == 0 {
            return (&self.staging, &mut self.bufs[0]);
        }
        let [a, b] = &mut self.bufs;
        if l % 2 == 1 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Layer `l` of a training walk at `batch`, on its weights in
    /// `params`, from slot `slots[l]` to slot `slots[l + 1]` (the same
    /// slot when it runs `in_place`).
    fn train_layer(&mut self, layer: &Layer, params: &[f32], l: usize, batch: usize) {
        let (shape, out_vol) = (self.act_shapes[l], self.act_shapes[l + 1].volume());
        let s = self.slots[l];
        if let Some(relu) = in_place(layer, l) {
            relu.clamp_in_place(&mut self.acts[s][..out_vol * batch]);
            return;
        }
        if self.acts.len() < s + 2 {
            self.acts.resize_with(s + 2, Vec::new);
        }
        let (head, tail) = self.acts.split_at_mut(s + 1);
        let dst = &mut tail[0];
        grow(dst, out_vol * batch);
        layer.forward_kernel(
            params,
            &head[s][..shape.volume() * batch],
            &shape,
            batch,
            &mut dst[..out_vol * batch],
        );
    }

    /// The forward walk: runs `layers`, on their weights in `params`,
    /// over `batch` sample-major observation rows in `input` through
    /// `arena`'s planes and returns the final activation as `batch`
    /// sample-major rows. Each layer's input shape is checked once, by
    /// [`Layer::out_shape`], before [`Layer::forward_kernel`] runs on
    /// it. A [`Arena::Train`] walk retains every plane the backward
    /// reads for [`BatchInferCtx::run_backward`], and a [`Arena::Tape`]
    /// walk appends them to the tape too; an [`Arena::Eval`] walk
    /// leaves that cache as it was.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors; rejects `batch == 0`, input
    /// length mismatches and empty layer stacks.
    pub(crate) fn run<'c>(
        &'c mut self,
        layers: &[Layer],
        params: &[f32],
        input: &[f32],
        input_shape: ActShape,
        batch: usize,
        arena: Arena,
    ) -> Result<&'c [f32], NnError> {
        let train = arena != Arena::Eval;
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
        // batch-size histograms show how much amortization the workload
        // actually gets: the training one counts the batches a backward
        // runs over, so a taped forward adds to it only when a load
        // gathers its row.
        let (hist, reference, batched) = match arena {
            Arena::Eval => ("nn.batch_size", "nn.dispatch.reference", "nn.dispatch.batched"),
            Arena::Train | Arena::Tape => {
                ("nn.train.batch_size", "nn.train.dispatch.reference", "nn.train.dispatch.batched")
            }
        };
        if arena != Arena::Tape {
            frlfi_obs::hist(hist, batch as u64);
        }
        frlfi_obs::count(if batch == 1 { reference } else { batched }, n_layers as u64);
        if train {
            self.cached_batch = 0;
            self.act_shapes.clear();
            self.act_shapes.resize(n_layers + 1, input_shape);
            self.slots.clear();
            self.slots.push(0);
            if self.acts.is_empty() {
                self.acts.push(Vec::new());
            }
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
            if train {
                let s = self.slots[l];
                self.slots.push(if in_place(layer, l).is_some() { s } else { s + 1 });
                self.act_shapes[l + 1] = out_shape;
                self.train_layer(layer, params, l, batch);
            } else {
                let n = out_shape.volume() * batch;
                let (src, dst) = self.eval_planes(l);
                let src = if direct && l == 0 { input } else { &src[..shape.volume() * batch] };
                grow(dst, n);
                layer.forward_kernel(params, src, &shape, batch, &mut dst[..n]);
            }
            shape = out_shape;
        }
        if arena == Arena::Tape {
            self.append_tape();
        }
        let last =
            if train { &self.acts[self.slots[n_layers]] } else { &self.bufs[(n_layers - 1) % 2] };
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

    /// Loads rows `rows` of tape `id` into the training planes, as if a
    /// [`Arena::Train`] walk of `layers` had just run over `inputs` —
    /// those rows' observations, sample-major — and returns the output
    /// as `rows.len()` sample-major rows. Slot 1 is recomputed from the
    /// inputs. Every plane is the one the walk would have written, bit
    /// for bit: the tape holds batch-1 planes, and every kernel's rows
    /// are bit-identical across batch sizes.
    ///
    /// # Errors
    ///
    /// [`NnError::StaleTape`] when this ctx no longer holds tape `id`,
    /// a row was never taped, `rows` is empty, or `layers` is not the
    /// stack that taped the rows; [`NnError::BadDimensions`] when
    /// `inputs` is not `rows.len()` observations of the taped shape.
    pub(crate) fn load_tape(
        &mut self,
        layers: &[Layer],
        params: &[f32],
        id: TapeId,
        rows: &[usize],
        inputs: &[f32],
    ) -> Result<&[f32], NnError> {
        let t = &self.tape;
        let n_layers = layers.len();
        let taped_by_layers = t.slots.len() == n_layers + 1
            && layers.iter().enumerate().all(|(l, layer)| {
                let step = usize::from(in_place(layer, l).is_none());
                layer.out_shape(&t.act_shapes[l]).ok() == Some(t.act_shapes[l + 1])
                    && t.slots[l + 1] == t.slots[l] + step
            });
        if t.id != id.0 || rows.is_empty() || rows.iter().any(|&r| r >= t.rows) || !taped_by_layers
        {
            return Err(NnError::StaleTape);
        }
        let batch = rows.len();
        let in_vol = t.slot_vols[0];
        if inputs.len() != batch * in_vol {
            return Err(NnError::BadDimensions {
                detail: format!(
                    "tape load of {batch} rows needs {batch} inputs of {in_vol} elements; got {}",
                    inputs.len()
                ),
            });
        }
        // The layers writing slot 1 are the ones the load runs.
        let rerun = t.slots.iter().skip(1).take_while(|&&s| s == 1).count();
        frlfi_obs::hist("nn.train.batch_size", batch as u64);
        let dispatch =
            if batch == 1 { "nn.train.dispatch.reference" } else { "nn.train.dispatch.batched" };
        frlfi_obs::count(dispatch, rerun as u64);
        self.cached_batch = 0;
        self.act_shapes.clone_from(&t.act_shapes);
        self.slots.clone_from(&t.slots);
        if self.acts.len() < t.slot_vols.len() {
            self.acts.resize_with(t.slot_vols.len(), Vec::new);
        }
        to_batch_minor(inputs, in_vol, batch, &mut self.acts[0]);
        let mut off = 0;
        for (s, &vol) in t.slot_vols.iter().enumerate().skip(2) {
            let dst = &mut self.acts[s];
            grow(dst, vol * batch);
            for (b, &r) in rows.iter().enumerate() {
                let src = &t.data[r * t.row_len + off..][..vol];
                for (j, &v) in src.iter().enumerate() {
                    dst[j * batch + b] = v;
                }
            }
            off += vol;
        }
        for (l, layer) in layers.iter().enumerate().take(rerun) {
            self.train_layer(layer, params, l, batch);
        }
        let (out, vol) = (self.slots[n_layers], self.act_shapes[n_layers].volume());
        to_sample_major(&self.acts[out], vol, batch, &mut self.staging);
        self.cached_batch = batch;
        Ok(&self.staging[..batch * vol])
    }

    /// Training backward over the activations retained by the last
    /// training walk or tape load: `grads` holds `batch` sample-major
    /// output-gradient rows; each layer's [`Layer::backward_kernel`]
    /// accumulates the gradients of its weights in `params` into
    /// `param_grads` (ascending sample order —
    /// bitwise what per-sample reference backward calls leave) and the
    /// input gradient ping-pongs through the scratch buffers down to the
    /// first layer, which is asked for none: the gradient with respect
    /// to the network input has no reader. The forward walk validated
    /// every retained shape, so the kernels do not check them again.
    ///
    /// # Errors
    ///
    /// Rejects a `batch`/network mismatch with the cached forward and
    /// gradient length mismatches.
    pub(crate) fn run_backward(
        &mut self,
        layers: &mut [Layer],
        (params, param_grads): (&[f32], &mut [f32]),
        grads: &[f32],
        batch: usize,
    ) -> Result<(), NnError> {
        let n_layers = layers.len();
        if batch == 0 || batch != self.cached_batch || self.slots.len() != n_layers + 1 {
            return Err(NnError::BadDimensions {
                detail: format!(
                    "batched backward without a matching cached forward: cached batch {} over \
                     {} layers, got batch {batch} over {n_layers} layers",
                    self.cached_batch,
                    self.slots.len().saturating_sub(1),
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
            layers[l].backward_kernel(
                (params, &mut *param_grads),
                &self.acts[self.slots[l]][..in_vol * batch],
                &self.act_shapes[l],
                g_out,
                (l > 0).then(|| &mut g_in[..in_vol * batch]),
                &mut self.bwd_scratch,
            );
            cur = dst;
        }
        Ok(())
    }
}

#[cfg(test)]
impl BatchInferCtx {
    /// Largest activation (`batch × features` elements) the eval arena
    /// can currently hold without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.bufs[0].len().min(self.bufs[1].len()).min(self.staging.len())
    }
}
