use crate::{ActShape, NnError};
use frlfi_tensor::{Init, Tensor, TensorError};
use rand::Rng;
use std::ops::Range;

/// A 2-D convolution layer with stride 1 and no padding ("valid").
///
/// Input is a rank-3 tensor `[in_c, h, w]`; output is
/// `[out_c, h − k + 1, w − k + 1]`. The DroneNav policy stacks three of
/// these over the raycast depth image before two dense layers (§IV-B-1).
/// The layer reads its kernels `[out_c, in_c, k, k]` and then its bias
/// from its span of a parameter plane.
///
/// ```
/// use frlfi_nn::{ActShape, Conv2d, Layer};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut plane = Vec::new();
/// let conv = Conv2d::new("conv0", 1, 4, 3, &mut plane, &mut StdRng::seed_from_u64(0));
/// assert_eq!(plane.len(), 4 * 3 * 3 + 4);
/// let out = Layer::Conv(conv).out_shape(&ActShape::image(1, 9, 16))?;
/// assert_eq!(out.dims(), &[4, 7, 14]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    pub(crate) name: String,
    in_c: usize,
    out_c: usize,
    k: usize,
    /// Where the kernels start in the plane; the bias follows them.
    start: usize,
    pub(crate) cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Appends a conv layer's He-uniform kernels and zero bias to
    /// `plane` and returns the layer that reads them there.
    pub fn new<R: Rng>(
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        k: usize,
        plane: &mut Vec<f32>,
        rng: &mut R,
    ) -> Self {
        let start = plane.len();
        let w = Tensor::random(vec![out_c, in_c, k, k], Init::HeUniform, rng);
        plane.extend_from_slice(w.data());
        plane.resize(plane.len() + out_c, 0.0);
        Conv2d { name: name.into(), in_c, out_c, k, start, cached_input: None }
    }

    /// Number of kernel weights.
    fn n_weights(&self) -> usize {
        self.out_c * self.in_c * self.k * self.k
    }

    /// The layer's span of the plane: the kernels, then the bias.
    pub(crate) fn range(&self) -> Range<usize> {
        self.start..self.start + self.n_weights() + self.out_c
    }

    /// The kernels and the bias in `params`.
    fn wb<'p>(&self, params: &'p [f32]) -> (&'p [f32], &'p [f32]) {
        params[self.range()].split_at(self.n_weights())
    }

    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is smaller than the kernel.
    pub(crate) fn out_hw(&self, h: usize, w: usize) -> Result<(usize, usize), NnError> {
        if h < self.k || w < self.k {
            return Err(NnError::BadDimensions {
                detail: format!("input {h}x{w} smaller than kernel {}", self.k),
            });
        }
        Ok((h - self.k + 1, w - self.k + 1))
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize), NnError> {
        self.check_dims(input.shape().dims())
    }

    fn check_dims(&self, dims: &[usize]) -> Result<(usize, usize), NnError> {
        if dims.len() != 3 || dims[0] != self.in_c {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                left: vec![self.in_c],
                right: dims.to_vec(),
                op: "conv2d forward",
            }));
        }
        self.out_hw(dims[1], dims[2])
    }

    /// The inference forward at any batch, with `in_shape` already
    /// validated ([`BatchInferCtx`](crate::BatchInferCtx)'s walk checks
    /// each layer's shape once): the output planes start at the bias
    /// and the input is correlated into them.
    pub(crate) fn forward_kernel(
        &self,
        params: &[f32],
        input: &[f32],
        in_shape: &ActShape,
        batch: usize,
        out: &mut [f32],
    ) {
        let (h, w) = (in_shape.dims()[1], in_shape.dims()[2]);
        let (taps, b) = self.wb(params);
        let plane = (h - self.k + 1) * (w - self.k + 1) * batch;
        let out = &mut out[..self.out_c * plane];
        for (o, &bias) in out.chunks_exact_mut(plane).zip(b) {
            o.fill(bias);
        }
        correlate::<false>(self.k, taps, input, (self.in_c, h, w), batch, out);
    }

    /// Batched-backward pass 1: parameter gradients. Every `gw`/`gb`
    /// element takes its terms in the reference `(sample, oy, ox)`
    /// order, with the same `g * x` products, so the gradients stay
    /// bitwise what `batch` sequential [`Conv2d::backward`] calls leave.
    ///
    /// `scratch` holds the output gradient regrouped into blocks of
    /// [`LANES`] output channels, `[block][sample][oy][ox][lane]`, and
    /// one input channel's plane, sample-major. For each input channel
    /// and block, [`window_grads`] keeps a 3×3 window row's
    /// accumulators in registers across every sample's positions: each
    /// position loads the gradient lanes once and applies three
    /// scalar-times-lanes taps.
    ///
    /// The reference skips a position whose `g == 0.0`. Adding its term
    /// anyway is bit-neutral while the activation is finite: the
    /// product is ±0, and an accumulator that starts at +0.0 never
    /// reaches −0.0 in round-to-nearest. With a non-finite activation
    /// `0 · x` is NaN, so a channel holding one runs the masked taps,
    /// which keep the old bits wherever `g == 0.0`. `gb` adds every
    /// `g` unmasked: a ±0 there is always bit-neutral.
    fn backward_params(
        &self,
        grads: &mut [f32],
        x: &[f32],
        (h, w): (usize, usize),
        batch: usize,
        grad_out: &[f32],
        scratch: &mut Vec<f32>,
    ) {
        let (k, kk) = (self.k, self.k * self.k);
        let positions = (h - k + 1) * (w - k + 1);
        let (plane, block) = (positions * batch, positions * batch * LANES);
        let blocks = self.out_c.div_ceil(LANES);
        let (lanes, rest) = grown(scratch, blocks * block + batch * h * w + kk * LANES)
            .split_at_mut(blocks * block);
        let (x_plane, win) = rest.split_at_mut(batch * h * w);
        let (gw, gb) = grads[self.range()].split_at_mut(self.n_weights());
        // Regroup the gradient into lanes, adding each `g` to its `gb`
        // on the way, in `(sample, oy, ox)` order. The lanes of a last,
        // partial block repeat its last channel and are never stored.
        for (b, (lane_block, gb)) in
            lanes.chunks_exact_mut(block).zip(gb.chunks_mut(LANES)).enumerate()
        {
            let n = gb.len();
            let planes: [&[f32]; LANES] =
                std::array::from_fn(|l| &grad_out[(b * LANES + l.min(n - 1)) * plane..][..plane]);
            let mut acc: [f32; LANES] = std::array::from_fn(|l| gb[l.min(n - 1)]);
            for (t, dst) in lane_block.chunks_exact_mut(positions * LANES).enumerate() {
                for (p, d) in dst.chunks_exact_mut(LANES).enumerate() {
                    for l in 0..LANES {
                        d[l] = planes[l][p * batch + t];
                        acc[l] += d[l];
                    }
                }
            }
            gb.copy_from_slice(&acc[..n]);
        }
        // `gw[oc][ic]` windows, `row` apart: a block's are copied into
        // `win` lane-minor, `[tap][lane]`, and back.
        let row = self.in_c * kk;
        let mut all_finite = true;
        for (ic, x_ic) in x.chunks_exact(h * w * batch).enumerate() {
            // A channel's activations meet only its own `gw` windows,
            // so one sweep over the channel picks its instance.
            let finite = x_ic.iter().fold(true, |ok, v| ok & (v.abs() < f32::INFINITY));
            all_finite &= finite;
            for (t, dst) in x_plane.chunks_exact_mut(h * w).enumerate() {
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = x_ic[j * batch + t];
                }
            }
            for (b, g_block) in lanes.chunks_exact(block).enumerate() {
                let oc0 = b * LANES;
                let n = LANES.min(self.out_c - oc0);
                let at = |tap: usize, l: usize| (oc0 + l) * row + ic * kk + tap;
                for (tap, w_tap) in win.chunks_exact_mut(LANES).enumerate() {
                    for (l, v) in w_tap.iter_mut().enumerate() {
                        *v = if l < n { gw[at(tap, l)] } else { 0.0 };
                    }
                }
                if finite {
                    window_grads::<false>(k, x_plane, (h, w), g_block, win);
                } else {
                    window_grads::<true>(k, x_plane, (h, w), g_block, win);
                }
                for (tap, w_tap) in win.chunks_exact(LANES).enumerate() {
                    for (l, &v) in w_tap.iter().enumerate().take(n) {
                        gw[at(tap, l)] = v;
                    }
                }
            }
        }
        frlfi_obs::count(if all_finite { "nn.train.dw.fast" } else { "nn.train.dw.masked" }, 1);
    }
}

/// `scratch` as at least `n` elements of stale contents. Exact
/// reservation: growing by doubling as episode batches grow would keep
/// up to twice the largest request resident per worker.
fn grown(scratch: &mut Vec<f32>, n: usize) -> &mut [f32] {
    if scratch.len() < n {
        scratch.reserve_exact(n - scratch.len());
        scratch.resize(n, 0.0);
    }
    &mut scratch[..n]
}

/// `scratch` as exactly `n` zeros. Exact reservation: growing by
/// doubling as episode batches grow would keep up to twice the largest
/// request resident per worker.
fn zeroed(scratch: &mut Vec<f32>, n: usize) -> &mut [f32] {
    scratch.clear();
    scratch.reserve_exact(n);
    scratch.resize(n, 0.0);
    scratch
}

/// Output channels a parameter-gradient block updates together: one
/// 256-bit AVX2 vector of `f32`, two 128-bit SSE2 vectors. conv1's 12
/// channels are one full and one partial block, conv2's 16 two full
/// ones.
pub(crate) const LANES: usize = 8;

/// Shortest gradient block, `positions · batch · LANES` elements, on
/// which [`window_grads`] runs its AVX2 instance ([`crate::wide`]). The
/// AVX2 instance measured even at 4 positions and 8% faster at 8, and
/// 23–39% faster on every DroneNav block (30 positions and up).
#[cfg(target_arch = "x86_64")]
const WIDE_BLOCK: usize = 8 * LANES;

/// One (input channel, output-channel block) of the parameter-gradient
/// pass: `win` holds the block's k×k windows lane-minor, `[tap][lane]`,
/// `x` the input channel's `h × w` plane of each sample and `g` the
/// block's gradient lanes. A 3×3 window goes one row (three taps) a
/// pass; other kernel sizes one tap a pass. A block of at least
/// `WIDE_BLOCK` elements runs the AVX2 instance.
fn window_grads<const MASKED: bool>(
    k: usize,
    x: &[f32],
    hw: (usize, usize),
    g: &[f32],
    win: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if crate::wide::avx2(g.len(), WIDE_BLOCK) {
        // SAFETY: `avx2` has detected AVX2 on this host.
        return unsafe { window_grads_avx2::<MASKED>(k, x, hw, g, win) };
    }
    window_grads_body::<MASKED>(k, x, hw, g, win);
}

/// [`window_grads`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) fn window_grads_avx2<const MASKED: bool>(
    k: usize,
    x: &[f32],
    hw: (usize, usize),
    g: &[f32],
    win: &mut [f32],
) {
    window_grads_body::<MASKED>(k, x, hw, g, win);
}

/// The body of [`window_grads`], inlined into each instance.
#[inline(always)]
pub(crate) fn window_grads_body<const MASKED: bool>(
    k: usize,
    x: &[f32],
    hw: (usize, usize),
    g: &[f32],
    win: &mut [f32],
) {
    if k == 3 {
        for first in [0, 3, 6] {
            window_taps::<3, 3, MASKED>(k, first, x, hw, g, win);
        }
    } else {
        for first in 0..k * k {
            window_taps::<0, 1, MASKED>(k, first, x, hw, g, win);
        }
    }
}

/// Taps `first..first + G` of [`window_grads`]' windows, with the kernel
/// size fixed at compile time (`K > 0`) or read from `k` (`K == 0`):
/// their `G × LANES` accumulators stay in registers across every
/// sample's positions, which arrive in `(sample, oy, ox)` order.
#[inline(always)]
fn window_taps<const K: usize, const G: usize, const MASKED: bool>(
    k: usize,
    first: usize,
    x: &[f32],
    (h, w): (usize, usize),
    g: &[f32],
    win: &mut [f32],
) {
    let k = if K == 0 { k } else { K };
    let ow = w - k + 1;
    let offs: [usize; G] = std::array::from_fn(|i| (first + i) / k * w + (first + i) % k);
    let win = &mut win[first * LANES..(first + G) * LANES];
    let mut acc: [[f32; LANES]; G] =
        std::array::from_fn(|i| win[i * LANES..(i + 1) * LANES].try_into().expect("lanes"));
    for (xs, gs) in x.chunks_exact(h * w).zip(g.chunks_exact((h - k + 1) * ow * LANES)) {
        for (oy, g_row) in gs.chunks_exact(ow * LANES).enumerate() {
            let mut views = [&xs[..0]; G];
            for (v, &off) in views.iter_mut().zip(&offs) {
                *v = &xs[oy * w + off..][..ow];
            }
            lane_sweep::<G, MASKED>(&mut acc, &views, g_row);
        }
    }
    for (w, a) in win.chunks_exact_mut(LANES).zip(&acc) {
        w.copy_from_slice(a);
    }
}

/// One output row of [`window_taps`]: position `j` adds the taps
/// `g[j][l] · views[i][j]` to `acc[i][l]`.
#[inline(always)]
fn lane_sweep<const G: usize, const MASKED: bool>(
    acc: &mut [[f32; LANES]; G],
    views: &[&[f32]; G],
    g: &[f32],
) {
    let n = g.len() / LANES;
    let views: [&[f32]; G] = std::array::from_fn(|i| &views[i][..n]);
    let mut a = *acc;
    for j in 0..n {
        let gv = &g[j * LANES..j * LANES + LANES];
        for i in 0..G {
            let xv = views[i][j];
            for l in 0..LANES {
                a[i][l] = tap::<MASKED>(a[i][l], gv[l], xv);
            }
        }
    }
    *acc = a;
}

/// The one correlation body behind every conv kernel, over batch-minor
/// planes (element `(y, x)` of sample `b` at `(y · w + x) · batch + b`):
///
/// `dst[d][y][x] += Σ_s Σ_ky Σ_kx src[s][y + ky][x + kx] · taps[d][s][ky][kx]`
///
/// with `src` of `src_c` planes of `sh × sw` and `dst` of planes of
/// `(sh − k + 1) × (sw − k + 1)`. For each `(d, s, output row)` one
/// contiguous sweep over the row's `ow · batch` elements applies the
/// taps, tap `(ky, kx)` reading source row `y + ky` at offset
/// `kx · batch`, so the sweep is long at every batch size, batch 1
/// included. Every element receives its terms in `s → ky → kx` order.
///
/// The forward is `d = oc`, `s = ic` over the input, from the bias.
/// The input gradient is the full convolution of the output gradient
/// with the 180°-rotated kernel: one call per output channel `s = oc`
/// over that channel's zero-padded gradient plane, `d = ic`, rotated
/// taps in ascending order — each `dx` element's reference
/// `oc → oy → ox` order.
///
/// A call whose rows hold at least `WIDE_ROW` elements runs the AVX2
/// instance ([`crate::wide`]).
fn correlate<const MASKED: bool>(
    k: usize,
    taps: &[f32],
    src: &[f32],
    src_dims: (usize, usize, usize),
    batch: usize,
    dst: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if crate::wide::avx2((src_dims.2 - k + 1) * batch, WIDE_ROW) {
        // SAFETY: `avx2` has detected AVX2 on this host.
        return unsafe { correlate_avx2::<MASKED>(k, taps, src, src_dims, batch, dst) };
    }
    correlate_body::<MASKED>(k, taps, src, src_dims, batch, dst);
}

/// Shortest stencil row, `ow · batch` output elements, on which
/// [`correlate`] runs its AVX2 instance ([`crate::wide`]). The AVX2
/// loop leaves up to seven elements of a row to its scalar tail, so
/// rows below 40 lost up to 1.5× unless their length was near a
/// multiple of eight (the batch-1 act's rows of 10–14 elements; 20, 28,
/// 30 and 36 at batches 2 and 3); from 40 elements on every DroneNav
/// row measured 5–35% faster.
#[cfg(target_arch = "x86_64")]
const WIDE_ROW: usize = 40;

/// [`correlate`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) fn correlate_avx2<const MASKED: bool>(
    k: usize,
    taps: &[f32],
    src: &[f32],
    src_dims: (usize, usize, usize),
    batch: usize,
    dst: &mut [f32],
) {
    correlate_body::<MASKED>(k, taps, src, src_dims, batch, dst);
}

/// The body of [`correlate`], inlined into each instance.
#[inline(always)]
pub(crate) fn correlate_body<const MASKED: bool>(
    k: usize,
    taps: &[f32],
    src: &[f32],
    src_dims: (usize, usize, usize),
    batch: usize,
    dst: &mut [f32],
) {
    // k = 3 (every DroneNav conv) is a const instance of the same body:
    // its tap offsets fold to constants.
    if k == 3 {
        correlate_k::<3, MASKED>(k, taps, src, src_dims, batch, dst);
    } else {
        correlate_k::<0, MASKED>(k, taps, src, src_dims, batch, dst);
    }
}

/// [`correlate`] with the kernel size fixed at compile time (`K > 0`)
/// or read from `k` (`K == 0`). Each sweep applies nine taps, one 3×3
/// window, so the row is loaded and stored once per nine taps; the
/// taps past the last full nine sweep one at a time.
#[inline(always)]
fn correlate_k<const K: usize, const MASKED: bool>(
    k: usize,
    taps: &[f32],
    src: &[f32],
    (src_c, sh, sw): (usize, usize, usize),
    batch: usize,
    dst: &mut [f32],
) {
    let k = if K == 0 { k } else { K };
    let kk = k * k;
    let row = sw * batch;
    let o_row = (sw - k + 1) * batch;
    let o_plane = (sh - k + 1) * o_row;
    for (d, d_plane) in dst.chunks_exact_mut(o_plane).enumerate() {
        for s in 0..src_c {
            let t = &taps[(d * src_c + s) * kk..(d * src_c + s + 1) * kk];
            let s_plane = &src[s * sh * row..(s + 1) * sh * row];
            for (y, out) in d_plane.chunks_exact_mut(o_row).enumerate() {
                // Tap `i`'s source row, shifted to line up with `out`.
                let view = |i: usize| {
                    let at = (y + i / k) * row + i % k * batch;
                    &s_plane[at..at + o_row]
                };
                let mut nines = t.chunks_exact(9);
                for (c, w) in nines.by_ref().enumerate() {
                    let views = std::array::from_fn(|i| view(9 * c + i));
                    sweep::<9, MASKED>(out, &views, w.try_into().expect("nine taps"));
                }
                let done = kk - nines.remainder().len();
                for (i, &w) in nines.remainder().iter().enumerate() {
                    sweep::<1, MASKED>(out, &[view(done + i)], &[w]);
                }
            }
        }
    }
}

/// One stencil sweep: `out[j]` takes the `G` taps `views[g][j] · w[g]`
/// in ascending `g`. Indexing by `j` over views cut to `out`'s length
/// lets the loop vectorize across `j` with no bounds checks.
#[inline(always)]
fn sweep<const G: usize, const MASKED: bool>(out: &mut [f32], views: &[&[f32]; G], w: &[f32; G]) {
    let n = out.len();
    let views: [&[f32]; G] = std::array::from_fn(|g| &views[g][..n]);
    for j in 0..n {
        let mut acc = out[j];
        for g in 0..G {
            acc = tap::<MASKED>(acc, views[g][j], w[g]);
        }
        out[j] = acc;
    }
}

/// One `acc += x · w` tap. `MASKED` keeps the old bits wherever
/// `x == 0.0`, matching the reference backward's skip of zero gradients
/// exactly when `w` may be non-finite: the input gradient passes the
/// output gradient as `x` and a weight as `w`, the parameter gradient
/// the output gradient as `x` and an activation as `w`. The unmasked
/// tap is the forward and the all-finite backward.
#[inline(always)]
fn tap<const MASKED: bool>(acc: f32, x: f32, w: f32) -> f32 {
    let upd = acc + x * w;
    if MASKED {
        let m = ((x != 0.0) as u32).wrapping_neg();
        f32::from_bits(upd.to_bits() & m | acc.to_bits() & !m)
    } else {
        upd
    }
}

impl Conv2d {
    /// [`Layer::forward`](crate::Layer::forward) for a conv layer.
    pub(crate) fn forward(&mut self, params: &[f32], input: &Tensor) -> Result<Tensor, NnError> {
        let (oh, ow) = self.check_input(input)?;
        let dims = input.shape().dims();
        let (h, w) = (dims[1], dims[2]);
        let k = self.k;
        let mut out = Tensor::zeros(vec![self.out_c, oh, ow]);
        let x = input.data();
        let (wt, b) = self.wb(params);
        let od = out.data_mut();
        for oc in 0..self.out_c {
            let bias = b[oc];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias;
                    for ic in 0..self.in_c {
                        for ky in 0..k {
                            let xrow = ic * h * w + (oy + ky) * w + ox;
                            let wrow = ((oc * self.in_c + ic) * k + ky) * k;
                            for kx in 0..k {
                                acc += x[xrow + kx] * wt[wrow + kx];
                            }
                        }
                    }
                    od[oc * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    /// [`Layer::out_shape`](crate::Layer::out_shape) for a conv layer.
    pub(crate) fn out_shape(&self, in_shape: &ActShape) -> Result<ActShape, NnError> {
        let (oh, ow) = self.check_dims(in_shape.dims())?;
        Ok(ActShape::image(self.out_c, oh, ow))
    }

    /// The backward walk's layer call: the conv
    /// [`Layer::backward_batch_into`](crate::Layer::backward_batch_into)
    /// on an `in_shape` the forward walk has already validated.
    pub(crate) fn backward_kernel(
        &self,
        (params, grads): (&[f32], &mut [f32]),
        input: &[f32],
        in_shape: &ActShape,
        grad_out: &[f32],
        grad_in: Option<&mut [f32]>,
        scratch: &mut Vec<f32>,
    ) {
        let (h, w) = (in_shape.dims()[1], in_shape.dims()[2]);
        let batch = input.len() / in_shape.volume();
        // The reference backward interleaves gw/gb/dx updates in one
        // nest; splitting them into two passes is safe bitwise because
        // they accumulate into disjoint arrays, so each array's
        // per-element contribution order is unchanged.
        self.backward_params(grads, input, (h, w), batch, grad_out, scratch);
        let Some(grad_in) = grad_in else {
            return;
        };
        let grad_in = &mut grad_in[..self.in_c * h * w * batch];
        grad_in.fill(0.0);
        // `scratch` holds the rotated kernels, then one output channel's
        // gradient plane zero-padded by k − 1 on every side; only its
        // interior is ever written, so the border stays zero.
        let (k, kk) = (self.k, self.k * self.k);
        let (oh, ow) = (h - k + 1, w - k + 1);
        let (ph, pw) = (h + k - 1, w + k - 1);
        let (weights, _) = self.wb(params);
        let taps_len = weights.len();
        let (taps, plane) = zeroed(scratch, taps_len + ph * pw * batch).split_at_mut(taps_len);
        // The 180° rotation reverses each k×k window in place, so
        // `taps[oc]` is laid out `[ic][a][b]`: `d = ic` over one
        // source channel.
        for (r, win) in taps.chunks_exact_mut(kk).zip(weights.chunks_exact(kk)) {
            for (t, &v) in r.iter_mut().zip(win.iter().rev()) {
                *t = v;
            }
        }
        // Adding the zero-gradient terms the reference skips is
        // bit-neutral while every weight is finite: the product is ±0,
        // the accumulator starts at +0.0 and in round-to-nearest can
        // never reach −0.0. With a non-finite weight `0 · w` is NaN, so
        // the masked taps keep the old bits wherever `g == 0.0`.
        // Running them always cost about a fifth of `drone-finetune`
        // throughput (2-core Xeon), so one sweep picks per call.
        let finite = weights.iter().all(|v| v.is_finite());
        frlfi_obs::count(if finite { "nn.train.dx.fast" } else { "nn.train.dx.masked" }, 1);
        let planes = grad_out.chunks_exact(oh * ow * batch);
        for (g_plane, oc_taps) in planes.zip(taps.chunks_exact(self.in_c * kk)) {
            for (oy, g_row) in g_plane.chunks_exact(ow * batch).enumerate() {
                let dst = ((oy + k - 1) * pw + k - 1) * batch;
                plane[dst..dst + ow * batch].copy_from_slice(g_row);
            }
            if finite {
                correlate::<false>(k, oc_taps, plane, (1, ph, pw), batch, grad_in);
            } else {
                correlate::<true>(k, oc_taps, plane, (1, ph, pw), batch, grad_in);
            }
        }
    }

    /// [`Layer::backward`](crate::Layer::backward) for a conv layer.
    pub(crate) fn backward(
        &mut self,
        (params, grads): (&[f32], &mut [f32]),
        grad_out: &Tensor,
    ) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name.clone() })?
            .clone();
        let dims = input.shape().dims();
        let (h, w) = (dims[1], dims[2]);
        let (oh, ow) = self.out_hw(h, w)?;
        let gdims = grad_out.shape().dims();
        if gdims != [self.out_c, oh, ow] {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                left: vec![self.out_c, oh, ow],
                right: gdims.to_vec(),
                op: "conv2d backward",
            }));
        }
        let k = self.k;
        let x = input.data();
        let dy = grad_out.data();
        let mut dx = Tensor::zeros(vec![self.in_c, h, w]);
        {
            let (wt, _) = self.wb(params);
            let (gw, gb) = grads[self.range()].split_at_mut(self.n_weights());
            let dxd = dx.data_mut();
            for oc in 0..self.out_c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = dy[oc * oh * ow + oy * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        gb[oc] += g;
                        for ic in 0..self.in_c {
                            for ky in 0..k {
                                let xrow = ic * h * w + (oy + ky) * w + ox;
                                let wrow = ((oc * self.in_c + ic) * k + ky) * k;
                                for kx in 0..k {
                                    gw[wrow + kx] += g * x[xrow + kx];
                                    dxd[xrow + kx] += g * wt[wrow + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A conv layer seeded with `seed`, its plane and a zero gradient
    /// plane.
    fn conv(seed: u64, in_c: usize, out_c: usize, k: usize) -> (Conv2d, Vec<f32>, Vec<f32>) {
        let mut p = Vec::new();
        let c = Conv2d::new("c", in_c, out_c, k, &mut p, &mut StdRng::seed_from_u64(seed));
        let g = vec![0.0; p.len()];
        (c, p, g)
    }

    #[test]
    fn forward_shape() {
        let (mut c, p, _) = conv(0, 2, 3, 3);
        let out = c.forward(&p, &Tensor::zeros(vec![2, 9, 16])).unwrap();
        assert_eq!(out.shape().dims(), &[3, 7, 14]);
    }

    #[test]
    fn rejects_wrong_channels() {
        let (mut c, p, _) = conv(0, 2, 3, 3);
        assert!(c.forward(&p, &Tensor::zeros(vec![1, 9, 16])).is_err());
    }

    #[test]
    fn rejects_too_small_input() {
        let (mut c, p, _) = conv(0, 1, 1, 3);
        assert!(c.forward(&p, &Tensor::zeros(vec![1, 2, 2])).is_err());
    }

    #[test]
    fn identity_kernel_passes_through() {
        let (mut c, _, _) = conv(0, 1, 1, 1);
        let x = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = c.forward(&[1.0, 0.0], &x).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_convolution() {
        let (mut c, _, _) = conv(0, 1, 1, 2);
        let x = Tensor::from_vec(vec![1, 3, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
            .unwrap();
        let y = c.forward(&[1.0, 0.0, 0.0, 1.0, 0.5], &x).unwrap();
        // Main-diagonal sums + bias: (1+5, 2+6, 4+8, 5+9) + 0.5
        assert_eq!(y.data(), &[6.5, 8.5, 12.5, 14.5]);
    }

    #[test]
    fn numerical_gradient_check() {
        let (mut c, mut p, mut g) = conv(3, 1, 2, 2);
        let x =
            Tensor::random(vec![1, 4, 4], Init::Uniform(-1.0, 1.0), &mut StdRng::seed_from_u64(3));
        c.forward(&p, &x).unwrap();
        let dy = Tensor::full(vec![2, 3, 3], 1.0);
        c.backward((&p, &mut g), &dy).unwrap();
        let eps = 1e-3f32;
        for idx in 0..p.len() {
            let orig = p[idx];
            p[idx] = orig + eps;
            let hi = c.forward(&p, &x).unwrap().sum();
            p[idx] = orig - eps;
            let lo = c.forward(&p, &x).unwrap().sum();
            p[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - g[idx]).abs() < 2e-2,
                "parameter grad mismatch at {idx}: {numeric} vs {}",
                g[idx]
            );
        }
    }

    #[test]
    fn input_gradient_check() {
        let (mut c, p, mut g) = conv(4, 1, 1, 2);
        let mut x =
            Tensor::random(vec![1, 3, 3], Init::Uniform(-1.0, 1.0), &mut StdRng::seed_from_u64(4));
        c.forward(&p, &x).unwrap();
        let dx = c.backward((&p, &mut g), &Tensor::full(vec![1, 2, 2], 1.0)).unwrap();
        let eps = 1e-3f32;
        for idx in 0..x.len() {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let hi = c.forward(&p, &x).unwrap().sum();
            x.data_mut()[idx] = orig - eps;
            let lo = c.forward(&p, &x).unwrap().sum();
            x.data_mut()[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[idx]).abs() < 2e-2,
                "input grad mismatch at {idx}: {numeric} vs {}",
                dx.data()[idx]
            );
        }
    }
}
