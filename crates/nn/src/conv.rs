use crate::{ActShape, NnError};
use frlfi_tensor::{Init, Tensor, TensorError};
use rand::Rng;

/// A 2-D convolution layer with stride 1 and no padding ("valid").
///
/// Input is a rank-3 tensor `[in_c, h, w]`; output is
/// `[out_c, h − k + 1, w − k + 1]`. The DroneNav policy stacks three of
/// these over the raycast depth image before two dense layers (§IV-B-1).
///
/// ```
/// use frlfi_nn::{ActShape, Conv2d};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let conv = Conv2d::new("conv0", 1, 4, 3, &mut rng);
/// let out = conv.out_shape(&ActShape::image(1, 9, 16))?;
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
    pub(crate) w: Tensor,
    pub(crate) b: Tensor,
    pub(crate) gw: Tensor,
    pub(crate) gb: Tensor,
    pub(crate) cached_input: Option<Tensor>,
    /// Reusable per-sample gather buffers (one activation volume + one
    /// gradient volume) for the batched parameter-gradient pass, so the
    /// batched backward stays allocation-free after warm-up.
    x_gather: Vec<f32>,
    g_gather: Vec<f32>,
    /// One receptive-field window in `gw`-row layout (`ic → ky → kx`),
    /// regathered per output position so every output channel's
    /// gradient row updates as one contiguous axpy.
    patch: Vec<f32>,
}

impl Conv2d {
    /// Creates a conv layer with He-uniform kernels and zero bias.
    pub fn new<R: Rng>(
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        k: usize,
        rng: &mut R,
    ) -> Self {
        Conv2d {
            name: name.into(),
            in_c,
            out_c,
            k,
            w: Tensor::random(vec![out_c, in_c, k, k], Init::HeUniform, rng),
            b: Tensor::zeros(vec![out_c]),
            gw: Tensor::zeros(vec![out_c, in_c, k, k]),
            gb: Tensor::zeros(vec![out_c]),
            cached_input: None,
            x_gather: Vec::new(),
            g_gather: Vec::new(),
            patch: Vec::new(),
        }
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

    /// The blocked generic inference kernel: convolution as a sum of
    /// weight-scaled shifted input rows. The loop nest is
    /// `oc → ic → ky → oy → kx → ox`, so every *output element* still
    /// accumulates its terms in the reference `ic → ky → kx` order
    /// (bit-identical to [`Conv2d::forward`]) while the innermost `ox`
    /// sweep updates independent elements and vectorizes.
    fn forward_into_generic(
        &self,
        x: &[f32],
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        out: &mut [f32],
    ) {
        let k = self.k;
        let wt = self.w.data();
        let b = self.b.data();
        for oc in 0..self.out_c {
            let out_plane = &mut out[oc * oh * ow..(oc + 1) * oh * ow];
            out_plane.fill(b[oc]);
            for ic in 0..self.in_c {
                let x_chan = &x[ic * h * w..(ic + 1) * h * w];
                let w_base = (oc * self.in_c + ic) * k * k;
                for ky in 0..k {
                    let w_row = &wt[w_base + ky * k..w_base + (ky + 1) * k];
                    for oy in 0..oh {
                        let x_row = &x_chan[(oy + ky) * w..(oy + ky) * w + w];
                        let o_row = &mut out_plane[oy * ow..(oy + 1) * ow];
                        for (kx, &wv) in w_row.iter().enumerate() {
                            let x_shift = &x_row[kx..kx + ow];
                            for (o, &xv) in o_row.iter_mut().zip(x_shift.iter()) {
                                *o += xv * wv;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Kernel-size-specialized inference path for the ubiquitous 3×3
    /// case (the DroneNav policy is three k=3 convs): the `kx` loop is
    /// fully unrolled into three in-order `+=` updates per output
    /// element, preserving the reference accumulation order.
    fn forward_into_k3(
        &self,
        x: &[f32],
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        out: &mut [f32],
    ) {
        let wt = self.w.data();
        let b = self.b.data();
        for oc in 0..self.out_c {
            let out_plane = &mut out[oc * oh * ow..(oc + 1) * oh * ow];
            out_plane.fill(b[oc]);
            for ic in 0..self.in_c {
                let x_chan = &x[ic * h * w..(ic + 1) * h * w];
                let w_base = (oc * self.in_c + ic) * 9;
                for ky in 0..3 {
                    let w_row = &wt[w_base + ky * 3..w_base + ky * 3 + 3];
                    let (w0, w1, w2) = (w_row[0], w_row[1], w_row[2]);
                    for oy in 0..oh {
                        let x_row = &x_chan[(oy + ky) * w..(oy + ky) * w + w];
                        let o_row = &mut out_plane[oy * ow..(oy + 1) * ow];
                        // Three shifted, equal-length views of the input
                        // row: the zip carries no bounds checks and the
                        // per-element updates are independent, so the
                        // loop vectorizes while each output element
                        // still receives its kx = 0, 1, 2 terms in
                        // order.
                        let x0 = &x_row[..ow];
                        let x1 = &x_row[1..1 + ow];
                        let x2 = &x_row[2..2 + ow];
                        for (((o, &a), &b), &c) in o_row.iter_mut().zip(x0).zip(x1).zip(x2) {
                            *o += a * w0;
                            *o += b * w1;
                            *o += c * w2;
                        }
                    }
                }
            }
        }
    }

    /// The batched generic inference kernel over **batch-minor**
    /// activations (element `j` of sample `b` at `j * batch + b`),
    /// fused like the k=3 specialization: the loop nest is
    /// `oc → ic → oy → ox → ky → kx → batch`, so each output position's
    /// whole k×k window is applied in one pass — the `batch`-wide
    /// accumulator chunk is loaded and stored once per `(ic, position)`
    /// instead of the output row being swept k² times per input
    /// channel, and the innermost sweep updates `batch` contiguous,
    /// independent per-sample accumulators and vectorizes across the
    /// batch axis. Every *output element* of every sample still
    /// accumulates its terms in the reference `ic → ky → kx` order,
    /// bit-identical to [`Conv2d::forward_into`] on that sample alone.
    #[allow(clippy::too_many_arguments)]
    fn forward_batch_into_generic(
        &self,
        x: &[f32],
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        batch: usize,
        out: &mut [f32],
    ) {
        let k = self.k;
        let wt = self.w.data();
        let b = self.b.data();
        for oc in 0..self.out_c {
            let out_plane = &mut out[oc * oh * ow * batch..(oc + 1) * oh * ow * batch];
            out_plane.fill(b[oc]);
            for ic in 0..self.in_c {
                let x_chan = &x[ic * h * w * batch..(ic + 1) * h * w * batch];
                let w_win = &wt[(oc * self.in_c + ic) * k * k..(oc * self.in_c + ic + 1) * k * k];
                for oy in 0..oh {
                    let o_row = &mut out_plane[oy * ow * batch..(oy + 1) * ow * batch];
                    for (ox, os) in o_row.chunks_exact_mut(batch).enumerate() {
                        for ky in 0..k {
                            let x_win = &x_chan
                                [((oy + ky) * w + ox) * batch..((oy + ky) * w + ox + k) * batch];
                            for (xs, &wv) in x_win.chunks_exact(batch).zip(&w_win[ky * k..]) {
                                for (o, &xv) in os.iter_mut().zip(xs.iter()) {
                                    *o += xv * wv;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Batched kernel-size-3 specialization (see
    /// [`Conv2d::forward_into_k3`]): the whole 3×3 window is fused
    /// into nine in-order `+=` updates per output element, applied to
    /// all batch rows of each window position in one pass — the output
    /// row is loaded and stored once per input channel instead of once
    /// per kernel row, and the inner loop runs over `batch` contiguous
    /// independent accumulators, vectorizing across the batch axis.
    /// Per element the contributions still arrive in the reference
    /// `ky → kx` order within each `ic`, so every sample's output is
    /// bit-identical to the single-observation kernel.
    #[allow(clippy::too_many_arguments)]
    fn forward_batch_into_k3(
        &self,
        x: &[f32],
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        batch: usize,
        out: &mut [f32],
    ) {
        let wt = self.w.data();
        let b = self.b.data();
        for oc in 0..self.out_c {
            let out_plane = &mut out[oc * oh * ow * batch..(oc + 1) * oh * ow * batch];
            out_plane.fill(b[oc]);
            for ic in 0..self.in_c {
                let x_chan = &x[ic * h * w * batch..(ic + 1) * h * w * batch];
                let w_base = (oc * self.in_c + ic) * 9;
                let wv: [f32; 9] = wt[w_base..w_base + 9].try_into().expect("3x3 kernel");
                for oy in 0..oh {
                    let r0 = &x_chan[oy * w * batch..(oy + 1) * w * batch];
                    let r1 = &x_chan[(oy + 1) * w * batch..(oy + 2) * w * batch];
                    let r2 = &x_chan[(oy + 2) * w * batch..(oy + 3) * w * batch];
                    let o_row = &mut out_plane[oy * ow * batch..(oy + 1) * ow * batch];
                    for (ox, os) in o_row.chunks_exact_mut(batch).enumerate() {
                        let base = ox * batch;
                        fn win(r: &[f32], base: usize, kx: usize, batch: usize) -> &[f32] {
                            &r[base + kx * batch..base + (kx + 1) * batch]
                        }
                        let (x00, x01, x02) = (
                            win(r0, base, 0, batch),
                            win(r0, base, 1, batch),
                            win(r0, base, 2, batch),
                        );
                        let (x10, x11, x12) = (
                            win(r1, base, 0, batch),
                            win(r1, base, 1, batch),
                            win(r1, base, 2, batch),
                        );
                        let (x20, x21, x22) = (
                            win(r2, base, 0, batch),
                            win(r2, base, 1, batch),
                            win(r2, base, 2, batch),
                        );
                        let it = os
                            .iter_mut()
                            .zip(x00)
                            .zip(x01)
                            .zip(x02)
                            .zip(x10)
                            .zip(x11)
                            .zip(x12)
                            .zip(x20)
                            .zip(x21)
                            .zip(x22);
                        for (((((((((o, &a0), &a1), &a2), &b0), &b1), &b2), &c0), &c1), &c2) in it {
                            let mut acc = *o;
                            acc += a0 * wv[0];
                            acc += a1 * wv[1];
                            acc += a2 * wv[2];
                            acc += b0 * wv[3];
                            acc += b1 * wv[4];
                            acc += b2 * wv[5];
                            acc += c0 * wv[6];
                            acc += c1 * wv[7];
                            acc += c2 * wv[8];
                            *o = acc;
                        }
                    }
                }
            }
        }
    }

    /// Batched-backward pass 1: parameter gradients. Sample-outer on
    /// purpose — every `gw`/`gb` element accumulates the batch's
    /// contributions in ascending sample order.
    ///
    /// Inside one sample the reference nest runs `oc → oy → ox`, so for
    /// any single `gw`/`gb` element (which belongs to exactly one `oc`)
    /// the contributions arrive in ascending `(oy, ox)` order. This
    /// kernel hoists the position loop *outside* the channel loop and
    /// gathers the position's receptive-field window into a contiguous
    /// `patch` laid out exactly like one `gw` row (`ic → ky → kx`);
    /// each output channel with a non-zero gradient then updates its
    /// whole row as one vectorizable `gw_row += g · patch` axpy. Per
    /// element the visit order over `(sample, oy, ox)` — and the
    /// `g * x` product feeding each `+=` — is unchanged, so the
    /// accumulated gradients stay bitwise what `batch` sequential
    /// [`Conv2d::backward`] calls leave. The reference skips a position
    /// entirely (including the `gb` add) when its `g == 0.0`; the
    /// per-channel skip here preserves that.
    ///
    /// Each sample's batch-minor activations and gradient plane are
    /// first gathered into contiguous scratch rows: reading at stride
    /// `batch` costs one cache line per scalar, while the gather is a
    /// single strided sweep amortized over the `out_c · in_c · k²` MACs
    /// every position performs.
    #[allow(clippy::too_many_arguments)]
    fn backward_batch_params(
        &mut self,
        x: &[f32],
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        batch: usize,
        grad_out: &[f32],
    ) {
        let k = self.k;
        let vol = self.in_c * h * w;
        let ovol = self.out_c * oh * ow;
        let row = self.in_c * k * k;
        self.x_gather.resize(vol, 0.0);
        self.g_gather.resize(ovol, 0.0);
        self.patch.resize(row, 0.0);
        let gw = self.gw.data_mut();
        let gb = self.gb.data_mut();
        for t in 0..batch {
            for (j, xs) in self.x_gather.iter_mut().enumerate() {
                *xs = x[j * batch + t];
            }
            for (j, gs) in self.g_gather.iter_mut().enumerate() {
                *gs = grad_out[j * batch + t];
            }
            let (xs, gs) = (&self.x_gather[..], &self.g_gather[..]);
            for oy in 0..oh {
                for ox in 0..ow {
                    if (0..self.out_c).all(|oc| gs[oc * oh * ow + oy * ow + ox] == 0.0) {
                        continue;
                    }
                    for ic in 0..self.in_c {
                        for ky in 0..k {
                            let xrow = ic * h * w + (oy + ky) * w + ox;
                            let prow = (ic * k + ky) * k;
                            self.patch[prow..prow + k].copy_from_slice(&xs[xrow..xrow + k]);
                        }
                    }
                    for oc in 0..self.out_c {
                        let g = gs[oc * oh * ow + oy * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        gb[oc] += g;
                        let gwrow = &mut gw[oc * row..(oc + 1) * row];
                        for (gv, &pv) in gwrow.iter_mut().zip(self.patch.iter()) {
                            *gv += g * pv;
                        }
                    }
                }
            }
        }
    }

    /// Batched-backward pass 2, kernel-size-3 specialization: input
    /// gradients as a forward-style correlation. `dx` is the full
    /// convolution of the output gradient with the 180°-rotated kernel,
    /// so per output channel the gradient plane is copied into the
    /// interior of the zeroed `plane` (`(h+2)×(w+2)×batch`; only the
    /// interior is ever written, so the borders stay zero) and every
    /// `dx[ic]` element then
    /// takes the same fused nine-tap, batch-lane window pass as
    /// [`Conv2d::forward_batch_into_k3`].
    ///
    /// Bitwise contract: rotated tap `(a, b)` of input position
    /// `(iy, ix)` is the reference term of output position
    /// `(iy + a − 2, ix + b − 2)`, so taps in ascending `a → b` order
    /// deliver each `dx` element's terms in the reference
    /// `oc → oy → ox` order. The reference skips `g == 0.0` terms;
    /// adding them instead is bit-neutral while every weight is finite
    /// (the product is ±0, the accumulator starts at +0.0 and in
    /// round-to-nearest can never reach −0.0, and `x + ±0 == x`
    /// otherwise). With a non-finite weight `0 · w` is NaN, so the
    /// `MASKED` instantiation blends each tap against the lane's old
    /// bits wherever `g == 0.0` — a select on bits, which stays
    /// branch-free under ReLU-sparse gradients. Finite results match
    /// the reference bitwise; a lane that is NaN is NaN on both paths,
    /// but its payload may differ.
    #[allow(clippy::too_many_arguments)]
    fn backward_batch_dx_corr_k3<const MASKED: bool>(
        &self,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        batch: usize,
        grad_out: &[f32],
        plane: &mut [f32],
        grad_in: &mut [f32],
    ) {
        let pw = w + 2;
        let wt = self.w.data();
        for oc in 0..self.out_c {
            let g_plane = &grad_out[oc * oh * ow * batch..(oc + 1) * oh * ow * batch];
            for (oy, g_row) in g_plane.chunks_exact(ow * batch).enumerate() {
                let dst = ((oy + 2) * pw + 2) * batch;
                plane[dst..dst + ow * batch].copy_from_slice(g_row);
            }
            for ic in 0..self.in_c {
                let chan = &mut grad_in[ic * h * w * batch..(ic + 1) * h * w * batch];
                let w_base = (oc * self.in_c + ic) * 9;
                let mut wr = [0.0f32; 9];
                for (t, r) in wr.iter_mut().enumerate() {
                    *r = wt[w_base + 8 - t];
                }
                for iy in 0..h {
                    let r0 = &plane[iy * pw * batch..(iy + 1) * pw * batch];
                    let r1 = &plane[(iy + 1) * pw * batch..(iy + 2) * pw * batch];
                    let r2 = &plane[(iy + 2) * pw * batch..(iy + 3) * pw * batch];
                    let d_row = &mut chan[iy * w * batch..(iy + 1) * w * batch];
                    for (ix, ds) in d_row.chunks_exact_mut(batch).enumerate() {
                        let base = ix * batch;
                        fn win(r: &[f32], base: usize, b: usize, batch: usize) -> &[f32] {
                            &r[base + b * batch..base + (b + 1) * batch]
                        }
                        let (g00, g01, g02) = (
                            win(r0, base, 0, batch),
                            win(r0, base, 1, batch),
                            win(r0, base, 2, batch),
                        );
                        let (g10, g11, g12) = (
                            win(r1, base, 0, batch),
                            win(r1, base, 1, batch),
                            win(r1, base, 2, batch),
                        );
                        let (g20, g21, g22) = (
                            win(r2, base, 0, batch),
                            win(r2, base, 1, batch),
                            win(r2, base, 2, batch),
                        );
                        let it = ds
                            .iter_mut()
                            .zip(g00)
                            .zip(g01)
                            .zip(g02)
                            .zip(g10)
                            .zip(g11)
                            .zip(g12)
                            .zip(g20)
                            .zip(g21)
                            .zip(g22);
                        for (((((((((d, &a0), &a1), &a2), &b0), &b1), &b2), &c0), &c1), &c2) in it {
                            let mut acc = *d;
                            acc = tap::<MASKED>(acc, a0, wr[0]);
                            acc = tap::<MASKED>(acc, a1, wr[1]);
                            acc = tap::<MASKED>(acc, a2, wr[2]);
                            acc = tap::<MASKED>(acc, b0, wr[3]);
                            acc = tap::<MASKED>(acc, b1, wr[4]);
                            acc = tap::<MASKED>(acc, b2, wr[5]);
                            acc = tap::<MASKED>(acc, c0, wr[6]);
                            acc = tap::<MASKED>(acc, c1, wr[7]);
                            acc = tap::<MASKED>(acc, c2, wr[8]);
                            *d = acc;
                        }
                    }
                }
            }
        }
    }

    /// Batched-backward pass 2, generic kernel size: the correlation of
    /// [`Conv2d::backward_batch_dx_corr_k3`] over a `(h+k−1)×(w+k−1)`
    /// padded plane, with the whole rotated k×k window applied per
    /// `dx` position like [`Conv2d::forward_batch_into_generic`] (same
    /// bitwise contract).
    #[allow(clippy::too_many_arguments)]
    fn backward_batch_dx_corr_generic<const MASKED: bool>(
        &self,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        batch: usize,
        grad_out: &[f32],
        plane: &mut [f32],
        grad_in: &mut [f32],
    ) {
        let k = self.k;
        let pw = w + k - 1;
        let wt = self.w.data();
        for oc in 0..self.out_c {
            let g_plane = &grad_out[oc * oh * ow * batch..(oc + 1) * oh * ow * batch];
            for (oy, g_row) in g_plane.chunks_exact(ow * batch).enumerate() {
                let dst = ((oy + k - 1) * pw + k - 1) * batch;
                plane[dst..dst + ow * batch].copy_from_slice(g_row);
            }
            for ic in 0..self.in_c {
                let chan = &mut grad_in[ic * h * w * batch..(ic + 1) * h * w * batch];
                let w_win = &wt[(oc * self.in_c + ic) * k * k..(oc * self.in_c + ic + 1) * k * k];
                for iy in 0..h {
                    let d_row = &mut chan[iy * w * batch..(iy + 1) * w * batch];
                    for (ix, ds) in d_row.chunks_exact_mut(batch).enumerate() {
                        for a in 0..k {
                            let g_win = &plane
                                [((iy + a) * pw + ix) * batch..((iy + a) * pw + ix + k) * batch];
                            // Rotated row `a` is kernel row `k−1−a` reversed.
                            let w_row = &w_win[(k - 1 - a) * k..(k - a) * k];
                            for (gs, &wv) in g_win.chunks_exact(batch).zip(w_row.iter().rev()) {
                                for (d, &g) in ds.iter_mut().zip(gs) {
                                    *d = tap::<MASKED>(*d, g, wv);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One `dx += g · w` correlation tap. `MASKED` keeps the old bits
/// wherever `g == 0.0`, matching the reference's skip exactly when `w`
/// may be non-finite; the unmasked tap is the finite-weight fast path.
#[inline(always)]
fn tap<const MASKED: bool>(acc: f32, g: f32, w: f32) -> f32 {
    let upd = acc + g * w;
    if MASKED {
        let m = ((g != 0.0) as u32).wrapping_neg();
        f32::from_bits(upd.to_bits() & m | acc.to_bits() & !m)
    } else {
        upd
    }
}

impl Conv2d {
    /// [`Layer::forward`](crate::Layer::forward) for a conv layer.
    pub(crate) fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let (oh, ow) = self.check_input(input)?;
        let dims = input.shape().dims();
        let (h, w) = (dims[1], dims[2]);
        let k = self.k;
        let mut out = Tensor::zeros(vec![self.out_c, oh, ow]);
        let x = input.data();
        let wt = self.w.data();
        let od = out.data_mut();
        for oc in 0..self.out_c {
            let bias = self.b.data()[oc];
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
    pub fn out_shape(&self, in_shape: &ActShape) -> Result<ActShape, NnError> {
        let (oh, ow) = self.check_dims(in_shape.dims())?;
        Ok(ActShape::image(self.out_c, oh, ow))
    }

    /// `Layer::forward_into` for a conv layer.
    pub fn forward_into(
        &self,
        input: &[f32],
        in_shape: &ActShape,
        out: &mut [f32],
    ) -> Result<(), NnError> {
        let (oh, ow) = self.check_dims(in_shape.dims())?;
        let dims = in_shape.dims();
        let (h, w) = (dims[1], dims[2]);
        if self.k == 3 {
            self.forward_into_k3(input, h, w, oh, ow, out);
        } else {
            self.forward_into_generic(input, h, w, oh, ow, out);
        }
        Ok(())
    }

    /// [`Layer::forward_batch_into`](crate::Layer::forward_batch_into) for a conv layer.
    pub fn forward_batch_into(
        &self,
        input: &[f32],
        in_shape: &ActShape,
        batch: usize,
        out: &mut [f32],
    ) -> Result<(), NnError> {
        let (oh, ow) = self.check_dims(in_shape.dims())?;
        let dims = in_shape.dims();
        let (h, w) = (dims[1], dims[2]);
        if self.k == 3 {
            self.forward_batch_into_k3(input, h, w, oh, ow, batch, out);
        } else {
            self.forward_batch_into_generic(input, h, w, oh, ow, batch, out);
        }
        Ok(())
    }

    /// [`Layer::backward_batch_into`](crate::Layer::backward_batch_into) for a conv layer.
    pub fn backward_batch_into(
        &mut self,
        input: &[f32],
        in_shape: &ActShape,
        batch: usize,
        grad_out: &[f32],
        grad_in: Option<&mut [f32]>,
        scratch: &mut Vec<f32>,
    ) -> Result<(), NnError> {
        let (oh, ow) = self.check_dims(in_shape.dims())?;
        let dims = in_shape.dims();
        let (h, w) = (dims[1], dims[2]);
        // The reference backward interleaves gw/gb/dx updates in one
        // nest; splitting them into two passes is safe bitwise because
        // they accumulate into disjoint arrays, so each array's
        // per-element contribution order is unchanged.
        self.backward_batch_params(input, h, w, oh, ow, batch, grad_out);
        let Some(grad_in) = grad_in else {
            return Ok(());
        };
        let grad_in = &mut grad_in[..self.in_c * h * w * batch];
        grad_in.fill(0.0);
        // Exact reservation: growing by doubling as episode batches grow
        // would keep up to twice the largest plane resident per worker.
        let plane_len = (h + self.k - 1) * (w + self.k - 1) * batch;
        scratch.clear();
        scratch.reserve_exact(plane_len);
        scratch.resize(plane_len, 0.0);
        let plane = &mut scratch[..];
        // The unmasked kernel needs every weight finite. Running the
        // masked one always cost about a fifth of `drone-finetune`
        // throughput (2-core Xeon), so one sweep picks per call.
        let finite = self.w.data().iter().all(|v| v.is_finite());
        frlfi_obs::count(if finite { "nn.train.dx.fast" } else { "nn.train.dx.masked" }, 1);
        match (self.k == 3, finite) {
            (true, true) => self
                .backward_batch_dx_corr_k3::<false>(h, w, oh, ow, batch, grad_out, plane, grad_in),
            (true, false) => self
                .backward_batch_dx_corr_k3::<true>(h, w, oh, ow, batch, grad_out, plane, grad_in),
            (false, true) => self.backward_batch_dx_corr_generic::<false>(
                h, w, oh, ow, batch, grad_out, plane, grad_in,
            ),
            (false, false) => self.backward_batch_dx_corr_generic::<true>(
                h, w, oh, ow, batch, grad_out, plane, grad_in,
            ),
        }
        Ok(())
    }

    /// [`Layer::backward`](crate::Layer::backward) for a conv layer.
    pub(crate) fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
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
            let gw = self.gw.data_mut();
            let gb = self.gb.data_mut();
            let wt = self.w.data();
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

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new("c", 2, 3, 3, &mut rng);
        let out = c.forward(&Tensor::zeros(vec![2, 9, 16])).unwrap();
        assert_eq!(out.shape().dims(), &[3, 7, 14]);
    }

    #[test]
    fn rejects_wrong_channels() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new("c", 2, 3, 3, &mut rng);
        assert!(c.forward(&Tensor::zeros(vec![1, 9, 16])).is_err());
    }

    #[test]
    fn rejects_too_small_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new("c", 1, 1, 3, &mut rng);
        assert!(c.forward(&Tensor::zeros(vec![1, 2, 2])).is_err());
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new("c", 1, 1, 1, &mut rng);
        c.w = Tensor::from_vec(vec![1, 1, 1, 1], vec![1.0]).unwrap();
        let x = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = c.forward(&x).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_convolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new("c", 1, 1, 2, &mut rng);
        c.w = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        c.b = Tensor::from_vec(vec![1], vec![0.5]).unwrap();
        let x = Tensor::from_vec(vec![1, 3, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
            .unwrap();
        let y = c.forward(&x).unwrap();
        // Main-diagonal sums + bias: (1+5, 2+6, 4+8, 5+9) + 0.5
        assert_eq!(y.data(), &[6.5, 8.5, 12.5, 14.5]);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Conv2d::new("c", 1, 2, 2, &mut rng);
        let x = Tensor::random(vec![1, 4, 4], Init::Uniform(-1.0, 1.0), &mut rng);
        c.forward(&x).unwrap();
        let dy = Tensor::full(vec![2, 3, 3], 1.0);
        c.backward(&dy).unwrap();
        let analytic = c.gw.clone();
        let eps = 1e-3f32;
        for idx in 0..c.w.len() {
            let orig = c.w.data()[idx];
            c.w.data_mut()[idx] = orig + eps;
            let hi = c.forward(&x).unwrap().sum();
            c.w.data_mut()[idx] = orig - eps;
            let lo = c.forward(&x).unwrap().sum();
            c.w.data_mut()[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < 2e-2,
                "kernel grad mismatch at {idx}: {numeric} vs {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn input_gradient_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = Conv2d::new("c", 1, 1, 2, &mut rng);
        let mut x = Tensor::random(vec![1, 3, 3], Init::Uniform(-1.0, 1.0), &mut rng);
        c.forward(&x).unwrap();
        let dx = c.backward(&Tensor::full(vec![1, 2, 2], 1.0)).unwrap();
        let eps = 1e-3f32;
        for idx in 0..x.len() {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let hi = c.forward(&x).unwrap().sum();
            x.data_mut()[idx] = orig - eps;
            let lo = c.forward(&x).unwrap().sum();
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
