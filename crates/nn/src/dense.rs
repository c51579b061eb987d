use crate::{ActShape, NnError};
use frlfi_tensor::{Init, Tensor, TensorError};
use rand::Rng;
use std::ops::Range;

/// Batch-tile width of the batched dense kernel (lanes per micro-tile).
const BW: usize = 16;

/// Smallest batch on which `Dense::forward_cols` runs its AVX2 instance
/// ([`crate::wide`]), on a layer of at least `WIDE_IN` inputs. Batches
/// 2–7 measured within ±8% of the baseline instance, batches from 8 on
/// 14–39% faster (480×64, 64×25 and 32×32 layers).
#[cfg(target_arch = "x86_64")]
const WIDE_BATCH: usize = 8;

/// Smallest `in_dim` on which `Dense::backward_kernel` and
/// `Dense::forward_cols` run their AVX2 instances. In the backward,
/// the length of each per-sample `gw` and `dx` row update, rows of 8–24
/// inputs measured 4–27% slower, 40–56 between 11% faster and 2%
/// slower, and from 64 on 10–27% faster. Rows of 32 measured faster in
/// isolation too, but the GridWorld layers (6 and 32 inputs) stay on
/// the baseline instance: with its batched greedy evaluation on the
/// AVX2 `forward_cols`, grid-train ran 6% slower end to end, although
/// that evaluation is well under 1% of its time.
#[cfg(target_arch = "x86_64")]
const WIDE_IN: usize = 64;

/// A fully connected layer: `y = W·x + b` with `W ∈ [out, in]`.
///
/// Inputs and outputs are rank-1 tensors — reinforcement-learning
/// interaction is inherently step-by-step, so there is no batch
/// dimension. The layer reads `W` (row-major) and then `b` from its
/// span of a parameter plane, and gradients accumulate across backward
/// calls (episode sums) into the same span of a gradient plane.
///
/// ```
/// use frlfi_nn::Dense;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut plane = Vec::new();
/// let layer = Dense::new("fc0", 3, 2, &mut plane, &mut StdRng::seed_from_u64(0));
/// assert_eq!((layer.in_dim(), layer.out_dim()), (3, 2));
/// assert_eq!(plane.len(), 3 * 2 + 2);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    pub(crate) name: String,
    in_dim: usize,
    out_dim: usize,
    /// Where the weights start in the plane; the bias follows them.
    start: usize,
    pub(crate) cached_input: Option<Tensor>,
    /// Reusable per-sample gather/accumulator rows (one input volume
    /// each) for the batched backward, so it stays allocation-free
    /// after warm-up.
    x_gather: Vec<f32>,
    dx_gather: Vec<f32>,
}

impl Dense {
    /// Appends a dense layer's He-uniform weights and zero bias to
    /// `plane` and returns the layer that reads them there.
    pub fn new<R: Rng>(
        name: impl Into<String>,
        in_dim: usize,
        out_dim: usize,
        plane: &mut Vec<f32>,
        rng: &mut R,
    ) -> Self {
        let start = plane.len();
        plane.extend_from_slice(Tensor::random(vec![out_dim, in_dim], Init::HeUniform, rng).data());
        plane.resize(plane.len() + out_dim, 0.0);
        Dense {
            name: name.into(),
            in_dim,
            out_dim,
            start,
            cached_input: None,
            x_gather: Vec::new(),
            dx_gather: Vec::new(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The layer's span of the plane: `W`, then `b`.
    pub(crate) fn range(&self) -> Range<usize> {
        self.start..self.start + self.out_dim * (self.in_dim + 1)
    }

    /// `W` and `b` in `params`.
    fn wb<'p>(&self, params: &'p [f32]) -> (&'p [f32], &'p [f32]) {
        params[self.range()].split_at(self.out_dim * self.in_dim)
    }
}

/// One sample's share of the dense backward, run both by the batch-1
/// path and by the per-sample loop of larger batches: `gb += d` for
/// every output row, and for rows with `d != 0.0` the reference's
/// `gw += d * x` and, when `dx` is present, `dx += d * w`. `d(i)`
/// reads the sample's output gradient of row `i`; `x` and `dx` are the
/// sample's contiguous input and input-gradient rows.
///
/// The loops are written once on purpose: when both operands of a
/// float add are NaN, which payload survives depends on how the
/// compiler orders the (commutative) add in a loop's vector body and
/// its scalar tail, so two hand-written copies of "the same" loop need
/// not agree bit for bit.
#[inline(always)]
fn backward_sample(
    w: &[f32],
    gw: &mut [f32],
    gb: &mut [f32],
    x: &[f32],
    d: impl Fn(usize) -> f32,
    mut dx: Option<&mut [f32]>,
) {
    let in_dim = x.len();
    for (i, gbv) in gb.iter_mut().enumerate() {
        let d = d(i);
        *gbv += d;
        if d == 0.0 {
            continue;
        }
        let gwrow = &mut gw[i * in_dim..(i + 1) * in_dim];
        for (gv, &xv) in gwrow.iter_mut().zip(x.iter()) {
            *gv += d * xv;
        }
        if let Some(dx) = dx.as_deref_mut() {
            let wrow = &w[i * in_dim..(i + 1) * in_dim];
            for (dv, &wv) in dx.iter_mut().zip(wrow.iter()) {
                *dv += d * wv;
            }
        }
    }
}

impl Dense {
    /// [`Layer::forward`](crate::Layer::forward) for a dense layer.
    pub(crate) fn forward(&mut self, params: &[f32], input: &Tensor) -> Result<Tensor, NnError> {
        // Accept any shape whose volume matches `in_dim` (a conv feature
        // map flattens implicitly, as in the DroneNav conv→dense stack).
        self.out_shape(&ActShape::flat(input.len()))?;
        let (w, b) = self.wb(params);
        let mut out = Tensor::zeros(vec![self.out_dim]);
        // `Tensor::matvec`'s row sums, then the bias.
        for ((o, row), &bias) in out.data_mut().iter_mut().zip(w.chunks_exact(self.in_dim)).zip(b) {
            *o = row.iter().zip(input.data()).map(|(a, b)| a * b).sum();
            *o += bias;
        }
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    /// [`Layer::out_shape`](crate::Layer::out_shape) for a dense layer.
    pub(crate) fn out_shape(&self, in_shape: &ActShape) -> Result<ActShape, NnError> {
        // Any shape whose volume matches `in_dim` flattens implicitly,
        // exactly as in `forward`.
        if in_shape.volume() != self.in_dim {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                left: vec![self.out_dim, self.in_dim],
                right: in_shape.dims().to_vec(),
                op: "matvec",
            }));
        }
        Ok(ActShape::flat(self.out_dim))
    }

    /// The inference forward at any batch on an input shape the caller
    /// has already checked: the matvec for one observation, the tiled
    /// matrix product for more.
    pub(crate) fn forward_kernel(
        &self,
        params: &[f32],
        input: &[f32],
        batch: usize,
        out: &mut [f32],
    ) {
        if batch == 1 {
            self.forward_row(params, input, out);
        } else {
            self.forward_cols(params, input, batch, out);
        }
    }

    /// One observation: `out = W·x + b`.
    fn forward_row(&self, params: &[f32], input: &[f32], out: &mut [f32]) {
        let (out_dim, in_dim) = (self.out_dim, self.in_dim);
        let (w, b) = self.wb(params);
        let x = &input[..in_dim];
        // Register-blocked matvec: four output rows per pass share one
        // streaming read of `x`. Each row keeps its own accumulator and
        // sums `w[i][j] * x[j]` sequentially in `j`, which is the exact
        // accumulation order of `Tensor::matvec` — the blocking is over
        // independent rows, so results stay bit-identical to `forward`.
        let mut i = 0;
        while i + 4 <= out_dim {
            let r0 = &w[i * in_dim..(i + 1) * in_dim];
            let r1 = &w[(i + 1) * in_dim..(i + 2) * in_dim];
            let r2 = &w[(i + 2) * in_dim..(i + 3) * in_dim];
            let r3 = &w[(i + 3) * in_dim..(i + 4) * in_dim];
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for j in 0..in_dim {
                let xj = x[j];
                a0 += r0[j] * xj;
                a1 += r1[j] * xj;
                a2 += r2[j] * xj;
                a3 += r3[j] * xj;
            }
            out[i] = a0 + b[i];
            out[i + 1] = a1 + b[i + 1];
            out[i + 2] = a2 + b[i + 2];
            out[i + 3] = a3 + b[i + 3];
            i += 4;
        }
        while i < out_dim {
            let row = &w[i * in_dim..(i + 1) * in_dim];
            let mut acc = 0.0f32;
            for (wv, xv) in row.iter().zip(x.iter()) {
                acc += wv * xv;
            }
            out[i] = acc + b[i];
            i += 1;
        }
    }

    /// A batch-minor batch of observations. A batch of at least
    /// `WIDE_BATCH` through a layer of at least `WIDE_IN` inputs runs
    /// the AVX2 instance.
    fn forward_cols(&self, params: &[f32], input: &[f32], batch: usize, out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if batch >= WIDE_BATCH && crate::wide::avx2(self.in_dim, WIDE_IN) {
            // SAFETY: `avx2` has detected AVX2 on this host.
            return unsafe { self.forward_cols_avx2(params, input, batch, out) };
        }
        self.forward_cols_body(params, input, batch, out);
    }

    /// [`Dense::forward_cols`] compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(crate) fn forward_cols_avx2(
        &self,
        params: &[f32],
        input: &[f32],
        batch: usize,
        out: &mut [f32],
    ) {
        self.forward_cols_body(params, input, batch, out);
    }

    /// The body of [`Dense::forward_cols`], inlined into each instance:
    /// the register-tiled matrix–matrix product `W[out,in] × X[in,batch]`
    /// over batch-minor activations. Samples up to the last multiple of
    /// four go in tiles of [`BW`], 8 and 4 samples, two output rows a
    /// tile (an odd last row alone). The one to three samples left
    /// cannot fill a vector, so their tiles take four rows to keep
    /// enough independent accumulators in flight. Every tile width is a
    /// constant, so each tile's accumulators vectorize: a ragged tile
    /// with a run-time width cost as much as a full one.
    #[inline(always)]
    pub(crate) fn forward_cols_body(
        &self,
        params: &[f32],
        input: &[f32],
        batch: usize,
        out: &mut [f32],
    ) {
        let wb = self.wb(params);
        let quads = batch - batch % 4;
        let out_dim = self.out_dim;
        let mut i = 0;
        while i + 2 <= out_dim {
            self.cols_quads::<2>(wb, i, quads, input, batch, out);
            i += 2;
        }
        if i < out_dim {
            self.cols_quads::<1>(wb, i, quads, input, batch, out);
        }
        match batch - quads {
            1 => self.cols_rest::<1>(wb, quads, input, batch, out),
            2 => self.cols_rest::<2>(wb, quads, input, batch, out),
            3 => self.cols_rest::<3>(wb, quads, input, batch, out),
            _ => {}
        }
    }

    /// Output rows `i..i + R` for samples `0..quads`, a multiple of four.
    #[inline(always)]
    fn cols_quads<const R: usize>(
        &self,
        wb: (&[f32], &[f32]),
        i: usize,
        quads: usize,
        input: &[f32],
        batch: usize,
        out: &mut [f32],
    ) {
        let mut bb = 0;
        while bb + BW <= quads {
            self.cols_tile::<R, BW>(wb, (i, bb), input, batch, out);
            bb += BW;
        }
        if quads - bb >= 8 {
            self.cols_tile::<R, 8>(wb, (i, bb), input, batch, out);
            bb += 8;
        }
        if quads - bb >= 4 {
            self.cols_tile::<R, 4>(wb, (i, bb), input, batch, out);
        }
    }

    /// Every output row for the last `W` samples, from sample `bb`.
    #[inline(always)]
    fn cols_rest<const W: usize>(
        &self,
        wb: (&[f32], &[f32]),
        bb: usize,
        input: &[f32],
        batch: usize,
        out: &mut [f32],
    ) {
        let out_dim = self.out_dim;
        let mut i = 0;
        while i + 4 <= out_dim {
            self.cols_tile::<4, W>(wb, (i, bb), input, batch, out);
            i += 4;
        }
        for i in i..out_dim {
            self.cols_tile::<1, W>(wb, (i, bb), input, batch, out);
        }
    }

    /// Output rows `i..i + R` for samples `bb..bb + W`. The rows share
    /// each streaming read of the samples' input columns, so every
    /// weight scalar is reused across the tile, and the inner loop runs
    /// across independent per-sample accumulators. Each sample still
    /// sums `w[i][j] * x_b[j]` sequentially in `j` — the exact
    /// accumulation order of `forward_row` — so rows are bit-identical
    /// to single-observation inference.
    #[inline(always)]
    fn cols_tile<const R: usize, const W: usize>(
        &self,
        (w, b): (&[f32], &[f32]),
        (i, bb): (usize, usize),
        input: &[f32],
        batch: usize,
        out: &mut [f32],
    ) {
        let in_dim = self.in_dim;
        let rows: [&[f32]; R] = std::array::from_fn(|r| &w[(i + r) * in_dim..][..in_dim]);
        let mut acc = [[0.0f32; W]; R];
        for j in 0..in_dim {
            let xj = &input[j * batch + bb..][..W];
            for (a, row) in acc.iter_mut().zip(&rows) {
                let wv = row[j];
                for (a, &xv) in a.iter_mut().zip(xj) {
                    *a += wv * xv;
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            let b = b[i + r];
            for (o, &a) in out[(i + r) * batch + bb..][..W].iter_mut().zip(a) {
                *o = a + b;
            }
        }
    }

    /// The backward walk's layer call: the dense
    /// [`Layer::backward_batch_into`](crate::Layer::backward_batch_into)
    /// on an input shape the forward walk has already validated. A
    /// layer of at least `WIDE_IN` inputs runs the AVX2 instance.
    pub(crate) fn backward_kernel(
        &mut self,
        planes: (&[f32], &mut [f32]),
        input: &[f32],
        grad_out: &[f32],
        grad_in: Option<&mut [f32]>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if crate::wide::avx2(self.in_dim, WIDE_IN) {
            // SAFETY: `avx2` has detected AVX2 on this host.
            return unsafe { self.backward_avx2(planes, input, grad_out, grad_in) };
        }
        self.backward_body(planes, input, grad_out, grad_in);
    }

    /// [`Dense::backward_kernel`] compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(crate) fn backward_avx2(
        &mut self,
        planes: (&[f32], &mut [f32]),
        input: &[f32],
        grad_out: &[f32],
        grad_in: Option<&mut [f32]>,
    ) {
        self.backward_body(planes, input, grad_out, grad_in);
    }

    /// The body of [`Dense::backward_kernel`], inlined into each
    /// instance.
    #[inline(always)]
    pub(crate) fn backward_body(
        &mut self,
        (params, grads): (&[f32], &mut [f32]),
        input: &[f32],
        grad_out: &[f32],
        mut grad_in: Option<&mut [f32]>,
    ) {
        let in_dim = self.in_dim;
        let batch = input.len() / in_dim;
        let (w, _) = self.wb(params);
        let (gw, gb) = grads[self.range()].split_at_mut(self.out_dim * in_dim);
        // Sample-outer, exactly the reference [`Layer::backward`] loop
        // structure run once per sample with `t` ascending — so every
        // `gw`/`gb` element accumulates the batch's contributions in
        // the same order, with the same `d * x` products, as `batch`
        // sequential backward calls. Bitwise contract details:
        //   * the reference skips whole weight rows when `dy == 0.0`
        //     (both the `gw` and `dx` updates), mirrored by the
        //     `continue` in `backward_sample`;
        //   * `gb` is deliberately **unconditional** because the
        //     reference accumulates it via `axpy`, which adds zero
        //     contributions too;
        //   * each sample's activations are gathered from the
        //     batch-minor arena into a contiguous row (and its `dx`
        //     accumulated in one) so both inner loops are unit-stride
        //     axpys over `in_dim` — the gather/scatter only relocates
        //     bytes, never reorders an accumulation;
        //   * without `grad_in` all `dx` work is skipped, which touches
        //     no parameter gradient.
        if batch == 1 {
            // A one-sample batch-minor row already is contiguous: run
            // the per-sample loops on it in place, without the copies.
            let grad_in = grad_in.map(|dx| {
                let dx = &mut dx[..in_dim];
                dx.fill(0.0);
                dx
            });
            backward_sample(w, gw, gb, &input[..in_dim], |i| grad_out[i], grad_in);
            return;
        }
        let want_dx = grad_in.is_some();
        self.x_gather.resize(in_dim, 0.0);
        if want_dx {
            self.dx_gather.resize(in_dim, 0.0);
        }
        for t in 0..batch {
            for (j, xs) in self.x_gather.iter_mut().enumerate() {
                *xs = input[j * batch + t];
            }
            if want_dx {
                self.dx_gather.fill(0.0);
            }
            backward_sample(
                w,
                gw,
                gb,
                &self.x_gather,
                |i| grad_out[i * batch + t],
                want_dx.then_some(&mut self.dx_gather[..]),
            );
            if let Some(grad_in) = grad_in.as_deref_mut() {
                for (j, &dv) in self.dx_gather.iter().enumerate() {
                    grad_in[j * batch + t] = dv;
                }
            }
        }
    }

    /// [`Layer::backward`](crate::Layer::backward) for a dense layer.
    pub(crate) fn backward(
        &mut self,
        (params, grads): (&[f32], &mut [f32]),
        grad_out: &Tensor,
    ) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name.clone() })?;
        let (out_dim, in_dim) = (self.out_dim, self.in_dim);
        if grad_out.len() != out_dim {
            return Err(NnError::Tensor(frlfi_tensor::TensorError::ShapeMismatch {
                left: vec![out_dim],
                right: grad_out.shape().dims().to_vec(),
                op: "dense backward",
            }));
        }
        let (w, _) = self.wb(params);
        let (gw, gb) = grads[self.range()].split_at_mut(out_dim * in_dim);
        // gw += dy ⊗ x ; gb += dy ; dx = Wᵀ dy
        for i in 0..out_dim {
            let dy = grad_out.data()[i];
            if dy == 0.0 {
                continue;
            }
            let row = &mut gw[i * in_dim..(i + 1) * in_dim];
            for (g, &x) in row.iter_mut().zip(input.data().iter()) {
                *g += dy * x;
            }
        }
        for (g, &dy) in gb.iter_mut().zip(grad_out.data()) {
            *g += dy;
        }
        let mut dx = Tensor::zeros(vec![in_dim]);
        {
            let dxd = dx.data_mut();
            for i in 0..out_dim {
                let dy = grad_out.data()[i];
                if dy == 0.0 {
                    continue;
                }
                let row = &w[i * in_dim..(i + 1) * in_dim];
                for (d, &w) in dxd.iter_mut().zip(row.iter()) {
                    *d += w * dy;
                }
            }
        }
        // Return the gradient in the caller's original input shape so a
        // preceding conv layer receives a rank-3 gradient.
        let dx = dx.reshape(input.shape().dims().to_vec())?;
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `W = [[1, 2], [3, 4]]`, `b = [0.5, -0.5]`, its plane and a zero
    /// gradient plane.
    fn fixed_layer() -> (Dense, Vec<f32>, Vec<f32>) {
        let mut plane = Vec::new();
        let l = Dense::new("fc", 2, 2, &mut plane, &mut StdRng::seed_from_u64(0));
        plane.copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]);
        (l, plane, vec![0.0; 6])
    }

    #[test]
    fn forward_affine() {
        let (mut l, p, _) = fixed_layer();
        let y = l.forward(&p, &Tensor::from_vec(vec![2], vec![1.0, 1.0]).unwrap()).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let (mut l, p, mut g) = fixed_layer();
        let e = l.backward((&p, &mut g), &Tensor::zeros(vec![2]));
        assert!(matches!(e, Err(NnError::BackwardBeforeForward { .. })));
    }

    #[test]
    fn backward_gradients() {
        let (mut l, p, mut g) = fixed_layer();
        let x = Tensor::from_vec(vec![2], vec![2.0, -1.0]).unwrap();
        l.forward(&p, &x).unwrap();
        let dy = Tensor::from_vec(vec![2], vec![1.0, 0.5]).unwrap();
        let dx = l.backward((&p, &mut g), &dy).unwrap();
        // dx = Wᵀ dy = [1*1 + 3*0.5, 2*1 + 4*0.5] = [2.5, 4.0]
        assert_eq!(dx.data(), &[2.5, 4.0]);
        // gw = dy ⊗ x = [[2,-1],[1,-0.5]], then gb = dy
        assert_eq!(g, [2.0, -1.0, 1.0, -0.5, 1.0, 0.5]);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut p = Vec::new();
        let mut l = Dense::new("fc", 3, 2, &mut p, &mut StdRng::seed_from_u64(7));
        let mut g = vec![0.0; p.len()];
        let x = Tensor::from_vec(vec![3], vec![0.3, -0.7, 1.1]).unwrap();
        // loss = sum(y); dL/dy = ones
        let eps = 1e-3f32;
        l.forward(&p, &x).unwrap();
        l.backward((&p, &mut g), &Tensor::full(vec![2], 1.0)).unwrap();
        for idx in 0..p.len() {
            let orig = p[idx];
            p[idx] = orig + eps;
            let hi = l.forward(&p, &x).unwrap().sum();
            p[idx] = orig - eps;
            let lo = l.forward(&p, &x).unwrap().sum();
            p[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - g[idx]).abs() < 1e-2,
                "grad mismatch at {idx}: numeric {numeric} vs analytic {}",
                g[idx]
            );
        }
    }

    #[test]
    fn grads_accumulate_across_steps() {
        let (mut l, p, mut g) = fixed_layer();
        let x = Tensor::from_vec(vec![2], vec![1.0, 0.0]).unwrap();
        for _ in 0..3 {
            l.forward(&p, &x).unwrap();
            l.backward((&p, &mut g), &Tensor::full(vec![2], 1.0)).unwrap();
        }
        assert_eq!(g[4..], [3.0, 3.0]);
    }
}
