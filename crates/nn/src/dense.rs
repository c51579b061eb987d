use crate::{ActShape, NnError};
use frlfi_tensor::{Init, Tensor, TensorError};
use rand::Rng;

/// Batch-tile width of the batched dense kernel (lanes per micro-tile).
const BW: usize = 16;

/// A fully connected layer: `y = W·x + b` with `W ∈ [out, in]`.
///
/// Inputs and outputs are rank-1 tensors — reinforcement-learning
/// interaction is inherently step-by-step, so there is no batch
/// dimension. Gradients accumulate across backward calls (episode sums)
/// until [`Dense::apply_grads`].
///
/// ```
/// use frlfi_nn::Dense;
/// use frlfi_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut layer = Dense::new("fc0", 3, 2, &mut rng);
/// let y = layer.forward(&Tensor::from_vec(vec![3], vec![1.0, 0.0, -1.0])?)?;
/// assert_eq!(y.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    pub(crate) name: String,
    pub(crate) w: Tensor,
    pub(crate) b: Tensor,
    pub(crate) gw: Tensor,
    pub(crate) gb: Tensor,
    pub(crate) cached_input: Option<Tensor>,
    /// Reusable per-sample gather/accumulator rows (one input volume
    /// each) for the batched backward, so it stays allocation-free
    /// after warm-up.
    x_gather: Vec<f32>,
    dx_gather: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with He-uniform weights and zero bias.
    pub fn new<R: Rng>(
        name: impl Into<String>,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        Dense {
            name: name.into(),
            w: Tensor::random(vec![out_dim, in_dim], Init::HeUniform, rng),
            b: Tensor::zeros(vec![out_dim]),
            gw: Tensor::zeros(vec![out_dim, in_dim]),
            gb: Tensor::zeros(vec![out_dim]),
            cached_input: None,
            x_gather: Vec::new(),
            dx_gather: Vec::new(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.shape().dims()[1]
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.shape().dims()[0]
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.b
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
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        // Accept any shape whose volume matches `in_dim` (a conv feature
        // map flattens implicitly, as in the DroneNav conv→dense stack).
        let flat = input.reshape(vec![input.len()])?;
        let mut out = self.w.matvec(&flat)?;
        out.axpy(1.0, &self.b)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    /// [`Layer::out_shape`](crate::Layer::out_shape) for a dense layer.
    pub fn out_shape(&self, in_shape: &ActShape) -> Result<ActShape, NnError> {
        // Any shape whose volume matches `in_dim` flattens implicitly,
        // exactly as in `forward`.
        if in_shape.volume() != self.in_dim() {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                left: self.w.shape().dims().to_vec(),
                right: in_shape.dims().to_vec(),
                op: "matvec",
            }));
        }
        Ok(ActShape::flat(self.out_dim()))
    }

    /// [`Layer::forward_into`](crate::Layer::forward_into) for a dense layer.
    pub fn forward_into(
        &self,
        input: &[f32],
        in_shape: &ActShape,
        out: &mut [f32],
    ) -> Result<(), NnError> {
        self.out_shape(in_shape)?;
        let (out_dim, in_dim) = (self.out_dim(), self.in_dim());
        let w = self.w.data();
        let b = self.b.data();
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
        Ok(())
    }

    /// [`Layer::forward_batch_into`](crate::Layer::forward_batch_into) for a dense layer.
    pub fn forward_batch_into(
        &self,
        input: &[f32],
        in_shape: &ActShape,
        batch: usize,
        out: &mut [f32],
    ) -> Result<(), NnError> {
        self.out_shape(in_shape)?;
        let (out_dim, in_dim) = (self.out_dim(), self.in_dim());
        let w = self.w.data();
        let bias = self.b.data();
        // Register-tiled matrix–matrix product `W[out,in] × X[in,batch]`
        // over batch-minor activations: two output rows share each
        // streaming read of a 16-wide batch column block, so every
        // weight scalar is reused across the whole block and the inner
        // loop vectorizes across independent per-sample accumulators.
        // Each sample still sums `w[i][j] * x_b[j]` sequentially in `j`
        // — the exact accumulation order of `forward_into` — so rows
        // are bit-identical to single-observation inference.
        let mut i = 0;
        while i + 2 <= out_dim {
            let r0 = &w[i * in_dim..(i + 1) * in_dim];
            let r1 = &w[(i + 1) * in_dim..(i + 2) * in_dim];
            let (b0, b1) = (bias[i], bias[i + 1]);
            let mut bb = 0;
            // Hot full-width tiles. The ragged tail below duplicates
            // this block with a dynamic width on purpose: folding the
            // two into one clamped-width loop (or an inlined helper)
            // loses the constant `BW` trip count LLVM needs to
            // vectorize the accumulators, costing ~2x on the whole
            // batched drone-policy forward. Keep the two blocks'
            // accumulation statements textually identical.
            while bb + BW <= batch {
                let mut a0 = [0.0f32; BW];
                let mut a1 = [0.0f32; BW];
                for j in 0..in_dim {
                    let (w0, w1) = (r0[j], r1[j]);
                    let xj = &input[j * batch + bb..j * batch + bb + BW];
                    for (k, &xv) in xj.iter().enumerate() {
                        a0[k] += w0 * xv;
                        a1[k] += w1 * xv;
                    }
                }
                for k in 0..BW {
                    out[i * batch + bb + k] = a0[k] + b0;
                    out[(i + 1) * batch + bb + k] = a1[k] + b1;
                }
                bb += BW;
            }
            if bb < batch {
                // Clamped ragged tail tile (see the comment above).
                let width = batch - bb;
                let mut a0 = [0.0f32; BW];
                let mut a1 = [0.0f32; BW];
                for j in 0..in_dim {
                    let (w0, w1) = (r0[j], r1[j]);
                    let xj = &input[j * batch + bb..j * batch + bb + width];
                    for (k, &xv) in xj.iter().enumerate() {
                        a0[k] += w0 * xv;
                        a1[k] += w1 * xv;
                    }
                }
                for k in 0..width {
                    out[i * batch + bb + k] = a0[k] + b0;
                    out[(i + 1) * batch + bb + k] = a1[k] + b1;
                }
            }
            i += 2;
        }
        if i < out_dim {
            // Odd final output row: one row across the whole batch.
            let row = &w[i * in_dim..(i + 1) * in_dim];
            let bi = bias[i];
            let mut bb = 0;
            while bb < batch {
                let width = BW.min(batch - bb);
                let mut acc = [0.0f32; BW];
                for (j, &wv) in row.iter().enumerate() {
                    let xj = &input[j * batch + bb..j * batch + bb + width];
                    for (k, &xv) in xj.iter().enumerate() {
                        acc[k] += wv * xv;
                    }
                }
                for k in 0..width {
                    out[i * batch + bb + k] = acc[k] + bi;
                }
                bb += width;
            }
        }
        Ok(())
    }

    /// [`Layer::backward_batch_into`](crate::Layer::backward_batch_into) for a dense layer.
    pub fn backward_batch_into(
        &mut self,
        input: &[f32],
        in_shape: &ActShape,
        batch: usize,
        grad_out: &[f32],
        mut grad_in: Option<&mut [f32]>,
        _scratch: &mut Vec<f32>,
    ) -> Result<(), NnError> {
        self.out_shape(in_shape)?;
        let in_dim = self.in_dim();
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
            let (w, gw, gb) = (self.w.data(), self.gw.data_mut(), self.gb.data_mut());
            backward_sample(w, gw, gb, &input[..in_dim], |i| grad_out[i], grad_in);
            return Ok(());
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
                self.w.data(),
                self.gw.data_mut(),
                self.gb.data_mut(),
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
        Ok(())
    }

    /// [`Layer::backward`](crate::Layer::backward) for a dense layer.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name.clone() })?;
        let (out_dim, in_dim) = (self.out_dim(), self.in_dim());
        if grad_out.len() != out_dim {
            return Err(NnError::Tensor(frlfi_tensor::TensorError::ShapeMismatch {
                left: vec![out_dim],
                right: grad_out.shape().dims().to_vec(),
                op: "dense backward",
            }));
        }
        // gw += dy ⊗ x ; gb += dy ; dx = Wᵀ dy
        {
            let gw = self.gw.data_mut();
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
        }
        self.gb.axpy(1.0, grad_out)?;
        let mut dx = Tensor::zeros(vec![in_dim]);
        {
            let dxd = dx.data_mut();
            for i in 0..out_dim {
                let dy = grad_out.data()[i];
                if dy == 0.0 {
                    continue;
                }
                let row = &self.w.data()[i * in_dim..(i + 1) * in_dim];
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

    fn fixed_layer() -> Dense {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Dense::new("fc", 2, 2, &mut rng);
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
        l.w = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        l.b = Tensor::from_vec(vec![2], vec![0.5, -0.5]).unwrap();
        l
    }

    #[test]
    fn forward_affine() {
        let mut l = fixed_layer();
        let y = l.forward(&Tensor::from_vec(vec![2], vec![1.0, 1.0]).unwrap()).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut l = fixed_layer();
        let e = l.backward(&Tensor::zeros(vec![2]));
        assert!(matches!(e, Err(NnError::BackwardBeforeForward { .. })));
    }

    #[test]
    fn backward_gradients() {
        let mut l = fixed_layer();
        let x = Tensor::from_vec(vec![2], vec![2.0, -1.0]).unwrap();
        l.forward(&x).unwrap();
        let dy = Tensor::from_vec(vec![2], vec![1.0, 0.5]).unwrap();
        let dx = l.backward(&dy).unwrap();
        // dx = Wᵀ dy = [1*1 + 3*0.5, 2*1 + 4*0.5] = [2.5, 4.0]
        assert_eq!(dx.data(), &[2.5, 4.0]);
        // gw = dy ⊗ x = [[2,-1],[1,-0.5]]
        assert_eq!(l.gw.data(), &[2.0, -1.0, 1.0, -0.5]);
        assert_eq!(l.gb.data(), &[1.0, 0.5]);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut l = Dense::new("fc", 3, 2, &mut rng);
        let x = Tensor::from_vec(vec![3], vec![0.3, -0.7, 1.1]).unwrap();
        // loss = sum(y); dL/dy = ones
        let eps = 1e-3f32;
        l.forward(&x).unwrap();
        l.backward(&Tensor::full(vec![2], 1.0)).unwrap();
        let analytic = l.gw.clone();
        for idx in 0..l.w.len() {
            let orig = l.w.data()[idx];
            l.w.data_mut()[idx] = orig + eps;
            let hi = l.forward(&x).unwrap().sum();
            l.w.data_mut()[idx] = orig - eps;
            let lo = l.forward(&x).unwrap().sum();
            l.w.data_mut()[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < 1e-2,
                "grad mismatch at {idx}: numeric {numeric} vs analytic {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn apply_grads_descends_and_clears() {
        let mut l = fixed_layer();
        let x = Tensor::from_vec(vec![2], vec![1.0, 0.0]).unwrap();
        l.forward(&x).unwrap();
        l.backward(&Tensor::full(vec![2], 1.0)).unwrap();
        let w_before = l.w.clone();
        l.apply_grads(0.1);
        assert!(l.w.data()[0] < w_before.data()[0]);
        assert!(l.gw.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn grads_accumulate_across_steps() {
        let mut l = fixed_layer();
        let x = Tensor::from_vec(vec![2], vec![1.0, 0.0]).unwrap();
        for _ in 0..3 {
            l.forward(&x).unwrap();
            l.backward(&Tensor::full(vec![2], 1.0)).unwrap();
        }
        assert_eq!(l.gb.data(), &[3.0, 3.0]);
    }
}
