//! Property-based tests for the network substrate.

use frlfi_nn::{ActShape, BatchInferCtx, Conv2d, Dense, Layer, NetworkBuilder, Relu};
use frlfi_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mlp(seed: u64, in_dim: usize, hidden: usize, out_dim: usize) -> frlfi_nn::Network {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new(in_dim).dense(hidden).relu().dense(out_dim).build(&mut rng).expect("mlp")
}

/// A random Dense/Conv/ReLU stack over a `[c, h, w]` image input, with
/// 0–2 conv stages (k ∈ {1, 2, 3}, the 3 case exercising the
/// specialized kernel) feeding 1–2 dense stages.
fn random_stack(seed: u64, c: usize, h: usize, w: usize) -> (frlfi_nn::Network, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetworkBuilder::new_image(c, h, w);
    let n_convs = rng.gen_range(0..3usize);
    for _ in 0..n_convs {
        let k = rng.gen_range(1..=3usize);
        let out_c = rng.gen_range(1..5usize);
        b = b.conv(out_c, k);
        if rng.gen_bool(0.5) {
            b = b.relu();
        }
    }
    b = b.dense(rng.gen_range(1..12usize));
    if rng.gen_bool(0.5) {
        b = b.relu();
        b = b.dense(rng.gen_range(1..6usize));
    }
    let net = b.build(&mut rng).expect("stack dims stay >= 3x3");
    let x = Tensor::random(vec![c, h, w], frlfi_tensor::Init::Uniform(-2.0, 2.0), &mut rng);
    (net, x)
}

/// A random stack with ReLUs anywhere — first, doubled, last — over a
/// `[c, h, w]` image: 0–2 conv stages (k ∈ {1, 2, 3}) and 1–2 dense
/// stages, each followed by 0–2 ReLUs, after 0–2 leading ReLUs. The
/// training walk clamps every ReLU past the first layer in place.
fn relu_anywhere_stack(seed: u64) -> (frlfi_nn::Network, ActShape) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (c, h, w) = (rng.gen_range(1..3usize), rng.gen_range(5..9usize), rng.gen_range(5..10usize));
    let relus = |mut b: NetworkBuilder, rng: &mut StdRng| {
        for _ in 0..rng.gen_range(0..3) {
            b = b.relu();
        }
        b
    };
    let mut b = relus(NetworkBuilder::new_image(c, h, w), &mut rng);
    for _ in 0..rng.gen_range(0..3) {
        b = b.conv(rng.gen_range(1..5usize), rng.gen_range(1..=2usize));
        b = relus(b, &mut rng);
    }
    for _ in 0..rng.gen_range(1..3) {
        b = b.dense(rng.gen_range(1..10usize));
        b = relus(b, &mut rng);
    }
    (b.build(&mut rng).expect("stack dims stay >= 1x1"), ActShape::image(c, h, w))
}

/// Writes every parameter's flat index into it through
/// `for_each_param_mut` and checks that `snapshot()[i]` reads back `i`:
/// the visit walks the flat vector in order, one scalar per index.
/// Leaves the network's weights overwritten.
fn assert_param_walk_matches_snapshot(
    net: &mut frlfi_nn::Network,
) -> Result<(), proptest::test_runner::TestCaseError> {
    net.for_each_param_mut(|i, v| *v = i as f32);
    for (i, &v) in net.snapshot().iter().enumerate() {
        prop_assert_eq!(v, i as f32, "for_each_param_mut index {} is not snapshot()[{}]", i, i);
    }
    Ok(())
}

/// Bit pattern compared by the backward equivalence checks. With
/// `modulo_nan` every NaN maps to one key, so a lane must be NaN on
/// both sides but its payload (and sign) may differ — the contract for
/// layers holding non-finite weights.
fn cmp_bits(v: f32, modulo_nan: bool) -> u32 {
    if modulo_nan && v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// Drives one batched training backward against the per-sample
/// reference path on an identical twin layer and asserts bitwise
/// equality of the stepped parameters and of every input-gradient row
/// (modulo NaN payloads when `modulo_nan`).
///
/// `batched` and `reference` must start with identical parameters (same
/// construction seed). The reference path replays the batch as `batch`
/// sequential `forward` + `backward` calls in ascending sample order
/// with the weights fixed — exactly the accumulation the batched
/// kernels contract to reproduce.
fn assert_batched_backward_matches_reference(
    batched: &mut Layer,
    reference: &mut Layer,
    in_shape: &ActShape,
    samples: &[Vec<f32>],
    grad_rows: &[Vec<f32>],
    modulo_nan: bool,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let batch = samples.len();
    let in_vol = in_shape.volume();
    let out_shape = batched.out_shape(in_shape).expect("out shape");
    let out_vol = out_shape.volume();
    // Pack batch-minor: element j of sample b at j * batch + b.
    let mut x = vec![0.0f32; in_vol * batch];
    let mut g = vec![0.0f32; out_vol * batch];
    for (b, s) in samples.iter().enumerate() {
        for (j, &v) in s.iter().enumerate() {
            x[j * batch + b] = v;
        }
    }
    for (b, s) in grad_rows.iter().enumerate() {
        for (j, &v) in s.iter().enumerate() {
            g[j * batch + b] = v;
        }
    }
    let mut fwd = vec![0.0f32; out_vol * batch];
    batched.forward_batch_into(&x, in_shape, batch, &mut fwd).expect("batched forward");
    let mut dx = vec![0.0f32; in_vol * batch];
    batched
        .backward_batch_into(&x, in_shape, batch, &g, Some(&mut dx), &mut Vec::new())
        .expect("batched backward");
    batched.apply_grads(0.05);
    let mut ref_dx_rows = Vec::with_capacity(batch);
    for (s, gr) in samples.iter().zip(grad_rows.iter()) {
        let xs = Tensor::from_vec(in_shape.dims().to_vec(), s.clone()).expect("sample");
        reference.forward(&xs).expect("reference forward");
        let gt = Tensor::from_vec(out_shape.dims().to_vec(), gr.clone()).expect("grad row");
        ref_dx_rows.push(reference.backward(&gt).expect("reference backward"));
    }
    reference.apply_grads(0.05);
    for (pb, pr) in batched.params().iter().zip(reference.params().iter()) {
        let bb: Vec<u32> = pb.data().iter().map(|&v| cmp_bits(v, modulo_nan)).collect();
        let rb: Vec<u32> = pr.data().iter().map(|&v| cmp_bits(v, modulo_nan)).collect();
        prop_assert_eq!(bb, rb, "stepped parameters drifted from the sequential reference");
    }
    for (b, d) in ref_dx_rows.iter().enumerate() {
        for (j, &v) in d.data().iter().enumerate() {
            prop_assert_eq!(
                cmp_bits(dx[j * batch + b], modulo_nan),
                cmp_bits(v, modulo_nan),
                "input gradient sample {} element {}",
                b,
                j
            );
        }
    }
    Ok(())
}

/// Parameter bit patterns the batch-1 backward check seeds into a
/// layer: ±0, ±subnormals, ±∞, quiet NaNs and signalling NaNs (with
/// payloads), the values whose bits a backward or SGD step could
/// disturb differently if it skipped or reordered an operation.
const SPECIAL_WEIGHT_BITS: [u32; 11] = [
    0x0000_0000,
    0x8000_0000,
    0x0000_0001,
    0x807f_ffff,
    0x7f80_0000,
    0xff80_0000,
    0x7fc0_0000,
    0xffc1_2345,
    0x7f80_0001,
    0xffa0_0f00,
    0x7fbf_ffff,
];

/// Replaces a random share (up to 30%) of the parameters with bit
/// patterns drawn from `pool`.
fn sprinkle_bits(params: [&mut Tensor; 2], pool: &[u32], rng: &mut StdRng) {
    let rate = rng.gen_range(0.0..0.3);
    for p in params {
        for v in p.data_mut() {
            if rng.gen_bool(rate) {
                *v = f32::from_bits(pool[rng.gen_range(0..pool.len())]);
            }
        }
    }
}

/// A dense layer whose weights and biases are partly replaced by
/// [`SPECIAL_WEIGHT_BITS`].
fn special_dense(seed: u64, in_dim: usize, out_dim: usize) -> Dense {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layer = Dense::new("d", in_dim, out_dim, &mut rng);
    sprinkle_bits(layer.params_mut(), &SPECIAL_WEIGHT_BITS, &mut rng);
    layer
}

/// The input planes of the DroneNav policy's three convs.
const DRONE_PLANES: [(usize, usize); 3] = [(9, 16), (7, 14), (5, 12)];

/// A conv layer over one of [`DRONE_PLANES`], with parameters partly
/// replaced by [`SPECIAL_WEIGHT_BITS`]: in half the cases only the
/// finite ones (±0 and subnormals), so that those cases compare
/// bit-exact. Returns the layer, its input shape and whether any
/// parameter is non-finite.
fn special_conv(
    seed: u64,
    plane: usize,
    k: usize,
    in_c: usize,
    out_c: usize,
) -> (Conv2d, ActShape, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conv = Conv2d::new("c", in_c, out_c, k, &mut rng);
    let pool = if rng.gen_bool(0.5) { &SPECIAL_WEIGHT_BITS[..4] } else { &SPECIAL_WEIGHT_BITS[..] };
    sprinkle_bits(conv.params_mut(), pool, &mut rng);
    let non_finite = conv.params().iter().any(|p| p.data().iter().any(|v| !v.is_finite()));
    let (h, w) = DRONE_PLANES[plane];
    (conv, ActShape::image(in_c, h, w), non_finite)
}

/// `batch` post-ReLU-like activation rows of `n` elements: exact zeros
/// mixed with values of either sign.
fn activation_rows(rng: &mut StdRng, batch: usize, n: usize) -> Vec<Vec<f32>> {
    (0..batch)
        .map(|_| {
            (0..n)
                .map(|_| if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(-2.0f32..2.0) })
                .collect()
        })
        .collect()
}

/// An output-gradient row with `+0.0` and `-0.0` entries mixed in.
fn grad_row_with_zeros(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        })
        .collect()
}

/// One backward of the same sample through `single` at batch 1 and
/// through `padded` at batch 2, whose second sample has an all `-0.0`
/// gradient row and so adds nothing; checks the input gradients agree
/// bit for bit.
fn backward_batch1_and_padded(
    single: &mut Dense,
    padded: &mut Dense,
    rng: &mut StdRng,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let (i, o) = (single.in_dim(), single.out_dim());
    let shape = ActShape::flat(i);
    let x: Vec<f32> =
        (0..i).map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(-2.0f32..2.0) }).collect();
    let g = grad_row_with_zeros(rng, o);
    // Stale input-gradient buffers, as in the backward arena.
    let mut dx = vec![f32::NAN; i];
    single
        .backward_batch_into(&x, &shape, 1, &g, Some(&mut dx), &mut Vec::new())
        .expect("batch-1 backward");
    // Batch-minor pair: sample 0 is the row above, sample 1 an
    // unrelated input.
    let x2: Vec<f32> = x.iter().flat_map(|&v| [v, rng.gen_range(-2.0f32..2.0)]).collect();
    let g2: Vec<f32> = g.iter().flat_map(|&v| [v, -0.0]).collect();
    let mut dx2 = vec![f32::NAN; 2 * i];
    padded
        .backward_batch_into(&x2, &shape, 2, &g2, Some(&mut dx2), &mut Vec::new())
        .expect("batch-2 backward");
    let dx_bits: Vec<u32> = dx.iter().map(|v| v.to_bits()).collect();
    let dx2_bits: Vec<u32> = dx2.iter().step_by(2).map(|v| v.to_bits()).collect();
    prop_assert_eq!(dx_bits, dx2_bits, "input gradient");
    Ok(())
}

/// Packs sample-major rows batch-minor: element `j` of row `b` at
/// `j * rows.len() + b`.
fn batch_minor(rows: &[Vec<f32>]) -> Vec<f32> {
    let mut packed = vec![0.0f32; rows.first().map_or(0, Vec::len) * rows.len()];
    for (b, r) in rows.iter().enumerate() {
        for (j, &v) in r.iter().enumerate() {
            packed[j * rows.len() + b] = v;
        }
    }
    packed
}

/// Runs `samples` through `batched`'s parameter-gradient pass in
/// consecutive chunks of the given sizes (one `backward_batch_into`
/// each, gradients accumulating as across an episode's update chunks)
/// and through `reference` one sample at a time, steps both, and
/// compares the parameters (modulo NaN payloads when `modulo_nan`).
fn assert_chunked_params_match_reference(
    mut batched: Conv2d,
    reference: Conv2d,
    shape: &ActShape,
    samples: &[Vec<f32>],
    grad_rows: &[Vec<f32>],
    chunks: &[usize],
    modulo_nan: bool,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let out_shape = batched.out_shape(shape).expect("out shape");
    let mut scratch = Vec::new();
    let mut done = 0;
    for &n in chunks {
        let x = batch_minor(&samples[done..done + n]);
        let g = batch_minor(&grad_rows[done..done + n]);
        batched
            .backward_batch_into(&x, shape, n, &g, None, &mut scratch)
            .expect("batched backward");
        done += n;
    }
    batched.apply_grads(0.05);
    let mut reference = Layer::Conv(reference);
    for (s, gr) in samples[..done].iter().zip(grad_rows) {
        let xs = Tensor::from_vec(shape.dims().to_vec(), s.clone()).expect("sample");
        reference.forward(&xs).expect("reference forward");
        let gt = Tensor::from_vec(out_shape.dims().to_vec(), gr.clone()).expect("grad row");
        reference.backward(&gt).expect("reference backward");
    }
    reference.apply_grads(0.05);
    for (pb, pr) in batched.params().iter().zip(reference.params().iter()) {
        let bb: Vec<u32> = pb.data().iter().map(|&v| cmp_bits(v, modulo_nan)).collect();
        let rb: Vec<u32> = pr.data().iter().map(|&v| cmp_bits(v, modulo_nan)).collect();
        prop_assert_eq!(bb, rb, "stepped parameters drifted from the sequential reference");
    }
    Ok(())
}

/// Activation rows as [`activation_rows`], with a few entries of half
/// the rows replaced by ±∞ or NaN (quiet or signalling).
fn non_finite_rows(rng: &mut StdRng, batch: usize, n: usize) -> Vec<Vec<f32>> {
    let specials =
        [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001)];
    let mut rows = activation_rows(rng, batch, n);
    for row in &mut rows {
        if rng.gen_bool(0.5) {
            for _ in 0..rng.gen_range(1..4) {
                row[rng.gen_range(0..n)] = specials[rng.gen_range(0..specials.len())];
            }
        }
    }
    rows
}

/// A fresh conv layer over one of [`DRONE_PLANES`] and `batch` samples
/// for it, drawn by `rows`, each with an output-gradient row holding
/// ±0.0 entries.
#[allow(clippy::type_complexity)]
fn drone_conv_case(
    seed: u64,
    plane: usize,
    (k, in_c, out_c): (usize, usize, usize),
    batch: usize,
    rows: fn(&mut StdRng, usize, usize) -> Vec<Vec<f32>>,
) -> (ActShape, Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1AF5);
    let (h, w) = DRONE_PLANES[plane];
    let shape = ActShape::image(in_c, h, w);
    let samples = rows(&mut rng, batch, shape.volume());
    let ovol = out_c * (h - k + 1) * (w - k + 1);
    let grad_rows = (0..batch).map(|_| grad_row_with_zeros(&mut rng, ovol)).collect();
    (shape, samples, grad_rows)
}

proptest! {
    #[test]
    fn snapshot_restore_is_identity(
        seed in any::<u64>(),
        dims in (1usize..8, 1usize..16, 1usize..8),
        image in (1usize..3, 5usize..10, 5usize..12),
    ) {
        let (i, h, o) = dims;
        let (c, ih, iw) = image;
        for mut net in [mlp(seed, i, h, o), random_stack(seed, c, ih, iw).0] {
            let snap = net.snapshot();
            net.restore(&snap).expect("restore");
            prop_assert_eq!(net.snapshot(), snap);
            assert_param_walk_matches_snapshot(&mut net)?;
        }
    }

    #[test]
    fn forward_is_deterministic(seed in any::<u64>(), x in proptest::collection::vec(-5.0f32..5.0, 4)) {
        let mut net = mlp(seed, 4, 8, 3);
        let input = Tensor::from_vec(vec![4], x).expect("input");
        let a = net.forward(&input).expect("forward");
        let b = net.forward(&input).expect("forward");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn spans_partition_params(
        seed in any::<u64>(),
        image in (1usize..3, 5usize..10, 5usize..12),
    ) {
        let (c, h, w) = image;
        for mut net in [mlp(seed, 4, 8, 3), random_stack(seed, c, h, w).0] {
            let spans = net.param_spans();
            let mut covered = 0;
            let mut next = 0;
            for s in &spans {
                prop_assert_eq!(s.start, next, "spans must be contiguous");
                covered += s.len;
                next = s.start + s.len;
            }
            prop_assert_eq!(covered, net.param_count());
            assert_param_walk_matches_snapshot(&mut net)?;
        }
    }

    #[test]
    fn zero_input_flows_through_bias_only(seed in any::<u64>()) {
        // With zero input, the first dense layer outputs its bias (zero
        // at init), so the whole network outputs the last layer's bias.
        let mut net = mlp(seed, 4, 8, 3);
        let y = net.forward(&Tensor::zeros(vec![4])).expect("forward");
        prop_assert!(y.data().iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn sgd_step_moves_in_negative_gradient(seed in any::<u64>(), x in proptest::collection::vec(-2.0f32..2.0, 4)) {
        let mut net = mlp(seed, 4, 8, 2);
        let input = Tensor::from_vec(vec![4], x).expect("input");
        let before = net.forward(&input).expect("forward").sum();
        // Loss = sum(outputs); gradient of ones decreases the sum.
        net.backward(&Tensor::full(vec![2], 1.0)).expect("backward");
        net.apply_grads(0.01);
        let after = net.forward(&input).expect("forward").sum();
        prop_assert!(after <= before + 1e-4, "sum should not increase: {} -> {}", before, after);
    }

    #[test]
    fn relu_output_nonnegative(x in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
        let mut r = Relu::new("r");
        let n = x.len();
        let y = r.forward(&Tensor::from_vec(vec![n], x).expect("input")).expect("forward");
        prop_assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn restore_wrong_length_fails_cleanly(seed in any::<u64>(), extra in 1usize..10) {
        let mut net = mlp(seed, 4, 8, 3);
        let bad = vec![0.0; net.param_count() + extra];
        prop_assert!(net.restore(&bad).is_err());
    }

    // ---- Golden equivalence: the inference fast path is bit-identical
    // ---- to the reference forward pass.

    #[test]
    fn infer_equals_forward_bitwise_on_mlps(
        seed in any::<u64>(),
        dims in (1usize..8, 1usize..16, 1usize..8),
        x in proptest::collection::vec(-5.0f32..5.0, 4),
    ) {
        let (i, h, o) = dims;
        let mut net = mlp(seed, 4, 8, 3);
        let input = Tensor::from_vec(vec![4], x).expect("input");
        let slow = net.forward(&input).expect("forward");
        let mut ctx = BatchInferCtx::new();
        let fast = net.infer(&input, &mut ctx).expect("infer");
        prop_assert_eq!(slow.data(), fast);
        // Differently shaped MLP through the same (warm) ctx.
        let mut net2 = mlp(seed ^ 0x9E37, i, h, o);
        let input2 = Tensor::full(vec![i], 0.37);
        let slow2 = net2.forward(&input2).expect("forward");
        let fast2 = net2.infer(&input2, &mut ctx).expect("infer");
        prop_assert_eq!(slow2.data(), fast2);
    }

    #[test]
    fn infer_equals_forward_bitwise_on_conv_stacks(
        seed in any::<u64>(),
        c in 1usize..3,
        h in 5usize..10,
        w in 5usize..12,
    ) {
        let (mut net, x) = random_stack(seed, c, h, w);
        let slow = net.forward(&x).expect("forward");
        let mut ctx = BatchInferCtx::new();
        let fast = net.infer(&x, &mut ctx).expect("infer");
        prop_assert_eq!(slow.data(), fast);
        // Repeated inference through the same warm ctx stays identical.
        let again = net.infer(&x, &mut ctx).expect("infer");
        prop_assert_eq!(slow.data(), again);
    }

    // ---- Golden equivalence: the fused generic-k batched conv kernel
    // ---- is bit-identical to per-sample fast-path convolution, for
    // ---- every kernel size (k=3 takes the specialized path; the rest
    // ---- exercise the fused generic pass).

    #[test]
    fn batched_conv_rows_equal_single_for_every_kernel_size(
        seed in any::<u64>(),
        k in 1usize..6,
        in_c in 1usize..3,
        out_c in 1usize..4,
        batch in 1usize..10,
    ) {
        use frlfi_nn::Conv2d;
        let mut rng = StdRng::seed_from_u64(seed);
        let (h, w) = (k + rng.gen_range(0..4), k + rng.gen_range(0..4));
        let conv = Conv2d::new("c", in_c, out_c, k, &mut rng);
        let shape = ActShape::image(in_c, h, w);
        let (oh, ow) = (h - k + 1, w - k + 1);
        let vol = in_c * h * w;
        let ovol = out_c * oh * ow;
        let samples: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..vol).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        // Batch-minor packing: element j of sample b at j * batch + b.
        let mut packed = vec![0.0f32; vol * batch];
        for (b, s) in samples.iter().enumerate() {
            for (j, &v) in s.iter().enumerate() {
                packed[j * batch + b] = v;
            }
        }
        let mut batched = vec![0.0f32; ovol * batch];
        conv.forward_batch_into(&packed, &shape, batch, &mut batched).expect("batched");
        let mut single = vec![0.0f32; ovol];
        for (b, s) in samples.iter().enumerate() {
            conv.forward_into(s, &shape, &mut single).expect("single");
            for (j, &v) in single.iter().enumerate() {
                prop_assert_eq!(
                    batched[j * batch + b].to_bits(),
                    v.to_bits(),
                    "k={} sample {} element {}", k, b, j
                );
            }
        }
    }


    // ---- The conv row stencil at the DroneNav policy's shapes: every
    // ---- batch size a forward or an update chunk runs (1..=33), every
    // ---- kernel size to 5, weights seeded with special bit patterns.
    // ---- Each sample is pinned to the reference `Conv2d::forward` /
    // ---- `backward`, bit-exact while every parameter is finite and
    // ---- modulo NaN payloads otherwise. CI also runs these with
    // ---- PROPTEST_CASES=1024.

    #[test]
    fn conv_stencil_forward_matches_the_reference_on_drone_shapes(
        seed in any::<u64>(),
        plane in 0usize..3,
        k in 1usize..=5,
        in_c in 1usize..=12,
        out_c in 1usize..=16,
        batch in 1usize..=33,
    ) {
        let (conv, shape, modulo_nan) = special_conv(seed, plane, k, in_c, out_c);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57E7);
        let samples = activation_rows(&mut rng, batch, shape.volume());
        let ovol = conv.out_shape(&shape).expect("out shape").volume();
        let mut packed = vec![0.0f32; shape.volume() * batch];
        for (b, s) in samples.iter().enumerate() {
            for (j, &v) in s.iter().enumerate() {
                packed[j * batch + b] = v;
            }
        }
        let mut batched = vec![f32::NAN; ovol * batch];
        conv.forward_batch_into(&packed, &shape, batch, &mut batched).expect("batched");
        let mut single = vec![f32::NAN; ovol];
        conv.forward_into(&samples[0], &shape, &mut single).expect("single");
        let mut reference = Layer::Conv(conv);
        for (b, s) in samples.iter().enumerate() {
            let x = Tensor::from_vec(shape.dims().to_vec(), s.clone()).expect("sample");
            let y = reference.forward(&x).expect("reference forward");
            for (j, &v) in y.data().iter().enumerate() {
                prop_assert_eq!(
                    cmp_bits(batched[j * batch + b], modulo_nan),
                    cmp_bits(v, modulo_nan),
                    "k={} sample {} element {}", k, b, j
                );
                if b == 0 {
                    prop_assert_eq!(
                        cmp_bits(single[j], modulo_nan),
                        cmp_bits(v, modulo_nan),
                        "forward_into, k={} element {}", k, j
                    );
                }
            }
        }
    }

    #[test]
    fn conv_stencil_input_gradient_matches_the_reference_on_drone_shapes(
        seed in any::<u64>(),
        plane in 0usize..3,
        k in 1usize..=5,
        in_c in 1usize..=12,
        out_c in 1usize..=16,
        batch in 1usize..=33,
    ) {
        let (batched, shape, modulo_nan) = special_conv(seed, plane, k, in_c, out_c);
        let (reference, _, _) = special_conv(seed, plane, k, in_c, out_c);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD0D0);
        let samples = activation_rows(&mut rng, batch, shape.volume());
        let ovol = batched.out_shape(&shape).expect("out shape").volume();
        let grad_rows: Vec<Vec<f32>> =
            (0..batch).map(|_| grad_row_with_zeros(&mut rng, ovol)).collect();
        assert_batched_backward_matches_reference(
            &mut Layer::Conv(batched),
            &mut Layer::Conv(reference),
            &shape,
            &samples,
            &grad_rows,
            modulo_nan,
        )?;
    }

    #[test]
    fn conv_stencil_parameter_gradient_masks_non_finite_activations(
        seed in any::<u64>(),
        plane in 0usize..3,
        k in 1usize..=5,
        in_c in 1usize..=12,
        out_c in 1usize..=16,
        batch in 1usize..=33,
    ) {
        // A fault upstream can leave ±∞ or NaN activations, and then
        // `0 · x` is NaN: the channels holding one run the masked
        // instance, which must skip `g == 0.0` like the reference.
        let layer = || Conv2d::new("c", in_c, out_c, k, &mut StdRng::seed_from_u64(seed));
        let (shape, samples, grads) =
            drone_conv_case(seed, plane, (k, in_c, out_c), batch, non_finite_rows);
        assert_chunked_params_match_reference(
            layer(), layer(), &shape, &samples, &grads, &[batch], true,
        )?;
    }

    #[test]
    fn conv_stencil_parameter_gradients_accumulate_across_update_chunks(
        seed in any::<u64>(),
        plane in 0usize..3,
        k in 1usize..=5,
        in_c in 1usize..=12,
        out_c in 1usize..=16,
        chunks in (1usize..=32, 1usize..=32),
    ) {
        // An episode's update runs in chunks whose gradients add up
        // before one `apply_grads`: the second chunk's terms must land
        // after the first's, each element in reference order.
        let layer = || Conv2d::new("c", in_c, out_c, k, &mut StdRng::seed_from_u64(seed));
        let (shape, samples, grads) =
            drone_conv_case(seed, plane, (k, in_c, out_c), chunks.0 + chunks.1, activation_rows);
        assert_chunked_params_match_reference(
            layer(), layer(), &shape, &samples, &grads, &[chunks.0, chunks.1], false,
        )?;
    }

    #[test]
    fn conv_stencil_parameter_gradient_fills_ragged_lane_blocks(
        seed in any::<u64>(),
        plane in 0usize..3,
        k in (0usize..4).prop_map(|i| [1, 2, 4, 5][i]),
        in_c in 1usize..=12,
        out_c in (0usize..12).prop_map(|i| [1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15][i]),
        batch in 1usize..=33,
    ) {
        // Output channels go four to a block: a last, partial block
        // computes padding lanes that must never reach `gw`, and
        // kernels other than 3×3 take their taps one at a time.
        let layer = || Conv2d::new("c", in_c, out_c, k, &mut StdRng::seed_from_u64(seed));
        let (shape, samples, grads) =
            drone_conv_case(seed, plane, (k, in_c, out_c), batch, activation_rows);
        assert_chunked_params_match_reference(
            layer(), layer(), &shape, &samples, &grads, &[batch], false,
        )?;
    }

    // ---- Golden equivalence: batched inference rows are bit-identical
    // ---- to per-observation fast-path inference.

    #[test]
    fn batch_rows_equal_single_inference_on_mlps(
        seed in any::<u64>(),
        dims in (1usize..8, 1usize..16, 1usize..8),
        batch in 1usize..40,
    ) {
        // Batch sizes cover 1, ragged remainders of the 16-wide dense
        // tile, and multi-tile batches.
        let (i, h, o) = dims;
        let net = mlp(seed, i, h, o);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
        let obs: Vec<Tensor> = (0..batch)
            .map(|_| Tensor::random(vec![i], frlfi_tensor::Init::Uniform(-3.0, 3.0), &mut rng))
            .collect();
        let flat: Vec<f32> = obs.iter().flat_map(|t| t.data().iter().copied()).collect();
        let mut bctx = BatchInferCtx::new();
        let out = net.infer_batch(&flat, &ActShape::flat(i), batch, &mut bctx).expect("batch");
        let mut ctx = BatchInferCtx::new();
        for (b, obs) in obs.iter().enumerate() {
            let single = net.infer(obs, &mut ctx).expect("infer");
            prop_assert_eq!(&out[b * o..(b + 1) * o], single, "row {} of batch {}", b, batch);
        }
    }

    #[test]
    fn batch_rows_equal_single_inference_on_conv_stacks(
        seed in any::<u64>(),
        c in 1usize..3,
        h in 5usize..10,
        w in 5usize..12,
        batch in 1usize..12,
    ) {
        let (net, x0) = random_stack(seed, c, h, w);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B57);
        let mut obs = vec![x0];
        for _ in 1..batch {
            obs.push(Tensor::random(
                vec![c, h, w],
                frlfi_tensor::Init::Uniform(-2.0, 2.0),
                &mut rng,
            ));
        }
        let flat: Vec<f32> = obs.iter().flat_map(|t| t.data().iter().copied()).collect();
        let mut bctx = BatchInferCtx::new();
        let out = net
            .infer_batch(&flat, &ActShape::image(c, h, w), batch, &mut bctx)
            .expect("batch")
            .to_vec();
        let mut ctx = BatchInferCtx::new();
        let vol = out.len() / batch;
        for (b, obs) in obs.iter().enumerate() {
            let single = net.infer(obs, &mut ctx).expect("infer");
            prop_assert_eq!(&out[b * vol..(b + 1) * vol], single, "row {} of {}", b, batch);
        }
        // A second pass through the warm ctx stays identical.
        let again = net.infer_batch(&flat, &ActShape::image(c, h, w), batch, &mut bctx)
            .expect("batch");
        prop_assert_eq!(&out[..], again);
    }

    // ---- Golden equivalence: batched *training* kernels leave bitwise
    // ---- the parameters and input gradients the per-sample reference
    // ---- forward + backward path leaves, per layer and per kernel
    // ---- size (batch == 1 must route through the reference kernels).

    #[test]
    fn batched_dense_backward_equals_sequential_reference(
        seed in any::<u64>(),
        in_dim in 1usize..20,
        out_dim in 1usize..12,
        batch in 1usize..10,
    ) {
        use frlfi_nn::Dense;
        let batched = Dense::new("d", in_dim, out_dim, &mut StdRng::seed_from_u64(seed));
        let reference = Dense::new("d", in_dim, out_dim, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7D15);
        let samples: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..in_dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        // Include exact zeros: the masked batched kernels must treat a
        // zero upstream gradient exactly like the reference axpy does.
        let grad_rows: Vec<Vec<f32>> = (0..batch)
            .map(|_| {
                (0..out_dim)
                    .map(|_| if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(-1.5f32..1.5) })
                    .collect()
            })
            .collect();
        assert_batched_backward_matches_reference(
            &mut Layer::Dense(batched),
            &mut Layer::Dense(reference),
            &ActShape::flat(in_dim),
            &samples,
            &grad_rows,
            false,
        )?;
    }

    #[test]
    fn batched_conv_backward_equals_sequential_for_every_kernel_size(
        seed in any::<u64>(),
        k in 1usize..6,
        in_c in 1usize..3,
        out_c in 1usize..4,
        batch in 1usize..64,
    ) {
        // Batches up to 63 run the correlation's batch-lane loops at
        // widths past the vector width, ragged tails included. Weights include ±0.0 and subnormals (products that
        // underflow to ±0), gradients exact ±0.0 and subnormals: the
        // unmasked correlation adds the ±0 terms the reference skips,
        // which must leave every bit unchanged.
        use frlfi_nn::Conv2d;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC09F);
        let (h, w) = (k + rng.gen_range(0..4), k + rng.gen_range(0..4));
        let mut batched = Conv2d::new("c", in_c, out_c, k, &mut StdRng::seed_from_u64(seed));
        let mut reference = Conv2d::new("c", in_c, out_c, k, &mut StdRng::seed_from_u64(seed));
        for v in batched.params_mut()[0].data_mut() {
            *v = match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(rng.gen_range(1..0x0080_0000u32) | (rng.gen::<u32>() & 1) << 31),
                _ => *v,
            };
        }
        reference.params_mut()[0].data_mut().copy_from_slice(batched.params()[0].data());
        let in_shape = ActShape::image(in_c, h, w);
        let (oh, ow) = (h - k + 1, w - k + 1);
        let samples: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..in_c * h * w).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let grad_rows: Vec<Vec<f32>> = (0..batch)
            .map(|_| {
                (0..out_c * oh * ow)
                    .map(|_| match rng.gen_range(0..8) {
                        0 | 1 => 0.0,
                        2 => -0.0,
                        3 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                        _ => rng.gen_range(-1.5f32..1.5),
                    })
                    .collect()
            })
            .collect();
        assert_batched_backward_matches_reference(
            &mut Layer::Conv(batched),
            &mut Layer::Conv(reference),
            &in_shape,
            &samples,
            &grad_rows,
            false,
        )?;
    }

    #[test]
    fn batched_conv_backward_with_non_finite_weights_keeps_nan_lanes(
        seed in any::<u64>(),
        k in 1usize..5,
        in_c in 1usize..3,
        out_c in 1usize..4,
        batch in 1usize..40,
    ) {
        // A fault-injected layer can hold NaN (quiet or signalling) and
        // ±inf weights; `0 · w` is then NaN, so the backward must run
        // its masked instantiation, which skips `g == 0.0` terms like
        // the reference. Finite lanes stay bitwise equal and every NaN
        // lane is NaN on both sides (payloads may differ).
        use frlfi_nn::Conv2d;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0BAD);
        let (h, w) = (k + rng.gen_range(0..4), k + rng.gen_range(0..4));
        let mut batched = Conv2d::new("c", in_c, out_c, k, &mut StdRng::seed_from_u64(seed));
        let mut reference = Conv2d::new("c", in_c, out_c, k, &mut StdRng::seed_from_u64(seed));
        let specials =
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::from_bits(0x7f80_0001), -f32::NAN];
        let params = batched.params_mut();
        let weights = params[0].data_mut();
        let n = weights.len();
        weights[rng.gen_range(0..n)] = specials[rng.gen_range(0..specials.len())];
        for v in weights.iter_mut() {
            if rng.gen_bool(0.1) {
                *v = specials[rng.gen_range(0..specials.len())];
            }
        }
        reference.params_mut()[0].data_mut().copy_from_slice(batched.params()[0].data());
        let in_shape = ActShape::image(in_c, h, w);
        let (oh, ow) = (h - k + 1, w - k + 1);
        let samples: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..in_c * h * w).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let grad_rows: Vec<Vec<f32>> = (0..batch)
            .map(|_| {
                (0..out_c * oh * ow)
                    .map(|_| match rng.gen_range(0..4) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-1.5f32..1.5),
                    })
                    .collect()
            })
            .collect();
        assert_batched_backward_matches_reference(
            &mut Layer::Conv(batched),
            &mut Layer::Conv(reference),
            &in_shape,
            &samples,
            &grad_rows,
            true,
        )?;
    }

    #[test]
    fn batched_relu_backward_equals_sequential_reference(
        seed in any::<u64>(),
        n in 1usize..32,
        batch in 1usize..8,
    ) {
        let batched = Relu::new("r");
        let reference = Relu::new("r");
        let mut rng = StdRng::seed_from_u64(seed);
        // Exact zeros on both sides of the gate exercise the masking.
        let samples: Vec<Vec<f32>> = (0..batch)
            .map(|_| {
                (0..n)
                    .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(-3.0f32..3.0) })
                    .collect()
            })
            .collect();
        let grad_rows: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.5f32..1.5)).collect())
            .collect();
        assert_batched_backward_matches_reference(
            &mut Layer::Relu(batched),
            &mut Layer::Relu(reference),
            &ActShape::flat(n),
            &samples,
            &grad_rows,
            false,
        )?;
    }

    #[test]
    fn batched_training_step_equals_sequential_on_mlps(
        seed in any::<u64>(),
        dims in (1usize..8, 1usize..16, 1usize..8),
        batch in 1usize..20,
    ) {
        let (i, h, o) = dims;
        let mut net_batched = mlp(seed, i, h, o);
        let mut net_reference = mlp(seed, i, h, o);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E0);
        let samples: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..i).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let grad_rows: Vec<Vec<f32>> = (0..batch)
            .map(|_| {
                (0..o)
                    .map(|_| if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(-1.0f32..1.0) })
                    .collect()
            })
            .collect();
        // Batched: one cached forward (sample-major input), one fused
        // backward (sample-major gradient rows), one SGD step.
        let flat: Vec<f32> = samples.iter().flatten().copied().collect();
        let grads: Vec<f32> = grad_rows.iter().flatten().copied().collect();
        let mut ctx = BatchInferCtx::new();
        net_batched
            .forward_batch_cached(&flat, &ActShape::flat(i), batch, &mut ctx)
            .expect("cached forward");
        net_batched.backward_batch(&grads, batch, &mut ctx).expect("batched backward");
        net_batched.apply_grads(0.05);
        // Reference: per-sample slow forward + backward in ascending
        // sample order, weights fixed, then the identical SGD step.
        for (s, g) in samples.iter().zip(grad_rows.iter()) {
            let x = Tensor::from_vec(vec![i], s.clone()).expect("sample");
            net_reference.forward(&x).expect("forward");
            let gt = Tensor::from_vec(vec![o], g.clone()).expect("grad");
            net_reference.backward(&gt).expect("backward");
        }
        net_reference.apply_grads(0.05);
        let bb: Vec<u32> = net_batched.snapshot().iter().map(|v| v.to_bits()).collect();
        let rb: Vec<u32> = net_reference.snapshot().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bb, rb, "trained MLP weights drifted from the sequential reference");
    }

    #[test]
    fn batched_training_step_equals_sequential_on_conv_stacks(
        seed in any::<u64>(),
        c in 1usize..3,
        h in 5usize..10,
        w in 5usize..12,
        batch in 1usize..8,
    ) {
        let (mut net_batched, x0) = random_stack(seed, c, h, w);
        let (mut net_reference, _) = random_stack(seed, c, h, w);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
        let mut samples = vec![x0.data().to_vec()];
        for _ in 1..batch {
            samples.push((0..c * h * w).map(|_| rng.gen_range(-2.0f32..2.0)).collect());
        }
        let out_dim = {
            let probe = Tensor::from_vec(vec![c, h, w], samples[0].clone()).expect("probe");
            net_reference.forward(&probe).expect("probe forward").data().len()
        };
        let grad_rows: Vec<Vec<f32>> = (0..batch)
            .map(|_| {
                (0..out_dim)
                    .map(|_| if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(-1.0f32..1.0) })
                    .collect()
            })
            .collect();
        let flat: Vec<f32> = samples.iter().flatten().copied().collect();
        let grads: Vec<f32> = grad_rows.iter().flatten().copied().collect();
        let mut ctx = BatchInferCtx::new();
        net_batched
            .forward_batch_cached(&flat, &ActShape::image(c, h, w), batch, &mut ctx)
            .expect("cached forward");
        net_batched.backward_batch(&grads, batch, &mut ctx).expect("batched backward");
        net_batched.apply_grads(0.05);
        for (s, g) in samples.iter().zip(grad_rows.iter()) {
            let x = Tensor::from_vec(vec![c, h, w], s.clone()).expect("sample");
            net_reference.forward(&x).expect("forward");
            let gt = Tensor::from_vec(vec![out_dim], g.clone()).expect("grad");
            net_reference.backward(&gt).expect("backward");
        }
        net_reference.apply_grads(0.05);
        let bb: Vec<u32> = net_batched.snapshot().iter().map(|v| v.to_bits()).collect();
        let rb: Vec<u32> = net_reference.snapshot().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bb, rb, "trained conv-stack weights drifted from the reference");
    }

    // ---- One forward walk, two arenas: inference through the ctx of a
    // ---- pending cached training forward leaves the training step
    // ---- bit-identical to a twin that ran no inference in between.

    #[test]
    fn inference_between_cached_forward_and_backward_changes_no_weight(
        seed in any::<u64>(),
        conv in any::<bool>(),
        batch in 1usize..6,
        eval_batch in 1usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // The grid Q-MLP, or a conv stack with both kernel paths.
        let (mut net, shape) = if conv {
            let net = NetworkBuilder::new_image(2, 7, 8)
                .conv(3, 3)
                .relu()
                .conv(4, 2)
                .relu()
                .dense(6)
                .build(&mut rng)
                .expect("conv stack");
            (net, ActShape::image(2, 7, 8))
        } else {
            let net = NetworkBuilder::new(6)
                .dense(32)
                .relu()
                .dense(32)
                .relu()
                .dense(4)
                .build(&mut rng)
                .expect("grid mlp");
            (net, ActShape::flat(6))
        };
        let mut twin = net.clone();
        let vol = shape.volume();
        let mut draw = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect() };
        let x = draw(batch * vol);
        let y = Tensor::from_vec(shape.dims().to_vec(), draw(vol)).expect("observation");
        let z = draw(eval_batch * vol);
        let mut ctx = BatchInferCtx::new();
        let mut twin_ctx = BatchInferCtx::new();
        let out = net.forward_batch_cached(&x, &shape, batch, &mut ctx).expect("cached").to_vec();
        let twin_out =
            twin.forward_batch_cached(&x, &shape, batch, &mut twin_ctx).expect("cached").to_vec();
        prop_assert_eq!(&out, &twin_out);
        let row = |ctx: &BatchInferCtx| {
            ctx.cached_row().map(|(i, s, o)| (i.to_vec(), s, o.to_vec()))
        };
        let cached = row(&ctx);
        prop_assert_eq!(cached.is_some(), batch == 1);
        // Eval walks through the same ctx: one observation, then a batch.
        net.infer(&y, &mut ctx).expect("infer");
        net.infer_batch(&z, &shape, eval_batch, &mut ctx).expect("infer batch");
        prop_assert_eq!(row(&ctx), cached, "inference rewrote the cached row");
        let grads = draw(out.len());
        net.backward_batch(&grads, batch, &mut ctx).expect("backward");
        twin.backward_batch(&grads, batch, &mut twin_ctx).expect("twin backward");
        net.apply_grads(0.05);
        twin.apply_grads(0.05);
        let bits = |n: &frlfi_nn::Network| -> Vec<u32> {
            n.snapshot().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(&net), bits(&twin), "inference changed the training step");
    }

    // ---- The training tape: a load of taped rows is the cached
    // ---- forward of those rows, bit for bit, and so is the training
    // ---- step run on it.

    #[test]
    fn tape_load_equals_the_cached_forward_and_its_training_step(
        seed in any::<u64>(),
        steps in 1usize..10,
        picked in 1usize..10,
    ) {
        let (mut net, shape) = relu_anywhere_stack(seed);
        let mut twin = net.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7A9E);
        let vol = shape.volume();
        let obs: Vec<f32> = (0..steps * vol).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let mut ctx = BatchInferCtx::new();
        let tape = ctx.begin_tape(rng.gen_range(0..12));
        for row in obs.chunks_exact(vol) {
            let x = Tensor::from_vec(shape.dims().to_vec(), row.to_vec()).expect("observation");
            let acted = net.forward_taped(row, &shape, tape, &mut ctx).expect("taped").to_vec();
            prop_assert_eq!(&acted[..], net.infer(&x, &mut BatchInferCtx::new()).expect("infer"));
        }
        prop_assert_eq!(ctx.tape_len(tape), Some(steps));
        // Any rows, in any order; the twin runs their forward instead.
        let rows: Vec<usize> = (0..picked).map(|_| rng.gen_range(0..steps)).collect();
        let inputs: Vec<f32> = rows.iter().flat_map(|&r| obs[r * vol..][..vol].to_vec()).collect();
        let out = net.load_tape(tape, &rows, &inputs, &mut ctx).expect("load").to_vec();
        let mut twin_ctx = BatchInferCtx::new();
        let twin_out = twin
            .forward_batch_cached(&inputs, &shape, picked, &mut twin_ctx)
            .expect("cached forward")
            .to_vec();
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        prop_assert_eq!(bits(&out), bits(&twin_out));
        let grads: Vec<f32> = (0..out.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        net.backward_batch(&grads, picked, &mut ctx).expect("backward");
        twin.backward_batch(&grads, picked, &mut twin_ctx).expect("twin backward");
        net.apply_grads(0.05);
        twin.apply_grads(0.05);
        prop_assert_eq!(bits(&net.snapshot()), bits(&twin.snapshot()));
        // A new tape closes this one: its rows no longer load, and no
        // forward appends to it.
        let next = ctx.begin_tape(0);
        prop_assert_eq!((ctx.tape_len(tape), ctx.tape_len(next)), (None, Some(0)));
        prop_assert!(net.load_tape(tape, &rows, &inputs, &mut ctx).is_err());
        prop_assert!(net.forward_taped(&obs[..vol], &shape, tape, &mut ctx).is_err());
        prop_assert_eq!(ctx.tape_len(next), Some(0));
        // A copy of the ctx holds no tape.
        prop_assert_eq!(ctx.clone().tape_len(next), None);
    }

    #[test]
    fn infer_leaves_parameters_and_caches_untouched(
        seed in any::<u64>(),
        c in 1usize..3,
        h in 5usize..9,
        w in 5usize..9,
    ) {
        let (mut net, x) = random_stack(seed, c, h, w);
        let snap = net.snapshot();
        let mut ctx = BatchInferCtx::new();
        net.infer(&x, &mut ctx).expect("infer");
        prop_assert_eq!(net.snapshot(), snap, "infer must not write parameters");
        // No input caching: backward without a prior forward() fails.
        prop_assert!(net.backward(&Tensor::full(vec![1], 1.0)).is_err());
    }

    #[test]
    fn dense_batch1_backward_equals_the_per_sample_loop_bitwise(
        seed in any::<u64>(),
        grid_shape in any::<bool>(),
        pending in any::<bool>(),
    ) {
        // Batch 1 runs the per-sample loops in place on the activation
        // row; larger batches gather each sample into a row first. The
        // oracle is the gather loop at batch 2 with an all `-0.0`
        // second gradient row, which adds nothing: `-0.0` rows are
        // skipped and `gb + -0.0` keeps every bit of a non-signalling
        // `gb`. Compared bit-exact, NaN payloads included. The grid
        // Q-network's 32→32 layer is one shape, random ones the rest.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF05E);
        let (i, o) = if grid_shape {
            (32, 32)
        } else {
            (rng.gen_range(1..40usize), rng.gen_range(1..40usize))
        };
        let mut single = special_dense(seed, i, o);
        let mut padded = special_dense(seed, i, o);
        if pending {
            // A gradient left pending by a backward without an apply.
            backward_batch1_and_padded(&mut single, &mut padded, &mut rng)?;
        }
        // Two steps: the second one also sees whether the first left
        // every gradient cleared.
        for k in 0..2 {
            backward_batch1_and_padded(&mut single, &mut padded, &mut rng)?;
            let lr = rng.gen_range(0.001f32..0.1);
            single.apply_grads(lr);
            padded.apply_grads(lr);
            for (a, b) in single.params().iter().zip(padded.params().iter()) {
                let ab: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(ab, bb, "parameters after step {}", k);
            }
        }
    }
}
