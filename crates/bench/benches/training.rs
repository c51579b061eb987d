//! Batched-training benchmarks: the sequential per-sample reference
//! path (`Network::forward` + `Network::backward`, what `observe` /
//! `end_episode` ran before batched training shipped) against the
//! arena-kernel path (`forward_batch_cached` + `backward_batch`) that
//! `QLearner::learn_batch` / `Reinforce::learn_batch` drive. Run with
//! `CRITERION_JSON=BENCH_training.json` to refresh the committed
//! perf-tracking snapshot:
//!
//! ```text
//! CRITERION_JSON=BENCH_training.json cargo bench -p frlfi-bench --bench training
//! ```
//!
//! Every row processes `batch` samples per iteration and reports
//! throughput in *parameters touched per sample-step* (`params × batch`
//! elements per iteration), so per-sample training rates are directly
//! comparable between the sequential rows and every batch size; the
//! ≥2x acceptance gate compares `*_sequential_batch32` against
//! `*_batch32`. The final SGD step runs with `lr = 0` in both paths —
//! the apply/clear cost is measured, but weights stay fixed so every
//! iteration times the identical numeric work.
//!
//! Two row families use the call shape DroneNav fine-tuning really
//! runs: one REINFORCE episode-end update at batch 33 (the median
//! kept-step count of a `drone-finetune` trial), and each conv layer's
//! batched backward alone at that batch, where `conv0` computes
//! parameter gradients only, as inside `Network::backward_batch`.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use frlfi::nn::{ActShape, BatchInferCtx, Conv2d, Layer, Network, NetworkBuilder};
use frlfi::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// The DroneNav policy of §IV-B-1: Conv×3 (k=3) + FC×2 over the 9×16
/// depth image — the heaviest per-step training in any campaign.
fn drone_policy() -> (Network, ActShape) {
    let mut rng = StdRng::seed_from_u64(1);
    let net = NetworkBuilder::new_image(1, 9, 16)
        .conv(8, 3)
        .relu()
        .conv(12, 3)
        .relu()
        .conv(16, 3)
        .relu()
        .dense(64)
        .relu()
        .dense(25)
        .build(&mut rng)
        .expect("network");
    (net, ActShape::image(1, 9, 16))
}

/// The GridWorld Q-network of §IV-A-1: MLP 6→32→32→4.
fn grid_policy() -> (Network, ActShape) {
    let mut rng = StdRng::seed_from_u64(2);
    let net = NetworkBuilder::new(6)
        .dense(32)
        .relu()
        .dense(32)
        .relu()
        .dense(4)
        .build(&mut rng)
        .expect("network");
    (net, ActShape::flat(6))
}

/// Sample-major replay batch: `batch` observations plus one output
/// gradient row per sample (the REINFORCE episode-end shape).
fn replay(
    net: &mut Network,
    shape: &ActShape,
    batch: usize,
    seed: u64,
) -> (Vec<f32>, Vec<f32>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let vol = shape.volume();
    let states: Vec<f32> = (0..batch * vol).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let probe = Tensor::from_vec(shape.dims().to_vec(), states[..vol].to_vec()).expect("probe");
    let out_dim = net.forward(&probe).expect("probe forward").data().len();
    let grads: Vec<f32> = (0..batch * out_dim).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    (states, grads, out_dim)
}

fn bench_policy_training(c: &mut Criterion, tag: &str, build: fn() -> (Network, ActShape)) {
    let batches = [1usize, 8, 32, 128];

    // Sequential reference: per-sample slow forward + backward over a
    // 32-sample replay, one SGD apply per iteration.
    {
        let mut group = c.benchmark_group("training");
        let (mut net, shape) = build();
        let batch = 32;
        let (states, grads, out_dim) = replay(&mut net, &shape, batch, 0x5E0);
        let vol = shape.volume();
        let xs: Vec<Tensor> = (0..batch)
            .map(|b| {
                Tensor::from_vec(shape.dims().to_vec(), states[b * vol..(b + 1) * vol].to_vec())
                    .expect("state")
            })
            .collect();
        let gs: Vec<Tensor> = (0..batch)
            .map(|b| {
                Tensor::from_vec(vec![out_dim], grads[b * out_dim..(b + 1) * out_dim].to_vec())
                    .expect("grad")
            })
            .collect();
        group.throughput(Throughput::Elements(net.param_count() as u64 * batch as u64));
        group.bench_function(format!("{tag}_replay_sequential_batch{batch}").as_str(), |b| {
            b.iter(|| {
                for (x, g) in xs.iter().zip(gs.iter()) {
                    net.forward(x).expect("forward");
                    net.backward(g).expect("backward");
                }
                net.apply_grads(0.0);
                black_box(&net);
            })
        });
        group.finish();
    }

    let mut group = c.benchmark_group("training_batched");
    for &batch in &batches {
        bench_batched_update(&mut group, &format!("{tag}_replay_batch{batch}"), build, batch);
    }
    group.finish();
}

/// Batched arena path: one cached forward + one fused backward over
/// the whole replay, one SGD apply per iteration.
fn bench_batched_update(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    build: fn() -> (Network, ActShape),
    batch: usize,
) {
    let (mut net, shape) = build();
    let (states, grads, _) = replay(&mut net, &shape, batch, 0x5E0);
    let mut ctx = BatchInferCtx::new();
    net.forward_batch_cached(&states, &shape, batch, &mut ctx).expect("warmup");
    group.throughput(Throughput::Elements(net.param_count() as u64 * batch as u64));
    group.bench_function(name, |b| {
        b.iter(|| {
            net.forward_batch_cached(&states, &shape, batch, &mut ctx).expect("forward");
            net.backward_batch(&grads, batch, &mut ctx).expect("backward");
            net.apply_grads(0.0);
            black_box(&net);
        })
    });
}

/// Median kept-step batch of one DroneNav REINFORCE update
/// (`nn.train_batch.p50` of a traced `drone-finetune` run).
const DRONE_UPDATE_BATCH: usize = 33;

/// Each DroneNav conv layer's batched backward on its own, at its
/// input shape in the policy and the median update batch. Inputs past
/// `conv0` are post-ReLU (about half zeros) and every upstream
/// gradient is ReLU-sparse, as in training.
fn drone_conv_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("training_layers");
    let batch = DRONE_UPDATE_BATCH;
    let mut rng = StdRng::seed_from_u64(3);
    for (l, (in_c, out_c, h, w)) in
        [(1, 8, 9, 16), (8, 12, 7, 14), (12, 16, 5, 12)].into_iter().enumerate()
    {
        let mut conv = Conv2d::new(format!("conv{l}"), in_c, out_c, 3, &mut rng);
        let in_shape = ActShape::image(in_c, h, w);
        let out_vol = conv.out_shape(&in_shape).expect("shape").volume();
        let x: Vec<f32> = (0..in_c * h * w * batch)
            .map(|_| rng.gen_range(-1.0f32..1.0).max(if l > 0 { 0.0 } else { -1.0 }))
            .collect();
        let g: Vec<f32> = (0..out_vol * batch)
            .map(|_| if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(-0.5f32..0.5) })
            .collect();
        let mut dx = vec![0.0f32; in_shape.volume() * batch];
        let mut scratch = Vec::new();
        group.throughput(Throughput::Elements(conv.param_count() as u64 * batch as u64));
        group.bench_function(format!("drone_conv{l}_backward_batch{batch}").as_str(), |b| {
            b.iter(|| {
                let grad_in = (l > 0).then_some(&mut dx[..]);
                conv.backward_batch_into(&x, &in_shape, batch, &g, grad_in, &mut scratch)
                    .expect("backward");
                conv.zero_grads();
                black_box(&dx);
            })
        });
    }
    group.finish();
}

fn policy_training(c: &mut Criterion) {
    bench_policy_training(c, "drone_policy", drone_policy);
    bench_policy_training(c, "grid_mlp", grid_policy);
    let mut group = c.benchmark_group("training_batched");
    let name = format!("drone_policy_update_batch{DRONE_UPDATE_BATCH}");
    bench_batched_update(&mut group, &name, drone_policy, DRONE_UPDATE_BATCH);
    group.finish();
    drone_conv_backward(c);
}

criterion_group!(benches, policy_training);
criterion_main!(benches);
