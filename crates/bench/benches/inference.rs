//! Inference fast-path benchmarks: the seed `Network::forward` baseline
//! against the zero-allocation `Network::infer` path, for both paper
//! policies. Run with `CRITERION_JSON=BENCH_inference.json` to refresh
//! the committed perf-tracking snapshot:
//!
//! ```text
//! CRITERION_JSON=BENCH_inference.json cargo bench -p frlfi-bench --bench inference
//! ```
//!
//! Throughput is reported in *parameters touched per second* (one
//! element per trainable parameter per forward pass), so the rate is
//! comparable across policies of different size.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use frlfi::nn::{ActShape, BatchInferCtx, Network, NetworkBuilder};
use frlfi::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The DroneNav policy of §IV-B-1: Conv×3 (k=3) + FC×2 over the 9×16
/// depth image — the heaviest per-step inference in any campaign.
fn drone_policy() -> (Network, Tensor) {
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
    let obs = Tensor::zeros(vec![1, 9, 16]);
    (net, obs)
}

/// The GridWorld Q-network of §IV-A-1: MLP 6→32→32→4.
fn grid_policy() -> (Network, Tensor) {
    let mut rng = StdRng::seed_from_u64(2);
    let net = NetworkBuilder::new(6)
        .dense(32)
        .relu()
        .dense(32)
        .relu()
        .dense(4)
        .build(&mut rng)
        .expect("network");
    let obs = Tensor::from_vec(vec![6], vec![0.0, 1.0, -1.0, 0.0, 1.0, 0.5]).expect("obs");
    (net, obs)
}

fn policy_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference");

    let (mut net, obs) = drone_policy();
    group.throughput(Throughput::Elements(net.param_count() as u64));
    group.bench_function("drone_policy_forward_baseline", |b| {
        b.iter(|| black_box(net.forward(&obs).expect("forward")))
    });
    let (net, obs) = drone_policy();
    let mut ctx = BatchInferCtx::new();
    net.infer(&obs, &mut ctx).expect("warmup");
    group.bench_function("drone_policy_infer_fast", |b| {
        b.iter(|| black_box(net.infer(&obs, &mut ctx).expect("infer")).len())
    });

    let (mut net, obs) = grid_policy();
    group.throughput(Throughput::Elements(net.param_count() as u64));
    group.bench_function("grid_mlp_forward_baseline", |b| {
        b.iter(|| black_box(net.forward(&obs).expect("forward")))
    });
    let (net, obs) = grid_policy();
    let mut ctx = BatchInferCtx::new();
    net.infer(&obs, &mut ctx).expect("warmup");
    group.bench_function("grid_mlp_infer_fast", |b| {
        b.iter(|| black_box(net.infer(&obs, &mut ctx).expect("infer")).len())
    });

    group.finish();
}

/// Batched multi-trial inference: one `infer_batch` call serves a
/// whole batch of observations (one campaign-cell trial batch), so
/// throughput is `params × batch` elements per iteration. Batch 1 is
/// `inference/drone_policy_infer_fast`: `Network::infer` is the same
/// walk at batch 1. Batch ≥ 32 is the campaign sweet spot the ≥2x
/// acceptance gate measures against that per-observation row.
fn batched_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_batched");
    let (net, _) = drone_policy();
    let mut rng = StdRng::seed_from_u64(7);
    let vol = 9 * 16;
    let mut ctx = BatchInferCtx::new();
    for &batch in &[8usize, 32, 128] {
        let obs =
            Tensor::random(vec![batch * vol], frlfi::tensor::Init::Uniform(-1.0, 1.0), &mut rng);
        let flat = obs.data();
        let shape = ActShape::image(1, 9, 16);
        net.infer_batch(flat, &shape, batch, &mut ctx).expect("warmup");
        group.throughput(Throughput::Elements(net.param_count() as u64 * batch as u64));
        group.bench_function(format!("drone_policy_infer_batch{batch}").as_str(), |b| {
            b.iter(|| {
                black_box(net.infer_batch(flat, &shape, batch, &mut ctx).expect("infer")).len()
            })
        });
    }
    group.finish();
}

fn activation_fault_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_faulted");
    let (net, obs) = grid_policy();
    group.throughput(Throughput::Elements(net.param_count() as u64));
    let mut ctx = BatchInferCtx::new();
    let mut flip = 0u32;
    group.bench_function("grid_mlp_infer_with_activation_hook", |b| {
        b.iter(|| {
            let out = net
                .infer_with_activation_faults(&obs, &mut ctx, &mut |buf| {
                    // Cheap deterministic corruption: one bit per layer.
                    flip = flip.wrapping_add(1);
                    let i = (flip as usize) % buf.len();
                    buf[i] = f32::from_bits(buf[i].to_bits() ^ 1);
                })
                .expect("infer");
            black_box(out).len()
        })
    });
    group.finish();
}

criterion_group!(benches, policy_inference, batched_inference, activation_fault_inference);
criterion_main!(benches);
