//! Criterion micro-benches of the heavy substrate components: bit-level
//! injection into one policy plane, federated aggregation, conv policy
//! inference, raycast depth rendering and anomaly-detector scans.

use criterion::{criterion_group, criterion_main, Criterion};
use frlfi::envs::{DroneConfig, DroneSim, Environment};
use frlfi::fault::{corrupt_slice_ber, inject_slice_ber, Ber, DataRepr, FaultModel};
use frlfi::federated::Server;
use frlfi::mitigation::RangeDetector;
use frlfi::nn::NetworkBuilder;
use frlfi::quant::SymInt8Quantizer;
use frlfi::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Weights in one GridWorld policy plane (the Fig. 4/8 fault surface).
const GRID_POLICY_WEIGHTS: usize = 1412;

fn injection(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let clean: Vec<f32> =
        (0..GRID_POLICY_WEIGHTS).map(|i| ((i % 97) as f32 - 48.0) / 64.0).collect();
    let mut plane = clean.clone();
    let ber = Ber::new(0.01).expect("ber");
    // A static (inference-time) fault: 452 flips, no records.
    c.bench_function("corrupt_f32_policy_plane_ber_1pct", |b| {
        b.iter(|| {
            corrupt_slice_ber(&mut plane, DataRepr::F32, FaultModel::TransientMulti, ber, &mut rng);
            black_box(&plane);
        })
    });
    // A dynamic (training-time) fault on the deployed int8 codes, as
    // `inject_now` records it: 113 flips.
    let q = SymInt8Quantizer::fit(&clean).expect("range");
    let mut plane = clean;
    c.bench_function("inject_int8_policy_plane_ber_1pct", |b| {
        b.iter(|| {
            black_box(inject_slice_ber(
                &mut plane,
                DataRepr::SymInt8(q),
                FaultModel::TransientMulti,
                ber,
                &mut rng,
            ))
        })
    });
}

fn aggregation(c: &mut Criterion) {
    let mut server = Server::new(12, 10_000).expect("server");
    let uploads: Vec<Vec<f32>> = (0..12).map(|i| vec![i as f32 * 0.01; 10_000]).collect();
    c.bench_function("server_aggregate_12_agents_10k_params", |b| {
        b.iter(|| black_box(server.aggregate(&uploads).expect("aggregate")))
    });
}

fn policy_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut net = NetworkBuilder::new_image(1, 9, 16)
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
    c.bench_function("drone_conv_policy_forward", |b| {
        b.iter(|| black_box(net.forward(&obs).expect("forward")))
    });
}

fn depth_render(c: &mut Criterion) {
    let mut sim = DroneSim::new(DroneConfig::default(), 7);
    let mut rng = StdRng::seed_from_u64(2);
    sim.reset(&mut rng);
    c.bench_function("raycast_depth_render_9x16", |b| b.iter(|| black_box(sim.render_depth())));
}

fn detector_scan(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let net = NetworkBuilder::new(6)
        .dense(32)
        .relu()
        .dense(32)
        .relu()
        .dense(4)
        .build(&mut rng)
        .expect("network");
    let det = RangeDetector::fit(&net);
    let snap = net.snapshot();
    c.bench_function("range_detector_scan_mlp", |b| b.iter(|| black_box(det.scan(&snap))));
}

criterion_group!(benches, injection, aggregation, policy_forward, depth_render, detector_scan);
criterion_main!(benches);
