//! Batched-training benchmarks: the sequential per-sample reference
//! path (`Network::forward` + `Network::backward`, what `observe` /
//! `end_episode` ran before batched training shipped) against the
//! arena-kernel path (`forward_batch_cached` + `backward_batch`) that
//! `Reinforce::learn_batch` drives over an episode's kept steps, in
//! chunks of at most 32 rows. Run with
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
//! One row uses the largest DroneNav fine-tuning update chunk
//! production runs: one 32-row REINFORCE update (`learn_batch` never
//! runs more rows at once). The `_taped` row next to it is the same
//! chunk as `learn_batch` runs it when the episode's acts taped every
//! step: a load from the training tape, then the backward. Next to
//! them, each DroneNav conv layer runs
//! alone at the batches production calls it with: forward at 1, 3 and
//! 32 rows, backward at 32 (and at 1 and 3 for the two layers that
//! compute an input gradient).
//!
//! Next to them, each GridWorld Q-network layer runs alone at batch 1,
//! forward and backward, as one TD step calls it: the three dense
//! layers (6→32, 32→32, 32→4) and a ReLU over 32 units.
//!
//! Two rows use the call shape GridWorld training really runs: one
//! online TD step of `QLearner` at batch 1 (`act_train_ctx` then
//! `observe_ctx`), and next to it the same step as the network calls
//! it used to make — an action forward, the next-state forward, a
//! second forward of the current state, `backward_batch`, then
//! `apply_grads`.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use frlfi::envs::{Environment, GridWorld};
use frlfi::nn::{ActShape, BatchInferCtx, Conv2d, Dense, Network, NetworkBuilder, Relu};
use frlfi::rl::{eps_greedy_slice, EpsilonSchedule, Learner, QLearner, Transition};
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

/// One update chunk of `batch` rows fed from a training tape, as
/// `learn_batch` runs it after an episode whose acts taped every step:
/// `batch` batch-1 act forwards (`Network::forward_taped`) fill the
/// tape before the timing, and each iteration loads the rows
/// (`Network::load_tape`, which reruns only the first layer), runs the
/// backward and applies the gradients at `lr = 0`, so the tape stays
/// valid.
fn bench_taped_update(group: &mut BenchmarkGroup<'_>, name: &str, batch: usize) {
    let (mut net, shape) = drone_policy();
    let (states, grads, _) = replay(&mut net, &shape, batch, 0x5E0);
    let mut ctx = BatchInferCtx::new();
    let tape = ctx.begin_tape(batch);
    for row in states.chunks_exact(shape.volume()) {
        net.forward_taped(row, &shape, tape, &mut ctx).expect("act");
    }
    let rows: Vec<usize> = (0..batch).collect();
    group.throughput(Throughput::Elements(net.param_count() as u64 * batch as u64));
    group.bench_function(name, |b| {
        b.iter(|| {
            net.load_tape(tape, &rows, &states, &mut ctx).expect("load");
            net.backward_batch(&grads, batch, &mut ctx).expect("backward");
            net.apply_grads(0.0);
            black_box(&net);
        })
    });
}

/// Rows of one DroneNav REINFORCE update chunk: `learn_batch` runs an
/// episode's kept steps in chunks of at most 32 rows, so 32 is the
/// largest update batch production runs.
const DRONE_UPDATE_BATCH: usize = 32;

/// Each DroneNav conv layer on its own, at its input shape in the
/// policy. Inputs past `conv0` are post-ReLU (about half zeros) and
/// every upstream gradient is ReLU-sparse, as in training.
///
/// Forward rows run at batch 1 (the act of a fine-tuning step, through
/// `forward_into` as `Network::infer` calls it), 3 (the lock-step
/// evaluator's memo misses) and 32 (an update chunk). The
/// backward rows run at the update-chunk batch, `conv0` computing
/// parameter gradients only, as inside `Network::backward_batch`;
/// `conv1` and `conv2` also run at batches 1 and 3, each next to a
/// `params_only` row without the input gradient, so the input-gradient
/// pass costs the difference of the two rows. A `params_only_masked`
/// row at the update-chunk batch times the parameter-gradient pass on
/// input with a non-finite value in every channel.
fn drone_conv_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("training_layers");
    let mut rng = StdRng::seed_from_u64(3);
    for (l, (in_c, out_c, h, w)) in
        [(1, 8, 9, 16), (8, 12, 7, 14), (12, 16, 5, 12)].into_iter().enumerate()
    {
        let mut conv = Conv2d::new(format!("conv{l}"), in_c, out_c, 3, &mut rng);
        let in_shape = ActShape::image(in_c, h, w);
        let out_vol = conv.out_shape(&in_shape).expect("shape").volume();
        // `conv0`'s input gradient has no reader.
        let backward_rows: &[(&str, bool)] = if l == 0 {
            &[("backward", false)]
        } else {
            &[("backward", true), ("params_only", false)]
        };
        for batch in [1, 3, DRONE_UPDATE_BATCH] {
            let x: Vec<f32> = (0..in_c * h * w * batch)
                .map(|_| rng.gen_range(-1.0f32..1.0).max(if l > 0 { 0.0 } else { -1.0 }))
                .collect();
            let mut y = vec![0.0f32; out_vol * batch];
            group.throughput(Throughput::Elements(conv.param_count() as u64 * batch as u64));
            group.bench_function(format!("drone_conv{l}_forward_batch{batch}").as_str(), |b| {
                b.iter(|| {
                    if batch == 1 {
                        conv.forward_into(&x, &in_shape, &mut y).expect("forward");
                    } else {
                        conv.forward_batch_into(&x, &in_shape, batch, &mut y).expect("forward");
                    }
                    black_box(&y);
                })
            });
            if l == 0 && batch != DRONE_UPDATE_BATCH {
                continue;
            }
            let g: Vec<f32> = (0..out_vol * batch)
                .map(|_| if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(-0.5f32..0.5) })
                .collect();
            let mut dx = vec![0.0f32; in_shape.volume() * batch];
            let mut scratch = Vec::new();
            for &(tag, with_dx) in backward_rows {
                group.bench_function(format!("drone_conv{l}_{tag}_batch{batch}").as_str(), |b| {
                    b.iter(|| {
                        let grad_in = with_dx.then_some(&mut dx[..]);
                        conv.backward_batch_into(&x, &in_shape, batch, &g, grad_in, &mut scratch)
                            .expect("backward");
                        conv.zero_grads();
                        black_box(&dx);
                    })
                });
            }
            if l > 0 && batch == DRONE_UPDATE_BATCH {
                // One ∞ in every input channel: the whole pass runs the
                // masked instance, as after a fault upstream.
                let mut x_inf = x.clone();
                for plane in x_inf.chunks_exact_mut(h * w * batch) {
                    plane[0] = f32::INFINITY;
                }
                let name = format!("drone_conv{l}_params_only_masked_batch{batch}");
                group.bench_function(name.as_str(), |b| {
                    b.iter(|| {
                        conv.backward_batch_into(&x_inf, &in_shape, batch, &g, None, &mut scratch)
                            .expect("backward");
                        conv.zero_grads();
                    })
                });
            }
        }
    }
    group.finish();
}

/// Each GridWorld Q-network layer on its own at batch 1, forward and
/// backward, with the inputs and gradients one TD step gives it: hidden
/// layers see post-ReLU inputs (about half zeros) and ReLU-sparse
/// upstream gradients, the output layer a one-hot TD-error gradient,
/// and the first layer computes no input gradient, as inside
/// `Network::backward_batch`. Dense rows count parameters touched; the
/// ReLU rows report time only.
fn grid_mlp_layers(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut group = c.benchmark_group("training_layers");
    for (l, (in_dim, out_dim)) in [(6, 32), (32, 32), (32, 4)].into_iter().enumerate() {
        let mut dense = Dense::new(format!("dense{l}"), in_dim, out_dim, &mut rng);
        let shape = ActShape::flat(in_dim);
        let x: Vec<f32> = (0..in_dim)
            .map(|_| rng.gen_range(-1.0f32..1.0).max(if l > 0 { 0.0 } else { -1.0 }))
            .collect();
        let g: Vec<f32> = if out_dim == 4 {
            let mut g = vec![0.0f32; out_dim];
            g[rng.gen_range(0..out_dim)] = rng.gen_range(-1.0f32..1.0);
            g
        } else {
            (0..out_dim)
                .map(|_| if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(-0.5f32..0.5) })
                .collect()
        };
        let mut y = vec![0.0f32; out_dim];
        let mut dx = vec![0.0f32; in_dim];
        let mut scratch = Vec::new();
        let tag = format!("grid_dense{in_dim}x{out_dim}");
        group.throughput(Throughput::Elements(dense.param_count() as u64));
        group.bench_function(format!("{tag}_forward_batch1").as_str(), |b| {
            b.iter(|| {
                dense.forward_into(&x, &shape, &mut y).expect("forward");
                black_box(&y);
            })
        });
        group.bench_function(format!("{tag}_backward_batch1").as_str(), |b| {
            b.iter(|| {
                let grad_in = (l > 0).then_some(&mut dx[..]);
                dense.backward_batch_into(&x, &shape, 1, &g, grad_in, &mut scratch).expect("bwd");
                dense.zero_grads();
                black_box(&dx);
            })
        });
    }
    group.finish();
    let mut group = c.benchmark_group("training_layers");
    let mut relu = Relu::new("relu0");
    let shape = ActShape::flat(32);
    let x: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let g: Vec<f32> = (0..32).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    let (mut y, mut dx) = (vec![0.0f32; 32], vec![0.0f32; 32]);
    group.bench_function("grid_relu32_forward_batch1", |b| {
        b.iter(|| {
            relu.forward_into(&x, &shape, &mut y).expect("forward");
            black_box(&y);
        })
    });
    group.bench_function("grid_relu32_backward_batch1", |b| {
        b.iter(|| {
            relu.backward_batch_into(&x, &shape, 1, &g, Some(&mut dx), &mut Vec::new())
                .expect("backward");
            black_box(&dx);
        })
    });
    group.finish();
}

/// GridWorld transitions from a random walk over a standard layout:
/// the observations a TD step really sees, with `next_state` `None` at
/// episode ends.
fn grid_transitions(n: usize) -> Vec<Transition> {
    let mut rng = StdRng::seed_from_u64(4);
    let mut env = GridWorld::standard_layouts(0).swap_remove(0);
    let mut state = env.reset(&mut rng);
    (0..n)
        .map(|_| {
            let action = rng.gen_range(0..env.n_actions());
            let step = env.step(action, &mut rng);
            let terminal = step.outcome.is_terminal();
            let t = Transition {
                state: std::mem::replace(&mut state, step.state.clone()),
                action,
                reward: step.reward,
                next_state: (!terminal).then_some(step.state),
            };
            if terminal {
                state = env.reset(&mut rng);
            }
            t
        })
        .collect()
}

/// One batch-1 TD step per iteration, as GridWorld training runs it
/// (`QLearner::act_train_ctx` + `observe_ctx`), against the network
/// calls the step made before the act-time forward was reused. Both
/// run at `lr = 0` on the same transitions and ε = 1 exploration
/// stream.
fn grid_td_step(c: &mut Criterion) {
    let transitions = grid_transitions(256);
    let mut group = c.benchmark_group("training_batched");
    let (net, shape) = grid_policy();
    group.throughput(Throughput::Elements(net.param_count() as u64));
    {
        let mut q = QLearner::new(net.clone(), 0.9, 0.0, EpsilonSchedule::new(1.0, 1.0, 1));
        let mut ctx = BatchInferCtx::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut k = 0;
        group.bench_function("grid_td_step_batch1", |b| {
            b.iter(|| {
                let t = &transitions[k % transitions.len()];
                k += 1;
                let action = q.act_train_ctx(&t.state, &mut rng, &mut ctx).expect("act");
                q.observe_ctx(Transition { action, ..t.clone() }, &mut ctx).expect("observe");
                black_box(&q);
            })
        });
    }
    {
        let mut net = net;
        let mut ctx = BatchInferCtx::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut grad = vec![0.0f32; 4];
        let mut k = 0;
        group.bench_function("grid_td_step_oracle_batch1", |b| {
            b.iter(|| {
                // The transition a learner receives, as in the row above.
                let t = transitions[k % transitions.len()].clone();
                k += 1;
                let q = net.infer_batch(t.state.data(), &shape, 1, &mut ctx).expect("act");
                let action = eps_greedy_slice(q, 1.0, &mut rng);
                let target = match &t.next_state {
                    Some(ns) => {
                        let next = net.infer_batch(ns.data(), &shape, 1, &mut ctx).expect("next");
                        let max_next = next
                            .iter()
                            .cloned()
                            .filter(|v| v.is_finite())
                            .fold(f32::NEG_INFINITY, f32::max);
                        t.reward + 0.9 * if max_next.is_finite() { max_next } else { 0.0 }
                    }
                    None => t.reward,
                };
                let q_a = net
                    .forward_batch_cached(t.state.data(), &shape, 1, &mut ctx)
                    .expect("forward")[action];
                grad.fill(0.0);
                grad[action] = (q_a - target).clamp(-10.0, 10.0);
                net.backward_batch(&grad, 1, &mut ctx).expect("backward");
                net.apply_grads(0.0);
                black_box((&net, t));
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
    let name = format!("drone_policy_update_taped_batch{DRONE_UPDATE_BATCH}");
    bench_taped_update(&mut group, &name, DRONE_UPDATE_BATCH);
    group.finish();
    drone_conv_layers(c);
    grid_mlp_layers(c);
    grid_td_step(c);
}

criterion_group!(benches, policy_training);
criterion_main!(benches);
