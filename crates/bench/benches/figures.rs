//! Criterion benches over one campaign *cell* of each figure — the unit
//! the full tables are built from. Full tables are campaigns
//! (`campaign run fig3a`, …); Fig. 9 and Table I print from
//! `cargo run --release --example paper_tables`.

use criterion::{criterion_group, criterion_main, Criterion};
use frlfi::fault::{Ber, FaultModel};
use frlfi::nn::BatchInferCtx;
use frlfi::{
    DroneFrlSystem, DroneSystemConfig, GridFrlSystem, GridSystemConfig, InjectionPlan, ReprKind,
    Scale,
};
use std::hint::black_box;

fn fig3_cell(c: &mut Criterion) {
    c.bench_function("fig3_cell_train_with_server_fault", |b| {
        b.iter(|| {
            let cfg = GridSystemConfig {
                n_agents: 3,
                seed: 42,
                epsilon_decay_episodes: 60,
                ..Default::default()
            };
            let mut sys = GridFrlSystem::new(cfg).expect("valid config");
            let plan = InjectionPlan::server(60, Ber::new(0.01).expect("ber"));
            let ctx = &mut BatchInferCtx::new();
            sys.train(120, Some(&plan), ctx).expect("training");
            black_box(sys.success_rate(ctx))
        })
    });
}

fn fig4_cell(c: &mut Criterion) {
    let cfg = GridSystemConfig {
        n_agents: 3,
        seed: 42,
        epsilon_decay_episodes: 60,
        ..Default::default()
    };
    let mut sys = GridFrlSystem::new(cfg).expect("valid config");
    sys.train(150, None, &mut BatchInferCtx::new()).expect("training");
    c.bench_function("fig4_cell_static_inference_fault", |b| {
        let ctx = &mut BatchInferCtx::new();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(sys.with_faulted_policies(
                FaultModel::TransientMulti,
                Ber::new(0.01).expect("ber"),
                ReprKind::Int8,
                seed,
                |s| s.success_rate(ctx),
            ))
        })
    });
}

fn fig5_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    group.bench_function("fig5_cell_fine_tune_with_fault", |b| {
        b.iter(|| {
            let mut sys = DroneFrlSystem::new(DroneSystemConfig {
                n_drones: 2,
                seed: 42,
                pretrain_episodes: 2,
                train_max_steps: 20,
                ..Default::default()
            })
            .expect("valid config");
            sys.pretrain().expect("pretrain");
            let plan =
                InjectionPlan::server(1, Ber::new(1e-3).expect("ber")).with_repr(ReprKind::F32);
            let ctx = &mut BatchInferCtx::new();
            sys.train(4, Some(&plan), ctx).expect("fine-tune");
            black_box(sys.safe_flight_distance(1, ctx))
        })
    });
    group.finish();
}

fn fig9_model(c: &mut Criterion) {
    c.bench_function("fig9_overhead_model", |b| {
        b.iter(|| black_box(frlfi::experiments::fig9::run()))
    });
}

fn table1_smoke(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("table1_smoke", |b| {
        b.iter(|| black_box(frlfi::experiments::table1::run(Scale::Smoke)))
    });
    group.finish();
}

criterion_group!(benches, fig3_cell, fig4_cell, fig5_cell, fig9_model, table1_smoke);
criterion_main!(benches);
