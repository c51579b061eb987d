//! Reproducibility guarantees: identical seeds yield identical systems,
//! campaigns, and fault sites — thread count included.

use frlfi::fault::{inject_slice_ber, sweep_with_threads, Ber, DataRepr, FaultModel};
use frlfi::nn::BatchInferCtx;
use frlfi::rl::Learner;
use frlfi::{
    DroneFrlSystem, DroneSystemConfig, GridFrlSystem, GridSystemConfig, InjectionPlan,
    TrainingMitigation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn training_is_bitwise_reproducible() {
    let run = |seed: u64| {
        let mut sys =
            GridFrlSystem::new(GridSystemConfig { n_agents: 3, seed, ..Default::default() })
                .expect("valid config");
        sys.train(80, None, &mut BatchInferCtx::new()).expect("training");
        sys.agent(0).network().snapshot()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn injected_training_is_reproducible() {
    let run = || {
        let mut sys =
            GridFrlSystem::new(GridSystemConfig { n_agents: 3, seed: 50, ..Default::default() })
                .expect("valid config");
        let plan = InjectionPlan::server(20, Ber::new(0.01).expect("ber"));
        sys.train(60, Some(&plan), &mut BatchInferCtx::new()).expect("training");
        // Compare bit patterns: f32 faults can produce NaN weights, and
        // NaN != NaN would fail equality on bit-identical runs.
        let bits: Vec<u32> =
            sys.agent(1).network().snapshot().iter().map(|w| w.to_bits()).collect();
        let sites: Vec<(usize, u32)> =
            sys.last_fault_records().iter().map(|r| (r.index, r.bit)).collect();
        (bits, sites)
    };
    let (w1, r1) = run();
    let (w2, r2) = run();
    assert_eq!(w1, w2);
    assert_eq!(r1, r2);
}

#[test]
fn fault_sites_depend_only_on_seed() {
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = vec![0.25f32; 256];
        inject_slice_ber(
            &mut buf,
            DataRepr::F32,
            FaultModel::TransientMulti,
            Ber::new(0.01).expect("ber"),
            &mut rng,
        );
        buf
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn campaign_results_independent_of_thread_count() {
    let cells: Vec<f64> = vec![0.0, 0.01, 0.02];
    let eval = |&ber: &f64, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = vec![0.5f32; 64];
        let recs = inject_slice_ber(
            &mut buf,
            DataRepr::F32,
            FaultModel::TransientMulti,
            Ber::new(ber).expect("ber"),
            &mut rng,
        );
        recs.len() as f64
    };
    let seq = sweep_with_threads(&cells, 8, 77, 1, eval);
    let par = sweep_with_threads(&cells, 8, 77, 8, eval);
    for (a, b) in seq.iter().zip(par.iter()) {
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.n, b.n);
    }
}

#[test]
fn fault_seed_changes_nothing_without_a_plan() {
    // The fault stream must reach a system's state only through an
    // applied injection plan: without one, training from any two
    // fault seeds gives the same weights and detections, bit for bit.
    // Reliable and 40%-dropout links, without and with the detector.
    let mitigation =
        Some(TrainingMitigation { p_percent: 10.0, k_consecutive: 2, checkpoint_interval: 1 });
    for (dropout, mitigation) in
        [(None, None), (Some(0.4), None), (None, mitigation), (Some(0.4), mitigation)]
    {
        let grid = |fault_seed: u64| {
            let cfg = GridSystemConfig {
                n_agents: 3,
                seed: 7,
                dropout,
                mitigation,
                ..Default::default()
            };
            let mut sys = GridFrlSystem::new(cfg).expect("valid config");
            sys.reseed_faults(fault_seed);
            sys.train(40, None, &mut BatchInferCtx::new()).expect("training");
            let stats = sys.mitigation_stats();
            let bits: Vec<u32> =
                (0..3).flat_map(|i| sys.agent(i).network().snapshot()).map(f32::to_bits).collect();
            (bits, stats.agent_detections, stats.server_detections)
        };
        let (bits, agent_hits, server_hits) = grid(3);
        assert_eq!(
            (bits, agent_hits, server_hits),
            grid(17),
            "grid, dropout {dropout:?}, mitigation {mitigation:?}"
        );
        // With mitigation the detector must fire, so checkpoint
        // restores are covered too.
        assert_eq!(mitigation.is_some(), agent_hits + server_hits > 0, "grid {dropout:?}");

        let drone = |fault_seed: u64| {
            let cfg = DroneSystemConfig {
                n_drones: 3,
                seed: 7,
                pretrain_episodes: 2,
                train_max_steps: 20,
                dropout,
                mitigation,
                ..Default::default()
            };
            let mut sys = DroneFrlSystem::new(cfg).expect("valid config");
            sys.pretrain().expect("pre-training");
            sys.reseed_faults(fault_seed);
            sys.train(6, None, &mut BatchInferCtx::new()).expect("fine-tuning");
            let stats = sys.mitigation_stats();
            let bits: Vec<u32> =
                (0..3).flat_map(|i| sys.agent(i).network().snapshot()).map(f32::to_bits).collect();
            (bits, stats.agent_detections, stats.server_detections)
        };
        let (bits, agent_hits, server_hits) = drone(3);
        assert_eq!(
            (bits, agent_hits, server_hits),
            drone(17),
            "drone, dropout {dropout:?}, mitigation {mitigation:?}"
        );
        assert_eq!(mitigation.is_some(), agent_hits + server_hits > 0, "drone {dropout:?}");
    }
}
