//! Reproducibility guarantees: identical seeds yield identical systems,
//! campaigns, and fault sites — thread count included.

use frlfi::fault::{inject_slice_ber, sweep_with_threads, Ber, DataRepr, FaultModel};
use frlfi::nn::BatchInferCtx;
use frlfi::rl::Learner;
use frlfi::{GridFrlSystem, GridSystemConfig, InjectionPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn training_is_bitwise_reproducible() {
    let run = |seed: u64| {
        let mut sys =
            GridFrlSystem::new(GridSystemConfig { n_agents: 3, seed, ..Default::default() })
                .expect("valid config");
        sys.train(80, None, None, &mut BatchInferCtx::new()).expect("training");
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
        sys.train(60, Some(&plan), None, &mut BatchInferCtx::new()).expect("training");
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
