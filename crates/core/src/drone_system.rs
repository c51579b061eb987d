use crate::config::{DroneLayout, DroneSystemConfig};
use crate::error::FrlfiError;
use crate::fleet::{check_dropout, Fleet, FleetConfig, ForkLearner, Mitigation};
use frlfi_envs::{DroneConfig, DroneSim, ObstacleMotion};
use frlfi_federated::Server;
use frlfi_nn::BatchInferCtx;
use frlfi_rl::{run_episode_batched, run_greedy_episodes_batch, Learner, Reinforce};
use frlfi_tensor::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The complete federated drone-navigation system of §IV-B: a fleet of
/// drones fine-tuning a conv policy online (REINFORCE) in procedurally
/// generated corridor worlds, synchronized through the smoothing-average
/// server. Training, injection and mitigation are the shared [`Fleet`]
/// protocol.
///
/// The paper's protocol is reproduced end to end: the policy is first
/// trained "offline" ([`DroneFrlSystem::pretrain`]) on one learner, the
/// fleet is then cloned from it, and faults are injected during online
/// fine-tuning ([`Fleet::train`]) or inference. The score is the average
/// **safe flight distance** before collision.
///
/// ```no_run
/// use frlfi::nn::BatchInferCtx;
/// use frlfi::{DroneFrlSystem, DroneSystemConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sys = DroneFrlSystem::new(DroneSystemConfig::default())?;
/// sys.pretrain()?;
/// let ctx = &mut BatchInferCtx::new();
/// sys.train(40, None, ctx)?;
/// println!("distance = {:.0} m", sys.safe_flight_distance(4, ctx));
/// # Ok(())
/// # }
/// ```
pub type DroneFrlSystem = Fleet<Reinforce, DroneSim, DroneSystemConfig>;

impl FleetConfig for DroneSystemConfig {
    type Learner = Reinforce;
    type Env = DroneSim;

    fn build(self) -> Result<DroneFrlSystem, FrlfiError> {
        DroneFrlSystem::new(self)
    }
}

/// Besides its weights, REINFORCE carries its reward baseline from one
/// episode to the next.
impl ForkLearner for Reinforce {
    type State = f32;

    fn fork_state(&self) -> f32 {
        self.baseline()
    }

    fn resume_state(&mut self, baseline: &f32) {
        self.set_baseline(*baseline);
    }
}

impl DroneFrlSystem {
    /// Builds the fleet; all randomness derives from `cfg.seed`.
    ///
    /// A [`DroneLayout::DynamicObstacles`] layout is normalized into
    /// the stored config: `sim.dynamic` is set to the default
    /// [`ObstacleMotion`] (unless already set), so training, evaluation
    /// and in-system pre-training all see the moving-obstacle world.
    ///
    /// # Errors
    ///
    /// Returns [`FrlfiError::BadConfig`] for zero drones, a dropout
    /// probability outside `[0, 1)`, or an invalid mitigation (including
    /// any on a single drone, which has no server to checkpoint), or
    /// propagates construction errors.
    pub fn new(cfg: DroneSystemConfig) -> Result<Self, FrlfiError> {
        let mut cfg = cfg;
        if cfg.n_drones == 0 {
            return Err(FrlfiError::BadConfig { detail: "n_drones must be ≥ 1".into() });
        }
        check_dropout(cfg.dropout)?;
        if cfg.layout == DroneLayout::DynamicObstacles && cfg.sim.dynamic.is_none() {
            cfg.sim.dynamic = Some(ObstacleMotion::default());
        }
        if let Some(m) = cfg.sim.dynamic {
            // Catch degenerate motion here as a recoverable error; the
            // simulator itself only asserts.
            if !(m.amplitude.is_finite() && m.period.is_finite() && m.period > 0.0) {
                return Err(FrlfiError::BadConfig {
                    detail: format!(
                        "obstacle motion amplitude {} / period {} must be finite with period > 0",
                        m.amplitude, m.period
                    ),
                });
            }
        }
        let mut init_rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 0xD0E));
        let template = Reinforce::drone_default(&mut init_rng)?.with_tape_rows(cfg.train_max_steps);
        let agents: Vec<Reinforce> = (0..cfg.n_drones).map(|_| template.clone()).collect();
        let train_sim = DroneConfig { max_steps: cfg.train_max_steps, ..cfg.sim };
        let envs: Vec<DroneSim> = (0..cfg.n_drones)
            .map(|i| DroneSim::new(train_sim, derive_seed(cfg.seed, 0x0E00 + i as u64)))
            .collect();
        let agent_rngs = (0..cfg.n_drones)
            .map(|i| StdRng::seed_from_u64(derive_seed(cfg.seed, 0x0A00 + i as u64)))
            .collect();
        let server = if cfg.n_drones >= 2 {
            Some(Server::new(cfg.n_drones, template.network().param_count())?)
        } else {
            None
        };
        Ok(Fleet {
            rng: StdRng::seed_from_u64(derive_seed(cfg.seed, 0x51D)),
            dropout_rng: StdRng::seed_from_u64(derive_seed(cfg.seed, 0xD80)),
            schedule: cfg.comm,
            dropout: cfg.dropout,
            agents,
            envs,
            server,
            agent_rngs,
            episodes_done: 0,
            comm_rounds: 0,
            fault_draws: 0,
            injected: false,
            pending_server_fault: None,
            last_records: Vec::new(),
            mitigation: Mitigation::new(cfg.mitigation, cfg.n_drones)?,
            pretrained: false,
            cfg,
        })
    }

    /// Offline pre-training (§IV-B-1): REINFORCE on a single learner,
    /// whose weights then seed the whole fleet. Idempotent — repeated
    /// calls do nothing. The episodes run on a local arena
    /// ([`frlfi_rl::run_episode_batched`]), bit-identical to the
    /// per-observation reference [`frlfi_rl::run_episode`].
    ///
    /// # Errors
    ///
    /// Propagates training or restore failures.
    pub fn pretrain(&mut self) -> Result<(), FrlfiError> {
        if self.pretrained {
            return Ok(());
        }
        let mut learner = self.agents[0].clone();
        let mut env = DroneSim::new(
            DroneConfig { max_steps: self.cfg.train_max_steps, ..self.cfg.sim },
            derive_seed(self.cfg.seed, 0x0FF),
        );
        let mut rng = StdRng::seed_from_u64(derive_seed(self.cfg.seed, 0x0FF + 1));
        // The same arena path as fine-tuning; the episode-end update's
        // 32-row chunks bound the arena however long an episode runs.
        // Campaigns share the one pretrained weight vector across cells.
        let mut ctx = BatchInferCtx::new();
        for _ in 0..self.cfg.pretrain_episodes {
            run_episode_batched(&mut env, &mut learner, &mut rng, &mut ctx)?;
        }
        self.set_fleet_weights(&learner.network().snapshot())
    }

    /// Seeds the whole fleet from a flat weight vector (e.g. an
    /// offline-pretrained policy shared across campaign cells) and marks
    /// pre-training done.
    ///
    /// # Errors
    ///
    /// Propagates restore failures on length mismatch.
    pub(crate) fn set_fleet_weights(&mut self, weights: &[f32]) -> Result<(), FrlfiError> {
        for d in &mut self.agents {
            d.network_mut().restore(weights)?;
        }
        self.pretrained = true;
        Ok(())
    }

    /// Flat weights of drone 0 (the fleet consensus after aggregation).
    pub fn fleet_weights(&self) -> Vec<f32> {
        self.agents[0].network().snapshot()
    }

    /// Average safe flight distance (m) of the fleet under greedy
    /// exploitation, over `attempts` evaluation corridors per drone.
    /// Evaluation uses the full step budget of `cfg.sim` regardless of
    /// the (shorter) training cap.
    ///
    /// Each drone's corridors run in lock-step on `ctx`, at most one
    /// batched forward per step over the drone's conv policy (over the
    /// depth rows the runner's memo misses,
    /// [`frlfi_rl::run_greedy_episodes_batch`]), retiring finished
    /// corridors from the batch. Every batched action is bit-identical
    /// to single-observation greedy selection and every corridor keeps
    /// its own seed-derived environment and RNG streams, so the distance
    /// is the one corridor-by-corridor flights would give, bit for bit.
    pub fn safe_flight_distance(&mut self, attempts: usize, ctx: &mut BatchInferCtx) -> f64 {
        let mut total = 0.0;
        let mut count = 0;
        for i in 0..self.cfg.n_drones {
            // One derivation per corridor, shared by its env and RNG,
            // so the pair cannot desynchronize.
            let seeds: Vec<u64> = (0..attempts)
                .map(|a| derive_seed(self.cfg.seed, 0xEA17 + (i * attempts + a) as u64))
                .collect();
            let mut envs: Vec<DroneSim> =
                seeds.iter().map(|&s| DroneSim::new(self.cfg.sim, s)).collect();
            let mut rngs: Vec<StdRng> =
                seeds.iter().map(|&s| StdRng::seed_from_u64(s ^ 0x1)).collect();
            run_greedy_episodes_batch(&mut self.agents[i], &mut envs, &mut rngs, ctx)
                .expect("drone policy and observation shapes are fixed at construction");
            // Sum in (drone, attempt) order, so the mean folds as
            // corridor-by-corridor flights would.
            for env in &envs {
                total += env.distance() as f64;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InjectionPlan, ReprKind, TrainingMitigation};
    use frlfi_envs::Environment;
    use frlfi_fault::{Ber, FaultModel};
    use frlfi_rl::run_episode;

    /// The corridor-by-corridor flight distance: the oracle the
    /// lock-step [`DroneFrlSystem::safe_flight_distance`] must match
    /// bit for bit.
    fn safe_flight_distance_sequential(s: &mut DroneFrlSystem, attempts: usize) -> f64 {
        let mut ctx = BatchInferCtx::new();
        let mut total = 0.0;
        let mut count = 0;
        for i in 0..s.cfg.n_drones {
            for a in 0..attempts {
                let seed = derive_seed(s.cfg.seed, 0xEA17 + (i * attempts + a) as u64);
                let mut env = DroneSim::new(s.cfg.sim, seed);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x1);
                let mut state = env.reset(&mut rng);
                loop {
                    let action = s.agents[i].act_greedy_ctx(&state, &mut ctx).unwrap();
                    let step = env.step(action, &mut rng);
                    state = step.state;
                    if step.outcome.is_terminal() {
                        break;
                    }
                }
                total += env.distance() as f64;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    fn tiny_cfg(n: usize) -> DroneSystemConfig {
        DroneSystemConfig {
            n_drones: n,
            seed: 5,
            pretrain_episodes: 2,
            train_max_steps: 20,
            ..Default::default()
        }
    }

    #[test]
    fn fleet_starts_from_shared_weights() {
        let s = DroneFrlSystem::new(tiny_cfg(3)).unwrap();
        let w0 = s.agent(0).network().snapshot();
        for i in 1..3 {
            assert_eq!(s.agent(i).network().snapshot(), w0);
        }
    }

    #[test]
    fn rejects_zero_drones() {
        assert!(DroneFrlSystem::new(tiny_cfg(0)).is_err());
    }

    #[test]
    fn pretrain_is_idempotent() {
        let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
        s.pretrain().unwrap();
        let w = s.agent(0).network().snapshot();
        s.pretrain().unwrap();
        assert_eq!(s.agent(0).network().snapshot(), w);
    }

    #[test]
    fn train_runs_and_counts_episodes() {
        let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
        s.pretrain().unwrap();
        s.train(3, None, &mut BatchInferCtx::new()).unwrap();
        assert_eq!(s.episodes_done, 3);
    }

    #[test]
    fn server_fault_applies_at_next_round() {
        let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
        s.pretrain().unwrap();
        let plan = InjectionPlan {
            repr: ReprKind::F32,
            ..InjectionPlan::server(0, Ber::new(0.01).unwrap())
        };
        s.train(2, Some(&plan), &mut BatchInferCtx::new()).unwrap();
        assert!(!s.last_fault_records().is_empty());
    }

    #[test]
    fn flight_distance_is_positive_and_bounded() {
        let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
        let d = s.safe_flight_distance(1, &mut BatchInferCtx::new());
        let max = s.config().sim.max_steps as f64 * s.config().sim.speed as f64;
        assert!(d > 0.0 && d <= max, "distance {d} out of range (max {max})");
    }

    #[test]
    fn batched_flight_distance_matches_sequential_bitwise() {
        let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
        s.pretrain().unwrap();
        s.train(2, None, &mut BatchInferCtx::new()).unwrap();
        let ctx = &mut BatchInferCtx::new();
        for attempts in [1usize, 3] {
            let seq = safe_flight_distance_sequential(&mut s, attempts);
            let bat = s.safe_flight_distance(attempts, ctx);
            assert_eq!(bat.to_bits(), seq.to_bits(), "attempts {attempts}");
        }
    }

    #[test]
    fn batched_fine_tuning_matches_sequential_weights() {
        let fresh = || {
            let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
            s.pretrain().unwrap();
            s
        };
        let mut bat = fresh();
        bat.train(4, None, &mut BatchInferCtx::new()).unwrap();
        // The per-observation reference path ([`frlfi_rl::run_episode`]).
        let mut seq = fresh();
        for ep in 0..4 {
            for i in 0..2 {
                seq.agents[i].set_episode(ep);
                run_episode(&mut seq.envs[i], &mut seq.agents[i], &mut seq.agent_rngs[i]).unwrap();
            }
            if seq.cfg.comm.communicates_at(ep) {
                seq.communicate().unwrap();
            }
        }
        assert_eq!(
            bat.fleet_weights(),
            seq.fleet_weights(),
            "fine-tuned weights must be bit-identical across training paths"
        );
    }

    #[test]
    fn rejects_invalid_dropout() {
        let cfg = DroneSystemConfig { dropout: Some(1.5), ..tiny_cfg(2) };
        assert!(DroneFrlSystem::new(cfg).is_err());
        let cfg = DroneSystemConfig { dropout: Some(1.0), ..tiny_cfg(2) };
        assert!(DroneFrlSystem::new(cfg).is_err());
    }

    #[test]
    fn rejects_degenerate_obstacle_motion() {
        let sim = frlfi_envs::DroneConfig {
            dynamic: Some(ObstacleMotion { amplitude: 2.0, period: 0.0 }),
            ..frlfi_envs::DroneConfig::default()
        };
        let cfg = DroneSystemConfig { sim, ..tiny_cfg(2) };
        assert!(DroneFrlSystem::new(cfg).is_err(), "zero period would NaN every obstacle");
    }

    #[test]
    fn dynamic_layout_normalizes_sim_and_flies() {
        let cfg = DroneSystemConfig { layout: DroneLayout::DynamicObstacles, ..tiny_cfg(2) };
        let mut s = DroneFrlSystem::new(cfg).unwrap();
        assert!(s.config().sim.dynamic.is_some(), "layout must switch the sim to dynamic mode");
        s.pretrain().unwrap();
        s.train(2, None, &mut BatchInferCtx::new()).unwrap();
        let d = s.safe_flight_distance(1, &mut BatchInferCtx::new());
        let max = s.config().sim.max_steps as f64 * s.config().sim.speed as f64;
        assert!(d > 0.0 && d <= max, "distance {d} out of range (max {max})");
    }

    #[test]
    fn dynamic_layout_changes_evaluation() {
        // Short chunks put obstacles inside the flight path early, so
        // the oscillation is observable even by a barely trained policy.
        let sim = frlfi_envs::DroneConfig {
            chunk_len: 12.0,
            obstacles_per_chunk: 8,
            ..frlfi_envs::DroneConfig::default()
        };
        let run = |layout: DroneLayout| {
            let mut s =
                DroneFrlSystem::new(DroneSystemConfig { layout, sim, ..tiny_cfg(2) }).unwrap();
            s.safe_flight_distance(4, &mut BatchInferCtx::new())
        };
        assert_ne!(
            run(DroneLayout::Standard).to_bits(),
            run(DroneLayout::DynamicObstacles).to_bits(),
            "moving obstacles must be observable in the flight-distance metric"
        );
    }

    #[test]
    fn dynamic_batched_flight_distance_matches_sequential_bitwise() {
        // The lock-step corridor eval must handle per-drone dynamic
        // layouts: every corridor's obstacle clock is its own episode
        // step counter, which batch retirement must not disturb.
        let cfg = DroneSystemConfig { layout: DroneLayout::DynamicObstacles, ..tiny_cfg(2) };
        let mut s = DroneFrlSystem::new(cfg).unwrap();
        s.pretrain().unwrap();
        s.train(2, None, &mut BatchInferCtx::new()).unwrap();
        let ctx = &mut BatchInferCtx::new();
        for attempts in [1usize, 3] {
            let seq = safe_flight_distance_sequential(&mut s, attempts);
            let bat = s.safe_flight_distance(attempts, ctx);
            assert_eq!(bat.to_bits(), seq.to_bits(), "attempts {attempts}");
        }
    }

    #[test]
    fn dropout_fine_tuning_is_deterministic_and_differs_from_reliable_links() {
        let cfg = DroneSystemConfig { dropout: Some(0.3), ..tiny_cfg(3) };
        let run = |cfg: &DroneSystemConfig| {
            let mut s = DroneFrlSystem::new(cfg.clone()).unwrap();
            s.pretrain().unwrap();
            s.train(6, None, &mut BatchInferCtx::new()).unwrap();
            s.agent(0).network().snapshot()
        };
        assert_eq!(run(&cfg), run(&cfg), "dropout masks must derive from the config seed");
        assert_ne!(run(&cfg), run(&tiny_cfg(3)), "dropout must alter the fine-tuning trajectory");
    }

    #[test]
    fn pending_server_fault_survives_skipped_dropout_rounds() {
        // With 80% dropout most rounds lack the 2 participants an
        // aggregation needs; the queued server fault must stay pending
        // until a round actually aggregates.
        let cfg = DroneSystemConfig { dropout: Some(0.8), ..tiny_cfg(3) };
        let mut s = DroneFrlSystem::new(cfg).unwrap();
        s.pretrain().unwrap();
        let plan = InjectionPlan {
            repr: ReprKind::F32,
            ..InjectionPlan::server(0, Ber::new(0.05).unwrap())
        };
        s.inject_now(&plan);
        s.train(80, None, &mut BatchInferCtx::new()).unwrap();
        assert!(
            !s.last_fault_records().is_empty(),
            "server fault was dropped without ever striking server memory"
        );
    }

    #[test]
    fn fork_continues_a_prefix_bitwise() {
        // The DroneNav twin of the GridWorld fork test: half the rounds
        // skip under heavy dropout, so the replayed draw count is not
        // the round count, and REINFORCE's reward baseline must come
        // back with the weights.
        // The mitigated case's tight detector fires before and after
        // the fork, so the fork must carry its state.
        let tight =
            TrainingMitigation { p_percent: 10.0, k_consecutive: 2, checkpoint_interval: 2 };
        for mitigation in [None, Some(tight)] {
            let cfg = DroneSystemConfig { dropout: Some(0.5), mitigation, ..tiny_cfg(3) };
            let fresh = || {
                let mut s = DroneFrlSystem::new(cfg.clone()).unwrap();
                s.pretrain().unwrap();
                s
            };
            let plan = InjectionPlan::server(6, Ber::new(0.01).unwrap());
            let mut whole = fresh();
            whole.reseed_faults(5);
            whole.train(12, Some(&plan), &mut BatchInferCtx::new()).unwrap();

            let mut prefix = fresh();
            prefix.train(6, None, &mut BatchInferCtx::new()).unwrap();
            let snap = prefix.prefix().unwrap();
            let stop = snap.stop();
            assert_eq!(stop.episodes_done, 6);
            assert!(stop.fault_draws < stop.comm_rounds, "no round was skipped");
            assert!((0..3).all(|i| prefix.agent(i).baseline() != 0.0), "baselines untested");
            let mut forked = DroneFrlSystem::fork(&snap, 5).unwrap();
            let shifted = InjectionPlan { episode: 0, ..plan };
            forked.train(6, Some(&shifted), &mut BatchInferCtx::new()).unwrap();

            let bits = |s: &DroneFrlSystem, i: usize| -> Vec<u32> {
                s.agent(i).network().snapshot().iter().map(|w| w.to_bits()).collect()
            };
            for i in 0..3 {
                assert_eq!(bits(&whole, i), bits(&forked, i), "drone {i}, {mitigation:?}");
                let (w, f) = (whole.agent(i).baseline(), forked.agent(i).baseline());
                assert_eq!(w.to_bits(), f.to_bits());
            }
            assert_eq!(whole.last_fault_records(), forked.last_fault_records());
            assert!(!forked.last_fault_records().is_empty());
            assert_eq!(whole.mitigation_stats(), forked.mitigation_stats());
            if mitigation.is_some() {
                let before = prefix.mitigation_stats().total();
                assert!(before > 0, "the detector never fired before the fork");
                assert!(forked.mitigation_stats().total() > before, "nor after it");
            }
            let ctx = &mut BatchInferCtx::new();
            assert_eq!(
                whole.safe_flight_distance(2, ctx).to_bits(),
                forked.safe_flight_distance(2, ctx).to_bits()
            );
        }
    }

    #[test]
    fn static_fault_restores_weights() {
        let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
        let before = s.agent(0).network().snapshot();
        let _ = s.with_faulted_policies(
            FaultModel::TransientMulti,
            Ber::new(0.001).unwrap(),
            ReprKind::F32,
            3,
            |sys| sys.safe_flight_distance(1, &mut BatchInferCtx::new()),
        );
        assert_eq!(s.agent(0).network().snapshot(), before);
    }
}
