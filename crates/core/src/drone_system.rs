use crate::config::{DroneLayout, DroneSystemConfig};
use crate::error::FrlfiError;
use crate::injection::MitigationStats;
use crate::injection::{InjectionPlan, ReprKind, TrainingMitigation};
use frlfi_envs::{DroneConfig, DroneSim, Environment, ObstacleMotion};
use frlfi_fault::{inject_slice_ber, Ber, FaultModel, FaultRecord, FaultSide};
use frlfi_federated::{RoundHook, Server};
use frlfi_mitigation::{Detection, RewardDropDetector, ServerCheckpoint};
use frlfi_nn::BatchInferCtx;
use frlfi_rl::{run_episode, run_episode_batched, run_greedy_episodes_batch, Learner, Reinforce};
use frlfi_tensor::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The complete federated drone-navigation system of §IV-B: a fleet of
/// drones fine-tuning a conv policy online (REINFORCE) in procedurally
/// generated corridor worlds, synchronized through the smoothing-average
/// server.
///
/// The paper's protocol is reproduced end to end: the policy is first
/// trained "offline" ([`DroneFrlSystem::pretrain`]) on one learner, the
/// fleet is then cloned from it, and faults are injected during online
/// fine-tuning or inference. The score is the average **safe flight
/// distance** before collision.
///
/// ```no_run
/// use frlfi::nn::BatchInferCtx;
/// use frlfi::{DroneFrlSystem, DroneSystemConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sys = DroneFrlSystem::new(DroneSystemConfig::default())?;
/// sys.pretrain()?;
/// sys.fine_tune(40, None, None, &mut BatchInferCtx::new())?;
/// println!("distance = {:.0} m", sys.safe_flight_distance(4));
/// # Ok(())
/// # }
/// ```
pub struct DroneFrlSystem {
    cfg: DroneSystemConfig,
    drones: Vec<Reinforce>,
    envs: Vec<DroneSim>,
    server: Option<Server>,
    rng: StdRng,
    drone_rngs: Vec<StdRng>,
    dropout_rng: StdRng,
    episodes_done: usize,
    comm_rounds: usize,
    pending_server_fault: Option<InjectionPlan>,
    last_records: Vec<FaultRecord>,
    mitigation_stats: MitigationStats,
    pretrained: bool,
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
    /// Returns [`FrlfiError::BadConfig`] for zero drones or a dropout
    /// probability outside `[0, 1)`, or propagates construction errors.
    pub fn new(cfg: DroneSystemConfig) -> Result<Self, FrlfiError> {
        let mut cfg = cfg;
        if cfg.n_drones == 0 {
            return Err(FrlfiError::BadConfig { detail: "n_drones must be ≥ 1".into() });
        }
        if let Some(p) = cfg.dropout {
            if !(0.0..1.0).contains(&p) {
                return Err(FrlfiError::BadConfig {
                    detail: format!("dropout probability {p} must lie in [0, 1)"),
                });
            }
        }
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
        let template = Reinforce::drone_default(&mut init_rng)?;
        let drones: Vec<Reinforce> = (0..cfg.n_drones).map(|_| template.clone()).collect();
        let train_sim = DroneConfig { max_steps: cfg.train_max_steps, ..cfg.sim };
        let envs: Vec<DroneSim> = (0..cfg.n_drones)
            .map(|i| DroneSim::new(train_sim, derive_seed(cfg.seed, 0x0E00 + i as u64)))
            .collect();
        let drone_rngs = (0..cfg.n_drones)
            .map(|i| StdRng::seed_from_u64(derive_seed(cfg.seed, 0x0A00 + i as u64)))
            .collect();
        let server = if cfg.n_drones >= 2 {
            Some(Server::new(cfg.n_drones, template.network().param_count())?)
        } else {
            None
        };
        Ok(DroneFrlSystem {
            rng: StdRng::seed_from_u64(derive_seed(cfg.seed, 0x51D)),
            dropout_rng: StdRng::seed_from_u64(derive_seed(cfg.seed, 0xD80)),
            drones,
            envs,
            server,
            drone_rngs,
            episodes_done: 0,
            comm_rounds: 0,
            pending_server_fault: None,
            last_records: Vec::new(),
            mitigation_stats: MitigationStats::default(),
            pretrained: false,
            cfg,
        })
    }

    /// The system configuration.
    pub fn config(&self) -> &DroneSystemConfig {
        &self.cfg
    }

    /// Number of drones.
    pub fn n_drones(&self) -> usize {
        self.cfg.n_drones
    }

    /// Immutable access to one drone's learner.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn drone(&self, i: usize) -> &Reinforce {
        &self.drones[i]
    }

    /// Mutable access to one drone's learner (fault surface).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn drone_mut(&mut self, i: usize) -> &mut Reinforce {
        &mut self.drones[i]
    }

    /// Records of the most recent injection.
    pub fn last_fault_records(&self) -> &[FaultRecord] {
        &self.last_records
    }

    /// Replaces the fault-injection random stream.
    ///
    /// Campaigns train one system from a fixed configuration seed and
    /// then vary only this stream across repeats, so cell statistics
    /// measure fault impact rather than training variance (the paper
    /// repeats each injection on the same trained system).
    pub fn reseed_faults(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Detection/recovery counters accumulated by mitigated training
    /// runs (reset at the start of each mitigated call).
    pub fn mitigation_stats(&self) -> MitigationStats {
        self.mitigation_stats
    }

    /// Drops every drone's layer input caches ([`frlfi_nn::Network::eval_mode`]),
    /// shrinking resident memory for the eval-only phase of a campaign
    /// trial. Fine-tuning transparently re-caches.
    pub fn eval_mode(&mut self) {
        for drone in &mut self.drones {
            drone.network_mut().eval_mode();
        }
    }

    /// Offline pre-training (§IV-B-1): REINFORCE on a single learner,
    /// whose weights then seed the whole fleet. Idempotent — repeated
    /// calls do nothing.
    ///
    /// # Errors
    ///
    /// Propagates restore failures.
    pub fn pretrain(&mut self) -> Result<(), FrlfiError> {
        if self.pretrained {
            return Ok(());
        }
        let mut learner = self.drones[0].clone();
        let mut env = DroneSim::new(
            DroneConfig { max_steps: self.cfg.train_max_steps, ..self.cfg.sim },
            derive_seed(self.cfg.seed, 0x0FF),
        );
        let mut rng = StdRng::seed_from_u64(derive_seed(self.cfg.seed, 0x0FF + 1));
        // Pre-training is the one production use of the per-observation
        // reference path: batching it needs a bounded REINFORCE arena
        // first (see ROADMAP). Campaigns share the one pretrained weight
        // vector across cells.
        for _ in 0..self.cfg.pretrain_episodes {
            run_episode(&mut env, &mut learner, &mut rng)?;
        }
        let weights = learner.network().snapshot();
        for d in &mut self.drones {
            d.network_mut().restore(&weights)?;
        }
        self.pretrained = true;
        Ok(())
    }

    /// Seeds the whole fleet from a flat weight vector (e.g. an
    /// offline-pretrained policy shared across campaign cells) and marks
    /// pre-training done.
    ///
    /// # Errors
    ///
    /// Propagates restore failures on length mismatch.
    pub fn set_fleet_weights(&mut self, weights: &[f32]) -> Result<(), FrlfiError> {
        for d in &mut self.drones {
            d.network_mut().restore(weights)?;
        }
        self.pretrained = true;
        Ok(())
    }

    /// Flat weights of drone 0 (the fleet consensus after aggregation).
    pub fn fleet_weights(&self) -> Vec<f32> {
        self.drones[0].network().snapshot()
    }

    /// Online federated fine-tuning for `episodes` episodes, optionally
    /// applying a dynamic [`InjectionPlan`] (episode index relative to
    /// this call) and the training-time mitigation scheme. Every
    /// drone's per-episode REINFORCE update runs as one batched
    /// forward/backward over the episode's kept steps through `ctx`'s
    /// cached-activation arena ([`frlfi_rl::run_episode_batched`]),
    /// bit-identical to the per-observation reference
    /// [`frlfi_rl::run_episode`].
    ///
    /// # Errors
    ///
    /// Propagates training, aggregation or restore failures.
    pub fn fine_tune(
        &mut self,
        episodes: usize,
        plan: Option<&InjectionPlan>,
        mitigation: Option<&TrainingMitigation>,
        ctx: &mut BatchInferCtx,
    ) -> Result<(), FrlfiError> {
        let mut detector = mitigation
            .map(|m| RewardDropDetector::new(m.p_percent, m.k_consecutive, self.cfg.n_drones));
        let mut checkpoint = mitigation.map(|m| ServerCheckpoint::new(m.checkpoint_interval));
        if mitigation.is_some() {
            self.mitigation_stats = MitigationStats::default();
        }

        for ep in 0..episodes {
            let global_ep = self.episodes_done + ep;
            let mut rewards = Vec::with_capacity(self.cfg.n_drones);
            for i in 0..self.cfg.n_drones {
                self.drones[i].set_episode(global_ep);
                let (env, drone, rng) =
                    (&mut self.envs[i], &mut self.drones[i], &mut self.drone_rngs[i]);
                rewards.push(run_episode_batched(env, drone, rng, ctx)?.total_reward);
            }

            if let Some(p) = plan {
                if p.episode == ep {
                    self.inject_now(p);
                }
            }

            if self.server.is_some() && self.cfg.comm.communicates_at(global_ep) {
                self.communicate()?;
                if let Some(cp) = checkpoint.as_mut() {
                    let server = self.server.as_ref().expect("server present");
                    cp.on_round(self.comm_rounds, server.consensus());
                }
            }

            if let (Some(det), Some(cp)) = (detector.as_mut(), checkpoint.as_ref()) {
                match det.observe(&rewards) {
                    Detection::None => {}
                    Detection::AgentFault(ids) => {
                        self.mitigation_stats.agent_detections += 1;
                        for id in ids {
                            self.restore_drone_from(cp, id)?;
                        }
                    }
                    Detection::ServerFault => {
                        self.mitigation_stats.server_detections += 1;
                        self.restore_all_from(cp)?;
                    }
                }
            }
        }
        self.episodes_done += episodes;
        Ok(())
    }

    fn restore_drone_from(&mut self, cp: &ServerCheckpoint, i: usize) -> Result<(), FrlfiError> {
        let mut buf = self.drones[i].network().snapshot();
        if cp.restore_into(&mut buf) {
            self.drones[i].network_mut().restore(&buf)?;
        }
        Ok(())
    }

    fn restore_all_from(&mut self, cp: &ServerCheckpoint) -> Result<(), FrlfiError> {
        for i in 0..self.cfg.n_drones {
            self.restore_drone_from(cp, i)?;
        }
        if let (Some(server), Some(snap)) = (self.server.as_mut(), cp.stored()) {
            server.consensus_mut().copy_from_slice(snap);
        }
        Ok(())
    }

    /// Applies an injection plan *now* (between episodes).
    pub fn inject_now(&mut self, plan: &InjectionPlan) {
        match plan.side {
            FaultSide::AgentSide => {
                let victim = self.rng.gen_range(0..self.cfg.n_drones);
                self.inject_drone(victim, plan);
            }
            FaultSide::ServerSide => {
                if self.server.is_some() {
                    self.pending_server_fault = Some(*plan);
                } else {
                    self.inject_drone(0, plan);
                }
            }
        }
    }

    fn inject_drone(&mut self, victim: usize, plan: &InjectionPlan) {
        let repr = plan.repr.materialize(self.drones[victim].network());
        let mut snap = self.drones[victim].network().snapshot();
        let records = inject_slice_ber(&mut snap, repr, plan.model, plan.ber, &mut self.rng);
        self.drones[victim].network_mut().restore(&snap).expect("snapshot length invariant");
        self.last_records = records;
    }

    fn communicate(&mut self) -> Result<(), FrlfiError> {
        // Wall-clock accounting only (thread-local, aggregated —
        // federated aggregation runs once per communication round).
        let _aggregate = frlfi_obs::timed("aggregate");
        // Draw the participant mask before borrowing the server, and
        // draw it even when a round ends up skipped, so the dropout
        // stream stays aligned with the round index (the grid system's
        // contract).
        let participants: Option<Vec<bool>> = self.cfg.dropout.map(|p| {
            (0..self.cfg.n_drones).map(|_| !self.dropout_rng.gen_bool(f64::from(p))).collect()
        });
        if let Some(mask) = &participants {
            if mask.iter().filter(|&&p| p).count() < 2 {
                // Too few participants: the round is skipped entirely.
                // Leave any pending server fault queued — server memory
                // is only exposed during an actual aggregation.
                self.comm_rounds += 1;
                return Ok(());
            }
        }

        let server = self.server.as_mut().expect("communicate requires a server");
        let mut uploads: Vec<Vec<f32>> =
            self.drones.iter().map(|d| d.network().snapshot()).collect();
        let mut hook = ServerFaultHook {
            plan: self.pending_server_fault.take(),
            rng: StdRng::seed_from_u64(self.rng.gen()),
            records: Vec::new(),
        };
        match participants {
            None => {
                let outputs = server.aggregate_with_hook(&mut uploads, &mut hook)?;
                for (drone, out) in self.drones.iter_mut().zip(outputs.iter()) {
                    drone.network_mut().restore(out)?;
                }
            }
            Some(mask) => {
                let outputs = server.aggregate_subset(&mut uploads, &mask, &mut hook)?;
                for (drone, out) in self.drones.iter_mut().zip(outputs.iter()) {
                    if let Some(out) = out {
                        drone.network_mut().restore(out)?;
                    }
                }
            }
        }
        if !hook.records.is_empty() {
            self.last_records = hook.records;
        }
        self.comm_rounds += 1;
        Ok(())
    }

    /// Average safe flight distance (m) of the fleet under greedy
    /// exploitation, over `attempts` evaluation corridors per drone.
    /// Evaluation uses the full step budget of `cfg.sim` regardless of
    /// the (shorter) training cap.
    pub fn safe_flight_distance(&mut self, attempts: usize) -> f64 {
        let mut ctx = BatchInferCtx::new();
        let mut total = 0.0;
        let mut count = 0;
        for i in 0..self.cfg.n_drones {
            for a in 0..attempts {
                let seed = derive_seed(self.cfg.seed, 0xEA17 + (i * attempts + a) as u64);
                let mut env = DroneSim::new(self.cfg.sim, seed);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x1);
                let mut state = env.reset(&mut rng);
                loop {
                    let action = self.drones[i]
                        .act_greedy_ctx(&state, &mut ctx)
                        .expect("drone policy and observation shapes are fixed at construction");
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

    /// [`DroneFrlSystem::safe_flight_distance`] on the **batched**
    /// inference fast path: each drone's `attempts` evaluation
    /// corridors run in lock-step, one batched forward per step over
    /// the drone's conv policy ([`frlfi_rl::run_greedy_episodes_batch`]),
    /// retiring finished corridors from the batch. Every batched action
    /// is bit-identical to single-observation greedy selection and
    /// every corridor keeps its own seed-derived environment and RNG
    /// streams, so the returned distance matches
    /// [`DroneFrlSystem::safe_flight_distance`] bit for bit.
    pub fn safe_flight_distance_batched(
        &mut self,
        attempts: usize,
        ctx: &mut BatchInferCtx,
    ) -> f64 {
        let mut total = 0.0;
        let mut count = 0;
        for i in 0..self.cfg.n_drones {
            // One derivation per corridor, shared by its env and RNG,
            // so the pair can never desynchronize from the sequential
            // path's seed scheme.
            let seeds: Vec<u64> = (0..attempts)
                .map(|a| derive_seed(self.cfg.seed, 0xEA17 + (i * attempts + a) as u64))
                .collect();
            let mut envs: Vec<DroneSim> =
                seeds.iter().map(|&s| DroneSim::new(self.cfg.sim, s)).collect();
            let mut rngs: Vec<StdRng> =
                seeds.iter().map(|&s| StdRng::seed_from_u64(s ^ 0x1)).collect();
            run_greedy_episodes_batch(&mut self.drones[i], &mut envs, &mut rngs, ctx)
                .expect("drone policy and observation shapes are fixed at construction");
            // Sum in the exact (drone, attempt) order of the sequential
            // path so the mean folds identically.
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

    /// Runs `f` with every drone's policy corrupted by a static
    /// inference-time fault, then restores the clean weights.
    pub fn with_faulted_policies<T>(
        &mut self,
        model: FaultModel,
        ber: Ber,
        repr: ReprKind,
        seed: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let clean: Vec<Vec<f32>> = self.drones.iter().map(|d| d.network().snapshot()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for drone in &mut self.drones {
            let repr = repr.materialize(drone.network());
            let mut snap = drone.network().snapshot();
            // Deploy-time quantization: faults strike the encoded form.
            for w in &mut snap {
                *w = repr.quantize(*w);
            }
            inject_slice_ber(&mut snap, repr, model, ber, &mut rng);
            drone.network_mut().restore(&snap).expect("snapshot length invariant");
        }
        let out = f(self);
        for (drone, snap) in self.drones.iter_mut().zip(clean.iter()) {
            drone.network_mut().restore(snap).expect("snapshot length invariant");
        }
        out
    }
}

/// Server-memory fault hook (same semantics as the GridWorld system's).
struct ServerFaultHook {
    plan: Option<InjectionPlan>,
    rng: StdRng,
    records: Vec<FaultRecord>,
}

impl RoundHook for ServerFaultHook {
    fn on_server(&mut self, outputs: &mut [Vec<f32>]) {
        let Some(plan) = self.plan.take() else { return };
        let mut flat: Vec<f32> = outputs.iter().flatten().copied().collect();
        let repr = plan.repr.materialize_for(&flat);
        self.records = inject_slice_ber(&mut flat, repr, plan.model, plan.ber, &mut self.rng);
        let mut off = 0;
        for out in outputs.iter_mut() {
            let n = out.len();
            out.copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let w0 = s.drone(0).network().snapshot();
        for i in 1..3 {
            assert_eq!(s.drone(i).network().snapshot(), w0);
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
        let w = s.drone(0).network().snapshot();
        s.pretrain().unwrap();
        assert_eq!(s.drone(0).network().snapshot(), w);
    }

    #[test]
    fn fine_tune_runs_and_counts_episodes() {
        let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
        s.pretrain().unwrap();
        s.fine_tune(3, None, None, &mut BatchInferCtx::new()).unwrap();
        assert_eq!(s.episodes_done, 3);
    }

    #[test]
    fn server_fault_applies_at_next_round() {
        let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
        s.pretrain().unwrap();
        let plan = InjectionPlan::server(0, Ber::new(0.01).unwrap()).with_repr(ReprKind::F32);
        s.fine_tune(2, Some(&plan), None, &mut BatchInferCtx::new()).unwrap();
        assert!(!s.last_fault_records().is_empty());
    }

    #[test]
    fn flight_distance_is_positive_and_bounded() {
        let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
        let d = s.safe_flight_distance(1);
        let max = s.config().sim.max_steps as f64 * s.config().sim.speed as f64;
        assert!(d > 0.0 && d <= max, "distance {d} out of range (max {max})");
    }

    #[test]
    fn batched_flight_distance_matches_sequential_bitwise() {
        let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
        s.pretrain().unwrap();
        s.fine_tune(2, None, None, &mut BatchInferCtx::new()).unwrap();
        for attempts in [1usize, 3] {
            let seq = s.safe_flight_distance(attempts);
            let bat = s.safe_flight_distance_batched(attempts, &mut BatchInferCtx::new());
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
        bat.fine_tune(4, None, None, &mut BatchInferCtx::new()).unwrap();
        // The per-observation reference path ([`frlfi_rl::run_episode`]).
        let mut seq = fresh();
        for ep in 0..4 {
            for i in 0..2 {
                seq.drones[i].set_episode(ep);
                run_episode(&mut seq.envs[i], &mut seq.drones[i], &mut seq.drone_rngs[i]).unwrap();
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
        s.fine_tune(2, None, None, &mut BatchInferCtx::new()).unwrap();
        let d = s.safe_flight_distance(1);
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
            s.safe_flight_distance(4)
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
        s.fine_tune(2, None, None, &mut BatchInferCtx::new()).unwrap();
        for attempts in [1usize, 3] {
            let seq = s.safe_flight_distance(attempts);
            let bat = s.safe_flight_distance_batched(attempts, &mut BatchInferCtx::new());
            assert_eq!(bat.to_bits(), seq.to_bits(), "attempts {attempts}");
        }
    }

    #[test]
    fn dropout_fine_tuning_is_deterministic_and_differs_from_reliable_links() {
        let cfg = DroneSystemConfig { dropout: Some(0.3), ..tiny_cfg(3) };
        let run = |cfg: &DroneSystemConfig| {
            let mut s = DroneFrlSystem::new(cfg.clone()).unwrap();
            s.pretrain().unwrap();
            s.fine_tune(6, None, None, &mut BatchInferCtx::new()).unwrap();
            s.drone(0).network().snapshot()
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
        let plan = InjectionPlan::server(0, Ber::new(0.05).unwrap()).with_repr(ReprKind::F32);
        s.inject_now(&plan);
        s.fine_tune(80, None, None, &mut BatchInferCtx::new()).unwrap();
        assert!(
            !s.last_fault_records().is_empty(),
            "server fault was dropped without ever striking server memory"
        );
    }

    #[test]
    fn static_fault_restores_weights() {
        let mut s = DroneFrlSystem::new(tiny_cfg(2)).unwrap();
        let before = s.drone(0).network().snapshot();
        let _ = s.with_faulted_policies(
            FaultModel::TransientMulti,
            Ber::new(0.001).unwrap(),
            ReprKind::F32,
            3,
            |sys| sys.safe_flight_distance(1),
        );
        assert_eq!(s.drone(0).network().snapshot(), before);
    }
}
